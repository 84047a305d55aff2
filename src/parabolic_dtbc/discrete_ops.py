"""The energy forms of the scheme on a mesh, and the constants of its bounds.

Grid vectors hold node values ``W_0 .. W_J``; the forms reduce over the
last axis, so an argument may be one vector of length ``J + 1`` or a
block of levels of shape ``(n, J + 1)``, and a form then returns one
value per level.  A :class:`~parabolic_dtbc.problem.Mesh` supplies the
step arrays.  Step arrays are 1-based: ``mesh.h[j]`` is the step ending
at node ``j`` and ``mesh.hbar[j]`` the half-sum of the two steps around
node ``j`` (index 0 of either array is NaN).

The energy analysis rests on two bilinear forms, both an
:class:`EnergyForm`: the weighted-mass form (``rho_h``, end value
``rho_h[J]``) and the elliptic form (``c_h``, end value ``c_inf``, flux
weights ``b_h``).  Both take vectors vanishing at the first node and are
symmetric for averaging weights ``theta <= 1/4``.  :class:`NormSet` holds
the constants of the a-priori bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dtbc_kernel import check_weights


@dataclass(frozen=True)
class NormSet:
    """Constants steering the energy estimates for one (sigma, theta) pair.

    ``c_theta = 1 - 4*max(theta, 0)`` is the lower equivalence constant of
    the weighted-mass norm, clamped at 0 for the theta slightly above 1/4
    that :func:`check_weights` admits as roundoff; ``K_sigma = 2*(sigma +
    |1 - sigma|)`` bounds the time-averaging operator.  ``K_sigma >= 2``
    always holds.
    """

    sigma: float
    theta: float

    def __post_init__(self):
        check_weights(self.sigma, self.theta)
        object.__setattr__(
            self, "c_theta", max(1.0 - 4.0 * max(self.theta, 0.0), 0.0))
        object.__setattr__(
            self, "K_sigma", 2.0 * (self.sigma + abs(1.0 - self.sigma)))


class EnergyForm:
    """Bilinear form of the energy analysis with its stencil weights.

    Q(U, W) = sum_{j=1..J} b_j (U_j - U_{j-1}) (W_j - W_{j-1}) / h_j
            + sum_{j=1..J-1} hbar_j W_j (C_theta U)_j
            + kappa_end (theta U_{J-1} + (1/2 - theta) U_J) W_J h_J,

    where C_theta is the averaged multiplication by the midpoint-sampled
    coefficient ``kappa`` and the flux sum is present only when ``b_h`` is
    given.  The weights are computed once here, so one instance serves any
    number of levels; every method reduces over the last axis.
    """

    def __init__(self, mesh, theta: float, kappa, kappa_end: float, b_h=None):
        check_weights(None, theta)
        J = mesh.J
        h, hb = mesh.h, mesh.hbar[1:J]
        s_hat = (h[1:J] * kappa[1:J] + h[2:J + 1] * kappa[2:J + 1]) / (2.0 * hb)
        self._lo = theta * (h[1:J] / hb) * kappa[1:J]
        self._mid = (1.0 - 2.0 * theta) * s_hat
        self._hi = theta * (h[2:J + 1] / hb) * kappa[2:J + 1]
        self._hbar = hb
        self._end = (theta, 0.5 - theta, kappa_end * h[J])
        self._flux = None if b_h is None else b_h[1:] / h[1:]

    def averaged(self, W):
        """(C_theta W)_j at the interior nodes j = 1..J-1."""
        return (self._lo * W[..., :-2] + self._mid * W[..., 1:-1]
                + self._hi * W[..., 2:])

    def flux(self, U, W):
        """sum_j b_j (U_j - U_{j-1}) (W_j - W_{j-1}) / h_j."""
        dU = np.diff(U, axis=-1)
        dW = dU if W is U else np.diff(W, axis=-1)
        return (dU * dW) @ self._flux

    def evaluate(self, U, W):
        """Q(U, W), one value per level."""
        inner, outer, end = self._end
        val = (self.averaged(U) * W[..., 1:-1]) @ self._hbar
        val += end * (inner * U[..., -2] + outer * U[..., -1]) * W[..., -1]
        if self._flux is not None:
            val += self.flux(U, W)
        return val
