"""Spatial averages, inner products and the energy forms on a mesh.

All functions operate on grid vectors of length ``J + 1`` (node values
``W_0 .. W_J``) together with a :class:`~parabolic_dtbc.problem.Mesh`
supplying the step arrays.  Step arrays are 1-based: ``mesh.h[j]`` is the
step ending at node ``j`` and ``mesh.hbar[j]`` the half-sum of the two
steps around node ``j`` (index 0 of either array is NaN).

The energy analysis of the scheme lives on top of two bilinear forms:
a weighted-mass form (:func:`form_mass`) and an elliptic form
(:func:`form_elliptic`).  Both are restricted to vectors vanishing at the
left boundary and are symmetric for averaging weights ``theta <= 1/4``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dtbc_kernel import check_weights


def _check_lengths(mesh, *vectors) -> None:
    for v in vectors:
        if np.asarray(v).shape != (mesh.J + 1,):
            raise ValueError(
                f"grid vector of length {len(v)} does not match mesh with J={mesh.J}")


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Node values ``W_0 .. W_J`` with an optional left-anchored flag.

    ``anchored=True`` asserts membership in the subspace of vectors that
    vanish at the left boundary node, which the bilinear forms require.
    """

    values: np.ndarray
    anchored: bool = False

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise ValueError("grid function must be a 1-d vector")
        if self.anchored and values[0] != 0.0:
            raise ValueError("anchored grid function must vanish at the first node")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class NormSet:
    """Constants steering the energy estimates for one (sigma, theta) pair.

    ``c_theta = 1 - 4*max(theta, 0)`` is the lower equivalence constant of
    the weighted-mass norm; ``K_sigma = 2*(sigma + |1 - sigma|)`` bounds the
    time-averaging operator.  ``K_sigma >= 2`` always holds.
    """

    sigma: float
    theta: float

    def __post_init__(self):
        check_weights(self.sigma, self.theta)
        object.__setattr__(self, "c_theta", 1.0 - 4.0 * max(self.theta, 0.0))
        object.__setattr__(
            self, "K_sigma", 2.0 * (self.sigma + abs(1.0 - self.sigma)))
        assert self.c_theta >= -1e-14
        assert self.K_sigma >= 2.0 - 1e-14


# ---------------------------------------------------------------------------
# pointwise averages (references for the vectorized stencil)
# ---------------------------------------------------------------------------

def avg_s_theta(W, mesh, theta: float, j: int) -> float:
    """Three-point average with weight theta; theta=0 is the identity."""
    if not 1 <= j <= mesh.J - 1:
        raise IndexError(f"three-point average needs 1 <= j <= J-1, got j={j}")
    h, hbar = mesh.h, mesh.hbar
    return (theta * (h[j] / hbar[j]) * W[j - 1]
            + (1.0 - 2.0 * theta) * W[j]
            + theta * (h[j + 1] / hbar[j]) * W[j + 1])


def c_theta_apply(kappa, W, mesh, theta: float, j: int) -> float:
    """Averaged multiplication by a midpoint-sampled coefficient kappa.

    Reduces to :func:`avg_s_theta` when ``kappa`` is identically one.
    """
    if not 1 <= j <= mesh.J - 1:
        raise IndexError(f"averaged multiplication needs 1 <= j <= J-1, got j={j}")
    h, hbar = mesh.h, mesh.hbar
    s_hat = (h[j] * kappa[j] + h[j + 1] * kappa[j + 1]) / (2.0 * hbar[j])
    return (theta * (h[j] / hbar[j]) * kappa[j] * W[j - 1]
            + (1.0 - 2.0 * theta) * s_hat * W[j]
            + theta * (h[j + 1] / hbar[j]) * kappa[j + 1] * W[j + 1])


def s_theta_minus(W, theta: float) -> float:
    """Inner half of the three-point average at the last node."""
    return theta * W[-2] + (0.5 - theta) * W[-1]


# ---------------------------------------------------------------------------
# vectorized stencil application (interior nodes 1..J-1)
# ---------------------------------------------------------------------------

def c_theta_interior(kappa, W, mesh, theta: float) -> np.ndarray:
    """Averaged multiplication on all interior nodes at once.

    Returns a vector of length J+1 whose entries 1..J-1 are filled; the
    boundary slots are NaN.
    """
    J = mesh.J
    h, hbar = mesh.h, mesh.hbar
    out = np.full(J + 1, np.nan)
    hb = hbar[1:J]
    s_hat = (h[1:J] * kappa[1:J] + h[2:J + 1] * kappa[2:J + 1]) / (2.0 * hb)
    out[1:J] = (theta * (h[1:J] / hb) * kappa[1:J] * W[0:J - 1]
                + (1.0 - 2.0 * theta) * s_hat * W[1:J]
                + theta * (h[2:J + 1] / hb) * kappa[2:J + 1] * W[2:J + 1])
    return out


# ---------------------------------------------------------------------------
# inner products and norms
# ---------------------------------------------------------------------------

def inner_omega(V, W, mesh) -> float:
    """Interior product: sum over j = 1..J-1 of V_j W_j hbar_j."""
    _check_lengths(mesh, V, W)
    J = mesh.J
    return float(np.dot(V[1:J] * W[1:J], mesh.hbar[1:J]))


def inner_tilde(V, W, mesh) -> float:
    """Step product: sum over j = 1..J of V_j W_j h_j."""
    _check_lengths(mesh, V, W)
    return float(np.dot(V[1:] * W[1:], mesh.h[1:]))


def inner_bar(V, W, mesh) -> float:
    """Interior product plus the half-cell contribution of the last node."""
    _check_lengths(mesh, V, W)
    J = mesh.J
    return inner_omega(V, W, mesh) + V[J] * W[J] * mesh.h_tail / 2.0


def norm_bar(W, mesh) -> float:
    return float(np.sqrt(inner_bar(W, W, mesh)))


# ---------------------------------------------------------------------------
# bilinear forms of the energy analysis
# ---------------------------------------------------------------------------

def _require_anchored(*vectors) -> None:
    for v in vectors:
        if v[0] != 0.0:
            raise ValueError("form arguments must vanish at the first node")


def form_mass(U, W, kappa, mesh, theta: float) -> float:
    """Weighted-mass form: interior averaged product plus end-node term.

    Symmetric in (U, W) for theta <= 1/4 and nonnegative on the diagonal
    for kappa >= 0.  Arguments must vanish at the first node.
    """
    check_weights(None, theta)
    _check_lengths(mesh, U, W, kappa)
    _require_anchored(U, W)
    J = mesh.J
    cu = c_theta_interior(kappa, U, mesh, theta)
    val = float(np.dot(cu[1:J] * W[1:J], mesh.hbar[1:J]))
    val += kappa[J] * s_theta_minus(U, theta) * W[J] * mesh.h[J]
    return val


def norm_mass(W, kappa, mesh, theta: float) -> float:
    """Seminorm induced by :func:`form_mass`; tiny negative roundoff is clipped."""
    q = form_mass(W, W, kappa, mesh, theta)
    scale = float(np.max(np.abs(W))) ** 2 + 1.0
    if q < -1e-12 * scale:
        raise ValueError("mass form is not nonnegative; check kappa >= 0, theta <= 1/4")
    return float(np.sqrt(max(q, 0.0)))


def form_elliptic(U, W, b_h, c_h, c_inf, mesh, theta: float) -> float:
    """Elliptic form: flux product, averaged reaction, and end-node reaction.

    Symmetric in (U, W) provided ``c_inf`` equals the last midpoint sample
    ``c_h[J]``, which holds whenever the tail step lies inside the
    constant-coefficient region (enforced at sampling time).
    """
    check_weights(None, theta)
    _check_lengths(mesh, U, W, b_h, c_h)
    _require_anchored(U, W)
    J = mesh.J
    dU = (U[1:] - U[:-1]) / mesh.h[1:]
    dW = (W[1:] - W[:-1]) / mesh.h[1:]
    val = float(np.dot(b_h[1:] * dU * dW, mesh.h[1:]))
    cu = c_theta_interior(c_h, U, mesh, theta)
    val += float(np.dot(cu[1:J] * W[1:J], mesh.hbar[1:J]))
    val += c_inf * s_theta_minus(U, theta) * W[J] * mesh.h[J]
    return val

