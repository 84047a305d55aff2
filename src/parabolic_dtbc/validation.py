"""Closed-form reference solutions, error metrics, and stability diagnostics.

Two exact heat-equation solutions drive the numerical experiments: a
drifting Gaussian pulse (:func:`u1`) and the response to a quadratic
boundary ramp built from repeated integrals of the complementary error
function (:func:`u2`).  The diagnostics section re-evaluates the discrete
energy identities and a-priori bounds on a computed trajectory, and
certifies the dissipativity of a boundary kernel on random inputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .dtbc_kernel import Kernel, convolve_all

SQRT_PI = math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# exact solutions
# ---------------------------------------------------------------------------

def u1(x, t, x_star: float = 1.25, t0: float = 0.03125):
    """Decaying Gaussian pulse centered at x_star, unit-amplitude at t = 0.

    Solves the homogeneous heat equation u_t = u_xx for any t >= 0; t0 > 0
    sets the initial width.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    spread = 4.0 * (t + t0)
    out = np.sqrt(t0 / (t + t0)) * np.exp(-((x - x_star) ** 2) / spread)
    return out if out.ndim else float(out)


def iterated_erfc(n: int, xi):
    """Repeated integrals I_0..I_4 of the complementary error function.

    I_0 = erfc, I_1 = exp(-xi^2)/sqrt(pi) - xi erfc(xi), and
    I_n = I_{n-2}/(2n) - xi I_{n-1}/n for n = 2, 3, 4.
    """
    if n not in (0, 1, 2, 3, 4):
        raise ValueError(f"iterated erfc implemented for 0 <= n <= 4, got n={n}")
    xi = np.asarray(xi, dtype=float)
    prev = erfc(xi)
    if n == 0:
        return prev if prev.ndim else float(prev)
    curr = np.exp(-xi * xi) / SQRT_PI - xi * prev
    for k in range(2, n + 1):
        prev, curr = curr, prev / (2.0 * k) - xi * curr / k
    return curr if curr.ndim else float(curr)


def u2(x, t):
    """Heat-equation response to the boundary ramp t^2 with zero initial data.

    Equals 32 t^2 I_4(x / (2 sqrt(t))) for t > 0 and 0 at t = 0 (the
    pointwise limit for x > 0).  Satisfies u2(0, t) = t^2 exactly.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    # t <= 0 divides by zero or takes the root of a negative; np.where
    # discards those values
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(t > 0.0,
                       32.0 * t ** 2 * iterated_erfc(4, x / (2.0 * np.sqrt(t))),
                       0.0)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# error metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ErrorReport:
    """Max-abs nodal error over levels m >= 1 with its grid location."""

    max_abs_error: float
    argmax_level: int
    argmax_node: int
    per_level: np.ndarray


EVAL_BLOCK_CELLS = 1 << 16


def _level_blocks(n_levels: int, width: int):
    """Ranges ``(lo, hi)`` of whole levels, at most EVAL_BLOCK_CELLS cells each
    (one level per block when a level alone is wider)."""
    step = max(1, EVAL_BLOCK_CELLS // width)
    for lo in range(0, n_levels, step):
        yield lo, min(lo + step, n_levels)


def _call(fn, x, t, shapes):
    """``fn(x, t)`` as a float array when its shape is one of ``shapes``;
    None when it is not or the call raises TypeError/ValueError."""
    try:
        got = np.asarray(fn(x, t), dtype=float)
    except (TypeError, ValueError):
        return None
    return got if got.shape in shapes else None


def eval_on_grid(fn, x, t, out=None):
    """Values of ``fn`` on the grid ``t`` x ``x``, shape (t.size, x.size).

    The grid, or ``out`` when given (filled in place and returned), is
    filled in blocks of whole levels of at most EVAL_BLOCK_CELLS (2^16)
    cells, one call ``fn(x[None, :], t[lo:hi, None])`` per block, so a
    vectorized ``fn`` only ever sees, and leaves temporaries of, one
    block.  A block on which that call raises TypeError/ValueError or
    returns the wrong shape is evaluated one level at a time,
    ``fn(x, t_m)``, a scalar result filling its level; a level that fails
    too is evaluated point by point.
    """
    vals = np.empty((t.size, x.size)) if out is None else out
    for lo, hi in _level_blocks(t.size, x.size):
        block = vals[lo:hi]
        got = _call(fn, x[None, :], t[lo:hi, None], (block.shape,))
        if got is not None:
            block[...] = got
            continue
        for row, t_m in zip(block, t[lo:hi].tolist()):
            got = _call(fn, x, t_m, (x.shape, ()))
            if got is None:
                got = [float(fn(xj, t_m)) for xj in x.tolist()]
            row[...] = got
    return vals


def error_report(trajectory, exact, mesh) -> ErrorReport:
    """Compare a computed trajectory with a reference solution on its grid.

    The metric is the max absolute nodal error over all nodes and all
    levels m >= 1 (level 0 is data); the reported location is the first
    one in row-major order that attains it.  The error is reduced block by
    block (see :func:`eval_on_grid`), so beyond the trajectory itself the
    extra memory is O(M) plus one block of 2^16 cells, never the whole
    exact grid.  A non-finite error (a NaN or infinite exact value or
    trajectory entry) raises ValueError naming the first such level.
    """
    traj = np.asarray(trajectory, dtype=float)
    if traj.shape != (mesh.M + 1, mesh.J + 1):
        raise ValueError("trajectory shape does not match the mesh")
    t = mesh.times()[1:]
    per_level = np.empty(t.size + 1)
    per_level[0] = np.nan
    nodes = np.empty(t.size, dtype=np.intp)
    for lo, hi in _level_blocks(t.size, mesh.J + 1):
        E = np.abs(traj[1 + lo:1 + hi] - eval_on_grid(exact, mesh.x, t[lo:hi]))
        nodes[lo:hi] = np.argmax(E, axis=1)
        per_level[1 + lo:1 + hi] = E[np.arange(hi - lo), nodes[lo:hi]]
    finite = np.isfinite(per_level[1:])
    if not finite.all():
        m = int(np.argmin(finite)) + 1
        raise ValueError(f"the error is not finite at level {m} "
                         f"(t_m={m * mesh.tau!r}): the exact solution or the "
                         "trajectory has a NaN or infinite value there")
    i = int(np.argmax(per_level[1:]))
    return ErrorReport(max_abs_error=float(per_level[1 + i]),
                       argmax_level=i + 1, argmax_node=int(nodes[i]),
                       per_level=per_level)


# ---------------------------------------------------------------------------
# energy diagnostics
# ---------------------------------------------------------------------------

class EnergyForm:
    """Bilinear form of the energy analysis with its stencil weights.

    Q(U, W) = sum_{j=1..J} b_j (U_j - U_{j-1}) (W_j - W_{j-1}) / h_j
            + sum_{j=1..J-1} hbar_j W_j (C_theta U)_j
            + kappa_end (theta U_{J-1} + (1/2 - theta) U_J) W_J h_J,

    where C_theta is the averaged multiplication by the midpoint-sampled
    coefficient ``kappa`` and the flux sum is present only when ``b_h`` is
    given.  The weights are computed once, so one instance serves any
    number of levels; every method reduces over the last axis (one grid
    vector ``W_0 .. W_J`` or a block of levels).  ``theta`` comes from a
    checked ``SchemeConfig`` and is not checked again.
    """

    def __init__(self, mesh, theta: float, kappa, kappa_end: float, b_h=None):
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


@dataclass(frozen=True)
class EnergyDiagnostics:
    """Residuals of the two energy identities and slacks of their bounds.

    The identities hold to roundoff for any trajectory of the scheme with
    zero left-boundary data; the bounds additionally need the boundary
    convolution to be dissipative and therefore carry nonnegative slack.
    """

    first_equality_rel: float
    second_equality_rel: float
    sb_slack: float
    sbA_slack: float


def _worst_residual(lhs, rhs) -> float:
    """Largest |sum(lhs) - sum(rhs)| / max |term| over a block of levels.

    Terms are per-level arrays or scalars; levels at which every term
    vanishes count as 0.
    """
    res = sum(lhs)
    for term in rhs:
        res = res - term
    res = np.abs(res)
    scale = functools.reduce(np.maximum, [np.abs(t) for t in (*lhs, *rhs)])
    return float(np.divide(res, scale, out=np.zeros(res.shape),
                           where=scale > 0.0).max())


def diagnose_energy(result) -> EnergyDiagnostics:
    """Evaluate the energy identities and bounds on a computed run.

    ``result`` is a stepper result whose trajectory was produced with
    g = 0 (required; the identities anchor on vanishing left data and a
    boundary operator equal to the run's own closure).  Equality residuals
    are normalized by the largest participating term and are tracked over
    every truncation level M' <= M; the reported value is the worst one.
    The tail constants are ``result.coeffs.tail``, the density bound of the
    a-priori bounds the smallest density sample.

    Every per-level term is a 2-D array expression over one block of whole
    levels of at most EVAL_BLOCK_CELLS (2^16) cells, with the stencil
    weights of the forms computed once per call; the running sums are
    cumulative sums carried from block to block; an unforced run (no
    ``F`` grid) skips the forcing products.  Beyond the trajectory,
    the memory is O(M) (the boundary sums S and the transients of their FFT,
    some 100 (M+1) bytes) plus a few block-sized temporaries.
    """
    U = result.U
    mesh = result.mesh
    coeffs = result.coeffs
    cfg = result.config
    kernel: Kernel | None = result.kernel
    sigma, theta = cfg.sigma, cfg.theta
    tau, M, J = mesh.tau, mesh.M, mesh.J
    rho_inf, b_inf, c_inf = coeffs.tail

    if np.max(np.abs(U[:, 0])) > 1e-13 * (1.0 + max(U.max(), -U.min())):
        raise ValueError("energy diagnostics require zero left boundary data")

    rho_h, b_h, c_h, F = coeffs.rho_h, coeffs.b_h, coeffs.c_h, coeffs.F
    mass = EnergyForm(mesh, theta, rho_h, rho_inf)
    ell = EnergyForm(mesh, theta, c_h, c_inf, b_h)
    react = EnergyForm(mesh, theta, c_h, c_inf)
    h_in = mesh.hbar[1:J]

    if kernel is not None:
        S = convolve_all(kernel, U[:, J])
    else:
        S = np.zeros(M + 1)

    mass2_0 = mass.evaluate(U[0], U[0])
    ell2_0 = ell.evaluate(U[0], U[0])

    # running sums of the identity terms, carried from block to block:
    #  0 sum tau^2 ||d_t U||_mass^2      6 sum tau^2 ||d_t U||_ell^2
    #  1 sum tau ||sqrt(b) dx U^(s)||^2  7 sum tau S^m d_t U_J^m
    #  2 sum tau ||U^(s)||_c^2           8 sum tau (F^m, d_t U^m)
    #  3 sum tau S^m U_J^(s)m            9 sum tau ||F^m||
    #  4 sum tau (F^m, U^(s)m)          10 sum tau ||F^m||^2
    #  5 sum tau ||d_t U||_mass^2
    totals = np.zeros(11)
    worst_first = 0.0
    worst_second = 0.0
    max_mass = math.sqrt(max(mass2_0, 0.0))
    max_ell = math.sqrt(max(ell2_0, 0.0))

    for lo, hi in _level_blocks(M, J + 1):
        Um, Up = U[lo + 1:hi + 1], U[lo:hi]   # levels m = lo+1..hi
        S_m = S[lo + 1:hi + 1]
        acc = np.zeros((11, hi - lo))  # forcing rows stay 0 when unforced
        dU = (Um - Up) / tau
        n_dU_mass = mass.evaluate(dU, dU)
        acc[0] = n_dU_mass * tau * tau
        acc[5] = n_dU_mass * tau
        acc[6] = ell.evaluate(dU, dU) * tau * tau
        acc[7] = S_m * dU[:, J] * tau
        if F is not None:
            f = F[lo + 1:hi + 1, 1:J]
            acc[8] = (f * dU[:, 1:J]) @ h_in * tau
        del dU
        Us = sigma * Um + (1.0 - sigma) * Up
        acc[1] = ell.flux(Us, Us) * tau
        acc[2] = react.evaluate(Us, Us) * tau
        acc[3] = S_m * Us[:, J] * tau
        if F is not None:
            acc[4] = (f * Us[:, 1:J]) @ h_in * tau
            fnorm2 = (f * f) @ h_in
            acc[9] = np.sqrt(fnorm2) * tau
            acc[10] = fnorm2 * tau
        del Us
        acc[:, 0] += totals
        np.cumsum(acc, axis=1, out=acc)
        totals = acc[:, -1].copy()

        mass2_m = mass.evaluate(Um, Um)
        ell2_m = ell.evaluate(Um, Um)
        max_mass = max(max_mass, float(np.sqrt(np.maximum(mass2_m, 0.0)).max()))
        max_ell = max(max_ell, float(np.sqrt(np.maximum(ell2_m, 0.0)).max()))

        worst_first = max(worst_first, _worst_residual(
            (0.5 * mass2_m, (sigma - 0.5) * acc[0], acc[1], acc[2],
             -b_inf * acc[3]),
            (0.5 * mass2_0, acc[4])))
        worst_second = max(worst_second, _worst_residual(
            (acc[5], 0.5 * ell2_m, (sigma - 0.5) * acc[6], -b_inf * acc[7]),
            (0.5 * ell2_0, acc[8])))

    (acc_dmass, acc_flux, acc_react, _, _, acc_dmass_t, acc_dell, _, _,
     acc_Fnorm, acc_Fnorm2) = totals.tolist()
    # a-priori bounds with the whole forcing taken as the undifferenced part;
    # both sides take the same level-0 term, so with zero forcing a run whose
    # energy never exceeds its initial value has slack exactly 0
    rho_low = float(np.min(rho_h[1:]))
    lhs_sb = max(max_mass,
                 math.sqrt(2.0 * max(acc_flux + acc_react
                                     + (sigma - 0.5) * acc_dmass, 0.0)))
    rhs_sb = math.sqrt(max(mass2_0, 0.0))
    lhs_sbA = max(max_ell,
                  math.sqrt(2.0 * max(acc_dmass_t
                                      + (sigma - 0.5) * acc_dell, 0.0)))
    rhs_sbA = math.sqrt(max(ell2_0, 0.0))
    # mass-norm equivalence constant (clamped at 0 for the theta just above
    # 1/4 admitted as roundoff) and the bound of the time-averaging operator
    c_theta = max(1.0 - 4.0 * max(theta, 0.0), 0.0)
    K_sigma = 2.0 * (sigma + abs(1.0 - sigma))
    if acc_Fnorm > 0.0:
        if c_theta <= 0.0:
            rhs_sb = math.inf
            rhs_sbA = math.inf
        else:
            rhs_sb += K_sigma / math.sqrt(c_theta * rho_low) * acc_Fnorm
            rhs_sbA += math.sqrt(2.0 / (c_theta * rho_low)) \
                * math.sqrt(acc_Fnorm2)

    return EnergyDiagnostics(first_equality_rel=float(worst_first),
                             second_equality_rel=float(worst_second),
                             sb_slack=float(rhs_sb - lhs_sb),
                             sbA_slack=float(rhs_sbA - lhs_sbA))


# ---------------------------------------------------------------------------
# dissipativity certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DissipativityReport:
    """Worst normalized quadratic sums of the boundary convolution.

    ``worst_weighted`` pairs the convolution with the sigma-average of the
    sequence, ``worst_increment`` with its backward time difference.  Both
    must stay below ``tol`` (per unit squared sequence norm) for every
    probe; dissipativity makes them strictly negative in exact arithmetic.
    """

    passed: bool
    worst_weighted: float
    worst_increment: float
    tol: float
    n_sequences: int


def certify_dissipativity(kernel: Kernel, trials: int = 1000, M: int = 200,
                          seed: int = 0, tol: float = 1e-10) -> DissipativityReport:
    """Probe the boundary convolution with random and adversarial sequences.

    Each probe starts at zero; random entries are i.i.d. uniform on
    [-1, 1] and three adversarial shapes (single spike, alternating signs,
    linear ramp) are always appended.  All probes are convolved at once
    (one 2-D FFT pair) and their quadratic sums reduced row by row; a
    probe of zero norm is skipped.
    """
    if kernel.length < M:
        raise ValueError("kernel too short for the requested horizon M")
    sigma = kernel.params.sigma
    tau = kernel.params.tau
    rng = np.random.default_rng(seed)
    probes = np.zeros((trials + 3, M + 1))
    probes[:trials, 1:] = rng.uniform(-1.0, 1.0, size=(trials, M))
    probes[trials, 1 + M // 3] = 1.0                                # spike
    probes[trials + 1, 1:] = (-1.0) ** np.arange(M, dtype=float)    # alternating
    probes[trials + 2, 1:] = np.arange(1, M + 1, dtype=float) / M   # ramp

    S = convolve_all(kernel, probes)[:, 1:]
    phi, prev = probes[:, 1:], probes[:, :-1]
    norm2 = np.einsum("ij,ij->i", phi, phi) * tau
    weighted = np.einsum("ij,ij->i", S, sigma * phi + (1.0 - sigma) * prev) * tau
    increment = np.einsum("ij,ij->i", S, phi - prev)
    live = norm2 != 0.0
    worst_w = float(np.max(weighted[live] / norm2[live], initial=-math.inf))
    worst_i = float(np.max(increment[live] / norm2[live], initial=-math.inf))
    passed = worst_w <= tol and worst_i <= tol
    return DissipativityReport(passed=passed, worst_weighted=worst_w,
                               worst_increment=worst_i, tol=tol,
                               n_sequences=trials + 3)
