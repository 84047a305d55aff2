"""Closed-form reference solutions, error metrics, and stability diagnostics.

Two exact heat-equation solutions drive the numerical experiments: a
drifting Gaussian pulse (:func:`u1`) and the response to a quadratic
boundary ramp built from repeated integrals of the complementary error
function (:func:`u2`).  The diagnostics section re-evaluates the discrete
energy identities and a-priori bounds on a computed trajectory, and
certifies the dissipativity of a boundary kernel on random inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import erfc

from . import discrete_ops as ops
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
    x, t = np.broadcast_arrays(x, t)
    scalar = x.ndim == 0
    x = np.atleast_1d(x).astype(float)
    t = np.atleast_1d(t).astype(float)
    out = np.zeros(x.shape)
    pos = t > 0.0
    if np.any(pos):
        xi = x[pos] / (2.0 * np.sqrt(t[pos]))
        out[pos] = 32.0 * t[pos] ** 2 * iterated_erfc(4, xi)
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class ExactSolution:
    """Reference solution with a label identifying the experiment."""

    label: str
    fn: Callable

    def __call__(self, x, t):
        return self.fn(x, t)


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

    def __post_init__(self):
        assert self.max_abs_error >= 0.0


EVAL_BLOCK_CELLS = 1 << 16


def _level_blocks(n_levels: int, width: int):
    """Ranges ``(lo, hi)`` of whole levels, at most EVAL_BLOCK_CELLS cells each
    (one level per block when a level alone is wider)."""
    step = max(1, EVAL_BLOCK_CELLS // width)
    for lo in range(0, n_levels, step):
        yield lo, min(lo + step, n_levels)


def eval_on_grid(exact, x, t):
    """Values of ``exact`` on the grid ``t`` x ``x``, shape (t.size, x.size).

    The result is filled in blocks of whole levels of at most
    EVAL_BLOCK_CELLS (2^16) cells, so a vectorized ``exact`` only ever
    sees, and leaves temporaries of, one block.  A block on which the
    callable raises TypeError/ValueError or returns the wrong shape is
    evaluated point by point instead.
    """
    vals = np.empty((t.size, x.size))
    for lo, hi in _level_blocks(t.size, x.size):
        block = vals[lo:hi]
        try:
            got = np.asarray(exact(x[None, :], t[lo:hi, None]), dtype=float)
            if got.shape == block.shape:
                block[...] = got
                continue
        except (TypeError, ValueError):
            pass
        for i, ti in enumerate(t[lo:hi]):
            for j, xj in enumerate(x):
                block[i, j] = float(exact(float(xj), float(ti)))
    return vals


def error_report(trajectory, exact, mesh) -> ErrorReport:
    """Compare a computed trajectory with a reference solution on its grid.

    The metric is the max absolute nodal error over all nodes and all
    levels m >= 1 (level 0 is data); the reported location is the first
    one in row-major order that attains it.  The error is reduced block by
    block (see :func:`eval_on_grid`), so beyond the trajectory itself the
    extra memory is O(M) plus one block of 2^16 cells, never the whole
    exact grid.
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
    i = int(np.argmax(per_level[1:]))
    return ErrorReport(max_abs_error=float(per_level[1 + i]),
                       argmax_level=i + 1, argmax_node=int(nodes[i]),
                       per_level=per_level)


# ---------------------------------------------------------------------------
# energy diagnostics
# ---------------------------------------------------------------------------

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


def diagnose_energy(result, problem) -> EnergyDiagnostics:
    """Evaluate the energy identities and bounds on a computed run.

    ``result`` is a stepper result whose trajectory was produced with
    g = 0 (required; the identities anchor on vanishing left data and a
    boundary operator equal to the run's own closure).  Equality residuals
    are normalized by the largest participating term and are tracked over
    every truncation level M' <= M; the reported value is the worst one.
    """
    U = result.U
    mesh = result.mesh
    coeffs = result.coeffs
    cfg = result.config
    kernel: Kernel | None = result.kernel
    sigma, theta = cfg.sigma, cfg.theta
    tau, M, J = mesh.tau, mesh.M, mesh.J
    b_inf, c_inf = problem.b_inf, problem.c_inf

    if np.max(np.abs(U[:, 0])) > 1e-13 * (1.0 + np.max(np.abs(U))):
        raise ValueError("energy diagnostics require zero left boundary data")

    rho_h, b_h, c_h, F = coeffs.rho_h, coeffs.b_h, coeffs.c_h, coeffs.F
    norms = ops.NormSet(sigma=sigma, theta=theta)

    def mass2(V):
        return ops.form_mass(V, V, rho_h, mesh, theta)

    def ell2(V):
        return ops.form_elliptic(V, V, b_h, c_h, c_inf, mesh, theta)

    if kernel is not None:
        S = convolve_all(kernel, result.history)
    else:
        S = np.zeros(M + 1)

    mass2_0 = mass2(U[0])
    ell2_0 = ell2(U[0])
    h_in = mesh.hbar[1:J]

    # running sums of the identity terms
    acc_dmass = 0.0     # sum tau^2 ||d_t U||_mass^2
    acc_flux = 0.0      # sum tau ||sqrt(b) dx U^(s)||^2
    acc_react = 0.0     # sum tau ||U^(s)||_c^2
    acc_S1 = 0.0        # sum tau S^m U_J^(s)m
    acc_F1 = 0.0        # sum tau (F^m, U^(s)m)
    acc_dmass_t = 0.0   # sum tau ||d_t U||_mass^2
    acc_dell = 0.0      # sum tau^2 ||d_t U||_ell^2
    acc_S2 = 0.0        # sum tau S^m d_t U_J^m
    acc_F2 = 0.0        # sum tau (F^m, d_t U^m)
    acc_Fnorm = 0.0     # sum tau ||F^m||
    acc_Fnorm2 = 0.0    # sum tau ||F^m||^2

    worst_first = 0.0
    worst_second = 0.0
    max_mass = math.sqrt(max(mass2_0, 0.0))
    max_ell = math.sqrt(max(ell2_0, 0.0))

    for m in range(1, M + 1):
        Um, Up = U[m], U[m - 1]
        Us = sigma * Um + (1.0 - sigma) * Up
        dU = (Um - Up) / tau
        n_dU_mass = mass2(dU)
        n_dU_ell = ell2(dU)
        dUs = (Us[1:] - Us[:-1]) / mesh.h[1:]
        flux = float(np.dot(b_h[1:] * dUs * dUs, mesh.h[1:]))
        react = ops.form_mass(Us, Us, c_h, mesh, theta)
        f_row = F[m]
        acc_dmass += n_dU_mass * tau * tau
        acc_flux += flux * tau
        acc_react += react * tau
        acc_S1 += S[m] * Us[J] * tau
        acc_F1 += float(np.dot(f_row[1:J] * Us[1:J], h_in)) * tau
        acc_dmass_t += n_dU_mass * tau
        acc_dell += n_dU_ell * tau * tau
        acc_S2 += S[m] * dU[J] * tau
        acc_F2 += float(np.dot(f_row[1:J] * dU[1:J], h_in)) * tau
        fnorm2 = float(np.dot(f_row[1:J] ** 2, h_in))
        acc_Fnorm += math.sqrt(fnorm2) * tau
        acc_Fnorm2 += fnorm2 * tau

        mass2_m = mass2(Um)
        ell2_m = ell2(Um)
        max_mass = max(max_mass, math.sqrt(max(mass2_m, 0.0)))
        max_ell = max(max_ell, math.sqrt(max(ell2_m, 0.0)))

        terms1 = (0.5 * mass2_m, (sigma - 0.5) * acc_dmass, acc_flux,
                  acc_react, -b_inf * acc_S1, 0.5 * mass2_0, acc_F1)
        res1 = abs(sum(terms1[:5]) - terms1[5] - terms1[6])
        scale1 = max(max(abs(v) for v in terms1), 0.0)
        if scale1 > 0.0:
            worst_first = max(worst_first, res1 / scale1)

        terms2 = (acc_dmass_t, 0.5 * ell2_m, (sigma - 0.5) * acc_dell,
                  -b_inf * acc_S2, 0.5 * ell2_0, acc_F2)
        res2 = abs(sum(terms2[:4]) - terms2[4] - terms2[5])
        scale2 = max(max(abs(v) for v in terms2), 0.0)
        if scale2 > 0.0:
            worst_second = max(worst_second, res2 / scale2)

    # a-priori bounds with the whole forcing taken as the undifferenced part
    rho_low, b_low = problem.rho_lower, problem.b_lower
    lhs_sb = max(max_mass,
                 math.sqrt(2.0 * max(acc_flux + acc_react
                                     + (sigma - 0.5) * acc_dmass, 0.0)))
    rhs_sb = math.sqrt(max(mass2_0, 0.0))
    lhs_sbA = max(max_ell,
                  math.sqrt(2.0 * max(acc_dmass_t
                                      + (sigma - 0.5) * acc_dell, 0.0)))
    rhs_sbA = math.sqrt(max(ell2_0, 0.0))
    if acc_Fnorm > 0.0:
        if norms.c_theta <= 0.0:
            rhs_sb = math.inf
            rhs_sbA = math.inf
        else:
            rhs_sb += norms.K_sigma / math.sqrt(norms.c_theta * rho_low) * acc_Fnorm
            rhs_sbA += math.sqrt(2.0 / (norms.c_theta * rho_low)) \
                * math.sqrt(acc_Fnorm2)

    return EnergyDiagnostics(first_equality_rel=worst_first,
                             second_equality_rel=worst_second,
                             sb_slack=rhs_sb - lhs_sb,
                             sbA_slack=rhs_sbA - lhs_sbA)


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
    linear ramp) are always appended.
    """
    if kernel.length < M:
        raise ValueError("kernel too short for the requested horizon M")
    sigma = kernel.params.sigma
    tau = kernel.params.tau
    rng = np.random.default_rng(seed)
    probes = list(rng.uniform(-1.0, 1.0, size=(trials, M)))
    spike = np.zeros(M)
    spike[M // 3] = 1.0
    alternating = (-1.0) ** np.arange(M, dtype=float)
    ramp = np.arange(1, M + 1, dtype=float) / M
    probes += [spike, alternating, ramp]

    worst_w = -math.inf
    worst_i = -math.inf
    for body in probes:
        phi = np.concatenate(([0.0], body))
        S = convolve_all(kernel, phi)
        avg = sigma * phi[1:] + (1.0 - sigma) * phi[:-1]
        inc = phi[1:] - phi[:-1]
        norm2 = float(np.dot(phi[1:], phi[1:])) * tau
        if norm2 == 0.0:
            continue
        worst_w = max(worst_w, float(np.dot(S[1:], avg)) * tau / norm2)
        worst_i = max(worst_i, float(np.dot(S[1:], inc)) / norm2)
    passed = worst_w <= tol and worst_i <= tol
    return DissipativityReport(passed=passed, worst_weighted=worst_w,
                               worst_increment=worst_i, tol=tol,
                               n_sequences=len(probes))
