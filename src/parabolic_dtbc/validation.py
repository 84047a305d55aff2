"""Closed-form reference solutions, error metrics, and stability diagnostics.

Two exact heat-equation solutions drive the numerical experiments: a
drifting Gaussian pulse (:func:`u1`) and the response to a quadratic
boundary ramp built from repeated integrals of the complementary error
function (:func:`u2`).  The diagnostics section re-evaluates the discrete
energy identities and a-priori bounds on a computed trajectory, and
certifies the dissipativity of a boundary kernel in closed form, for
every horizon.
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
    out = np.atleast_1d(-((x - x_star) ** 2) / spread)
    np.exp(out, out=out)
    out *= np.sqrt(t0 / (t + t0))
    return out if x.ndim or t.ndim else float(out[0])


def iterated_erfc(n: int, xi):
    """Repeated integrals I_0..I_4 of the complementary error function.

    I_0 = erfc, I_1 = exp(-xi^2)/sqrt(pi) - xi erfc(xi), and
    I_n = I_{n-2}/(2n) - xi I_{n-1}/n for n = 2, 3, 4, run in place on
    three arrays of xi's shape (I_{n-2}, I_{n-1} and xi I_{n-1}) with the
    operations of that formula in its order, so its bits (a division by
    2, 4 or 8 is the product with its exact reciprocal, which rounds the
    same quotient).  xi above 40 is taken as 40, where every I_n is +0.0
    (as from xi = 27.3 on), so I_n(+inf) = 0.  A 0-d xi gives a float.
    """
    if n not in (0, 1, 2, 3, 4):
        raise ValueError(f"iterated erfc implemented for 0 <= n <= 4, got n={n}")
    xi = np.minimum(np.asarray(xi, dtype=float), 40.0)  # not inf * erfc(inf)
    scalar, xi = xi.ndim == 0, np.atleast_1d(xi)  # a numpy scalar takes no out
    prev = curr = erfc(xi)
    if n:
        curr = np.negative(xi)
        curr *= xi
        np.exp(curr, out=curr)
        curr /= SQRT_PI
        tmp = xi * prev
        curr -= tmp
    for k in range(2, n + 1):
        np.multiply(xi, curr, out=tmp)
        if k == 3:
            tmp /= k
            prev /= 2.0 * k
        else:  # k = 2, 4: 1/k and 1/(2k) are exact
            tmp *= 1.0 / k
            prev *= 0.5 / k
        prev -= tmp
        prev, curr = curr, prev
    return float(curr[0]) if scalar else curr


def u2(x, t):
    """Heat-equation response to the boundary ramp t^2 with zero initial data.

    Equals 32 t^2 I_4(x / (2 sqrt(t))) for t > 0 and 0 at t = 0 (the
    pointwise limit for x > 0).  Satisfies u2(0, t) = t^2 exactly.  The
    factor 32 t^2 is formed on t's own shape and multiplied into I_4's
    array, whose entries where t > 0 fails are then set to 0; a 0-d x and
    t give a float.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    # t <= 0 divides by zero or takes the root of a negative; the zeros
    # overwrite those values
    with np.errstate(divide="ignore", invalid="ignore"):
        out = iterated_erfc(4, np.atleast_1d(x / (2.0 * np.sqrt(t))))
        out *= 32.0 * t ** 2
    np.copyto(out, 0.0, where=~(t > 0.0))
    return out if x.ndim or t.ndim else float(out[0])


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
    """``fn(x, t)`` as a float array when it is an array of booleans,
    integers or floats of one of ``shapes``; None when it is not (a string
    or a complex number is no value) or when the call raises TypeError,
    ValueError or ArithmeticError."""
    try:
        got = np.asarray(fn(x, t))
        if got.dtype.kind not in "biuf" or got.shape not in shapes:
            return None
        return got.astype(float, copy=False)
    except (TypeError, ValueError, ArithmeticError):
        return None


def _grid_blocks(fn, x, t, out=None):
    """Blocks ``(lo, values)`` of ``fn`` on the grid ``t`` x ``x``, as
    :func:`eval_on_grid` evaluates them: the array ``fn`` returned when the
    block call succeeds (read it, never write it: it may be cached,
    read-only or a broadcast view), else the values of the fallback tiers,
    filled into ``out[lo:hi]`` (into a new block when ``out`` is None)."""
    for lo, hi in _level_blocks(t.size, x.size):
        got = _call(fn, x[None, :], t[lo:hi, None], ((hi - lo, x.size),))
        if got is None:
            got = np.empty((hi - lo, x.size)) if out is None else out[lo:hi]
            for row, t_m in zip(got, t[lo:hi].tolist()):
                level = _call(fn, x, t_m, (x.shape, ()))
                if level is not None:
                    row[...] = level
                    continue
                for j, xj in enumerate(x.tolist()):
                    point = _call(fn, xj, t_m, ((),))
                    row[j] = math.nan if point is None else point
        yield lo, got


def eval_on_grid(fn, x, t, out=None):
    """Values of ``fn`` on the grid ``t`` x ``x``, shape (t.size, x.size).

    The grid, or ``out`` when given (filled in place and returned), is
    filled in blocks of whole levels of at most EVAL_BLOCK_CELLS (2^16)
    cells, one call ``fn(x[None, :], t[lo:hi, None])`` per block, so a
    vectorized ``fn`` only ever sees, and leaves temporaries of, one
    block.  A block on which that call fails (raises TypeError, ValueError
    or ArithmeticError) or returns the wrong shape is evaluated one level
    at a time, ``fn(x, t_m)``, a scalar result filling its level; a level
    that fails too is evaluated point by point, and a point at which
    ``fn`` fails or returns no scalar is NaN, for the caller's finite
    check to name.
    """
    vals = np.empty((t.size, x.size)) if out is None else out
    for lo, got in _grid_blocks(fn, x, t, vals):
        vals[lo:lo + len(got)] = got  # no copy when filled in place
    return vals


class _LevelErrors:
    """Max |U - E| per level m >= 1 (level 0 is data) and its first node,
    reduced from the U - E of blocks of whole levels fed in level order."""

    def __init__(self, mesh):
        self.tau, self.per_level = mesh.tau, np.full(mesh.M + 1, np.nan)
        self.nodes = np.zeros(mesh.M + 1, dtype=np.intp)

    def add(self, lo: int, diff) -> None:
        """Reduce ``diff``, U - E of levels lo, lo + 1, ...; ValueError at
        its first level whose error is not finite."""
        if lo == 0:
            lo, diff = 1, diff[1:]
        E, hi = np.abs(diff), lo + len(diff)
        self.nodes[lo:hi] = np.argmax(E, axis=1)
        self.per_level[lo:hi] = E[np.arange(hi - lo), self.nodes[lo:hi]]
        finite = np.isfinite(self.per_level[lo:hi])
        if not finite.all():
            m = lo + int(np.argmin(finite))
            raise ValueError(f"the error is not finite at level {m} "
                             f"(t_m={m * self.tau!r}): the exact solution or "
                             "the trajectory has a NaN or infinite value there")

    def report(self) -> ErrorReport:
        i = int(np.argmax(self.per_level[1:])) + 1
        return ErrorReport(max_abs_error=float(self.per_level[i]),
                           argmax_level=i, argmax_node=int(self.nodes[i]),
                           per_level=self.per_level)


def error_report(trajectory, exact, mesh) -> ErrorReport:
    """Compare a computed trajectory with a reference solution on its grid.

    The metric is the max absolute nodal error over all nodes and all
    levels m >= 1 (level 0 is data); the reported location is the first
    one in row-major order that attains it.  The error is reduced block by
    block (see :func:`eval_on_grid`): U - E of each block of the exact
    solution, the callable's own array when its block call succeeds, is
    subtracted into one reused buffer, so beyond the trajectory itself the
    extra memory is O(M) plus a few blocks of 2^16 cells, never the whole
    exact grid.  A non-finite error (a NaN or infinite exact value or
    trajectory entry) raises ValueError naming the first such level.
    :func:`~.cli.write_solution` feeds the same reduction its own blocks.
    """
    traj = np.asarray(trajectory, dtype=float)
    if traj.shape != (mesh.M + 1, mesh.J + 1):
        raise ValueError("trajectory shape does not match the mesh")
    errors, diff = _LevelErrors(mesh), None
    for lo, vals in _grid_blocks(exact, mesh.x, mesh.times()[1:]):
        diff = np.empty(vals.shape) if diff is None else diff[:len(vals)]
        np.subtract(traj[1 + lo:1 + lo + len(vals)], vals, out=diff)
        errors.add(1 + lo, diff)
    return errors.report()


# ---------------------------------------------------------------------------
# energy diagnostics
# ---------------------------------------------------------------------------

class EnergyForm:
    """Bilinear form of the energy analysis with its stencil weights.

    Q(U, W) = sum_{j=1..J-1} hbar_j W_j (C_theta U)_j
            + kappa_J (theta U_{J-1} + (1/2 - theta) U_J) W_J h_J,

    where C_theta is the averaged multiplication by the midpoint-sampled
    coefficient ``kappa``, whose last sample ``kappa_J`` is the tail
    constant.  The weights are computed once, so one instance serves any
    number of levels; every method reduces over the last axis (one grid
    vector ``W_0 .. W_J`` or a block of levels).  ``theta`` comes from a
    checked ``SchemeConfig`` and is not checked again.  With kappa = 0
    (c = 0) :meth:`evaluate` returns zeros: its terms would all be +-0.
    """

    def __init__(self, mesh, theta: float, kappa):
        J = mesh.J
        h, hb = mesh.h, mesh.hbar[1:J]
        s_hat = (h[1:J] * kappa[1:J] + h[2:J + 1] * kappa[2:J + 1]) / (2.0 * hb)
        self._lo = theta * (h[1:J] / hb) * kappa[1:J]
        self._mid = (1.0 - 2.0 * theta) * s_hat
        self._hi = theta * (h[2:J + 1] / hb) * kappa[2:J + 1]
        self._hbar = hb
        self._end = (theta, 0.5 - theta, kappa[J] * h[J])
        self._zero = not np.any(kappa[1:J + 1])

    def averaged(self, W):
        """(C_theta W)_j at the interior nodes j = 1..J-1."""
        return (self._lo * W[..., :-2] + self._mid * W[..., 1:-1]
                + self._hi * W[..., 2:])

    def evaluate(self, U, W):
        """Q(U, W), one value per level."""
        if self._zero:
            return np.zeros(U.shape[:-1])
        inner, outer, end = self._end
        val = (self.averaged(U) * W[..., 1:-1]) @ self._hbar
        val += end * (inner * U[..., -2] + outer * U[..., -1]) * W[..., -1]
        return val


@dataclass(frozen=True)
class EnergyDiagnostics:
    """Residuals of the two energy identities and slacks of their bounds.

    The identities hold to roundoff for any trajectory of the scheme, on
    its lift (see :func:`diagnose_energy`); the bounds additionally need the
    boundary convolution to be dissipative and therefore carry nonnegative
    slack.
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

    ``result`` is a stepper result with the run's own closure and any left
    data g.  The identities anchor on zero left data, so they are evaluated
    on the lift V = U - g e_0 (U with its Dirichlet column U[:, 0] = g set
    to zero), which solves the same scheme with the forcing F + F~, where
    F~ is zero but at node 1:

        F~_1^m = -(a_sigma[1] U[m, 0] - a_(sigma-1)[1] U[m-1, 0]) / hbar_1,

    a_w[1] the ``sub[1]`` of ``stepper.scheme_weights`` at weight w.  Equality
    residuals are normalized by the largest participating term and are
    tracked over every truncation level M' <= M; the reported value is the
    worst one.  The elliptic energy is the reaction form plus the flux sum;
    b_inf is ``result.coeffs.tail``'s, the density bound of the a-priori
    bounds the smallest density sample.

    Every per-level term is a 2-D array expression over one lifted block of
    whole levels of at most EVAL_BLOCK_CELLS (2^16) cells, with the stencil
    weights of the forms computed once per call; the running sums are
    cumulative sums carried from block to block.  The forcing of a block is
    F + F~, or F~ alone at node 1 for a run with no ``F`` grid; with g = 0,
    F~ is a signed zero, which changes no bit of the sums.  Beyond the
    trajectory, the memory is O(M) (S, F~ and the transients of the FFT of
    S, some 100 (M+1) bytes) plus a few block-sized temporaries.
    """
    U = result.U
    mesh = result.mesh
    coeffs = result.coeffs
    cfg = result.config
    kernel: Kernel | None = result.kernel
    sigma, theta = cfg.sigma, cfg.theta
    tau, M, J = mesh.tau, mesh.M, mesh.J
    b_inf = coeffs.tail[1]

    # deferred: stepper imports problem, which imports this module
    from .stepper import scheme_weights

    rho_h, b_h, c_h, F = coeffs.rho_h, coeffs.b_h, coeffs.c_h, coeffs.F
    mass = EnergyForm(mesh, theta, rho_h)
    react = EnergyForm(mesh, theta, c_h)
    b_per_h = b_h[1:] / mesh.h[1:]
    h_in = mesh.hbar[1:J]

    def flux(V):  # sum_j b_j (V_j - V_(j-1))^2 / h_j, one value per level
        dV = np.diff(V, axis=-1)
        return (dV * dV) @ b_per_h

    if kernel is not None:
        S = convolve_all(kernel, U[:, J])
    else:
        S = np.zeros(M + 1)

    g = U[:, 0]
    a_new, a_old = (scheme_weights(coeffs, mesh, w, theta)[0][1]
                    for w in (sigma, sigma - 1.0))
    lift = -(a_new * g[1:] - a_old * g[:-1]) / h_in[0]  # F~_1, m = 1..M

    V0 = np.r_[0.0, U[0, 1:]]
    mass2_0 = mass.evaluate(V0, V0)
    ell2_0 = react.evaluate(V0, V0) + flux(V0)

    # running sums of the identity terms of the lift (U read as V, F as
    # F + F~), carried from block to block:
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
        V = U[lo:hi + 1].copy()   # the lift of levels lo..hi
        V[:, 0] = 0.0
        Um, Up = V[1:], V[:-1]    # levels m = lo+1..hi
        S_m = S[lo + 1:hi + 1]
        if F is None:
            f = lift[lo:hi, None]  # F~ alone lives at node 1
        else:
            f = F[lo + 1:hi + 1, 1:J].copy()
            f[:, 0] += lift[lo:hi]
        k = f.shape[1]  # the forcing's nodes are 1..k
        acc = np.empty((11, hi - lo))
        dU = (Um - Up) / tau
        n_dU_mass = mass.evaluate(dU, dU)
        acc[0] = n_dU_mass * tau * tau
        acc[5] = n_dU_mass * tau
        acc[6] = (react.evaluate(dU, dU) + flux(dU)) * tau * tau
        acc[7] = S_m * dU[:, J] * tau
        acc[8] = (f * dU[:, 1:k + 1]) @ h_in[:k] * tau
        del dU
        Us = sigma * Um + (1.0 - sigma) * Up
        acc[1] = flux(Us) * tau
        acc[2] = react.evaluate(Us, Us) * tau
        acc[3] = S_m * Us[:, J] * tau
        acc[4] = (f * Us[:, 1:k + 1]) @ h_in[:k] * tau
        fnorm2 = (f * f) @ h_in[:k]
        acc[9] = np.sqrt(fnorm2) * tau
        acc[10] = fnorm2 * tau
        del Us
        acc[:, 0] += totals
        np.cumsum(acc, axis=1, out=acc)
        totals = acc[:, -1].copy()

        mass2_m = mass.evaluate(Um, Um)
        ell2_m = react.evaluate(Um, Um) + flux(Um)
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
    """Suprema of the normalized quadratic sums of the boundary convolution.

    ``worst_weighted`` pairs the convolution with the sigma-average of the
    sequence, ``worst_increment`` with its backward time difference, over
    every sequence of every horizon.  Dissipativity makes both at most 0;
    ``passed`` compares each with its threshold, ``threshold_weighted``
    and ``threshold_increment``.
    """

    passed: bool
    worst_weighted: float
    worst_increment: float
    threshold_weighted: float
    threshold_increment: float


def certify_dissipativity(kernel: Kernel, trials: int = 0, M: int = 200,
                          seed: int = 0, tol: float = 1e-10) -> DissipativityReport:
    """Certify the boundary convolution dissipative over every horizon.

    With phi_0 = 0, S_m = sum_q R[q] phi_(m-q) / (2h) has the symbol
    K(z) = -(scale / 2h) sqrt((1 - alpha0 z)(1 - alpha1 z)) (as in
    :func:`~.dtbc_kernel.kernel_gf_oracle`).  Per unit tau |phi|^2 the sums
    over m = 1..M of S_m (s phi_m + (1 - s) phi_(m-1)), s = sigma, and of
    S_m (phi_m - phi_(m-1)) / tau are, for every M, at most the largest
    real part c <= 0 of their symbols K(z) (s + (1 - s) conj z) and
    K(z) (1 - conj z) / tau on |z| = 1, which long sequences approach
    (Grenander and Szegő, *Toeplitz Forms and Their Applications*, 1958).
    Proof: for z = e^(it), 0 < t < pi, s >= 1/2 and a in [-1, 1] (as are
    alpha0 and alpha1 when sigma >= 1/2, theta <= 1/4), arg sqrt(1 - a z)
    is in [-(pi - t)/4, t/4] and arg(s + (1 - s) conj z) in
    [-t/2, (pi - t)/2]; the three arguments sum to at most pi/2 in
    magnitude, so c <= 0.  For s > 1/2, phi extended past M by
    psi_(m+1) = -((1 - s)/s) psi_m makes the sum the l^2 Toeplitz form of
    psi, at most c |psi|^2 <= c |phi|^2; s -> 1/2 gives sigma = 1/2, and
    the form over s tends to tau times the increment form as s -> inf.

    So ``worst_increment`` is 0, its symbol at z = 1, and ``worst_weighted``
    is max(K(1), (2 sigma - 1) K(-1)), its symbol at z = +-1, with
    K(+-1) = -(scale / 2h) sqrt((1 -+ alpha0)(1 -+ alpha1)); that the
    maximum sits there is checked by a test, not proven.  Each product is
    clamped at 0 against the roundoff ``check_weights`` admits, and a zero
    is +0.0.  ``passed`` compares the rows with ``tol`` times their scales,
    scale / 2h and 2 scale / (2h tau), the report's two thresholds.

    Without probes the certificate reads only ``kernel.params``, never
    ``kernel.R``: it covers the kernel those parameters define, and a
    kernel whose entries are wrong passes it (ROADMAP item 2 would check
    R against its parameters).

    ``trials > 0`` adds that many probes of M >= 1 levels (ValueError
    otherwise), uniform on [-1, 1] from ``seed``, through
    :func:`convolve_all`; ``passed`` then also needs each probe ratio below
    its supremum plus 1e-12 times its form's norm bound,
    (sigma + |1 - sigma|) s or 2 s / tau, s = sum_(q<M) |R[q]| / (2h).
    """
    p = kernel.params
    sigma, tau, unit = p.sigma, p.tau, p.scale / (2.0 * p.h)
    K_one, K_minus_one = (-unit * math.sqrt(max(
        (1.0 - z * p.alpha0) * (1.0 - z * p.alpha1), 0.0))
        for z in (1.0, -1.0))
    worst = [max(K_one, (2.0 * sigma - 1.0) * K_minus_one) + 0.0, 0.0]
    limit = tol * p.scale / (2.0 * p.h)
    thresholds = (limit, 2.0 * limit / tau)
    passed = all(w <= b for w, b in zip(worst, thresholds))
    if trials > 0:
        if not M >= 1:
            raise ValueError(f"probe horizon M must be at least 1, got M={M}")
        probes = np.zeros((trials, M + 1))
        probes[:, 1:] = np.random.default_rng(seed).uniform(-1, 1, (trials, M))
        S = convolve_all(kernel, probes)[:, 1:]
        phi, prev = probes[:, 1:], probes[:, :-1]
        s = float(np.abs(kernel.R[:M] / (2.0 * p.h)).sum())
        for pair, sup, bound in zip(
                (sigma * phi + (1.0 - sigma) * prev, (phi - prev) / tau),
                worst, ((sigma + abs(1.0 - sigma)) * s, 2.0 * s / tau)):
            ratio = np.einsum("ij,ij->i", S, pair) / np.sum(phi * phi, axis=1)
            passed = passed and bool(np.all(ratio <= sup + 1e-12 * bound))
    return DissipativityReport(passed, *worst, *thresholds)
