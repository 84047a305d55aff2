"""Convolution kernel of the discrete transparent boundary condition.

The exact closure of the truncated scheme at the last node is a time
convolution with a real kernel sequence ``R[0..M]``.  The kernel depends
only on the constant-coefficient tail of the problem, the tail step, the
time step and the two scheme weights.  Three constructions are provided:

* :func:`kernel_by_recurrence`, the O(M) production path,
* :func:`kernel_by_legendre`, the closed form via a modified Legendre
  three-term recurrence (testing),
* :func:`kernel_gf_oracle`, the power series coefficients of the
  kernel's generating function, by one FFT on a circle (testing).

All three agree; the recurrence is what the stepper consumes.  The
stepper draws the boundary convolution level by level from the generator
:func:`lagged_sums` (block FFTs, O(M log^2 M)); :func:`convolve_all`
evaluates it at every level of a finished history with one FFT, for the
diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# Largest contour FFT the oracle tries before giving up.
ORACLE_MAX_POINTS = 8192

# Levels per near-field block of :func:`lagged_sums`.
BLOCK = 128


class OracleConvergenceError(RuntimeError):
    """Contour FFT of the oracle did not settle within its point budget."""


@dataclass(frozen=True)
class KernelParams:
    """Scalar data deriving the boundary kernel.

    ``a1 = h^2 rho_inf / (2 tau b_inf)`` and ``a0 = h^2 c_inf / (2 b_inf)``
    (not stored) are the dimensionless step ratios of the tail scheme,
    ``d0 = a0/a1`` and ``d1 = 2/a1`` their convenient rescalings,
    ``alpha0, alpha1`` the factors of ``alpha``, and ``alpha, beta, delta``
    the parameters of the kernel recurrence.  The
    auxiliary square-root factors with product ``alpha`` and cross product
    ``beta`` can be imaginary when ``alpha < 0``; they are never stored,
    only the always-real products enter any computation.
    """

    sigma: float
    h: float
    tau: float
    b_inf: float
    a1: float
    d0: float
    d1: float
    alpha0: float
    alpha1: float
    alpha: float
    beta: float
    delta: float

    def __post_init__(self):
        assert self.a1 > 0.0 and self.d1 > 0.0 and self.d0 >= 0.0
        if self.delta <= 0.0:
            raise ValueError(f"degenerate kernel parameters: delta={self.delta} <= 0")

    @property
    def scale(self) -> float:
        """Magnitude of the leading kernel entry, 2 a1 sqrt(delta)."""
        return 2.0 * self.a1 * math.sqrt(self.delta)


def check_weights(sigma: float, theta: float) -> None:
    """Reject scheme weights outside sigma >= 1/2, theta <= 1/4, or not finite.

    This is the regime in which the boundary convolution is dissipative
    and the spatial forms are symmetric; a roundoff slack of 1e-14 admits
    weights such as 1/4 computed from fractions.  Called by
    :func:`derive_params` and by ``SchemeConfig``, which every march and
    diagnostic carries.
    """
    if not 0.5 - 1e-14 <= sigma < math.inf:
        raise ValueError(f"sigma={sigma} unsupported: boundary dissipativity "
                         f"needs a finite sigma >= 1/2")
    if not -math.inf < theta <= 0.25 + 1e-14:
        raise ValueError(f"theta={theta} unsupported: need a finite theta <= 1/4")


def derive_params(rho_inf: float, b_inf: float, c_inf: float,
                  h: float, tau: float,
                  sigma: float, theta: float) -> KernelParams:
    """Derive the kernel parameters from tail constants and step sizes.

    Requires sigma >= 1/2 and theta <= 1/4 (:func:`check_weights`), the
    regime in which the boundary convolution is dissipative.
    """
    if not (0.0 < rho_inf < math.inf and 0.0 < b_inf < math.inf):
        raise ValueError("tail constants rho_inf and b_inf must be positive "
                         "and finite")
    if not 0.0 <= c_inf < math.inf:
        raise ValueError("tail constant c_inf must be nonnegative and finite")
    if not (0.0 < h < math.inf and 0.0 < tau < math.inf):
        raise ValueError("step sizes must be positive and finite")
    check_weights(sigma, theta)

    a1 = h * h * rho_inf / (2.0 * tau * b_inf)
    d0 = (c_inf / rho_inf) * tau
    d1 = 4.0 * (b_inf / rho_inf) * tau / (h * h)
    one4t = 1.0 - 4.0 * theta
    alpha0 = 1.0 - d0 / (1.0 + sigma * d0)
    alpha1 = 1.0 - (d0 * one4t + d1) / ((1.0 + sigma * d0) * one4t + sigma * d1)
    alpha = alpha0 * alpha1
    beta = 0.5 * (alpha0 + alpha1)
    delta = (1.0 + sigma * d0) * ((1.0 + sigma * d0) * one4t + sigma * d1)
    return KernelParams(sigma=sigma, h=h, tau=tau, b_inf=b_inf,
                        a1=a1, d0=d0, d1=d1, alpha0=alpha0, alpha1=alpha1,
                        alpha=alpha, beta=beta, delta=delta)


@dataclass(frozen=True, eq=False)
class Kernel:
    """Real convolution kernel ``R[0..M]`` with its generating parameters."""

    R: np.ndarray
    params: KernelParams

    def __post_init__(self):
        R = np.asarray(self.R, dtype=float)
        if R.ndim != 1 or R.size < 2:
            raise ValueError("kernel needs entries R[0] and R[1] at least")
        scale = self.params.scale
        if abs(R[0] + scale) > 1e-12 * scale:
            raise ValueError("kernel head R[0] inconsistent with its parameters")
        if abs(R[1] - scale * self.params.beta) > 1e-12 * scale:
            raise ValueError("kernel head R[1] inconsistent with its parameters")
        R.setflags(write=False)
        object.__setattr__(self, "R", R)


def kernel_by_recurrence(params: KernelParams, M: int) -> Kernel:
    """Generate ``R[0..M]`` by the three-term kernel recurrence (production path).

    The coefficients 2m - 3, m - 3 and m are exact float counters (exact
    for M far below 2^52), stored through a ``memoryview``: the same IEEE
    operations as with int counters, which ``int * float`` and
    ``float / int`` convert exactly first, so every entry keeps its bits.
    """
    if M < 1:
        raise ValueError("need at least M = 1 kernel entries")
    alpha, beta = params.alpha, params.beta
    R = np.empty(M + 1)
    r2 = -params.scale
    r1 = params.scale * beta
    R[0], R[1] = r2, r1
    out = memoryview(R)
    c1, c2, m = 1.0, -1.0, 2.0  # 2m - 3, m - 3 and m at m = 2
    for i in range(2, M + 1):
        r = (c1 * beta * r1 - c2 * alpha * r2) / m
        out[i] = r
        r2, r1 = r1, r
        c1 += 2.0
        c2 += 1.0
        m += 1.0
    return Kernel(R=R, params=params)


def kernel_by_legendre(params: KernelParams, M: int) -> Kernel:
    """Generate ``R[0..M]`` from the modified Legendre closed form (testing path).

    The modified polynomials p_m obey p_m = ((2m-1) beta p_{m-1}
    - (m-1) alpha p_{m-2}) / m with p_0 = 1 and p_m = 0 for m < 0; the
    kernel entry is scale * (p_m - alpha p_{m-2}) / (2m - 1).
    """
    if M < 1:
        raise ValueError("need at least M = 1 kernel entries")
    alpha, beta, scale = params.alpha, params.beta, params.scale
    R = np.empty(M + 1)
    p2 = 0.0   # p_{m-2}
    p1 = 0.0   # p_{m-1}
    p0 = 1.0   # p_m at m = 0
    R[0] = scale * (p0 - alpha * p2) / (-1.0)
    for m in range(1, M + 1):
        p2, p1 = p1, p0
        p0 = ((2 * m - 1) * beta * p1 - (m - 1) * alpha * p2) / m
        R[m] = scale * (p0 - alpha * p2) / (2 * m - 1)
    return Kernel(R=R, params=params)


def kernel_gf_oracle(params: KernelParams, m_max: int) -> np.ndarray:
    """Extract ``R[0..m_max]`` from the generating function by a contour FFT.

    The kernel's generating function is -scale * sqrt(alpha z^2 - 2 beta z + 1),
    analytic inside the disk bounded by the nearest root of the quadratic
    (its branch points).  It is sampled at N points of the circle |z| = r
    inside that disk, with the principal square root: the quadratic is
    (1 - a z)(1 - b z) with |a z|, |b z| < 1 there, so both factors have a
    positive real part, their product never meets the cut on the negative
    real axis, and the principal root is the analytic one.  One FFT
    divided by N r^m gives the Taylor coefficients.  N starts at
    2 (m_max + 16) and doubles until two successive coefficient vectors
    agree to 1e-12 of the kernel scale; past ``ORACLE_MAX_POINTS`` an
    :class:`OracleConvergenceError` is raised.

    The radius r is 0.98 times the smaller of 1 and the nearest branch
    point.  Aliasing falls like r^N, but roundoff grows like r^(-m): at 0.8
    times that radius the doubling stops converging for m_max >= 100,
    while at 0.98 it converges up to m_max of about 400 within 8192 points
    and agrees with the recurrence to about 1e-13 of the kernel scale.  A
    branch point inside the unit disk (beyond a 1e-10 slack; roundoff puts
    those of admitted sets as far in as |z| = 1 - 4e-13) is outside the
    admitted regime (sigma >= 1/2, theta <= 1/4) and raises ValueError.  Independent of both recurrence
    constructions by design.
    """
    if m_max < 0:
        raise ValueError("need m_max >= 0")
    alpha, beta = params.alpha, params.beta
    # a and b solve t^2 - 2 beta t + alpha = 0; the nearest branch point
    # lies at |z| = 1 / a_max with a_max = max(|a|, |b|).
    disc = beta * beta - alpha
    a_max = abs(beta) + math.sqrt(disc) if disc >= 0.0 else math.sqrt(alpha)
    if a_max > 1.0 + 1e-10:
        raise ValueError(f"kernel generating function has a branch point at "
                         f"|z| = {1.0 / a_max:.6g} inside the unit disk")
    r = 0.98 / max(a_max, 1.0)
    N = 2 * (m_max + 16)
    prev = None
    while N <= ORACLE_MAX_POINTS:
        z = r * np.exp(2j * np.pi * np.arange(N) / N)
        w = (alpha * z - 2.0 * beta) * z + 1.0
        out = np.fft.fft(np.sqrt(w))[:m_max + 1].real
        out *= -params.scale / (N * r ** np.arange(m_max + 1))
        if prev is not None and np.max(np.abs(out - prev)) <= 1e-12 * params.scale:
            return out
        prev = out
        N *= 2
    raise OracleConvergenceError(
        f"contour FFT for m_max={m_max} did not converge within "
        f"{ORACLE_MAX_POINTS} points")


def lagged_sums(R, history):
    """Yield sum_{q=1..m} R[q] history[m-q] for m = 1, 2, ..., len(R) - 1.

    The lagged boundary sums, one per level, each computed only when it is
    asked for, so ``history[0..m-1]`` must be final by then; entries from
    m on are not read.  ``history`` must be a contiguous float64 vector,
    which BLAS reads in place (f2py would silently copy anything else at
    every level): anything else raises TypeError before the first value.

    Summed directly the sums cost O(M^2) in total, and the kernel decays
    only like q^(-3/2), so it cannot be truncated.  This is the online
    block-FFT convolution of Hairer, Lubich and Schlichte (SIAM J. Sci.
    Stat. Comput. 6, 1985): the levels are cut into blocks of ``BLOCK``
    levels; at the start m = n*BLOCK of block n, the history
    ``history[m-L:m]`` with L = BLOCK * (n & -n) is convolved with
    ``R[1:2L]`` by one FFT pair of size 2L and added to a far-field
    accumulator at levels ``m..m+L-1``.  Every pair (level m, history
    i < m) is counted exactly once: in the near field when i and m share a
    block, otherwise in the one dyadic square at the highest bit where
    their block indices differ.  The sum at level m is the accumulator plus
    the near field over the current partial block, at most ``BLOCK - 1``
    terms (all there is for M < ``BLOCK``): one BLAS ``ddot`` on a reversed
    copy of R, so no strided slice is copied per level.  Total cost
    O(M log^2 M); the result equals the direct sum up to FFT roundoff.

    Memory is O(M): the accumulator and the reversed kernel (8 (M+1) bytes
    each) plus one kernel spectrum per block size L = BLOCK, 2 BLOCK, ...
    <= M, made on first use (16 (L+1) bytes each, under 32 M bytes
    together), under 48 M bytes in all (1.85 MB at M = 50 000), plus the
    transient arrays of one FFT pair.
    """
    if getattr(history, "dtype", None) != np.float64 or history.strides != (8,):
        raise TypeError("lagged sums need a contiguous float64 history")
    from scipy.linalg.blas import ddot  # deferred, as in the march
    R = np.asarray(R, dtype=float)
    Rrev = R[::-1].copy()
    acc = np.zeros(R.size)
    spectra: dict[int, np.ndarray] = {}
    top = R.size - 1
    for start in range(0, R.size, BLOCK):
        if start:
            n = start // BLOCK
            L = BLOCK * (n & -n)
            spec = spectra.get(L)
            if spec is None:
                seg = np.zeros(2 * L)
                seg[1:min(2 * L, R.size)] = R[1:2 * L]
                spec = spectra[L] = np.fft.rfft(seg)
            conv = np.fft.irfft(np.fft.rfft(history[start - L:start], 2 * L) * spec,
                                2 * L)
            end = min(start + L, R.size)
            acc[start:end] += conv[L:L + end - start]
        far = acc[start:start + BLOCK].tolist()  # final for this block
        # ddot's arguments are positional: keywords cost more
        for k in range(start == 0, len(far)):
            yield far[k] + ddot(Rrev, history, k, top - k, 1, start, 1)


def convolve_all(kernel: Kernel, history) -> np.ndarray:
    """Boundary convolution at every level 0..n-1 of a history of n levels.

    ``history`` has its levels along the last axis, so a block of
    sequences of shape (k, n) is convolved row by row.  One ``numpy.fft``
    full convolution of size 2^p >= 2n, O(n log n); equal to the direct
    sum sum_{q=0..m} R[q] history[m-q] up to FFT roundoff.  That roundoff
    scales with the largest entries of R and of the history, not with the
    terms of each level: for a history of comparable entries it stays
    within 4e-15 of sum_q |R[q]| |history[m-q]| (measured up to n = 5e4).
    """
    history = np.asarray(history, dtype=float)
    n = history.shape[-1]
    if kernel.R.size < n:
        raise ValueError("kernel too short for the supplied history")
    size = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(history, size)
    spec *= np.fft.rfft(kernel.R[:n], size)
    full = np.fft.irfft(spec, size)[..., :n]
    return full / (2.0 * kernel.params.h)
