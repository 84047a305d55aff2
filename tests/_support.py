"""Shared problem builders and reference implementations for the test suite."""

import csv
import io
import math

import numpy as np
from scipy.special import erfc

from parabolic_dtbc import (EnergyDiagnostics, Mesh, ProblemSpec,
                            SampledCoefficients, derive_params,
                            kernel_by_recurrence, sample)
from parabolic_dtbc.cli import _fmt
from parabolic_dtbc.stepper import TriFactor
from parabolic_dtbc.validation import SQRT_PI, EnergyForm, eval_on_grid


def params_from_ratios(d0, d1, sigma, theta, h=1.0, tau=1.0):
    """Kernel parameters built directly from the step ratios d0, d1.

    Synthesizes tail constants reproducing the requested ratios with unit
    diffusivity; convenient for parameter sweeps.
    """
    if d1 <= 0.0 or d0 < 0.0:
        raise ValueError("need d1 > 0 and d0 >= 0")
    a1 = 2.0 / d1
    rho_inf = 2.0 * a1 * tau / (h * h)
    c_inf = 2.0 * d0 * a1 / (h * h)
    return derive_params(rho_inf, 1.0, c_inf, h, tau, sigma, theta)


def kernel_recurrence_reference(params, M: int) -> np.ndarray:
    """``R[0..M]`` by the kernel recurrence with Python int counters.

    The int-counter form of the loop of ``kernel_by_recurrence``: the
    bitwise reference for its exact float counters.
    """
    alpha, beta = params.alpha, params.beta
    R = np.empty(M + 1)
    r2 = -params.scale
    r1 = params.scale * beta
    R[0], R[1] = r2, r1
    for m in range(2, M + 1):
        r = ((2 * m - 3) * beta * r1 - (m - 3) * alpha * r2) / m
        R[m] = r
        r2, r1 = r1, r
    return R


def iterated_erfc_reference(n: int, xi):
    """I_n of erfc by the out-of-place recurrence, a new array per operation.

    I_0 = erfc, I_1 = exp(-xi^2)/sqrt(pi) - xi erfc(xi), and
    I_n = I_{n-2}/(2n) - xi I_{n-1}/n for n = 2, 3, 4: the reference for
    the in-place ``iterated_erfc``, which must match it bit for bit.
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


def u2_reference(x, t):
    """The ramp solution evaluated on the levels t > 0 only.

    Broadcasts x and t, and evaluates 32 t^2 I_4(x / (2 sqrt(t))) on the
    points with t > 0 by boolean indexing, leaving 0 elsewhere: the
    reference for ``u2``, which scales I_4 and writes the zeros in place.
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
        out[pos] = 32.0 * t[pos] ** 2 * iterated_erfc_reference(4, xi)
    return float(out[0]) if scalar else out


def _zeros(x):
    return np.zeros(np.shape(x))


def _ones(x):
    return np.ones(np.shape(x))


def zero_forcing(x, t):
    """Identically zero forcing, broadcast over a (levels, nodes) block."""
    return np.zeros(np.broadcast(x, t).shape)


def zero_problem(X0=0.5, X=1.0):
    """Homogeneous heat problem with identically zero data."""
    return ProblemSpec(rho=_ones, b=_ones, c=_zeros, f=zero_forcing,
                       g=lambda t: 0.0, u0=_zeros,
                       X0=X0, X=X, label="zero")


def random_h0_problem(seed, knots, X0, X, variable=False):
    """Zero-boundary problem with seeded random initial data at the knots.

    The initial profile interpolates random values that vanish at x = 0
    and on the tail, so it is exact at the mesh nodes.  With
    ``variable=True`` the coefficients vary smoothly up to the tail onset
    and are constant beyond it.
    """
    rng = np.random.default_rng(seed)
    knots = np.asarray(knots, dtype=float)
    vals = rng.uniform(-1.0, 1.0, size=knots.size)
    vals[0] = 0.0
    vals[knots >= X0 - 1e-12] = 0.0

    def u0(x):
        return np.interp(x, knots, vals)

    if variable:
        def rho(x):
            x = np.asarray(x, dtype=float)
            return np.where(x < X0, 1.0 + 0.5 * np.sin(np.pi * x / X0) ** 2, 1.0)

        def b(x):
            x = np.asarray(x, dtype=float)
            return np.where(x < X0, 2.0 - x / X0, 1.0)

        def c(x):
            x = np.asarray(x, dtype=float)
            return np.where(x < X0, 0.3 * (1.0 - x / X0), 0.0)
    else:
        rho, b, c = _ones, _ones, _zeros

    return ProblemSpec(rho=rho, b=b, c=c, f=zero_forcing,
                       g=lambda t: 0.0, u0=u0,
                       X0=X0, X=X, label="random-h0")


def thomas_solve(dl, d, du, du2, ipiv, b, trans, overwrite_b):
    """Pure-Python Thomas sweep with the positional signature of ``dgttrs``.

    Forward substitution with the unit lower factor (multipliers ``dl``),
    then back substitution with the pivots ``d`` and the superdiagonal
    ``du``: the direct reference for the LAPACK solve on the pivot-free
    factors of a TriFactor, which it asserts (no second superdiagonal, no
    row interchange).  ``b`` is overwritten with the solution, and
    ``(b, 0)`` is returned, as the in-place call of ``TriFactor`` and of
    the march (``trans`` "N", ``overwrite_b`` 1) gets it, so the sweep can
    stand in for ``scipy.linalg.lapack.dgttrs``.
    """
    assert (trans, overwrite_b) == ("N", 1)
    assert not du2.any() and np.array_equal(ipiv, np.arange(1, d.size + 1))
    dl, d, du = dl.tolist(), d.tolist(), du.tolist()
    n = len(d)
    x = b.tolist()
    for i in range(1, n):
        x[i] -= dl[i - 1] * x[i - 1]
    x[n - 1] /= d[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = (x[i] - du[i] * x[i + 1]) / d[i]
    b[:] = x
    return b, 0


def scheme_rows(coeffs, mesh, weight, theta):
    """Rows ``(sub, diag, sup)`` of the scheme at one time weight, by node.

    Each point weight is a Python float from its formula, alpha_j =
    theta base_j - w b_j / h_j and beta_j = (1/2 - theta) base_j
    + w b_j / h_j with base_j = h_j rho_j / tau + w h_j c_j; row j = 1..J-1
    is (alpha_j, beta_j + beta_(j+1), alpha_(j+1)), row J (alpha_J, beta_J,
    0) and row 0 zero.  The same float operations as
    ``stepper.scheme_weights`` in the same order, with no code shared.
    """
    J, tau = mesh.J, mesh.tau
    alpha, beta = [0.0] * (J + 2), [0.0] * (J + 1)
    for j in range(1, J + 1):
        h, rho, b, c = (float(arr[j]) for arr in
                        (mesh.h, coeffs.rho_h, coeffs.b_h, coeffs.c_h))
        base = h * rho / tau + weight * h * c
        alpha[j] = theta * base - weight * b / h
        beta[j] = (0.5 - theta) * base + weight * b / h
    diag = [0.0] + [beta[j] + beta[j + 1] for j in range(1, J)] + [beta[J]]
    return np.array([0.0] + alpha[1:J + 1]), np.array(diag), np.array(
        [0.0] + alpha[2:])


def march_loop_reference(problem, mesh, config):
    """``march`` as a per-level loop with a fresh right-hand side per level.

    The matrix and the old-level weights are ``scheme_rows`` at sigma and
    sigma - 1, with the Dirichlet identity in row 0 and the kernel head on
    the diagonal of row J.  Each level samples ``g``, forms the interior
    rows as one expression with the forcing added, the boundary row as
    numpy scalars with the boundary convolution summed directly (no code
    shared with the fast convolution), solves into a new vector and copies
    it into the trajectory; ``problem.f`` must be given.  Returns
    ``(U, min_pivot)``: the direct reference for the in-place level of
    ``march``.
    """
    coeffs = sample(problem, mesh)
    kernel = None
    if config.boundary == "dtbc":
        params = derive_params(*coeffs.tail, mesh.h_tail, mesh.tau,
                               config.sigma, config.theta)
        kernel = kernel_by_recurrence(params, mesh.M)

    J, M = mesh.J, mesh.M
    F = coeffs.F
    sub, diag, sup = scheme_rows(coeffs, mesh, config.sigma, config.theta)
    diag[0] = 1.0
    if kernel is not None:
        gain = kernel.params.b_inf / (2.0 * mesh.h_tail)
        diag[J] -= gain * kernel.R[0]
    factor = TriFactor(sub, diag, sup)
    sub, diag, sup = scheme_rows(coeffs, mesh, config.sigma - 1.0, config.theta)
    a_lo, b_mid, a_hi = sub[1:J], diag[1:J], sup[1:J]
    a_J, b_J = sub[J], diag[J]
    hbar = mesh.hbar[1:J]

    traj = np.empty((M + 1, J + 1))
    traj[0] = coeffs.U0
    hist = np.empty(M + 1)
    hist[0] = coeffs.U0[J]
    U = coeffs.U0
    for m in range(1, M + 1):
        rhs = np.zeros(J + 1)
        rhs[0] = float(problem.g(m * mesh.tau))
        rhs[1:J] = (a_lo * U[0:J - 1] + b_mid * U[1:J] + a_hi * U[2:J + 1]
                    + hbar * F[m, 1:J])
        rhs_J = a_J * U[J - 1] + b_J * U[J]
        if kernel is not None:
            rhs_J += gain * np.dot(kernel.R[1:m + 1], hist[m - 1::-1])
        rhs[J] = rhs_J
        U = factor.solve(rhs)
        traj[m] = U
        hist[m] = U[J]
    return traj, factor.min_pivot


def extend_sampled(coeffs, mesh, n):
    """Sampled data and mesh continued by ``n`` tail cells past x_J.

    The mesh goes on with its tail step h_J; the new midpoints get the
    tail constants, ``U0`` and every ``F`` row are zero on the new nodes,
    and ``G`` stays.  Returns ``(coeffs, mesh)`` for ``march_sampled``:
    under an exact transparent closure the march of the continued data
    agrees with the march of ``coeffs`` at nodes 0..J, because both are
    the untruncated scheme there.
    """
    x_end, h = mesh.x[-1], mesh.h_tail
    x = np.concatenate((mesh.x, x_end + h * np.arange(1, n + 1)))
    rho_h, b_h, c_h = (np.concatenate((arr, np.full(n, value))) for arr, value
                       in zip((coeffs.rho_h, coeffs.b_h, coeffs.c_h),
                              coeffs.tail))
    F = None if coeffs.F is None else np.pad(coeffs.F, ((0, 0), (0, n)))
    extended = SampledCoefficients(rho_h=rho_h, b_h=b_h, c_h=c_h, F=F,
                                   G=coeffs.G, U0=np.pad(coeffs.U0, (0, n)))
    return extended, Mesh(x=x, tau=mesh.tau, M=mesh.M)


def reference_solution_csv(U, exact, mesh):
    """Bytes of ``solution.csv`` written row by row with ``csv.writer``.

    One ``writerow`` per node and level, every float through ``_fmt``:
    the direct reference for the numpy writer of ``cli solve``.  The
    ``#`` timestamp line is not included.
    """
    handle = io.StringIO(newline="")
    writer = csv.writer(handle)
    writer.writerow(["m", "t", "j", "x", "U", "exact", "error"])
    times = mesh.times()
    exact_grid = None
    if exact is not None:
        exact_grid = eval_on_grid(exact, mesh.x, times)
    for m in range(mesh.M + 1):
        for j in range(mesh.J + 1):
            u = U[m, j]
            if exact_grid is not None:
                e = exact_grid[m, j]
                row = [m, _fmt(times[m]), j, _fmt(mesh.x[j]),
                       _fmt(u), _fmt(e), _fmt(u - e)]
            else:
                row = [m, _fmt(times[m]), j, _fmt(mesh.x[j]),
                       _fmt(u), "", ""]
            writer.writerow(row)
    return handle.getvalue().encode("ascii")


def c_theta_apply(kappa, W, mesh, theta, j):
    """Averaged multiplication by a midpoint-sampled kappa at one node j.

    The pointwise reference for the stencil of ``validation.EnergyForm``.
    """
    if not 1 <= j <= mesh.J - 1:
        raise IndexError(f"averaged multiplication needs 1 <= j <= J-1, got j={j}")
    h, hbar = mesh.h, mesh.hbar
    s_hat = (h[j] * kappa[j] + h[j + 1] * kappa[j + 1]) / (2.0 * hbar[j])
    return (theta * (h[j] / hbar[j]) * kappa[j] * W[j - 1]
            + (1.0 - 2.0 * theta) * s_hat * W[j]
            + theta * (h[j + 1] / hbar[j]) * kappa[j + 1] * W[j + 1])


def norm_bar(W, mesh):
    """Half-cell norm: interior nodes weighted by hbar_j, the last by h_J / 2."""
    J = mesh.J
    return math.sqrt(float(np.dot(W[1:J] ** 2, mesh.hbar[1:J]))
                     + W[J] ** 2 * mesh.h_tail / 2.0)


def convolve_direct(kernel, history):
    """Boundary convolution at every level by the direct O(n^2) sum.

    The reference for the FFT convolution ``convolve_all``.
    """
    history = np.asarray(history, dtype=float)
    n = history.size
    full = np.convolve(kernel.R[:n], history)[:n]
    return full / (2.0 * kernel.params.h)


def dissipativity_sums_reference(kernel, probes):
    """Worst normalized quadratic sums of the convolution, probe by probe.

    Each row of ``probes`` is one sequence starting at zero; rows of zero
    norm are skipped.  The direct reference for ``certify_dissipativity``.
    """
    sigma, tau = kernel.params.sigma, kernel.params.tau
    worst_w = worst_i = -math.inf
    for phi in probes:
        S = convolve_direct(kernel, phi)
        avg = sigma * phi[1:] + (1.0 - sigma) * phi[:-1]
        inc = phi[1:] - phi[:-1]
        norm2 = float(np.dot(phi[1:], phi[1:])) * tau
        if norm2 == 0.0:
            continue
        worst_w = max(worst_w, float(np.dot(S[1:], avg)) * tau / norm2)
        worst_i = max(worst_i, float(np.dot(S[1:], inc)) / norm2)
    return worst_w, worst_i


def diagnose_energy_reference(result):
    """Energy identities and bounds by a Python loop over the levels.

    The lift is built densely: a copy of the trajectory with its column 0
    zeroed and a full forcing grid F + F~, F~ the lift's forcing at node 1
    from ``sub[1]`` of ``scheme_rows`` at sigma and sigma - 1.  Then five
    form evaluations on grid vectors per level and the direct convolution:
    the reference for the block evaluation of ``diagnose_energy``, with the
    same fields.
    """
    mesh = result.mesh
    coeffs = result.coeffs
    cfg = result.config
    kernel = result.kernel
    sigma, theta = cfg.sigma, cfg.theta
    tau, M, J = mesh.tau, mesh.M, mesh.J
    b_inf = coeffs.tail[1]

    rho_h, b_h, c_h = coeffs.rho_h, coeffs.b_h, coeffs.c_h
    g = result.U[:, 0].copy()
    U = result.U.copy()
    U[:, 0] = 0.0
    F = np.zeros((M + 1, J + 1)) if coeffs.F is None else coeffs.F.copy()
    if np.any(g != 0.0):
        a_new = scheme_rows(coeffs, mesh, sigma, theta)[0][1]
        a_old = scheme_rows(coeffs, mesh, sigma - 1.0, theta)[0][1]
        for m in range(1, M + 1):
            F[m, 1] += -(a_new * g[m] - a_old * g[m - 1]) / mesh.hbar[1]
    mass = EnergyForm(mesh, theta, rho_h)
    react_form = EnergyForm(mesh, theta, c_h)

    def mass2(V):
        return mass.evaluate(V, V)

    def flux(V):
        dV = (V[1:] - V[:-1]) / mesh.h[1:]
        return float(np.dot(b_h[1:] * dV * dV, mesh.h[1:]))

    def ell2(V):
        return react_form.evaluate(V, V) + flux(V)

    if kernel is not None:
        S = convolve_direct(kernel, U[:, J])
    else:
        S = np.zeros(M + 1)

    mass2_0 = mass2(U[0])
    ell2_0 = ell2(U[0])
    h_in = mesh.hbar[1:J]

    acc_dmass = acc_flux = acc_react = acc_S1 = acc_F1 = 0.0
    acc_dmass_t = acc_dell = acc_S2 = acc_F2 = acc_Fnorm = acc_Fnorm2 = 0.0
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
        react = react_form.evaluate(Us, Us)
        f_row = F[m]
        acc_dmass += n_dU_mass * tau * tau
        acc_flux += flux(Us) * tau
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
        scale1 = max(abs(v) for v in terms1)
        if scale1 > 0.0:
            worst_first = max(worst_first, res1 / scale1)

        terms2 = (acc_dmass_t, 0.5 * ell2_m, (sigma - 0.5) * acc_dell,
                  -b_inf * acc_S2, 0.5 * ell2_0, acc_F2)
        res2 = abs(sum(terms2[:4]) - terms2[4] - terms2[5])
        scale2 = max(abs(v) for v in terms2)
        if scale2 > 0.0:
            worst_second = max(worst_second, res2 / scale2)

    rho_low = min(coeffs.rho_h[1:].tolist())
    lhs_sb = max(max_mass,
                 math.sqrt(2.0 * max(acc_flux + acc_react
                                     + (sigma - 0.5) * acc_dmass, 0.0)))
    rhs_sb = math.sqrt(max(mass2_0, 0.0))
    lhs_sbA = max(max_ell,
                  math.sqrt(2.0 * max(acc_dmass_t
                                      + (sigma - 0.5) * acc_dell, 0.0)))
    rhs_sbA = math.sqrt(max(ell2_0, 0.0))
    # mass-norm equivalence constant (0 from theta = 1/4 on) and the bound
    # of the time-averaging operator
    c_theta = min(1.0, 1.0 - 4.0 * theta) if theta < 0.25 else 0.0
    K_sigma = 2.0 * max(1.0, 2.0 * sigma - 1.0)
    if acc_Fnorm > 0.0:
        if c_theta == 0.0:
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
