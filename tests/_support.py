"""Shared problem builders and reference implementations for the test suite."""

import csv
import io
import math

import numpy as np

from parabolic_dtbc import (EnergyDiagnostics, ProblemSpec, derive_params,
                            iterated_erfc, kernel_by_recurrence, sample)
from parabolic_dtbc.cli import _fmt
from parabolic_dtbc.dtbc_kernel import LaggedConvolution
from parabolic_dtbc.stepper import TriFactor, level_matrix, scheme_weights
from parabolic_dtbc.validation import EnergyForm, eval_on_grid


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


def u2_reference(x, t):
    """The ramp solution evaluated on the levels t > 0 only.

    Broadcasts x and t, and evaluates 32 t^2 I_4(x / (2 sqrt(t))) on the
    points with t > 0 by boolean indexing, leaving 0 elsewhere: the
    reference for the ``np.where`` form of ``u2``.
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


def thomas_solve(factor, rhs):
    """Pure-Python Thomas sweep on the pivot-free factors of a TriFactor.

    Forward substitution with the unit lower factor (multipliers ``dl``),
    then back substitution with the pivots ``d`` and the superdiagonal
    ``du``: the direct reference for the LAPACK solve of ``TriFactor``.
    Has the signature and the in-place contract of ``TriFactor.solve``
    (``rhs`` is overwritten with the solution and returned), so it can
    stand in for it.
    """
    dl, d, du = factor.dl.tolist(), factor.d.tolist(), factor.du.tolist()
    n = len(d)
    x = rhs.tolist()
    for i in range(1, n):
        x[i] -= dl[i - 1] * x[i - 1]
    x[n - 1] /= d[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = (x[i] - du[i] * x[i + 1]) / d[i]
    rhs[:] = x
    return rhs


def march_loop_reference(problem, mesh, config):
    """``march`` as a per-level loop with a fresh right-hand side per level.

    Each level samples ``g``, forms the interior rows as one expression
    with the forcing added, the boundary row as numpy scalars, solves into
    a new vector and copies it into the trajectory; ``problem.f`` must be
    given.  Returns ``(U, min_pivot)``: the direct reference for the
    in-place level of ``march``.
    """
    coeffs = sample(problem, mesh)
    kernel = None
    if config.boundary == "dtbc":
        params = derive_params(*coeffs.tail, mesh.h_tail, mesh.tau,
                               config.sigma, config.theta)
        kernel = kernel_by_recurrence(params, mesh.M)

    J, M = mesh.J, mesh.M
    F = coeffs.F
    factor = TriFactor(*level_matrix(coeffs, mesh, config, kernel))
    a_old, b_old = scheme_weights(coeffs, mesh, config.sigma - 1.0, config.theta)
    a_lo, a_hi = a_old[1:J], a_old[2:J + 1]
    b_mid = b_old[1:J] + b_old[2:J + 1]
    a_J, b_J = a_old[J], b_old[J]
    hbar = mesh.hbar[1:J]
    if kernel is not None:
        gain = kernel.params.b_inf / (2.0 * mesh.h_tail)
        conv = LaggedConvolution(kernel.R)

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
            rhs_J += gain * conv.lagged(hist, m)
        rhs[J] = rhs_J
        U = factor.solve(rhs)
        traj[m] = U
        hist[m] = U[J]
    return traj, factor.min_pivot


def reference_solution_csv(U, exact, mesh):
    """Bytes of ``solution.csv`` written row by row with ``csv.writer``.

    One ``writerow`` per node and level, every float through ``_fmt``:
    the direct reference for the template writer of ``cli solve``.  The
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

    Five form evaluations on grid vectors per level and the direct
    convolution: the reference for the block evaluation of
    ``diagnose_energy``, with the same fields.
    """
    U = result.U
    mesh = result.mesh
    coeffs = result.coeffs
    cfg = result.config
    kernel = result.kernel
    sigma, theta = cfg.sigma, cfg.theta
    tau, M, J = mesh.tau, mesh.M, mesh.J
    _, b_inf, c_inf = coeffs.tail

    if np.max(np.abs(U[:, 0])) > 1e-13 * (1.0 + np.max(np.abs(U))):
        raise ValueError("energy diagnostics require zero left boundary data")

    rho_h, b_h, c_h, F = coeffs.rho_h, coeffs.b_h, coeffs.c_h, coeffs.F
    if F is None:
        F = np.zeros((M + 1, J + 1))
    mass = EnergyForm(mesh, theta, rho_h, rho_h[J])
    ell = EnergyForm(mesh, theta, c_h, c_inf, b_h)
    react_form = EnergyForm(mesh, theta, c_h, c_h[J])

    def mass2(V):
        return mass.evaluate(V, V)

    def ell2(V):
        return ell.evaluate(V, V)

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
        dUs = (Us[1:] - Us[:-1]) / mesh.h[1:]
        flux = float(np.dot(b_h[1:] * dUs * dUs, mesh.h[1:]))
        react = react_form.evaluate(Us, Us)
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
