import math
import re
from dataclasses import replace

import numpy as np
import pytest

from parabolic_dtbc import (Kernel, ProblemSpec, SchemeConfig, build_mesh,
                            derive_params, error_report, example1, example2,
                            kernel_by_recurrence, march, march_reference,
                            march_sampled, sample)
from parabolic_dtbc.dtbc_kernel import BLOCK
from parabolic_dtbc.stepper import (BOUNDARY_MODES, SolverError, TriFactor,
                                    scheme_weights)

from _support import (convolve_direct, extend_sampled, march_loop_reference,
                      random_h0_problem, scheme_rows, thomas_solve,
                      zero_forcing, zero_problem)


def test_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig(sigma=0.4, theta=0.0)
    with pytest.raises(ValueError):
        SchemeConfig(sigma=0.5, theta=0.3)
    with pytest.raises(ValueError):
        SchemeConfig(sigma=0.5, theta=0.0, boundary="weird")
    # the enlarged-interval reference is march_reference, not a closure
    with pytest.raises(ValueError, match="unknown boundary mode 'reference'"):
        SchemeConfig(sigma=0.5, theta=0.0, boundary="reference")
    with pytest.raises(TypeError):
        SchemeConfig(0.5, 0.0, "dtbc", extension_factor=7)
    assert BOUNDARY_MODES == ("dtbc", "neumann")


def _factored_rows(monkeypatch, coeffs, mesh, cfg):
    """March ``coeffs`` and return the rows ``(sub, diag, sup)`` that
    ``march_sampled`` hands to :class:`TriFactor`, with the run."""
    seen = []

    class Recording(TriFactor):
        def __init__(self, sub, diag, sup):
            seen.append(np.array([sub, diag, sup]))
            super().__init__(sub, diag, sup)

    monkeypatch.setattr("parabolic_dtbc.stepper.TriFactor", Recording)
    result = march_sampled(coeffs, mesh, cfg)
    (rows,) = seen
    return rows, result


def test_interior_row_hand_case(monkeypatch):
    # rho = b = 1, c = 0, h = tau = 1, sigma = 1, theta = 0:
    # upper-level row is (-1, 3, -1); old-level weights reduce to the
    # identity acting on the previous solution
    prob = random_h0_problem(0, np.arange(5.0), X0=3.0, X=4.0)
    mesh = build_mesh(4.0, 4, tau=1.0, M=2)
    coeffs = sample(prob, mesh)
    cfg = SchemeConfig(sigma=1.0, theta=0.0, boundary="neumann")
    # alpha_j = -1, beta_j = 3/2 at weight 1; alpha_j = 0, beta_j = 1/2 at 0
    rows = np.array(scheme_weights(coeffs, mesh, 1.0, 0.0))
    assert np.array_equal(rows, [[0.0, -1.0, -1.0, -1.0, -1.0],
                                 [0.0, 3.0, 3.0, 3.0, 1.5],
                                 [0.0, -1.0, -1.0, -1.0, 0.0]])
    rows = np.array(scheme_weights(coeffs, mesh, 0.0, 0.0))
    assert np.array_equal(rows, [[0.0] * 5, [0.0, 1.0, 1.0, 1.0, 0.5],
                                 [0.0] * 5])
    # the matrix adds the Dirichlet identity in row 0
    rows, _ = _factored_rows(monkeypatch, coeffs, mesh, cfg)
    assert np.array_equal(rows, [[0.0, -1.0, -1.0, -1.0, -1.0],
                                 [1.0, 3.0, 3.0, 3.0, 1.5],
                                 [0.0, -1.0, -1.0, -1.0, 0.0]])
    # the level-1 right-hand side couples only the same node of level 0
    U_prev = coeffs.U0
    assert np.any(U_prev[1:4] != 0.0)
    U = march(prob, mesh, cfg).U
    lhs = -U[1, 0:3] + 3.0 * U[1, 1:4] - U[1, 2:5]
    assert lhs == pytest.approx(U_prev[1:4], abs=1e-14)


def test_boundary_row_differs_from_neumann_exactly_by_kernel_head(monkeypatch):
    # on the graded mesh the gain's tail step h_J is ten times h_1
    prob, _ = example2()
    cfg_d = SchemeConfig(sigma=0.5, theta=1.0 / 12.0, boundary="dtbc")
    cfg_n = SchemeConfig(sigma=0.5, theta=1.0 / 12.0, boundary="neumann")
    graded = [0.0, 0.02, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0]
    for mesh in (build_mesh(1.0, 10, tau=0.01, M=5),
                 build_mesh(1.0, tau=0.01, M=5, nodes=graded)):
        coeffs = sample(prob, mesh)
        params = derive_params(1.0, 1.0, 0.0, mesh.h_tail, mesh.tau, 0.5,
                               1.0 / 12.0)
        kernel = kernel_by_recurrence(params, 5)
        sub_d, diag_d, sup_d = _factored_rows(monkeypatch, coeffs, mesh,
                                              cfg_d)[0]
        sub_n, diag_n, sup_n = _factored_rows(monkeypatch, coeffs, mesh,
                                              cfg_n)[0]
        J = mesh.J
        assert np.array_equal(sub_d, sub_n) and np.array_equal(sup_d, sup_n)
        assert np.array_equal(diag_d[:J], diag_n[:J])
        gain = 1.0 / (2.0 * mesh.h_tail)
        assert diag_d[J] == diag_n[J] - gain * kernel.R[0]


def test_tridiagonal_identity_system():
    n = 7
    rhs = np.arange(1.0, n + 1.0)
    factor = TriFactor(np.zeros(n), np.ones(n), np.zeros(n))
    assert np.array_equal(factor.solve(rhs.copy()), rhs)
    assert np.array_equal(factor.d, np.ones(n))


def test_tridiagonal_solve_works_in_place():
    # a row of a C-ordered trajectory is overwritten with its solution
    n = 6
    sub = np.full(n, -1.0)
    sup = np.full(n, -1.0)
    diag = np.full(n, 4.0)
    factor = TriFactor(sub, diag, sup)
    traj = np.arange(3.0 * n).reshape(3, n)
    rhs = traj[1].copy()
    row = traj[1]
    assert factor.solve(row) is row
    A = np.diag(diag) + np.diag(sub[1:], -1) + np.diag(sup[:-1], 1)
    assert np.max(np.abs(A @ traj[1] - rhs)) <= 1e-13 * np.max(np.abs(rhs))
    assert np.array_equal(traj[[0, 2]], np.arange(3.0 * n).reshape(3, n)[[0, 2]])
    # a strided or integer vector cannot be solved in place
    for bad in (np.arange(2.0 * n)[::2], np.arange(n)):
        with pytest.raises(TypeError, match="in-place"):
            factor.solve(bad)


def test_tridiagonal_manufactured_solution():
    rng = np.random.default_rng(1)
    n = 40
    sub = np.concatenate(([0.0], rng.uniform(-1.0, 1.0, size=n - 1)))
    sup = np.concatenate((rng.uniform(-1.0, 1.0, size=n - 1), [0.0]))
    diag = rng.uniform(3.0, 4.0, size=n)  # strictly dominant
    x_true = rng.uniform(-1.0, 1.0, size=n)
    rhs = diag * x_true
    rhs[1:] += sub[1:] * x_true[:-1]
    rhs[:-1] += sup[:-1] * x_true[1:]
    solved = TriFactor(sub, diag, sup).solve(rhs)
    assert np.max(np.abs(solved - x_true)) < 1e-12 * np.max(np.abs(x_true))


def test_tridiagonal_zero_pivot_detected():
    with pytest.raises(SolverError, match="pivot in row 0 "):
        TriFactor(np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                  np.array([1.0, 0.0]))
    # row 1 eliminates to 1 - 1 * (1 / 1) = 0
    with pytest.raises(SolverError, match="pivot in row 1 "):
        TriFactor(np.array([0.0, 1.0, 1.0]), np.ones(3),
                  np.array([1.0, 1.0, 0.0]))


def test_non_finite_matrix_or_pivot_is_named_by_row():
    # abs(nan) <= floor is false, so a NaN entry is checked on its own
    with pytest.raises(SolverError, match="non-finite entry in row 1 "):
        TriFactor(np.zeros(3), np.array([1.0, np.nan, 1.0]), np.zeros(3))
    # finite entries whose elimination overflows: 1e300 / 1e-10 is inf,
    # times a zero multiplier NaN, times a unit one inf
    for mult in (0.0, 1.0):
        with pytest.raises(SolverError, match="non-finite pivot in row 1 "):
            TriFactor(np.array([0.0, mult, 0.0]), np.array([1e-10, 1.0, 1.0]),
                      np.array([1e300, 0.0, 0.0]))
    # tau = 1e-310 overflows h rho / tau: an infinite row 1, not a zero
    # pivot in row 0 under a floor of inf
    prob, _ = example2()
    mesh = build_mesh(1.0, 10, tau=1e-310, M=5)
    for mode in BOUNDARY_MODES:
        with pytest.raises(SolverError, match="non-finite entry in row 1 "):
            march(prob, mesh, SchemeConfig(0.5, 1.0 / 12.0, mode))


@pytest.mark.parametrize("n", [3, 51, 2001])
def test_tridiagonal_solve_matches_dense(n):
    rng = np.random.default_rng(n)
    sub = np.concatenate(([0.0], rng.uniform(-1.0, 1.0, size=n - 1)))
    sup = np.concatenate((rng.uniform(-1.0, 1.0, size=n - 1), [0.0]))
    diag = rng.uniform(3.0, 4.0, size=n)  # strictly dominant
    A = np.diag(diag) + np.diag(sub[1:], -1) + np.diag(sup[:-1], 1)
    rhs = rng.uniform(-1.0, 1.0, size=n)
    ref = np.linalg.solve(A, rhs)
    solved = TriFactor(sub, diag, sup).solve(rhs)
    assert np.max(np.abs(solved - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_tridiagonal_solve_needs_three_rows():
    # LAPACK's gttrs wrapper rejects n <= 2; march always has n = J + 1 >= 3
    with pytest.raises(ValueError, match="n >= 3"):
        TriFactor(np.zeros(2), np.ones(2), np.zeros(2))


def test_tridiagonal_solve_failure_is_a_solver_error(monkeypatch):
    import scipy.linalg.lapack
    monkeypatch.setattr(scipy.linalg.lapack, "dgttrs",
                        lambda *args, **kwargs: (args[5], -6))
    factor = TriFactor(np.zeros(3), np.ones(3), np.zeros(3))
    with pytest.raises(SolverError, match="info=-6"):
        factor.solve(np.ones(3))


@pytest.mark.filterwarnings("ignore::UserWarning", "error::RuntimeWarning")
def test_overflowing_trajectory_is_a_solver_failure():
    # finite but huge boundary data overflow at the first level; the
    # SolverError is the only signal, no RuntimeWarning comes first
    prob, _ = example2()
    prob = replace(prob, g=lambda t: 1e307)
    mesh = build_mesh(1.0, 50, tau=1e-3, M=5)
    with pytest.raises(SolverError, match="not finite from level 1 "):
        march(prob, mesh, SchemeConfig(0.5, 1.0 / 12.0, "dtbc"))


@pytest.mark.parametrize("mode", BOUNDARY_MODES)
def test_dirichlet_column_is_g_bit_for_bit(mode):
    # the column is G: -0.0 at levels 3 and 13, a subnormal at 5, +-1e300
    # at 8 and 11.  dgttrs subtracts 0 * U_1 from row 0, which turns -0.0
    # into +0.0 beside a negative U_1, as at level 13 after the -1e300, so
    # the column is written again after the loop
    tau = 0.01
    special = {3: -0.0, 5: 5e-324, 8: 1e300, 11: -1e300, 13: -0.0}

    def g(t):
        t = np.asarray(t, dtype=float)
        level = np.rint(t / tau)
        out = 0.25 * t
        for m, value in special.items():
            out = np.where(level == m, value, out)
        return out

    prob, _ = example2()
    mesh = build_mesh(1.0, 10, tau=tau, M=14)
    res = march(replace(prob, g=g), mesh, SchemeConfig(0.5, 1.0 / 12.0, mode))
    G = res.coeffs.G
    assert [G[m] for m in special] == list(special.values())
    assert np.all(np.signbit(G[[3, 13]]))
    assert np.all(res.U[3, 1:3] > 0.0) and res.U[13, 1] < 0.0
    assert res.U[1:, 0].tobytes() == G[1:].tobytes()


def test_zero_data_gives_zero_trajectory():
    # zero state and zero forcing give an exactly zero right-hand side
    prob = zero_problem()
    mesh = build_mesh(1.0, 10, tau=0.02, M=20)
    for mode in ("neumann", "dtbc"):
        res = march(prob, mesh, SchemeConfig(0.5, 1.0 / 12.0, mode))
        assert np.all(res.U == 0.0)


def test_march_is_deterministic():
    prob, _ = example2()
    mesh = build_mesh(1.0, 10, tau=0.01, M=40)
    cfg = SchemeConfig(0.5, 1.0 / 12.0, "dtbc")
    U1 = march(prob, mesh, cfg).U
    U2 = march(prob, mesh, cfg).U
    assert np.array_equal(U1, U2)


def test_first_level_matches_reference_closure():
    prob, _ = example2()
    mesh = build_mesh(1.0, 10, tau=0.01, M=1)
    res_d = march(prob, mesh, SchemeConfig(0.5, 1.0 / 12.0, "dtbc"))
    res_r = march_reference(prob, mesh, SchemeConfig(0.5, 1.0 / 12.0, "neumann"),
                            5.0, doubling_check=False)
    assert abs(res_d.U[1, -1] - res_r.U[1, -1]) < 1e-12


def test_transparent_closure_reproduces_reference_trajectory():
    prob, _ = example2()
    mesh = build_mesh(1.0, 10, tau=0.02, M=50)
    cfg = SchemeConfig(0.5, 1.0 / 12.0, "dtbc")
    res_d = march(prob, mesh, cfg)
    res_r = march_reference(prob, mesh, cfg, 5.0)
    assert np.max(np.abs(res_d.U - res_r.U)) < 1e-8


def test_reference_doubling_agreement_for_short_horizon():
    prob, _ = example2()
    mesh = build_mesh(1.0, 10, tau=0.01, M=5)
    base = march_reference(prob, mesh, SchemeConfig(0.5, 0.0, "neumann"), 2.0,
                           doubling_check=False)
    double = march_reference(prob, mesh, SchemeConfig(0.5, 0.0, "neumann"), 4.0,
                             doubling_check=False)
    assert np.max(np.abs(base.U - double.U)) <= 1e-10
    # the built-in check accepts the run and reports the zero-flux closure
    checked = march_reference(prob, mesh, SchemeConfig(0.5, 0.0, "dtbc"), 2.0)
    assert checked.U.tobytes() == base.U.tobytes()
    assert checked.config == SchemeConfig(0.5, 0.0, "neumann")
    assert checked.kernel is None


def test_reference_doubling_failure_is_a_solver_error():
    # over 50 levels the far boundary at twice the interval reaches the window
    prob, _ = example2()
    mesh = build_mesh(1.0, 10, tau=0.01, M=50)
    cfg = SchemeConfig(0.5, 1.0 / 12.0, "dtbc")
    with pytest.raises(SolverError, match=r"contaminates the window: .* by "
                       r"2\.49e-05 \(tolerance 1e-09\)"):
        march_reference(prob, mesh, cfg, 2.0)


def test_reference_checks_the_run_mesh_before_any_march(monkeypatch):
    # the last step [0.75, 1] straddles X0 = 0.8; every enlarged mesh has
    # a tail step clear of X0, so only the run's own mesh fails
    marched = []
    monkeypatch.setattr("parabolic_dtbc.stepper.march",
                        lambda *args: marched.append(args))
    mesh = build_mesh(1.0, 4, tau=0.01, M=5)
    with pytest.raises(ValueError, match="tail step h_J=0.25 exceeds"):
        march_reference(zero_problem(X0=0.8), mesh, SchemeConfig(0.5, 0.0), 3.0)
    assert marched == []


def extension_gap(problem, J, M, tau, boundary="dtbc"):
    """Largest move at nodes 0..J, over every level and relative to max|U|,
    when the sampled data are continued by ceil(J/2) tail cells."""
    mesh = build_mesh(problem.X, J, tau=tau, M=M)
    coeffs = sample(problem, mesh)
    cfg = SchemeConfig(0.5, 1.0 / 12.0, boundary)
    U = march_sampled(coeffs, mesh, cfg).U
    V = march_sampled(*extend_sampled(coeffs, mesh, math.ceil(J / 2)), cfg).U
    return float(np.max(np.abs(U - V[:, :J + 1])) / np.max(np.abs(U)))


def test_transparent_closure_holds_over_the_whole_horizon():
    # the paper's claim: the closed scheme is the untruncated one on 0..J,
    # so moving the boundary out by J/2 cells moves nothing but roundoff
    # (8.9e-15 here) over all 5000 levels
    prob, _ = example2()
    assert extension_gap(prob, 50, 5000, 2e-4) <= 1e-12


@pytest.mark.parametrize("boundary, entries, factor", [
    ("neumann", None, None), ("dtbc", slice(2, None), 1.05),
    ("dtbc", 7, 1.0 + 1e-9)], ids=["zero-flux", "R[2:]*1.05", "R[7]*(1+1e-9)"])
def test_whole_horizon_check_fails_on_a_wrong_closure(monkeypatch, boundary,
                                                      entries, factor):
    # read: zero-flux 0.16, the scaled kernel tail 0.14, and one kernel
    # entry off by 1e-9 still 5.0e-11
    def mutated(params, M):
        R = kernel_by_recurrence(params, M).R.copy()
        R[entries] *= factor
        return Kernel(R=R, params=params)

    if entries is not None:
        monkeypatch.setattr("parabolic_dtbc.stepper.kernel_by_recurrence",
                            mutated)
    prob, _ = example2()
    assert extension_gap(prob, 50, 5000, 2e-4, boundary) > 1e-12


def test_march_sampled_rejects_samples_that_do_not_fit_the_mesh():
    # unchecked, a wider F would be sliced to the mesh's nodes and a
    # one-entry coefficient array broadcast, with no error
    prob = replace(example2()[0], f=zero_forcing)
    mesh = build_mesh(1.0, 10, tau=0.01, M=5)
    coeffs = sample(prob, mesh)
    cfg = SchemeConfig(0.5, 1.0 / 12.0)
    for name, bad, needs in (("F", np.zeros((6, 12)), "(6, 11)"),
                             ("U0", np.zeros(10), "(11,)"),
                             ("G", coeffs.G[:-1], "(6,)"),
                             ("rho_h", np.ones(1), "(11,)")):
        message = (f"sampled {name} has shape {bad.shape}; the mesh "
                   f"(J=10, M=5) needs {needs}")
        with pytest.raises(ValueError, match=re.escape(message)):
            march_sampled(replace(coeffs, **{name: bad}), mesh, cfg)


@pytest.mark.parametrize("factor", [None, 1.5, float("nan"), float("inf")])
def test_reference_needs_a_finite_factor_of_at_least_two(factor):
    prob, _ = example2()
    mesh = build_mesh(1.0, 10, tau=0.01, M=5)
    with pytest.raises(ValueError, match="2 <= extension_factor < inf"):
        march_reference(prob, mesh, SchemeConfig(0.5, 0.0, "dtbc"), factor)


def test_enlarged_interval_recovers_accuracy_for_gaussian():
    # tripling the interval brings the plain zero-flux closure down to the
    # transparent closure's error level
    prob, exact = example1()
    mesh = build_mesh(2.5, 50, tau=1.0 / 200.0, M=200)
    cfg = SchemeConfig(0.5, 1.0 / 12.0, "dtbc")
    err_d = error_report(march(prob, mesh, cfg).U, exact, mesh).max_abs_error
    res_r = march_reference(prob, mesh, cfg, 3.0, doubling_check=False)
    err_r = error_report(res_r.U, exact, mesh).max_abs_error
    assert err_r < 2.0 * err_d


def test_shrinking_the_interval_keeps_transparent_accuracy():
    # with zero initial data the closure is exact at any truncation point
    prob, exact = example2()
    mesh = build_mesh(0.2, 2, tau=0.01, M=100)
    res = march(prob, mesh, SchemeConfig(0.5, 1.0 / 12.0, "dtbc"))
    err = error_report(res.U, exact, mesh).max_abs_error
    assert err < 1e-5


def _dense_scheme_pivot(res):
    """Smallest |U_jj|, j = 1..J, of dense Gaussian elimination without
    pivoting on the level matrix of ``res``, built from ``scheme_rows``."""
    mesh, cfg, J = res.mesh, res.config, res.mesh.J
    sub, diag, sup = scheme_rows(res.coeffs, mesh, cfg.sigma, cfg.theta)
    diag[0] = 1.0
    if res.kernel is not None:
        diag[J] -= res.kernel.params.b_inf / (2.0 * mesh.h_tail) * res.kernel.R[0]
    A = np.diag(diag) + np.diag(sub[1:], -1) + np.diag(sup[:-1], 1)
    for k in range(J):
        A[k + 1:, k:] -= np.outer(A[k + 1:, k] / A[k, k], A[k, k:])
    return float(np.min(np.abs(np.diag(A)[1:])))


def test_pivots_bounded_away_from_zero_across_weights():
    # min_pivot is the smallest pivot of the scheme's rows 1..J: the
    # Dirichlet row 0 has pivot 1, which would hide every smaller scheme
    # pivot (0.80 at tau = 1) and read 1 on every run
    prob, _ = example2()
    cases = [(prob, build_mesh(1.0, J, tau=tau, M=5))
             for J, tau in ((10, 0.01), (10, 1.0), (2, 0.01))]
    for prob, mesh in cases + [_forced_graded_problem()]:
        for sigma in (0.5, 1.0):
            for theta in (0.0, 1.0 / 12.0, 1.0 / 6.0, 0.25):
                for mode in ("dtbc", "neumann"):
                    res = march(prob, mesh, SchemeConfig(sigma, theta, mode))
                    # equal bit for bit on these cases, but the two
                    # eliminations associate the update differently
                    assert res.min_pivot == pytest.approx(
                        _dense_scheme_pivot(res), rel=1e-14)
                    assert res.min_pivot > 0.0


def test_full_system_assembly_places_dirichlet_row(monkeypatch):
    prob, _ = example2()
    mesh = build_mesh(1.0, 10, tau=0.01, M=30)
    coeffs = sample(prob, mesh)
    for mode in ("dtbc", "neumann"):
        cfg = SchemeConfig(0.5, 1.0 / 12.0, mode)
        (_, diag, sup), result = _factored_rows(monkeypatch, coeffs, mesh, cfg)
        assert diag[0] == 1.0 and sup[0] == 0.0
        U = result.U
        # enforced exactly by the identity row at every level
        for m in range(1, mesh.M + 1):
            assert U[m, 0] == float(prob.g(m * mesh.tau))


def _forced_graded_problem():
    """Variable coefficients, forcing and boundary data on a graded mesh."""
    nodes = np.concatenate(([0.0, 0.05, 0.15, 0.3, 0.5],
                            np.arange(0.6, 1.0001, 0.1)))
    base = random_h0_problem(4, nodes, X0=0.5, X=1.0, variable=True)

    def f(x, t):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.5, np.sin(2.0 * np.pi * x) * np.cos(3.0 * t), 0.0)

    prob = replace(base, f=f, g=lambda t: np.sin(5.0 * t))
    return prob, build_mesh(1.0, tau=0.01, M=30, nodes=nodes)


@pytest.mark.parametrize("mode", ["dtbc", "neumann"])
@pytest.mark.parametrize("case", ["uniform", "graded", "long"])
def test_every_level_satisfies_its_dense_system(case, mode):
    # assemble each level densely from the point weights and the kernel,
    # with the boundary convolution summed in full, and check the level;
    # "long" spans six dyadic block sizes of the online convolution
    if case == "uniform":
        prob, _ = example2()
        mesh = build_mesh(1.0, 10, tau=0.01, M=30)
    elif case == "long":
        prob, _ = example2()
        M = 33 * BLOCK
        mesh = build_mesh(1.0, 10, tau=1.0 / M, M=M)
    else:
        prob, mesh = _forced_graded_problem()
    sigma, theta = 0.5, 1.0 / 12.0
    res = march(prob, mesh, SchemeConfig(sigma, theta, mode))
    coeffs, J = res.coeffs, mesh.J
    assert (coeffs.F is not None) == (case == "graded")
    A, B = (np.diag(sub[1:], -1) + np.diag(diag) + np.diag(sup[:-1], 1)
            for sub, diag, sup in (scheme_rows(coeffs, mesh, w, theta)
                                   for w in (sigma, sigma - 1.0)))
    A[0, 0] = 1.0
    flux = np.zeros(mesh.M + 1)
    if mode == "dtbc":
        # b_inf / (2 h) * sum_{q=0..m} R_q Phi_{m-q}, the closure's flux term
        flux = res.coeffs.b_h[-1] * convolve_direct(res.kernel, res.U[:, J])
    for m in range(1, mesh.M + 1):
        U, V = res.U[m], res.U[m - 1]
        rhs = B @ V
        rhs[0] = prob.g(m * mesh.tau)
        if coeffs.F is not None:
            rhs[1:J] += mesh.hbar[1:J] * coeffs.F[m, 1:J]
        lhs = A @ U
        lhs[J] -= flux[m]
        scale = (np.abs(A) @ np.abs(U) + np.abs(B) @ np.abs(V)
                 + np.abs(rhs) + abs(flux[m]))
        assert np.max(np.abs(lhs - rhs)) <= 1e-13 * np.max(scale), m


@pytest.mark.parametrize("mode", ["dtbc", "neumann"])
@pytest.mark.parametrize("case", ["uniform", "graded"])
@pytest.mark.parametrize("theta", [0.0, 1.0 / 12.0, 0.25])
@pytest.mark.parametrize("sigma", [0.5, 1.0])
def test_lapack_solve_matches_python_sweep(sigma, theta, case, mode,
                                           monkeypatch):
    # the same march with every level solved by the pure-Python sweep
    if case == "uniform":
        prob, _ = example1()
        mesh = build_mesh(2.5, 50, tau=0.005, M=100)
    else:
        prob, mesh = _forced_graded_problem()
    cfg = SchemeConfig(sigma, theta, mode)
    fast = march(prob, mesh, cfg).U
    sweeps = []

    def counted(*args):
        sweeps.append(args[5].size)
        return thomas_solve(*args)

    # the march imports the routine when it starts, so the patch reaches it
    monkeypatch.setattr("scipy.linalg.lapack.dgttrs", counted)
    direct = march(prob, mesh, cfg).U
    # the sweep stood in for every level's solve, so the check is not void
    assert sweeps == [mesh.J + 1] * mesh.M
    assert np.max(np.abs(fast - direct)) <= 1e-13 * np.max(np.abs(direct))


LEVEL_LOOP_CASES = {
    "long": lambda: (example2()[0],
                     build_mesh(1.0, 10, tau=1.0 / (33 * BLOCK), M=33 * BLOCK)),
    "forced-graded": _forced_graded_problem,
    "unforced": lambda: (
        replace(random_h0_problem(5, np.linspace(0.0, 1.0, 11), 0.5, 1.0,
                                  variable=True), f=None),
        build_mesh(1.0, 10, tau=0.01, M=300)),
}


@pytest.mark.parametrize("mode", ["dtbc", "neumann"])
@pytest.mark.parametrize("case", sorted(LEVEL_LOOP_CASES))
@pytest.mark.parametrize("theta", [0.0, 1.0 / 12.0, 0.25])
@pytest.mark.parametrize("sigma", [0.5, 1.0])
def test_march_matches_the_level_loop_reference(sigma, theta, case, mode):
    # the in-place level is the per-level loop: bit for bit under the
    # zero-flux closure; under the transparent one the loop sums the
    # convolution directly, so the two paths share no convolution code and
    # agree to roundoff (2e-15 of max|U| measured).  An unforced problem
    # (f is None) marches as the loop does with a zero forcing
    prob, mesh = LEVEL_LOOP_CASES[case]()
    cfg = SchemeConfig(sigma, theta, mode)
    res = march(prob, mesh, cfg)
    assert (res.coeffs.F is None) == (case != "forced-graded")
    if prob.f is None:
        prob = replace(prob, f=zero_forcing)
    U, min_pivot = march_loop_reference(prob, mesh, cfg)
    if mode == "neumann":
        assert res.U.tobytes() == U.tobytes()
    else:
        assert np.max(np.abs(res.U - U)) <= 1e-13 * np.max(np.abs(U))
    assert res.min_pivot == min_pivot


RHS_CASES = {
    # zero data from u0 = -0.0: every old-level product is -0.0
    "signed-zero": lambda: (
        replace(zero_problem(), f=None,
                u0=lambda x: np.full(np.shape(x), -0.0)),
        build_mesh(1.0, 10, tau=1e-3, M=3)),
    "forced-graded": _forced_graded_problem,
}


@pytest.mark.parametrize("mode", BOUNDARY_MODES)
@pytest.mark.parametrize("case", sorted(RHS_CASES))
def test_level_right_hand_side_is_the_three_ufunc_product(case, mode,
                                                          monkeypatch):
    # each level's right-hand side, seen by the solve, is byte for byte the
    # old-level product of the level the previous solve returned, formed as
    # multiply + add + add (then the forcing), with the boundary row as
    # a_J u_{J-1} + b_J u_J; signed zeros included, which a mat-vec summed
    # from +0.0 gets wrong.  Row J under the transparent closure also holds
    # the convolution, which the level-loop tests check
    prob, mesh = RHS_CASES[case]()
    cfg = SchemeConfig(0.5, 1.0 / 12.0, mode)
    seen, solved = [], []
    from scipy.linalg.lapack import dgttrs

    def recorded(*args):
        seen.append(args[5].copy())
        x, info = dgttrs(*args)
        solved.append(x.copy())
        return x, info

    monkeypatch.setattr("scipy.linalg.lapack.dgttrs", recorded)
    coeffs = march(prob, mesh, cfg).coeffs
    assert len(seen) == mesh.M
    J, F = mesh.J, coeffs.F
    sub, diag, sup = scheme_rows(coeffs, mesh, cfg.sigma - 1.0, cfg.theta)
    weights = np.stack((sub[1:J], diag[1:J], sup[1:J]))
    rows = J + 1 if mode == "neumann" else J
    for m, (rhs, prev) in enumerate(zip(seen, [coeffs.U0] + solved), 1):
        expect = np.empty(J + 1)
        expect[0] = coeffs.G[m]
        lo, mid, hi = weights * np.stack((prev[:J - 1], prev[1:J], prev[2:]))
        expect[1:J] = np.add(np.add(lo, mid), hi)
        if F is not None:
            expect[1:J] += mesh.hbar[1:J] * F[m, 1:J]
        expect[J] = sub[J] * prev[J - 1] + diag[J] * prev[J]
        assert rhs[:rows].tobytes() == expect[:rows].tobytes(), m
    if case == "signed-zero":
        assert np.all(np.signbit(seen[0][1:rows]))


def test_observed_order_on_constant_coefficients():
    # example2 with tau = h^2 to T = 1/4: at sigma = 1/2, theta = 1/12 is
    # fourth order in h on constant coefficients (4.00, 4.00 measured), the
    # other weights second order (1.99-2.01); sigma != 1/2 is first order
    # in tau, so second order in h for every theta (sigma = 1: 2.00 for
    # theta in {0, 1/12, 1/4}, sigma = 3/4, theta = 1/12: 2.00).  The
    # ramp's data vanish on the tail, so the closure adds no error of its
    # own; these rows check convergence, not the closure (closed with the
    # kernel of sigma = 1/2, the sigma = 1 rows still read 2.00, their
    # errors moved by about 1%)
    prob, exact = example2()
    for sigma, theta, low, high in [
            (0.5, 1.0 / 12.0, 3.8, np.inf), (0.5, 0.0, 1.8, 2.2),
            (0.5, 1.0 / 6.0, 1.8, 2.2), (0.5, 0.25, 1.8, 2.2),
            (1.0, 0.0, 1.8, 2.2), (1.0, 1.0 / 12.0, 1.8, 2.2),
            (1.0, 0.25, 1.8, 2.2), (0.75, 1.0 / 12.0, 1.8, 2.2)]:
        errors = []
        for J in (20, 40, 80):
            mesh = build_mesh(1.0, J, tau=1.0 / J ** 2, M=J ** 2 // 4)
            res = march(prob, mesh, SchemeConfig(sigma, theta))
            errors.append(error_report(res.U, exact, mesh).max_abs_error)
        orders = np.log2(np.divide(errors[:-1], errors[1:]))
        assert np.all((low <= orders) & (orders <= high)), (sigma, theta,
                                                            orders)


def test_observed_order_on_variable_coefficients():
    # self-convergence on nested uniform meshes, tau = h^2 to T = 1/4: the
    # final levels of consecutive meshes differ on the coarse nodes by
    # O(h^2) for every theta once the coefficients vary (measured 1.90 /
    # 1.98 at sigma = 1/2, theta = 1/12, 2.09 / 2.02 at theta = 0, 1.97 /
    # 2.00 at theta = 1/4 and 1.99 / 2.00 at sigma = 1, theta = 1/12);
    # coefficients sampled at the right nodes instead of the midpoints
    # read 0.85-1.49 at sigma = 1/2 and 2.20 / 2.35 at sigma = 1
    X0 = 0.5
    prob = ProblemSpec(
        rho=lambda x: 1.0 + 4.0 * np.maximum(X0 - x, 0.0) ** 3,
        b=lambda x: 1.0 + 2.0 * np.maximum(X0 - x, 0.0) ** 3,
        c=lambda x: np.zeros(np.shape(x)), f=None, g=lambda t: t * t,
        u0=lambda x: np.zeros(np.shape(x)), X0=X0, X=1.0)
    for sigma, theta in [(0.5, 1.0 / 12.0), (0.5, 0.0), (0.5, 0.25),
                         (1.0, 1.0 / 12.0)]:
        finals = []
        for J in (10, 20, 40, 80):
            mesh = build_mesh(1.0, J, tau=1.0 / J ** 2, M=J ** 2 // 4)
            finals.append(march(prob, mesh, SchemeConfig(sigma, theta)).U[-1])
        diffs = [np.max(np.abs(coarse - fine[::2]))
                 for coarse, fine in zip(finals, finals[1:])]
        orders = np.log2(np.divide(diffs[:-1], diffs[1:]))
        assert np.all((1.8 <= orders) & (orders <= 2.2)), (sigma, theta,
                                                          orders)
