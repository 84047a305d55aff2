import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.special import erfc

from parabolic_dtbc import (SchemeConfig, build_mesh, certify_dissipativity,
                            convolve_all, derive_params, diagnose_energy,
                            error_report, iterated_erfc,
                            example2, kernel_by_recurrence, march, u1, u2)
from parabolic_dtbc import validation
from parabolic_dtbc.validation import EVAL_BLOCK_CELLS, eval_on_grid

from _support import (diagnose_energy_reference, dissipativity_sums_reference,
                      random_h0_problem, u2_reference, zero_problem)

# 30-digit reference values for the complementary error function,
# computed with arbitrary-precision arithmetic while writing this test
ERFC_REFS = {
    0.0: 1.0,
    0.5: 0.479500122186953462317253346108,
    1.0: 0.157299207050285130658779364917,
    2.0: 0.00467773498104726583793074363275,
}


def fd_heat_residual(fn, x, t, dx, dt):
    ut = (fn(x, t + dt) - fn(x, t - dt)) / (2.0 * dt)
    uxx = (fn(x + dx, t) - 2.0 * fn(x, t) + fn(x - dx, t)) / dx ** 2
    return abs(ut - uxx)


def observed_order(fn, points, step):
    r1 = max(fd_heat_residual(fn, x, t, step, step) for x, t in points)
    r2 = max(fd_heat_residual(fn, x, t, step / 2.0, step / 2.0)
             for x, t in points)
    return math.log2(r1 / r2)


def test_gaussian_pulse_peak_and_tail():
    assert u1(1.25, 0.0) == pytest.approx(1.0, abs=0.0)
    tail = u1(2.5, 0.0)
    assert tail == pytest.approx(3.7266531720786710e-6, rel=1e-12)
    assert tail < 3.8e-6


def test_gaussian_pulse_solves_heat_equation():
    rng = np.random.default_rng(0)
    points = [(rng.uniform(0.2, 2.2), rng.uniform(0.1, 1.0)) for _ in range(12)]
    assert observed_order(u1, points, 1e-2) >= 1.9


def test_ramp_solution_solves_heat_equation():
    rng = np.random.default_rng(1)
    points = [(rng.uniform(0.1, 0.9), rng.uniform(0.2, 1.0)) for _ in range(12)]
    assert observed_order(u2, points, 1e-2) >= 1.9


def test_erfc_backend_against_frozen_references():
    for xi, ref in ERFC_REFS.items():
        assert erfc(xi) == pytest.approx(ref, rel=1e-14)


def test_iterated_erfc_at_origin():
    assert iterated_erfc(0, 0.0) == 1.0
    assert iterated_erfc(1, 0.0) == pytest.approx(1.0 / math.sqrt(math.pi),
                                                  rel=1e-15)
    assert iterated_erfc(2, 0.0) == 0.25
    assert iterated_erfc(3, 0.0) == pytest.approx(1.0 / (6.0 * math.sqrt(math.pi)),
                                                  rel=1e-15)
    assert iterated_erfc(4, 0.0) == 1.0 / 32.0


def test_iterated_erfc_decays_monotonically():
    for n in range(5):
        vals = [iterated_erfc(n, xi) for xi in (1.0, 2.0, 4.0, 8.0)]
        assert all(v > 0.0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_iterated_erfc_rejects_out_of_range_order():
    with pytest.raises(ValueError):
        iterated_erfc(5, 0.0)
    with pytest.raises(ValueError):
        iterated_erfc(-1, 0.0)


def test_ramp_solution_boundary_and_initial_values():
    for x in (0.1, 0.5, 1.0):
        assert u2(x, 0.0) == 0.0
    for t in (0.01, 0.25, 0.5, 1.0):
        assert abs(u2(0.0, t) - t ** 2) <= 1e-13
    grid = u2(np.linspace(0.0, 1.0, 5)[None, :], np.array([[0.5], [1.0]]))
    assert grid.shape == (2, 5)


def test_ramp_solution_matches_masked_reference_bitwise():
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = np.concatenate(([0.0], rng.uniform(0.0, 3.0, 60),
                            10.0 ** rng.uniform(-8.0, 1.0, 20)))
        t = np.concatenate(([0.0], rng.uniform(0.0, 2.0, 40),
                            10.0 ** rng.uniform(-12.0, 0.0, 20)))
        rng.shuffle(x)
        rng.shuffle(t)
        for xs, ts in ((x[None, :], t[:, None]), (x[:t.size], t),
                       (x, 0.0), (0.0, t), (x, t[1]), (x[3], t)):
            got, ref = u2(xs, ts), u2_reference(xs, ts)
            assert got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()
    for xs, ts in ((0.0, 0.0), (0.7, 0.0), (0.0, 0.3), (0.7, 0.3)):
        got, ref = u2(xs, ts), u2_reference(xs, ts)
        assert type(got) is type(ref) is float
        assert np.float64(got).tobytes() == np.float64(ref).tobytes()


def test_error_report_zero_for_exact_samples():
    mesh = build_mesh(1.0, 10, tau=0.1, M=5)
    t = mesh.times()[:, None]
    traj = u2(mesh.x[None, :], t)
    rep = error_report(traj, u2, mesh)
    assert rep.max_abs_error == 0.0


def test_error_report_argmax_and_perturbation_monotonicity():
    mesh = build_mesh(1.0, 10, tau=0.1, M=5)
    def zero(x, t):
        return np.zeros(np.broadcast(x, t).shape)

    traj = np.zeros((6, 11))
    traj[3, 7] = 0.5
    rep = error_report(traj, zero, mesh)
    assert rep.max_abs_error == 0.5
    assert (rep.argmax_level, rep.argmax_node) == (3, 7)
    eps = 1e-3
    bumped = traj.copy()
    bumped[4, 2] += eps
    rep2 = error_report(bumped, zero, mesh)
    assert abs(rep2.max_abs_error - rep.max_abs_error) <= eps


def test_error_report_shape_validation():
    mesh = build_mesh(1.0, 10, tau=0.1, M=5)
    with pytest.raises(ValueError):
        error_report(np.zeros((3, 3)), u2, mesh)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_error_report_rejects_non_finite_exact_values(value):
    # non-finite at levels 2 and 4: the first one is named
    mesh = build_mesh(1.0, 10, tau=0.1, M=5)

    def exact(x, t):
        bad = (np.abs(t - 0.2) < 1e-9) | (np.abs(t - 0.4) < 1e-9)
        return np.where(bad, value, 0.0) + np.zeros_like(x)

    with pytest.raises(ValueError, match=r"not finite at level 2 \(t_m=0\.2\)"):
        error_report(np.zeros((6, 11)), exact, mesh)


def test_blocked_error_report_matches_full_grid():
    # four blocks of whole levels, equal maxima planted in the second and
    # third; the exact solution depends on x only, so both planted cells
    # carry bitwise the same error
    J = 50
    rows = EVAL_BLOCK_CELLS // (J + 1)
    M = 3 * rows + 17
    mesh = build_mesh(1.0, J, tau=1.0 / M, M=M)
    t = mesh.times()[1:]
    assert np.array_equal(eval_on_grid(u2, mesh.x, t),
                          u2(mesh.x[None, :], t[:, None]))
    def exact(x, t):
        return np.cos(3.0 * x) + 0.0 * t

    rng = np.random.default_rng(5)
    traj = np.cos(3.0 * mesh.x)[None, :] + rng.uniform(-1e-3, 1e-3,
                                                       size=(M + 1, J + 1))
    first, second = (rows + 40, 7), (2 * rows + 3, 7)
    traj[first] = traj[second] = 2.0
    rep = error_report(traj, exact, mesh)
    E = np.abs(traj[1:] - exact(mesh.x[None, :], t[:, None]))
    i, j = np.unravel_index(int(np.argmax(E)), E.shape)
    assert (rep.argmax_level, rep.argmax_node) == (i + 1, j) == first
    assert rep.max_abs_error == E[i, j] == E[second[0] - 1, second[1]]
    assert np.array_equal(rep.per_level[1:], E.max(axis=1))
    assert np.isnan(rep.per_level[0])


def test_eval_on_grid_falls_back_to_pointwise_per_block():
    # each callable fails on both blocks; one that also fails on a level
    # is evaluated point by point, and every value is the pointwise one
    J = 50
    M = EVAL_BLOCK_CELLS // (J + 1) + 3
    x = np.linspace(0.0, 1.0, J + 1)
    t = np.linspace(0.0, 1.0, M)

    def per_level(xs, ti):
        # an x-vector with a scalar t
        if np.ndim(ti):
            raise TypeError("scalar t only")
        return np.array([math.cos(xj + ti) for xj in xs.tolist()])

    cases = [  # callable, its pointwise values, calls beyond the two blocks
        (lambda xj, ti: math.cos(xj + ti), lambda xj, ti: math.cos(xj + ti),
         M + M * (J + 1)),
        (per_level, lambda xj, ti: math.cos(xj + ti), M),
        (lambda xs, ti: math.cos(ti), lambda xj, ti: math.cos(ti), M),
    ]
    for fn, point, extra_calls in cases:
        calls = []

        def counted(xs, ts):
            calls.append(1)
            return fn(xs, ts)

        vals = eval_on_grid(counted, x, t)
        assert vals.shape == (M, J + 1)
        assert len(calls) == 2 + extra_calls
        for i in (0, M // 2, M - 1):
            assert vals[i].tolist() == [point(float(xj), float(t[i]))
                                        for xj in x]


def test_error_report_memory_stays_bounded():
    # O(M) bookkeeping plus a few block-sized temporaries of the ramp
    # solution; evaluated on the whole grid at once they take about nine
    # times the trajectory's size
    _, exact = example2()
    J, M = 50, 20000
    mesh = build_mesh(1.0, J, tau=1.0 / M, M=M)
    traj = np.zeros((M + 1, J + 1))
    tracemalloc.start()
    try:
        error_report(traj, exact, mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (4 * (M + 1) + 16 * EVAL_BLOCK_CELLS)


def test_energy_diagnostics_zero_run():
    prob = zero_problem()
    mesh = build_mesh(1.0, 8, tau=0.05, M=10)
    res = march(prob, mesh, SchemeConfig(0.5, 0.0, "dtbc"))
    diag = diagnose_energy(res)
    assert diag.first_equality_rel == 0.0
    assert diag.second_equality_rel == 0.0
    assert diag.sb_slack == 0.0
    assert diag.sbA_slack == 0.0


def test_energy_diagnostics_random_run():
    mesh = build_mesh(1.0, 20, tau=0.02, M=50)
    prob = random_h0_problem(42, mesh.x, 0.5, 1.0)
    res = march(prob, mesh, SchemeConfig(0.5, 0.0, "dtbc"))
    diag = diagnose_energy(res)
    assert diag.first_equality_rel <= 1e-10
    assert diag.second_equality_rel <= 1e-10
    assert diag.sb_slack >= 0.0
    assert diag.sbA_slack >= 0.0


def test_energy_diagnostics_require_zero_boundary():
    from parabolic_dtbc import example2
    prob, _ = example2()
    mesh = build_mesh(1.0, 10, tau=0.01, M=10)
    res = march(prob, mesh, SchemeConfig(0.5, 1.0 / 12.0, "dtbc"))
    with pytest.raises(ValueError, match="zero left boundary"):
        diagnose_energy(res)


def _diagnostic_run(case, sigma, theta, mode):
    """Zero-boundary run with variable coefficients, forced unless
    ``case`` is "unforced", on a uniform or a graded mesh."""
    if case == "graded":
        nodes = np.concatenate(([0.0, 0.05, 0.15, 0.3, 0.5],
                                np.arange(0.6, 1.0001, 0.1)))
        mesh = build_mesh(1.0, tau=0.01, M=61, nodes=nodes)
    else:
        mesh = build_mesh(1.0, 20, tau=0.02, M=61)
    prob = random_h0_problem(7, mesh.x, 0.5, 1.0, variable=True)
    if case != "unforced":
        def f(x, t):
            x = np.asarray(x, dtype=float)
            return np.where(x < 0.5, np.sin(2.0 * np.pi * x) * np.cos(3.0 * t),
                            0.0)
        prob = replace(prob, f=f)
    return march(prob, mesh, SchemeConfig(sigma, theta, mode))


@pytest.mark.parametrize("mode", ["dtbc", "neumann"])
@pytest.mark.parametrize("case", ["unforced", "uniform", "graded"])
@pytest.mark.parametrize("theta", [0.0, 1.0 / 12.0, 0.25, 0.25 + 1e-14])
@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
def test_block_diagnostics_match_the_level_loop(sigma, theta, case, mode,
                                                monkeypatch):
    # sigma = 2 puts K_sigma at 6; theta = 1/4 + 1e-14 is inside the roundoff
    # slack of the weight check, where c_theta is clamped at 0
    res = _diagnostic_run(case, sigma, theta, mode)
    assert np.any(res.coeffs.F != 0.0) == (case != "unforced")
    # three levels per block: the 61 levels span 21 blocks, the last partial
    monkeypatch.setattr(validation, "EVAL_BLOCK_CELLS", 3 * (res.mesh.J + 1))
    fast = diagnose_energy(res)
    ref = diagnose_energy_reference(res)
    for field in fields(fast):
        got, want = getattr(fast, field.name), getattr(ref, field.name)
        assert got == want or abs(got - want) <= 1e-13, field.name
    if case != "unforced" and theta >= 0.25:
        # c_theta = 0: the forced bounds are vacuous
        assert fast.sb_slack == fast.sbA_slack == math.inf


def test_energy_diagnostics_fields_are_floats():
    for case in ("unforced", "uniform"):
        res = _diagnostic_run(case, 0.5, 1.0 / 12.0, "dtbc")
        diag = diagnose_energy(res)
        for field in fields(diag):
            assert type(getattr(diag, field.name)) is float, field.name
    params = derive_params(1.0, 1.0, 0.0, 0.1, 0.01, 0.5, 0.0)
    rep = certify_dissipativity(kernel_by_recurrence(params, 50), trials=5, M=50)
    assert type(rep.worst_weighted) is type(rep.worst_increment) is float
    assert type(rep.passed) is bool


def test_unforced_bound_slacks_tie_exactly_at_zero():
    # with zero forcing both bounds compare the initial energy with itself:
    # the slack of a decaying run is exactly 0.0, never a roundoff negative
    prob, _ = example2()
    mesh = build_mesh(1.0, 50, tau=1e-3, M=1000)
    run = random_h0_problem(11, mesh.x, prob.X0, 1.0)
    for sigma, theta in ((0.5, 1.0 / 12.0), (1.0, 0.25)):
        for mode in ("dtbc", "neumann"):
            diag = diagnose_energy(
                march(run, mesh, SchemeConfig(sigma, theta, mode)))
            assert diag.sb_slack == 0.0 and diag.sbA_slack == 0.0


@pytest.mark.parametrize("mode", ["dtbc", "neumann"])
def test_unforced_diagnostics_skip_the_forcing(mode, monkeypatch):
    # a run without an F grid gives the fields of the same run with a zero
    # forcing grid, bit for bit, and agrees with the level loop
    monkeypatch.setattr(validation, "EVAL_BLOCK_CELLS", 3 * 21)
    mesh = build_mesh(1.0, 20, tau=0.02, M=61)
    zero = random_h0_problem(9, mesh.x, 0.5, 1.0, variable=True)
    unforced = replace(zero, f=None)
    cfg = SchemeConfig(0.5, 1.0 / 12.0, mode)
    res = march(unforced, mesh, cfg)
    assert res.coeffs.F is None
    fast = diagnose_energy(res)
    gridded = diagnose_energy(march(zero, mesh, cfg))
    ref = diagnose_energy_reference(res)
    for field in fields(fast):
        got = getattr(fast, field.name)
        assert got == getattr(gridded, field.name), field.name
        assert abs(got - getattr(ref, field.name)) <= 1e-13, field.name


def test_diagnose_energy_memory_stays_bounded(monkeypatch):
    # O(M) bookkeeping (the boundary sums and their FFT) plus a few
    # block-sized temporaries; one difference of the whole trajectory alone
    # would be over twice the bound
    monkeypatch.setattr(validation, "EVAL_BLOCK_CELLS", 1 << 10)
    J, M = 50, 4000
    mesh = build_mesh(1.0, J, tau=1.0 / M, M=M)
    prob = random_h0_problem(3, mesh.x, 0.5, 1.0)
    res = march(prob, mesh, SchemeConfig(0.5, 1.0 / 12.0, "dtbc"))
    tracemalloc.start()
    try:
        diagnose_energy(res)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 8 * (16 * (M + 1) + 16 * validation.EVAL_BLOCK_CELLS)
    assert 2 * bound < res.U.nbytes
    assert peak <= bound


def test_zero_probe_gives_exactly_zero_sums():
    params = derive_params(1.0, 1.0, 0.0, 0.1, 0.01, 0.5, 0.0)
    kernel = kernel_by_recurrence(params, 50)
    S = convolve_all(kernel, np.zeros(51))
    assert np.all(S == 0.0)


def test_dissipativity_smoke():
    params = derive_params(1.0, 1.0, 0.0, 0.1, 0.01, 0.5, 0.25)
    kernel = kernel_by_recurrence(params, 200)
    rep = certify_dissipativity(kernel, trials=50, M=200, seed=7)
    assert rep.passed
    assert rep.worst_weighted < 0.0
    assert rep.worst_increment < 0.0
    assert rep.n_sequences == 53


@pytest.mark.parametrize("trials", [0, 40])
def test_batched_dissipativity_matches_probe_loop(trials):
    params = derive_params(1.0, 1.0, 0.0, 0.1, 0.01, 0.75, 1.0 / 12.0)
    kernel = kernel_by_recurrence(params, 120)
    M = 100
    rep = certify_dissipativity(kernel, trials=trials, M=M, seed=3)
    # the same probes: random rows, then spike, alternating signs and ramp
    probes = np.zeros((trials + 3, M + 1))
    probes[:trials, 1:] = np.random.default_rng(3).uniform(-1.0, 1.0,
                                                           size=(trials, M))
    probes[trials, 1 + M // 3] = 1.0
    probes[trials + 1, 1:] = (-1.0) ** np.arange(M)
    probes[trials + 2, 1:] = np.arange(1, M + 1) / M
    worst_w, worst_i = dissipativity_sums_reference(kernel, probes)
    assert rep.n_sequences == trials + 3
    assert abs(rep.worst_weighted - worst_w) <= 1e-13
    assert abs(rep.worst_increment - worst_i) <= 1e-13


def test_dissipativity_rejects_short_kernel():
    params = derive_params(1.0, 1.0, 0.0, 0.1, 0.01, 0.5, 0.0)
    kernel = kernel_by_recurrence(params, 20)
    with pytest.raises(ValueError):
        certify_dissipativity(kernel, trials=5, M=50)
