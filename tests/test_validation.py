import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.special import erfc

from parabolic_dtbc import (Kernel, SchemeConfig, build_mesh,
                            certify_dissipativity, convolve_all, derive_params,
                            diagnose_energy, error_report, iterated_erfc,
                            example2, kernel_by_recurrence, march, u1, u2)
from parabolic_dtbc import validation
from parabolic_dtbc.cli import main
from parabolic_dtbc.dtbc_kernel import lagged_sums
from parabolic_dtbc.validation import EVAL_BLOCK_CELLS, eval_on_grid

from _support import (convolve_direct, diagnose_energy_reference,
                      dissipativity_sums_reference, iterated_erfc_reference,
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


# erfc underflows near 27 and I_1's xi * erfc(xi) overflows at 1e308;
# +inf, where the formula gives inf * 0, has a test of its own
ERFC_EDGES = [0.0, -0.0, -1.0, -30.0, 1e-300, -1e-300, 26.5, 30.0, 1e308,
              -1e308, -math.inf, math.nan]


@pytest.mark.parametrize("n", range(5))
def test_iterated_erfc_matches_out_of_place_reference_bitwise(n):
    # the in-place recurrence against the formula with a new array per
    # operation, which shares no buffer handling with it
    xi = np.concatenate((np.random.default_rng(n).normal(0.0, 4.0, 2000),
                         ERFC_EDGES))
    grid = xi[:1995].reshape(57, 35)
    with np.errstate(all="ignore"):
        for arg in (xi, grid, grid[::2, 1::3], grid.T, xi[::-7],
                    np.arange(-40, 41), np.arange(-40, 41)[:, None] > 0):
            kept = arg.copy()
            got, ref = iterated_erfc(n, arg), iterated_erfc_reference(n, arg)
            assert got.shape == ref.shape == np.shape(arg)
            assert got.tobytes() == ref.tobytes()
            assert arg.tobytes() == kept.tobytes()  # the input is not a buffer
        for arg in (*ERFC_EDGES, 3, np.float64(0.7), np.array(-2.5)):
            got, ref = iterated_erfc(n, arg), iterated_erfc_reference(n, arg)
            assert type(got) is type(ref) is float
            assert np.float64(got).tobytes() == np.float64(ref).tobytes()


@pytest.mark.parametrize("n", range(5))
def test_iterated_erfc_vanishes_at_plus_infinity(n):
    # I_n(xi) -> 0 as xi -> +inf: +0.0, as from about xi = 27.3 on, where
    # the formula takes xi * erfc(xi) = inf * 0 = NaN for n >= 1
    assert iterated_erfc(n, math.inf) == 0.0
    xi = np.array([27.3, 40.0, 1e308, math.inf])
    assert iterated_erfc(n, xi).tobytes() == bytes(xi.nbytes)


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


def test_error_report_leaves_the_callables_arrays_alone():
    # the reduction reads the array of each block call and never writes
    # it: a cached array keeps its values, and a read-only broadcast view
    # raises nothing; two blocks at J = 200
    J = 200
    M = EVAL_BLOCK_CELLS // (J + 1) + 4
    mesh = build_mesh(1.0, J, tau=1.0 / M, M=M)
    traj = np.random.default_rng(3).uniform(-1.0, 1.0, (M + 1, J + 1))
    cache = {}

    def cached(x, t):
        key = np.asarray(t).tobytes()
        if key not in cache:
            cache[key] = u2(x, t)
        return cache[key]

    def read_only(x, t):
        return np.broadcast_to(np.cos(3.0 * x), np.broadcast(x, t).shape)

    first = error_report(traj, cached, mesh)
    kept = {key: vals.copy() for key, vals in cache.items()}
    assert len(kept) == 2
    again = error_report(traj, cached, mesh)
    assert all(cache[key].tobytes() == vals.tobytes()
               for key, vals in kept.items())
    assert again.per_level.tobytes() == first.per_level.tobytes()
    rep = error_report(traj, read_only, mesh)
    E = np.abs(traj[1:] - np.cos(3.0 * mesh.x))
    assert rep.per_level[1:].tobytes() == E.max(axis=1).tobytes()


def test_error_report_is_the_same_on_every_evaluation_tier():
    # the vectorised block call, the level tier (scalar t only) and the
    # point tier (scalars only) give the same report, byte for byte,
    # across the block edge at J = 200
    J = 200
    M = EVAL_BLOCK_CELLS // (J + 1) + 4
    mesh = build_mesh(1.0, J, tau=1.0 / M, M=M)
    t = mesh.times()
    traj = u2(mesh.x[None, :], t[:, None])
    traj += np.random.default_rng(11).uniform(-1e-6, 1e-6, traj.shape)

    def per_level(x, t):
        if np.ndim(t):
            raise TypeError("scalar t only")
        return u2(x, t)

    def per_point(x, t):
        if np.ndim(x) or np.ndim(t):
            raise TypeError("scalars only")
        return u2(x, t)

    reports = [error_report(traj, exact, mesh)
               for exact in (u2, per_level, per_point)]
    for rep in reports:
        assert rep.per_level.tobytes() == reports[0].per_level.tobytes()
        assert ((rep.max_abs_error, rep.argmax_level, rep.argmax_node)
                == (reports[0].max_abs_error, reports[0].argmax_level,
                    reports[0].argmax_node))
    E = np.abs(traj[1:] - u2(mesh.x[None, :], t[1:, None]))
    assert reports[0].per_level[1:].tobytes() == E.max(axis=1).tobytes()


def _scalar_below_half(xs, ts):
    if np.ndim(xs) or xs >= 0.5:
        raise TypeError("scalar x below 1/2 only")
    return 0.0


@pytest.mark.parametrize("fn, first", [
    (lambda xs, ts: [xs, ts], 0),           # never one number
    (lambda xs, ts: np.zeros((2, 2)), 0),   # always the wrong shape
    (lambda xs, ts: None, 0),               # no number at all
    (_scalar_below_half, 2),
    # math-only, so that block and level calls fail with TypeError first
    (lambda xs, ts: 0.0 / (1.0 - math.ceil(xs)), 1),   # ZeroDivisionError
    (lambda xs, ts: 0.0 * math.exp(1e3 * xs), 3),      # OverflowError
    (lambda xs, ts: 1.0 + 0.5j * xs, 0),  # complex at every tier
    (lambda xs, ts: "1.5", 0),              # a string is not a number
], ids=["list", "matrix", "none", "from-a-point", "zero-division",
        "overflow", "complex", "string"])
def test_eval_on_grid_writes_nan_where_a_point_fails(fn, first):
    # the failed points are NaN, for the caller's finite check to name;
    # the points before them keep their values
    x = np.linspace(0.0, 1.0, 5)
    vals = eval_on_grid(fn, x, np.array([0.25, 0.5]))
    assert vals.shape == (2, 5)
    assert np.isnan(vals[:, first:]).all()
    assert np.array_equal(vals[:, :first], np.zeros((2, first)))


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


@pytest.mark.parametrize("mode", ["dtbc", "neumann"])
def test_lifted_diagnostics_close_on_the_ramp(mode, monkeypatch):
    # g = t^2: the identities hold on the lift V = U - g e_0, whose extra
    # forcing sits at node 1; four levels per block, so the lift's forcing
    # column is cut at block boundaries
    prob, _ = example2()
    mesh = build_mesh(1.0, 50, tau=1e-3, M=200)
    res = march(prob, mesh, SchemeConfig(0.5, 1.0 / 12.0, mode))
    assert res.U[-1, 0] == 0.2 ** 2
    monkeypatch.setattr(validation, "EVAL_BLOCK_CELLS", 4 * (mesh.J + 1))
    diag = diagnose_energy(res)
    assert diag.first_equality_rel <= 1e-12
    assert diag.second_equality_rel <= 1e-12
    assert diag.sb_slack >= 0.0 and diag.sbA_slack >= 0.0
    ref = diagnose_energy_reference(res)
    for field in fields(diag):
        got, want = getattr(diag, field.name), getattr(ref, field.name)
        assert abs(got - want) <= 1e-13, field.name


def test_energy_identities_catch_a_misapplied_kernel(tmp_path, monkeypatch):
    # the march applies the older kernel entries through lagged_sums, and
    # diagnose_energy convolves the boundary column itself (convolve_all):
    # sums 5% off break both identities by far more than the CLI's 1e-10
    # threshold, while the kernel itself still passes its certificate
    prob, _ = example2()
    mesh = build_mesh(1.0, 20, tau=0.01, M=100)
    cfg = SchemeConfig(0.5, 1.0 / 12.0, "dtbc")
    right = diagnose_energy(march(prob, mesh, cfg))
    monkeypatch.setattr("parabolic_dtbc.stepper.lagged_sums",
                        lambda R, history: (1.05 * value for value
                                            in lagged_sums(R, history)))
    wrong = diagnose_energy(march(prob, mesh, cfg))
    assert max(right.first_equality_rel, right.second_equality_rel) <= 1e-14
    assert min(wrong.first_equality_rel, wrong.second_equality_rel) >= 1e-4

    config = tmp_path / "run.cfg"
    config.write_text("problem = example2\nsigma = 1/2\ntheta = 1/12\n"
                      "tau = 0.01\nM = 100\nJ = 20\nemit_snapshots = false\n"
                      "run_diagnostics = true\n")
    assert main(["solve", "--config", str(config), "--out", str(tmp_path),
                 "--deterministic"]) == 2
    lines = (tmp_path / "diagnostics.csv").read_text().splitlines()
    verdicts = dict(line.split(",")[::3] for line in lines[1:])  # check: pass
    assert verdicts == {"dissipativity_weighted": "true",
                        "dissipativity_increment": "true",
                        "first_energy_equality_rel": "false",
                        "second_energy_equality_rel": "false",
                        "first_energy_bound_slack": "true",
                        "second_energy_bound_slack": "true"}


def _diagnostic_run(case, sigma, theta, mode):
    """Run with variable coefficients on a uniform or a graded mesh: forced,
    with a zero forcing grid for ``case`` "unforced" and no forcing grid
    (f = None) for "lifted-f-none"; zero left data unless ``case`` starts
    with "lifted" (uniform mesh, g = 0.3 cos 5t)."""
    if case == "graded":
        nodes = np.concatenate(([0.0, 0.05, 0.15, 0.3, 0.5],
                                np.arange(0.6, 1.0001, 0.1)))
        mesh = build_mesh(1.0, tau=0.01, M=61, nodes=nodes)
    else:
        mesh = build_mesh(1.0, 20, tau=0.02, M=61)
    prob = random_h0_problem(7, mesh.x, 0.5, 1.0, variable=True)
    if case == "lifted-f-none":
        prob = replace(prob, f=None)
    elif case != "unforced":
        def f(x, t):
            x = np.asarray(x, dtype=float)
            return np.where(x < 0.5, np.sin(2.0 * np.pi * x) * np.cos(3.0 * t),
                            0.0)
        prob = replace(prob, f=f)
    if case.startswith("lifted"):
        # u0 gains a hat of height g(0) on the first cell, which the other
        # nodes do not see
        u0 = prob.u0
        prob = replace(prob, g=lambda t: 0.3 * math.cos(5.0 * t),
                       u0=lambda x: u0(x) + 0.3 * np.maximum(
                           1.0 - np.asarray(x) / mesh.h_tail, 0.0))
    return march(prob, mesh, SchemeConfig(sigma, theta, mode))


@pytest.mark.parametrize("mode", ["dtbc", "neumann"])
@pytest.mark.parametrize("case", ["unforced", "uniform", "graded", "lifted",
                                  "lifted-f-none"])
@pytest.mark.parametrize("theta", [0.0, 1.0 / 12.0, 0.25, 0.25 + 1e-14])
@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
def test_block_diagnostics_match_the_level_loop(sigma, theta, case, mode,
                                                monkeypatch):
    # sigma = 2 puts K_sigma at 6; theta = 1/4 + 1e-14 is inside the roundoff
    # slack of the weight check, where c_theta is clamped at 0
    res = _diagnostic_run(case, sigma, theta, mode)
    if case == "lifted-f-none":
        assert res.coeffs.F is None   # F~ alone forces node 1
    else:
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
def test_unforced_diagnostics_match_a_zero_forcing_grid(mode, monkeypatch):
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


@pytest.mark.parametrize("run", ["example2-dtbc", "example2-neumann",
                                 "forced-dtbc"])
def test_zero_reaction_form_matches_its_arithmetic(run, monkeypatch):
    # c = 0: the reaction form returns zeros without arithmetic, and the
    # four fields are those of the arithmetic path, bit for bit
    if run.startswith("example2"):
        prob, _ = example2()
        mesh = build_mesh(1.0, 50, tau=1e-3, M=200)
    else:
        mesh = build_mesh(1.0, 20, tau=0.02, M=61)
        prob = replace(random_h0_problem(5, mesh.x, 0.5, 1.0),
                       f=lambda x, t: np.where(np.asarray(x) < 0.5,
                                               np.cos(3.0 * t) * x, 0.0))
    monkeypatch.setattr(validation, "EVAL_BLOCK_CELLS", 7 * (mesh.J + 1))
    init, zero = validation.EnergyForm.__init__, []

    def recorded(self, *args):
        init(self, *args)
        zero.append(self._zero)
        self._zero &= not arithmetic

    monkeypatch.setattr(validation.EnergyForm, "__init__", recorded)
    for sigma, theta in ((0.5, 0.0), (0.5, 1.0 / 12.0), (1.0, 0.25)):
        res = march(prob, mesh, SchemeConfig(sigma, theta, run.split("-")[1]))
        assert not np.any(res.coeffs.c_h[1:])
        diags = []
        for arithmetic in (False, True):
            zero.clear()
            diags.append(diagnose_energy(res))
            assert zero == [False, True]   # the mass form, the reaction form
        assert repr(diags[0]) == repr(diags[1])


def test_zero_form_evaluates_to_zeros():
    mesh = build_mesh(1.0, 4, tau=0.1, M=1)
    form = validation.EnergyForm(mesh, 1.0 / 12.0, np.zeros(mesh.J + 1))
    U = np.full((3, mesh.J + 1), np.inf)
    assert np.array_equal(form.evaluate(U, U), np.zeros(3))
    assert form.evaluate(U[0], U[0]).shape == ()


def _check_diagnose_energy_memory(monkeypatch, problem):
    # O(M) bookkeeping (the boundary sums and their FFT, the lift's forcing
    # column) plus a few block-sized temporaries; one difference of the
    # whole trajectory alone would be over twice the bound
    monkeypatch.setattr(validation, "EVAL_BLOCK_CELLS", 1 << 10)
    J, M = 50, 4000
    mesh = build_mesh(1.0, J, tau=1.0 / M, M=M)
    res = march(problem(mesh), mesh, SchemeConfig(0.5, 1.0 / 12.0, "dtbc"))
    tracemalloc.start()
    try:
        diagnose_energy(res)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 8 * (16 * (M + 1) + 16 * validation.EVAL_BLOCK_CELLS)
    assert 2 * bound < res.U.nbytes
    assert peak <= bound
    return res


def test_diagnose_energy_memory_stays_bounded(monkeypatch):
    _check_diagnose_energy_memory(
        monkeypatch, lambda mesh: random_h0_problem(3, mesh.x, 0.5, 1.0))


def test_lifted_diagnose_energy_memory_stays_bounded(monkeypatch):
    # the ramp g = t^2 is lifted block by block
    res = _check_diagnose_energy_memory(monkeypatch,
                                        lambda mesh: example2()[0])
    assert res.coeffs.F is None and res.U[-1, 0] == 1.0


def test_zero_probe_gives_exactly_zero_sums():
    params = derive_params(1.0, 1.0, 0.0, 0.1, 0.01, 0.5, 0.0)
    kernel = kernel_by_recurrence(params, 50)
    S = convolve_all(kernel, np.zeros(51))
    assert np.all(S == 0.0)


@pytest.mark.parametrize("M", [0, -3])
def test_dissipativity_probes_need_one_level(M):
    # checked before any probe is drawn; without probes M is not read
    kernel = kernel_by_recurrence(derive_params(1.0, 1.0, 0.0, 0.1, 0.01,
                                                0.5, 0.0), 5)
    with pytest.raises(ValueError, match=f"M={M}"):
        certify_dissipativity(kernel, trials=5, M=M)
    assert certify_dissipativity(kernel, M=M).passed


def test_dissipativity_smoke():
    params = derive_params(1.0, 1.0, 0.0, 0.1, 0.01, 0.5, 0.25)
    kernel = kernel_by_recurrence(params, 200)
    rep = certify_dissipativity(kernel, trials=50, M=200, seed=7)
    assert rep.passed
    assert rep.worst_weighted == 0.0
    assert rep.worst_increment == 0.0
    assert [f.name for f in fields(rep)] == [
        "passed", "worst_weighted", "worst_increment", "threshold_weighted",
        "threshold_increment"]
    # the probes only cross-check the suprema, which they never move
    assert rep == certify_dissipativity(kernel, M=200)


def _assembled_suprema(kernel, M):
    """Largest eigenvalues of the symmetric parts of the two forms, the
    forms assembled one column per unit sequence by the direct sum."""
    sigma, tau = kernel.params.sigma, kernel.params.tau
    Q_w = np.empty((M, M))
    Q_i = np.empty((M, M))
    for k in range(M):
        phi = np.zeros(M + 1)
        phi[1 + k] = 1.0
        S = np.r_[convolve_direct(kernel, phi)[1:], 0.0]  # S_1 .. S_(M+1)
        # entry (i, k) pairs e_k with e_i: phi_i meets S_i, and S_(i+1)
        # through the lagged term of the average or the difference
        Q_w[:, k] = sigma * S[:-1] + (1.0 - sigma) * S[1:]
        Q_i[:, k] = (S[:-1] - S[1:]) / tau
    return tuple(float(np.linalg.eigvalsh(0.5 * (Q + Q.T))[-1])
                 for Q in (Q_w, Q_i))


# (rho_inf, b_inf, c_inf, h, tau, sigma, theta)
CERTIFICATE_WEIGHTS = [
    (1.0, 1.0, 0.0, 0.1, 0.01, 0.5, 0.0),
    (1.0, 1.0, 0.0, 0.1, 0.01, 1.0, 0.25),
    (1.0, 1.0, 5.0, 0.1, 0.01, 0.5, 1.0 / 12.0),
    (1.0, 1.0, 5.0, 0.1, 0.01, 1.0, 0.0),
    (2.0, 0.5, 0.0, 0.05, 1e-3, 0.75, -0.5),
    (1.0, 1.0, 0.0, 1.0 / 200.0, 1e-3, 0.5, 1.0 / 12.0),
    (3.0, 2.0, 5.0, 0.3, 0.1, 3.0, 0.25),
]


# the eight (sigma, theta) pairs of acceptance criterion 3
CRITERION_3_WEIGHTS = [(1.0, 1.0, 0.0, 0.1, 0.01, sigma, theta)
                       for sigma in (0.5, 1.0)
                       for theta in (0.0, 1.0 / 12.0, 1.0 / 6.0, 0.25)]


def test_no_finite_horizon_exceeds_the_certificate():
    # the rows bound the top eigenvalue of the assembled forms at every
    # horizon, which approaches them as the horizon grows
    for weights in CERTIFICATE_WEIGHTS + CRITERION_3_WEIGHTS:
        gaps = []
        for M in (20, 200, 800):
            kernel = kernel_by_recurrence(derive_params(*weights), M)
            rep = certify_dissipativity(kernel, M=M)
            assert rep.passed
            ref_w, ref_i = _assembled_suprema(kernel, M)
            unit = kernel.params.scale / (2.0 * kernel.params.h)
            assert ref_w <= rep.worst_weighted + 1e-12 * unit, (weights, M)
            assert ref_i <= rep.worst_increment + 1e-12 * unit, (weights, M)
            gaps.append((rep.worst_weighted - ref_w,
                         rep.worst_increment - ref_i))
        for row in (0, 1):
            assert gaps[2][row] < gaps[1][row] < gaps[0][row], weights


@pytest.mark.parametrize("sigma", [0.5, 0.75, 1.0, 3.0])
def test_the_symbol_on_the_circle_stays_below_the_certificate(sigma):
    # the weighted row is the symbol's value at z = 1 or z = -1; that no
    # other point of the circle exceeds it is checked here, not proven
    params = derive_params(1.0, 1.0, 0.0, 0.1, 0.01, sigma, 0.0)
    unit = params.scale / (2.0 * params.h)
    z = np.exp(2j * np.pi * np.arange(1 << 13) / (1 << 13))
    for a0 in np.linspace(-1.0, 1.0, 17):
        for a1 in np.linspace(-1.0, 1.0, 17):
            p = replace(params, alpha0=a0, alpha1=a1, alpha=a0 * a1,
                        beta=0.5 * (a0 + a1))
            rep = certify_dissipativity(kernel_by_recurrence(p, 1), M=1)
            K = -unit * np.sqrt(1.0 - a0 * z) * np.sqrt(1.0 - a1 * z)
            weighted = (K * (sigma + (1.0 - sigma) * z.conj())).real
            increment = (K * (1.0 - z.conj())).real / p.tau
            size = sigma + abs(1.0 - sigma)
            assert weighted.max() <= rep.worst_weighted + 1e-14 * size * unit
            assert increment.max() <= 1e-14 * 2.0 * unit / p.tau
            assert rep.worst_increment == 0.0


def test_certificate_passes_the_roundoff_that_check_weights_admits():
    # sigma just below 1/2 reads about +2e-10, above a plain 1e-10 but far
    # inside tol times the row's scale, 5e3 here
    params = derive_params(1.0, 1.0, 0.0, 0.1, 1e-5, 0.5 - 1e-14, 0.0)
    rep = certify_dissipativity(kernel_by_recurrence(params, 20), M=20)
    assert rep.passed and 1e-10 < rep.worst_weighted < 1e-9
    # theta just above 1/4 takes 1 + alpha1 below 0 by roundoff
    for c_inf in (0.0, 5.0):
        params = derive_params(1.0, 1.0, c_inf, 0.1, 0.01, 0.5, 0.25 + 1e-14)
        assert 1.0 + params.alpha1 < 0.0
        rep = certify_dissipativity(kernel_by_recurrence(params, 20), M=20)
        assert rep.passed
        assert math.copysign(1.0, rep.worst_weighted) == 1.0


def _criterion_3_probes(M):
    """1000 random probes plus the spike, alternating and ramp shapes."""
    probes = np.zeros((1003, M + 1))
    probes[:1000, 1:] = np.random.default_rng(2024).uniform(-1.0, 1.0,
                                                            size=(1000, M))
    probes[1000, 1 + M // 3] = 1.0
    probes[1001, 1:] = (-1.0) ** np.arange(M)
    probes[1002, 1:] = np.arange(1, M + 1) / M
    return probes


@pytest.mark.parametrize("sigma", [0.5, 1.0])
@pytest.mark.parametrize("theta", [0.0, 1.0 / 12.0, 1.0 / 6.0, 0.25])
def test_no_probe_exceeds_the_certificate(sigma, theta):
    M = 200
    kernel = kernel_by_recurrence(
        derive_params(1.0, 1.0, 0.0, 0.1, 0.01, sigma, theta), M)
    rep = certify_dissipativity(kernel, M=M)
    s = np.abs(kernel.R[:M]).sum() / (2.0 * kernel.params.h)
    worst_w, worst_i = dissipativity_sums_reference(kernel,
                                                    _criterion_3_probes(M))
    assert worst_w <= rep.worst_weighted + 1e-12 * (sigma + abs(1.0 - sigma)) * s
    assert worst_i <= rep.worst_increment + 1e-12 * 2.0 * s / kernel.params.tau
    # at sigma = 1/2 the supremum is exactly 0 and the probes stay well
    # below it: -2.5e-3 scale/2h at all four theta
    if sigma == 0.5:
        unit = kernel.params.scale / (2.0 * kernel.params.h)
        assert rep.worst_weighted == 0.0
        assert worst_w < -1e-3 * unit


def test_certificate_fails_a_mutation_the_probes_pass():
    # the kernel of sigma = 1/2 paired with a sigma-average of 0.499: the
    # weighted form turns positive, which criterion 3's probes miss
    M = 200
    params = derive_params(1.0, 1.0, 0.0, 0.1, 0.01, 0.5, 0.0)
    kernel = kernel_by_recurrence(params, M)
    mutant = Kernel(R=kernel.R, params=replace(params, sigma=0.499))
    rep = certify_dissipativity(mutant, M=M)
    assert not rep.passed
    assert rep.worst_weighted > 1e-2
    worst_w, worst_i = dissipativity_sums_reference(mutant,
                                                    _criterion_3_probes(M))
    assert worst_w < -1e-3 and worst_i < 0.0


def test_probe_cross_check_fails_a_wrong_convolution(monkeypatch):
    # probes that see a sign-flipped convolution exceed the suprema
    params = derive_params(1.0, 1.0, 0.0, 0.1, 0.01, 0.5, 1.0 / 12.0)
    kernel = kernel_by_recurrence(params, 50)
    assert certify_dissipativity(kernel, trials=20, M=50).passed
    monkeypatch.setattr(validation, "convolve_all",
                        lambda k, history: -convolve_all(k, history))
    rep = certify_dissipativity(kernel, trials=20, M=50)
    assert not rep.passed
    assert rep.worst_weighted == 0.0 and rep.worst_increment == 0.0


def test_dissipativity_rejects_short_kernel():
    params = derive_params(1.0, 1.0, 0.0, 0.1, 0.01, 0.5, 0.0)
    kernel = kernel_by_recurrence(params, 20)
    with pytest.raises(ValueError):
        certify_dissipativity(kernel, trials=5, M=50)
