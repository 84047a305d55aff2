import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from parabolic_dtbc import (Mesh, SchemeConfig, build_mesh, example1, example2,
                            march, sample, u2, validation)
from parabolic_dtbc.problem import ProblemSpec
from parabolic_dtbc.validation import _level_blocks

from _support import zero_forcing, zero_problem


def test_uniform_mesh_example1_grid():
    mesh = build_mesh(2.5, 50, tau=1.0 / 1500, M=1500)
    assert mesh.J == 50
    assert mesh.h[1:] == pytest.approx(np.full(50, 0.05))
    assert mesh.M * mesh.tau == pytest.approx(1.0)
    assert mesh.h_tail == pytest.approx(0.05)


def test_uniform_mesh_example2_grid():
    mesh = build_mesh(1.0, 10, tau=0.01, M=100)
    assert mesh.h[1:] == pytest.approx(np.full(10, 0.1))
    assert mesh.M * mesh.tau == pytest.approx(1.0)


def test_explicit_node_list_steps():
    mesh = build_mesh(1.0, tau=1.0, M=1, nodes=[0.0, 0.5, 1.0])
    assert mesh.h[1] == 0.5 and mesh.h[2] == 0.5
    assert mesh.hbar[1] == 0.5
    # tail convention: half-step at the last node equals the tail step
    assert mesh.hbar[2] == 0.5


def test_mesh_rejects_bad_nodes():
    with pytest.raises(ValueError):
        build_mesh(1.0, tau=1.0, M=1, nodes=[0.0, 0.6, 0.5, 1.0])
    with pytest.raises(ValueError):
        build_mesh(1.0, tau=1.0, M=1, nodes=[0.0, 0.5, 0.5, 1.0])
    with pytest.raises(ValueError):
        build_mesh(1.0, tau=1.0, M=1, nodes=[0.1, 0.5, 1.0])
    with pytest.raises(ValueError):
        build_mesh(1.0, tau=1.0, M=1, nodes=[0.0, 0.5, 0.9])  # must end at X
    with pytest.raises(ValueError):
        build_mesh(1.0, 1, tau=1.0, M=1)
    with pytest.raises(ValueError):
        build_mesh(1.0, 10, tau=-0.1, M=1)
    with pytest.raises(ValueError):
        build_mesh(1.0, 10, tau=0.1, M=0)
    # J and nodes together, or neither, are rejected, not one of them dropped
    with pytest.raises(ValueError, match="J \\(cell count\\) or nodes"):
        build_mesh(1.0, 10, tau=0.1, M=1, nodes=[0.0, 0.5, 1.0])
    with pytest.raises(ValueError, match="J \\(cell count\\) or nodes"):
        build_mesh(1.0, tau=0.1, M=1)
    with pytest.raises(ValueError, match="at least two cells"):
        Mesh(x=[0.0, 1.0], tau=0.1, M=1)
    with pytest.raises(ValueError, match="at least two cells"):
        build_mesh(1.0, tau=0.1, M=1, nodes=[])  # a config's "nodes = ,"
    # fractional counts are rejected, not truncated
    with pytest.raises(ValueError, match="whole number J"):
        build_mesh(1.0, 10.7, tau=0.1, M=5.5)
    with pytest.raises(ValueError, match="whole number M"):
        build_mesh(1.0, 10, tau=0.1, M=5.5)
    with pytest.raises(ValueError, match="whole number M"):
        Mesh(x=[0.0, 0.5, 1.0], tau=0.1, M=3.9)
    mesh = build_mesh(1.0, np.int64(10), tau=0.1, M=5.0)
    assert (mesh.J, mesh.M) == (10, 5) and type(mesh.M) is int
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="nodes must be finite"):
            Mesh(x=[0.0, 0.5, bad, 1.0], tau=0.1, M=2)
        with pytest.raises(ValueError, match="nodes must be finite"):
            Mesh(x=[0.0, 0.5, bad], tau=0.1, M=2)
        with pytest.raises(ValueError, match="positive and finite"):
            build_mesh(1.0, 10, tau=bad, M=3)


def test_sample_constant_coefficients():
    prob = zero_problem()
    mesh = build_mesh(1.0, 8, tau=0.1, M=3)
    coeffs = sample(prob, mesh)
    assert np.all(coeffs.rho_h[1:] == 1.0)
    assert np.all(coeffs.b_h[1:] == 1.0)
    assert np.all(coeffs.c_h[1:] == 0.0)
    assert np.all(coeffs.F == 0.0)
    assert np.all(coeffs.U0 == 0.0)


def test_sample_midpoint_rule():
    # linear diffusivity is reproduced exactly at midpoints
    prob = ProblemSpec(rho=lambda x: np.ones(np.shape(x)),
                       b=lambda x: np.where(np.asarray(x) < 0.5,
                                            2.0 - 2.0 * np.asarray(x), 1.0),
                       c=lambda x: np.zeros(np.shape(x)),
                       f=lambda x, t: np.zeros(np.shape(x)),
                       g=lambda t: 0.0,
                       u0=lambda x: np.zeros(np.shape(x)),
                       X0=0.5, X=1.0)
    mesh = build_mesh(1.0, 10, tau=0.1, M=1)
    coeffs = sample(prob, mesh)
    xm = 0.5 * (mesh.x[:-1] + mesh.x[1:])
    expected = np.where(xm < 0.5, 2.0 - 2.0 * xm, 1.0)
    assert coeffs.b_h[1:] == pytest.approx(expected, abs=0.0)


def test_sample_is_deterministic():
    prob, _ = example1()
    mesh = build_mesh(2.5, 50, tau=0.01, M=5)
    c1 = sample(prob, mesh)
    c2 = sample(prob, mesh)
    assert np.array_equal(c1.rho_h[1:], c2.rho_h[1:])
    assert np.array_equal(c1.U0, c2.U0)
    assert c1.F is None and c2.F is None


def _one_d_forcing(x, t):
    # iterates over the nodes, so a 2-D block of them raises TypeError
    return np.array([math.sin(math.pi * xi) * t if xi < 0.5 else 0.0
                     for xi in x])


FORCINGS = {
    # the presets' data with the zero forcing they carried before f = None
    "example1": lambda: replace(example1()[0], f=zero_forcing),
    "example2": lambda: replace(example2()[0], f=zero_forcing),
    "broadcasting": lambda: replace(zero_problem(), f=lambda x, t: np.where(
        x < 0.5, np.sin(np.pi * x) * np.exp(-t), 0.0)),
    "one-d-only": lambda: replace(zero_problem(), f=_one_d_forcing),
}


@pytest.mark.parametrize("name", sorted(FORCINGS))
def test_forcing_blocks_match_per_level_sampling(name):
    prob = FORCINGS[name]()
    J, M = 50, 3000  # three level blocks, the last one partial
    mesh = build_mesh(prob.X, J, tau=1e-4, M=M)
    calls = []

    def counted(x, t):
        calls.append(np.shape(t))
        return prob.f(x, t)

    F = sample(replace(prob, f=counted), mesh).F
    expected = np.array([np.zeros(J + 1)]
                        + [prob.f(mesh.x, m * mesh.tau) for m in range(1, M + 1)])
    assert F.tobytes() == expected.tobytes()
    n_blocks = len(list(_level_blocks(M, J + 1)))
    assert n_blocks == 3
    # one call per block, plus one per level where the block call failed
    assert len(calls) == n_blocks + (M if name == "one-d-only" else 0)


def _bump(x):
    return 0.5 * math.sin(math.pi * x) ** 2 if x < 0.5 else 0.0


def _bump_one_d_only(x):
    # iterates over the points, so the (1, n) block of one level raises
    return np.array([_bump(xi) for xi in x])


X_ONLY = {  # kind: (callable of x, whether it is evaluated point by point)
    "vectorized": (lambda x: np.where(x < 0.5, 0.5 * np.sin(np.pi * x) ** 2,
                                      0.0), False),
    "one-d-only": (_bump_one_d_only, False),
    "scalar-only": (_bump, True),
    "constant": (lambda x: 0.0, False),
}


@pytest.mark.parametrize("kind", sorted(X_ONLY))
@pytest.mark.parametrize("field", ["rho", "b", "c", "u0"])
def test_x_only_data_fall_back_block_level_point(field, kind):
    # rho, b, c at the J midpoints and u0 at the J + 1 nodes are one level
    # of the (x, t) evaluator: block, then level, then point by point
    fn, pointwise = X_ONLY[kind]
    shift = 1.0 if field in ("rho", "b") else 0.0
    calls = []

    def counted(x):
        calls.append(np.shape(x))
        return fn(x) + shift

    J = 20
    mesh = build_mesh(1.0, J, tau=0.1, M=2)
    coeffs = sample(replace(zero_problem(), **{field: counted}), mesh)
    got = coeffs.U0 if field == "u0" else getattr(coeffs, field + "_h")[1:]
    nodes = mesh.x if field == "u0" else 0.5 * (mesh.x[:-1] + mesh.x[1:])
    n = nodes.size
    expected = {"vectorized": [(1, n)], "one-d-only": [(1, n), (n,)],
                "scalar-only": [(1, n), (n,)] + [()] * n,
                "constant": [(1, n), (n,)]}[kind]
    assert calls == expected
    calls.clear()
    if pointwise:
        values = np.array([counted(xi) for xi in nodes.tolist()])
    else:
        values = np.broadcast_to(counted(nodes), nodes.shape)
    assert got.tobytes() == np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("M, cells", [(2000, None), (50000, None),
                                      (2000, 1 << 10)])
@pytest.mark.parametrize("preset", [example1, example2])
def test_preset_boundary_data_take_one_call_per_block(preset, M, cells,
                                                      monkeypatch):
    # g goes through the evaluator as a one-node column over t_0..t_M: one
    # call per block of levels, and G[0] serves the corner check
    if cells is not None:
        monkeypatch.setattr(validation, "EVAL_BLOCK_CELLS", cells)
    prob, exact = preset()
    calls = []

    def counted(t):
        calls.append(np.shape(t))
        return prob.g(t)

    mesh = build_mesh(prob.X, 50, tau=1.0 / M, M=M)
    G = sample(replace(prob, g=counted), mesh).G
    blocks = list(_level_blocks(M + 1, 1))
    assert len(blocks) == (2 if cells else 1)
    assert calls == [(hi - lo, 1) for lo, hi in blocks]
    t = mesh.times()[1:]
    assert G[0] == prob.g(0.0)
    assert np.array_equal(G[1:], [float(prob.g(t_m)) for t_m in t.tolist()])
    assert np.array_equal(G[1:], exact(0.0, t))


SCALAR_G = {  # g whose block call fails or gives no column: one call a level
    "scalar-only": lambda t: 0.75 * math.cos(7.0 * t),
    "constant": lambda t: 0.75,
}


@pytest.mark.parametrize("kind", sorted(SCALAR_G))
def test_scalar_boundary_data_are_sampled_per_level(kind):
    g = SCALAR_G[kind]
    calls = []

    def counted(t):
        calls.append(np.shape(t))
        return g(t)

    # u0(0) = g(0) = 0.75, so the corner check stays quiet
    prob = replace(zero_problem(), g=counted,
                   u0=lambda x: np.where(np.asarray(x) == 0.0, 0.75, 0.0))
    M = 2000
    mesh = build_mesh(1.0, 10, tau=1e-3, M=M)
    G = sample(prob, mesh).G
    assert calls == [(M + 1, 1)] + [()] * (M + 1)
    assert np.array_equal(G, [float(g(t_m)) for t_m in mesh.times().tolist()])


def test_boundary_data_that_give_no_number_name_the_first_level():
    prob = replace(zero_problem(), g=lambda t: None)
    mesh = build_mesh(1.0, 10, tau=0.01, M=5)
    with pytest.raises(ValueError, match=r"g is not a finite number at "
                                         r"t_m=0\.01 \(level 1\)$"):
        sample(prob, mesh)


def test_unforced_problem_has_no_forcing_grid():
    for prob in (example1()[0], example2()[0], replace(zero_problem(), f=None)):
        assert prob.f is None
        mesh = build_mesh(prob.X, 50, tau=1e-3, M=20)
        assert sample(prob, mesh).F is None
        assert march(prob, mesh, SchemeConfig(0.5, 1.0 / 12.0)).coeffs.F is None


def test_example1_tail_accepted_under_tolerance():
    # the pulse tail is ~3.7e-6 at the truncation point, below the 1e-5 gate
    prob, _ = example1()
    mesh = build_mesh(2.5, 50, tau=0.01, M=2)
    coeffs = sample(prob, mesh)
    assert abs(coeffs.U0[-1]) == pytest.approx(3.7266531720786710e-6, rel=1e-12)
    assert abs(coeffs.U0[-1]) < 3.8e-6


def test_sample_rejects_negative_diffusivity():
    # and a density that is not positive, or a negative reaction
    mesh = build_mesh(1.0, 8, tau=0.1, M=1)
    for field, value, message in (
            ("b", -1.0, "diffusivity sample is not positive"),
            ("rho", 0.0, "density sample is not positive"),
            ("c", -1e-3, "reaction coefficient sample is negative")):
        tail = 0.0 if field == "c" else 1.0
        bad = replace(zero_problem(), **{field: lambda x: np.where(
            np.asarray(x) < 0.25, value, tail)})
        with pytest.raises(ValueError, match=message):
            sample(bad, mesh)


def test_sample_rejects_nonvanishing_tail_data():
    mesh = build_mesh(1.0, 8, tau=0.1, M=1)
    for field, data, message in (
            ("u0", lambda x: 0.1 * np.ones(np.shape(x)), "initial data"),
            ("f", lambda x, t: 0.1 * np.ones(np.broadcast(x, t).shape),
             "forcing"),
            ("b", lambda x: 1.0 + np.asarray(x),
             "coefficient b is not constant on the tail")):
        with pytest.raises(ValueError, match=message):
            sample(replace(zero_problem(), **{field: data}), mesh)


def test_sample_rejects_wide_tail_step():
    prob = zero_problem(X0=0.5, X=1.0)
    # two cells of width 0.5; h_J = 0.5 == X - X0 is allowed, coarser is not
    mesh = build_mesh(1.0, 2, tau=0.1, M=1)
    sample(prob, mesh)
    narrow = zero_problem(X0=0.75, X=1.0)
    with pytest.raises(ValueError, match="tail step"):
        sample(narrow, mesh)
    with pytest.raises(ValueError, match="reach past the tail onset"):
        sample(zero_problem(X0=1.5, X=2.0), mesh)


def test_corner_mismatch_warns_but_proceeds():
    prob = zero_problem()
    mismatched = ProblemSpec(rho=prob.rho, b=prob.b, c=prob.c, f=prob.f,
                             g=lambda t: 0.0,
                             u0=lambda x: np.clip(1.0 - 4.0 * np.asarray(x, dtype=float),
                                                  0.0, 1.0),
                             X0=0.5, X=1.0)
    mesh = build_mesh(1.0, 8, tau=0.1, M=1)
    with pytest.warns(UserWarning, match="corner"):
        coeffs = sample(mismatched, mesh)
    assert coeffs.U0[0] == 1.0
    # a g that cannot be evaluated at t = 0 skips the check without a warning
    singular = replace(mismatched, g=lambda t: 0.0 * math.log(t))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sample(singular, mesh).U0[0] == 1.0


def test_infinite_corner_value_warns():
    # G[0] = g(0) is read only by the corner check, so an infinite value
    # there is a disagreement with u0(0), not a failed sample
    prob = replace(zero_problem(),
                   g=lambda t: np.where(np.asarray(t) > 0.0, 0.0, np.inf))
    mesh = build_mesh(1.0, 8, tau=0.1, M=3)
    with pytest.warns(UserWarning, match=r"u0\(0\)=0 vs g\(0\)=inf"):
        coeffs = sample(prob, mesh)
    assert coeffs.G[0] == np.inf and np.all(coeffs.G[1:] == 0.0)


def test_example2_preset_data():
    prob, exact = example2()
    assert prob.g(0.5) == pytest.approx(0.25)
    assert exact is u2
    mesh = build_mesh(1.0, 10, tau=0.01, M=3)
    coeffs = sample(prob, mesh)
    assert np.all(coeffs.U0 == 0.0)


def test_problem_spec_validation():
    prob = zero_problem()
    with pytest.raises(ValueError):
        ProblemSpec(rho=prob.rho, b=prob.b, c=prob.c, f=prob.f, g=prob.g,
                    u0=prob.u0, X0=1.5, X=1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            replace(prob, tail_tol=bad)


def test_mesh_arrays_are_frozen():
    mesh = build_mesh(1.0, 4, tau=0.1, M=1)
    with pytest.raises(ValueError):
        mesh.x[0] = 1.0


def _poisoned(x, value):
    # finite data with one non-finite sample inside the interior
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x - 0.3) < 0.06, value, np.ones_like(x))


NON_FINITE_DATA = {
    "rho": lambda p: replace(p, rho=lambda x: _poisoned(x, np.nan)),
    "b": lambda p: replace(p, b=lambda x: _poisoned(x, np.inf)),
    "c": lambda p: replace(p, c=lambda x: _poisoned(x, np.nan) - 1.0),
    "u0": lambda p: replace(p, u0=lambda x: _poisoned(x, np.nan) - 1.0),
    "f": lambda p: replace(p, f=lambda x, t: _poisoned(x, np.inf) - 1.0),
    "g": lambda p: replace(p, g=lambda t: np.nan if t > 0.025 else 0.0),
}


@pytest.mark.parametrize("field", sorted(NON_FINITE_DATA))
def test_non_finite_data_rejected_where_it_enters(field, monkeypatch):
    prob = NON_FINITE_DATA[field](zero_problem())
    mesh = build_mesh(1.0, 10, tau=0.01, M=5)
    match = "t_m=0.03" if field == "g" else f"^{field} samples are not finite"
    with pytest.raises(ValueError, match=match):
        march(prob, mesh, SchemeConfig(0.5, 0.0, "dtbc"))
    if field != "g":
        with pytest.raises(ValueError, match=match):
            sample(prob, mesh)
    else:
        # g is sampled at every level before the first solve: a g that is
        # NaN only at the last level stops the march before it starts
        # (the march imports the routine when it starts)
        solves = []
        from scipy.linalg.lapack import dgttrs

        def recorded(*args):
            solves.append(args[5].copy())
            return dgttrs(*args)

        monkeypatch.setattr("scipy.linalg.lapack.dgttrs", recorded)
        last = replace(prob, g=lambda t: np.nan if t > 0.045 else 0.0)
        with pytest.raises(ValueError, match=r"t_m=0\.05 \(level 5\)"):
            march(last, mesh, SchemeConfig(0.5, 0.0, "dtbc"))
        assert solves == []
        # the seam sees every level of a run that marches
        march(zero_problem(), mesh, SchemeConfig(0.5, 0.0, "dtbc"))
        assert len(solves) == mesh.M
