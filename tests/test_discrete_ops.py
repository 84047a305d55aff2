import numpy as np
import pytest

from parabolic_dtbc import NormSet, build_mesh
from parabolic_dtbc import discrete_ops as ops

from _support import c_theta_apply, norm_bar


def uniform_mesh(J=10, X=1.0):
    return build_mesh(X, J, tau=0.1, M=1)


def graded_mesh():
    nodes = np.concatenate((np.array([0.0, 0.05, 0.15, 0.3, 0.5]),
                            np.arange(0.6, 1.0001, 0.1)))
    return build_mesh(1.0, tau=0.1, M=1, nodes=nodes)


def rng_vector(mesh, seed, anchored=False):
    rng = np.random.default_rng(seed)
    W = rng.uniform(-1.0, 1.0, size=mesh.J + 1)
    if anchored:
        W[0] = 0.0
    return W


def unit_kappa(mesh):
    ones = np.ones(mesh.J + 1)
    ones[0] = np.nan  # midpoint-indexed
    return ones


def test_theta_zero_average_is_identity():
    mesh = graded_mesh()
    W = rng_vector(mesh, 1)
    field = ops.c_theta_interior(unit_kappa(mesh), W, mesh, 0.0)
    assert np.array_equal(field[1:-1], W[1:-1])
    assert np.isnan(field[0]) and np.isnan(field[-1])


def test_three_point_average_symmetric_case():
    mesh = build_mesh(1.0, tau=1.0, M=1, nodes=[0.0, 0.5, 1.0])
    W = np.array([1.0, 2.0, 3.0])
    field = ops.c_theta_interior(unit_kappa(mesh), W, mesh, 1.0 / 6.0)
    assert field[1] == pytest.approx(2.0)


def test_averaged_multiplication_by_one_is_average():
    # with kappa = 1 the stencil is the three-point average
    # theta (h_j/hbar_j) W_{j-1} + (1 - 2 theta) W_j + theta (h_{j+1}/hbar_j) W_{j+1}
    mesh = graded_mesh()
    W = rng_vector(mesh, 2)
    h, hbar = mesh.h, mesh.hbar
    for theta in (-0.5, 0.0, 1.0 / 6.0, 0.25):
        field = ops.c_theta_interior(unit_kappa(mesh), W, mesh, theta)
        for j in range(1, mesh.J):
            average = (theta * (h[j] / hbar[j]) * W[j - 1]
                       + (1.0 - 2.0 * theta) * W[j]
                       + theta * (h[j + 1] / hbar[j]) * W[j + 1])
            assert field[j] == pytest.approx(average, abs=1e-15)
            assert c_theta_apply(unit_kappa(mesh), W, mesh, theta, j) \
                == pytest.approx(average, abs=1e-15)


def test_vectorized_stencil_matches_pointwise():
    mesh = graded_mesh()
    W = rng_vector(mesh, 3)
    rng = np.random.default_rng(4)
    kappa = np.concatenate(([np.nan], rng.uniform(0.5, 2.0, size=mesh.J)))
    for theta in (-0.5, 0.0, 1.0 / 6.0, 0.25):
        field = ops.c_theta_interior(kappa, W, mesh, theta)
        for j in range(1, mesh.J):
            assert field[j] == pytest.approx(
                c_theta_apply(kappa, W, mesh, theta, j), abs=1e-15)


def test_stencil_and_forms_reduce_over_the_last_axis():
    # a block of levels gives, row by row, the values of single vectors
    mesh = graded_mesh()
    rng = np.random.default_rng(5)
    U = rng.uniform(-1.0, 1.0, size=(7, mesh.J + 1))
    W = rng.uniform(-1.0, 1.0, size=(7, mesh.J + 1))
    U[:, 0] = W[:, 0] = 0.0
    b_h = np.concatenate(([np.nan], rng.uniform(0.5, 2.0, size=mesh.J)))
    c_h = np.concatenate(([np.nan], rng.uniform(0.0, 1.0, size=mesh.J)))
    for theta in (-0.5, 0.0, 1.0 / 12.0, 0.25):
        field = ops.c_theta_interior(b_h, U, mesh, theta)
        mass = ops.form_mass(U, W, b_h, mesh, theta)
        ell = ops.form_elliptic(U, W, b_h, c_h, c_h[-1], mesh, theta)
        assert field.shape == U.shape and mass.shape == ell.shape == (7,)
        for i in range(7):
            assert np.array_equal(field[i], ops.c_theta_interior(b_h, U[i], mesh, theta),
                                  equal_nan=True)
            assert mass[i] == pytest.approx(
                ops.form_mass(U[i], W[i], b_h, mesh, theta), abs=1e-14)
            assert ell[i] == pytest.approx(
                ops.form_elliptic(U[i], W[i], b_h, c_h, c_h[-1], mesh, theta),
                abs=1e-13)


def test_forms_reject_mismatched_shapes():
    mesh = uniform_mesh(J=10)
    kappa = unit_kappa(mesh)
    with pytest.raises(ValueError, match="do not match"):
        ops.form_mass(np.zeros(5), np.zeros(5), kappa, mesh, 0.0)
    with pytest.raises(ValueError, match="do not match"):
        ops.form_mass(np.zeros((2, 11)), np.zeros((3, 11)), kappa, mesh, 0.0)
    with pytest.raises(ValueError, match="coefficient"):
        ops.form_elliptic(np.zeros(11), np.zeros(11), kappa[:5], kappa,
                          1.0, mesh, 0.0)


def test_mass_form_symmetry():
    mesh = graded_mesh()
    rng = np.random.default_rng(7)
    for theta in (-0.5, 0.0, 1.0 / 6.0, 0.25):
        for _ in range(25):
            U = rng.uniform(-1.0, 1.0, size=mesh.J + 1)
            W = rng.uniform(-1.0, 1.0, size=mesh.J + 1)
            U[0] = W[0] = 0.0
            kappa = np.concatenate(([np.nan],
                                    rng.uniform(0.5, 2.0, size=mesh.J)))
            lhs = ops.form_mass(U, W, kappa, mesh, theta)
            rhs = ops.form_mass(W, U, kappa, mesh, theta)
            assert abs(lhs - rhs) <= 1e-13


def test_elliptic_form_symmetry():
    mesh = graded_mesh()
    rng = np.random.default_rng(8)
    for theta in (0.0, 1.0 / 12.0, 0.25):
        for _ in range(25):
            U = rng.uniform(-1.0, 1.0, size=mesh.J + 1)
            W = rng.uniform(-1.0, 1.0, size=mesh.J + 1)
            U[0] = W[0] = 0.0
            b_h = np.concatenate(([np.nan], rng.uniform(0.5, 2.0, size=mesh.J)))
            c_h = np.concatenate(([np.nan], rng.uniform(0.0, 1.0, size=mesh.J)))
            c_inf = c_h[-1]  # tail constant equals the last midpoint sample
            lhs = ops.form_elliptic(U, W, b_h, c_h, c_inf, mesh, theta)
            rhs = ops.form_elliptic(W, U, b_h, c_h, c_inf, mesh, theta)
            assert abs(lhs - rhs) <= 1e-13


def test_forms_vanish_on_zero_argument():
    mesh = graded_mesh()
    z = np.zeros(mesh.J + 1)
    W = rng_vector(mesh, 9, anchored=True)
    kappa = np.concatenate(([np.nan], np.full(mesh.J, 1.3)))
    assert ops.form_mass(z, W, kappa, mesh, 0.1) == 0.0
    assert ops.form_elliptic(z, W, kappa, kappa, 1.3, mesh, 0.1) == 0.0


def test_forms_reject_large_theta_and_unanchored_arguments():
    mesh = uniform_mesh()
    W = rng_vector(mesh, 10, anchored=True)
    kappa = np.concatenate(([np.nan], np.ones(mesh.J)))
    with pytest.raises(ValueError):
        ops.form_mass(W, W, kappa, mesh, 0.3)
    bad = W.copy()
    bad[0] = 1.0
    with pytest.raises(ValueError):
        ops.form_mass(bad, W, kappa, mesh, 0.0)


def test_mass_norm_equivalence_inequality():
    # lower bound sqrt(c_theta rho_min) and upper bound
    # sqrt((1 + 4 max(-theta, 0)) rho_max) against the half-cell norm
    mesh = graded_mesh()
    rng = np.random.default_rng(11)
    for theta in (-0.5, 0.0, 1.0 / 12.0, 1.0 / 6.0, 0.25):
        c_theta = 1.0 - 4.0 * max(theta, 0.0)
        upper_c = 1.0 + 4.0 * max(-theta, 0.0)
        for _ in range(40):
            W = rng.uniform(-1.0, 1.0, size=mesh.J + 1)
            W[0] = 0.0
            rho = np.concatenate(([np.nan], rng.uniform(0.5, 2.0, size=mesh.J)))
            n_mass = np.sqrt(ops.form_mass(W, W, rho, mesh, theta))
            n_bar = norm_bar(W, mesh)
            rho_min, rho_max = np.min(rho[1:]), np.max(rho[1:])
            assert n_mass <= np.sqrt(upper_c * rho_max) * n_bar + 1e-12
            if theta < 0.25:
                assert n_mass >= np.sqrt(c_theta * rho_min) * n_bar - 1e-12


def test_norm_set_constants():
    ns = NormSet(sigma=0.5, theta=0.25)
    assert ns.c_theta == pytest.approx(0.0)
    assert ns.K_sigma == pytest.approx(2.0)
    ns = NormSet(sigma=1.0, theta=-0.5)
    assert ns.c_theta == pytest.approx(1.0)
    assert ns.K_sigma == pytest.approx(2.0)
    ns = NormSet(sigma=2.0, theta=0.0)
    assert ns.K_sigma == pytest.approx(6.0)
    with pytest.raises(ValueError):
        NormSet(sigma=0.5, theta=0.3)


@pytest.mark.parametrize("theta", [0.25, 0.25 + 5e-15, 0.25 + 1e-14])
def test_norm_set_clamps_c_theta_inside_the_admitted_slack(theta):
    assert NormSet(sigma=0.5, theta=theta).c_theta == 0.0


def test_norm_set_rejects_theta_past_the_slack():
    with pytest.raises(ValueError, match="theta"):
        NormSet(sigma=0.5, theta=0.25 + 2e-14)

