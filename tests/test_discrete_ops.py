import numpy as np
import pytest

from parabolic_dtbc import GridFunction, NormSet, build_mesh
from parabolic_dtbc import discrete_ops as ops


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


def test_theta_zero_average_is_identity():
    mesh = graded_mesh()
    W = rng_vector(mesh, 1)
    for j in range(1, mesh.J):
        assert ops.avg_s_theta(W, mesh, 0.0, j) == W[j]


def test_three_point_average_symmetric_case():
    mesh = build_mesh(1.0, tau=1.0, M=1, nodes=[0.0, 0.5, 1.0])
    W = np.array([1.0, 2.0, 3.0])
    assert ops.avg_s_theta(W, mesh, 1.0 / 6.0, 1) == pytest.approx(2.0)


def test_averaged_multiplication_by_one_is_average():
    mesh = graded_mesh()
    W = rng_vector(mesh, 2)
    ones = np.ones(mesh.J + 1)
    ones[0] = np.nan  # midpoint-indexed
    for theta in (-0.5, 0.0, 1.0 / 6.0, 0.25):
        for j in range(1, mesh.J):
            assert ops.c_theta_apply(ones, W, mesh, theta, j) == pytest.approx(
                ops.avg_s_theta(W, mesh, theta, j), abs=1e-15)


def test_vectorized_stencil_matches_pointwise():
    mesh = graded_mesh()
    W = rng_vector(mesh, 3)
    rng = np.random.default_rng(4)
    kappa = np.concatenate(([np.nan], rng.uniform(0.5, 2.0, size=mesh.J)))
    for theta in (-0.5, 0.0, 1.0 / 6.0, 0.25):
        field = ops.c_theta_interior(kappa, W, mesh, theta)
        for j in range(1, mesh.J):
            assert field[j] == pytest.approx(
                ops.c_theta_apply(kappa, W, mesh, theta, j), abs=1e-15)


def test_inner_products_basic_identities():
    mesh = uniform_mesh(J=10)
    ones = np.ones(mesh.J + 1)
    assert ops.inner_tilde(ones, ones, mesh) == pytest.approx(1.0)
    zeros = np.zeros(mesh.J + 1)
    W = rng_vector(mesh, 6)
    assert ops.inner_omega(zeros, W, mesh) == 0.0
    assert ops.inner_tilde(zeros, W, mesh) == 0.0
    assert ops.inner_bar(zeros, W, mesh) == 0.0
    gap = ops.inner_bar(W, W, mesh) - ops.inner_omega(W, W, mesh)
    assert gap == pytest.approx(W[-1] ** 2 * mesh.h_tail / 2.0)


def test_inner_product_rejects_mismatched_lengths():
    mesh = uniform_mesh(J=10)
    with pytest.raises(ValueError):
        ops.inner_omega(np.zeros(5), np.zeros(5), mesh)


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
            n_mass = ops.norm_mass(W, rho, mesh, theta)
            n_bar = ops.norm_bar(W, mesh)
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


def test_grid_function_anchoring():
    gf = GridFunction(values=np.array([0.0, 1.0, 2.0]), anchored=True)
    assert gf.values[0] == 0.0
    with pytest.raises(ValueError):
        GridFunction(values=np.array([0.5, 1.0]), anchored=True)
