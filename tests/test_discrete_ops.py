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


def mass_form(kappa, mesh, theta):
    return ops.EnergyForm(mesh, theta, kappa, kappa[mesh.J])


def elliptic_form(b_h, c_h, c_inf, mesh, theta):
    return ops.EnergyForm(mesh, theta, c_h, c_inf, b_h)


def test_theta_zero_average_is_identity():
    mesh = graded_mesh()
    W = rng_vector(mesh, 1)
    field = mass_form(unit_kappa(mesh), mesh, 0.0).averaged(W)
    assert np.array_equal(field, W[1:-1])


def test_three_point_average_symmetric_case():
    mesh = build_mesh(1.0, tau=1.0, M=1, nodes=[0.0, 0.5, 1.0])
    W = np.array([1.0, 2.0, 3.0])
    field = mass_form(unit_kappa(mesh), mesh, 1.0 / 6.0).averaged(W)
    assert field.shape == (1,) and field[0] == pytest.approx(2.0)


def test_averaged_multiplication_by_one_is_average():
    # with kappa = 1 the stencil is the three-point average
    # theta (h_j/hbar_j) W_{j-1} + (1 - 2 theta) W_j + theta (h_{j+1}/hbar_j) W_{j+1}
    mesh = graded_mesh()
    W = rng_vector(mesh, 2)
    h, hbar = mesh.h, mesh.hbar
    for theta in (-0.5, 0.0, 1.0 / 6.0, 0.25):
        field = mass_form(unit_kappa(mesh), mesh, theta).averaged(W)
        for j in range(1, mesh.J):
            average = (theta * (h[j] / hbar[j]) * W[j - 1]
                       + (1.0 - 2.0 * theta) * W[j]
                       + theta * (h[j + 1] / hbar[j]) * W[j + 1])
            assert field[j - 1] == pytest.approx(average, abs=1e-15)
            assert c_theta_apply(unit_kappa(mesh), W, mesh, theta, j) \
                == pytest.approx(average, abs=1e-15)


def test_vectorized_stencil_matches_pointwise():
    mesh = graded_mesh()
    W = rng_vector(mesh, 3)
    rng = np.random.default_rng(4)
    kappa = np.concatenate(([np.nan], rng.uniform(0.5, 2.0, size=mesh.J)))
    for theta in (-0.5, 0.0, 1.0 / 6.0, 0.25):
        field = mass_form(kappa, mesh, theta).averaged(W)
        for j in range(1, mesh.J):
            assert field[j - 1] == pytest.approx(
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
        mass_q = mass_form(b_h, mesh, theta)
        ell_q = elliptic_form(b_h, c_h, c_h[-1], mesh, theta)
        field = mass_q.averaged(U)
        mass = mass_q.evaluate(U, W)
        ell = ell_q.evaluate(U, W)
        assert field.shape == (7, mesh.J - 1)
        assert mass.shape == ell.shape == (7,)
        for i in range(7):
            assert np.array_equal(field[i], mass_q.averaged(U[i]))
            assert mass[i] == pytest.approx(mass_q.evaluate(U[i], W[i]),
                                            abs=1e-14)
            assert ell[i] == pytest.approx(ell_q.evaluate(U[i], W[i]),
                                           abs=1e-13)


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
            form = mass_form(kappa, mesh, theta)
            lhs = form.evaluate(U, W)
            rhs = form.evaluate(W, U)
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
            form = elliptic_form(b_h, c_h, c_inf, mesh, theta)
            lhs = form.evaluate(U, W)
            rhs = form.evaluate(W, U)
            assert abs(lhs - rhs) <= 1e-13


def test_forms_vanish_on_zero_argument():
    mesh = graded_mesh()
    z = np.zeros(mesh.J + 1)
    W = rng_vector(mesh, 9, anchored=True)
    kappa = np.concatenate(([np.nan], np.full(mesh.J, 1.3)))
    assert mass_form(kappa, mesh, 0.1).evaluate(z, W) == 0.0
    assert elliptic_form(kappa, kappa, 1.3, mesh, 0.1).evaluate(z, W) == 0.0


def test_forms_reject_large_theta():
    mesh = uniform_mesh()
    kappa = np.concatenate(([np.nan], np.ones(mesh.J)))
    with pytest.raises(ValueError, match="theta"):
        mass_form(kappa, mesh, 0.3)


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
            n_mass = np.sqrt(mass_form(rho, mesh, theta).evaluate(W, W))
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

