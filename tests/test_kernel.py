from dataclasses import replace

import numpy as np
import pytest

from parabolic_dtbc import (Kernel, LaggedConvolution, OracleConvergenceError,
                            SchemeConfig, convolve_all, derive_params,
                            kernel_by_legendre, kernel_by_recurrence,
                            kernel_gf_oracle)
from parabolic_dtbc.dtbc_kernel import BLOCK

from _support import convolve_direct, params_from_ratios

SQRT5 = np.sqrt(5.0)


def hand_params():
    # rho = b = 1, c = 0, h = tau = 1, sigma = 1, theta = 0
    return derive_params(1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 0.0)


def example1_params(sigma=0.5, theta=1.0 / 12.0):
    return derive_params(1.0, 1.0, 0.0, 0.05, 1.0 / 1500.0, sigma, theta)


def example2_params(sigma=0.5, theta=1.0 / 12.0):
    return derive_params(1.0, 1.0, 0.0, 0.1, 0.01, sigma, theta)


def test_derive_params_hand_case():
    p = hand_params()
    assert p.a1 == pytest.approx(0.5)
    assert p.d0 == 0.0
    assert p.d1 == pytest.approx(4.0)
    assert p.alpha0 == pytest.approx(1.0)
    assert p.alpha1 == pytest.approx(0.2)
    assert p.alpha == pytest.approx(0.2)
    assert p.beta == pytest.approx(0.6)
    assert p.delta == pytest.approx(5.0)


def test_zero_reaction_always_gives_unit_alpha0():
    for sigma in (0.5, 0.7, 1.0, 2.0):
        p = derive_params(1.0, 1.0, 0.0, 0.3, 0.05, sigma, 0.1)
        assert p.alpha0 == 1.0


def test_derive_params_example1_grid():
    p = example1_params()
    assert p.a1 == pytest.approx(1.875)
    assert p.d1 == pytest.approx(16.0 / 15.0)
    assert p.delta == pytest.approx(1.2)
    assert p.alpha1 == pytest.approx(1.0 / 9.0)
    assert p.beta == pytest.approx(5.0 / 9.0)


def test_derive_params_example2_grid_negative_alpha():
    p = example2_params()
    assert p.delta == pytest.approx(8.0 / 3.0)
    assert p.alpha == pytest.approx(-0.5)
    assert p.beta == pytest.approx(0.25)


def test_derive_params_rejects_bad_inputs():
    with pytest.raises(ValueError, match="sigma"):
        derive_params(1.0, 1.0, 0.0, 0.1, 0.01, 0.4, 0.0)
    with pytest.raises(ValueError, match="theta"):
        derive_params(1.0, 1.0, 0.0, 0.1, 0.01, 0.5, 0.3)
    with pytest.raises(ValueError):
        derive_params(-1.0, 1.0, 0.0, 0.1, 0.01, 0.5, 0.0)
    with pytest.raises(ValueError):
        derive_params(1.0, 1.0, 0.0, -0.1, 0.01, 0.5, 0.0)
    with pytest.raises(ValueError):
        derive_params(1.0, 1.0, -0.5, 0.1, 0.01, 0.5, 0.0)
    for bad in (np.nan, np.inf):
        for args in ((bad, 1.0, 0.0, 0.1, 0.01), (1.0, bad, 0.0, 0.1, 0.01),
                     (1.0, 1.0, bad, 0.1, 0.01), (1.0, 1.0, 0.0, bad, 0.01),
                     (1.0, 1.0, 0.0, 0.1, bad)):
            with pytest.raises(ValueError, match="finite"):
                derive_params(*args, 0.5, 0.0)


def test_recurrence_head_values():
    k = kernel_by_recurrence(hand_params(), 2)
    assert k.R[0] == pytest.approx(-SQRT5, rel=1e-15)
    assert k.R[1] == pytest.approx(0.6 * SQRT5, rel=1e-15)
    # unrolled by hand: R2 = 0.5*0.6*R1 + 0.5*0.2*R0 = 0.08*sqrt(5)
    assert k.R[2] == pytest.approx(0.17888543819998318, rel=1e-14)


def test_legendre_head_values():
    k = kernel_by_legendre(hand_params(), 3)
    scale = 2.0 * 0.5 * SQRT5
    assert k.R[0] == pytest.approx(-scale, rel=1e-15)
    assert k.R[1] == pytest.approx(scale * 0.6, rel=1e-15)
    # p1 = beta and p2 = 1.5 beta^2 - 0.5 alpha feed the m = 2 entry
    p2 = 1.5 * 0.6 ** 2 - 0.5 * 0.2
    assert k.R[2] == pytest.approx(scale * (p2 - 0.2) / 3.0, rel=1e-14)
    assert k.R[2] == pytest.approx(0.17888543819998318, rel=1e-14)


def test_constructions_agree_for_negative_alpha():
    p = example2_params()
    r1 = kernel_by_recurrence(p, 2000).R
    r2 = kernel_by_legendre(p, 2000).R
    denom = np.maximum(np.abs(r1), np.abs(r2))
    mask = denom > 0
    assert np.max(np.abs(r1 - r2)[mask] / denom[mask]) < 1e-12
    assert np.all(np.isfinite(r1))


def test_kernel_magnitudes_decay():
    k = kernel_by_recurrence(example1_params(), 2000)
    early = np.max(np.abs(k.R[1:51]))
    late = np.max(np.abs(k.R[1000:]))
    assert late < 0.01 * early


def test_kernel_head_validation():
    p = hand_params()
    with pytest.raises(ValueError, match="R\\[0\\] inconsistent"):
        Kernel(R=np.array([1.0, 2.0]), params=p)
    with pytest.raises(ValueError, match="R\\[1\\] inconsistent"):
        Kernel(R=np.array([-SQRT5, 2.0]), params=p)
    with pytest.raises(ValueError, match="R\\[0\\] and R\\[1\\] at least"):
        Kernel(R=np.array([-SQRT5]), params=p)
    for construct in (kernel_by_recurrence, kernel_by_legendre):
        with pytest.raises(ValueError, match="at least M = 1"):
            construct(p, 0)


def test_oracle_matches_recurrence_hand_case():
    p = hand_params()
    vals = kernel_gf_oracle(p, 2)
    assert vals[0] == pytest.approx(-SQRT5, abs=1e-10)
    assert vals[2] == pytest.approx(0.17888543819998318, abs=1e-10)


def test_oracle_argument_validation():
    p = hand_params()
    with pytest.raises(ValueError):
        kernel_gf_oracle(p, -1)
    # alpha z^2 - 2 beta z + 1 = (1 - z)(1 - 2 z) has a root at z = 1/2,
    # outside the admitted regime
    with pytest.raises(ValueError, match="branch point"):
        kernel_gf_oracle(replace(p, alpha=2.0, beta=1.5), 5)


def test_oracle_matches_recurrence_to_m_200():
    # the 48 parameter sets of acceptance criterion 1; a contour radius of
    # 0.8 instead of 0.98 stops converging here
    for sigma in (0.5, 1.0):
        for theta in (0.0, 1.0 / 12.0, 1.0 / 6.0, 0.25):
            for d0 in (0.0, 0.1):
                for d1 in (0.1, 1.0, 10.0):
                    p = params_from_ratios(d0, d1, sigma, theta)
                    dev = np.abs(kernel_gf_oracle(p, 200)
                                 - kernel_by_recurrence(p, 200).R)
                    assert np.max(dev) <= 1e-12 * p.scale, (sigma, theta, d0, d1)


def test_oracle_gives_up_past_its_point_budget():
    # the first trapezoid rule, 2 (m_max + 16) points, already exceeds 8192
    with pytest.raises(OracleConvergenceError, match="converge"):
        kernel_gf_oracle(hand_params(), 4081)


def test_weight_range_check_shared_by_every_entry_point():
    entry_points = (
        lambda s, t: derive_params(1.0, 1.0, 0.0, 0.1, 0.01, s, t),
        lambda s, t: SchemeConfig(sigma=s, theta=t),
    )
    for build in entry_points:
        build(0.5 - 2e-15, 0.25 + 2e-15)  # inside the roundoff slack
        with pytest.raises(ValueError, match="theta"):
            build(0.5, 0.25 + 1e-13)
        for bad in (np.nan, -np.inf):
            with pytest.raises(ValueError, match="theta"):
                build(0.5, bad)
        for bad in (0.5 - 1e-13, np.nan, np.inf):
            with pytest.raises(ValueError, match="sigma"):
                build(bad, 0.0)


def test_sigma_continuity_through_degenerate_weight():
    # theta = 1/4 with a1 = 1.5 puts the degenerate weight at 0.75; the
    # kernel varies continuously through it
    d0, d1, theta = 0.0, 4.0 / 3.0, 0.25
    base = params_from_ratios(d0, d1, 0.75, theta)
    # the generating-function denominator degenerates at the origin at
    # sigma0 = 2 a1 theta / (1 - 2 a0 theta), with a1 = 2/d1 and a0 = d0 a1
    a1 = 2.0 / d1
    assert base.a1 == pytest.approx(a1)
    sigma0 = 2.0 * a1 * theta / (1.0 - 2.0 * d0 * a1 * theta)
    assert sigma0 == pytest.approx(0.75)
    R0 = kernel_by_recurrence(base, 200).R
    for eps in (-1e-6, 1e-6):
        near = params_from_ratios(d0, d1, 0.75 + eps, theta)
        R = kernel_by_recurrence(near, 200).R
        assert np.max(np.abs(R - R0) / (1.0 + np.abs(R0))) < 1e-4


def test_degenerate_delta_is_rejected():
    # theta inside the roundoff slack past 1/4 and a tiny d1 = 4e-16 give
    # delta < 0, which KernelParams rejects
    with pytest.raises(ValueError, match="degenerate kernel parameters"):
        derive_params(1.0, 1.0, 0.0, 1e4, 1e-8, 0.5, 0.25 + 1e-14)


def test_convolve_basic_cases():
    k = kernel_by_recurrence(hand_params(), 10)  # h = 1
    assert np.all(convolve_all(k, np.zeros(5)) == 0.0)
    assert convolve_all(k, np.array([1.0]))[0] == pytest.approx(k.R[0] / 2.0)
    assert convolve_all(k, np.array([0.0, 1.0]))[1] == pytest.approx(k.R[0] / 2.0)


def test_convolve_length_validation():
    k = kernel_by_recurrence(hand_params(), 3)
    assert convolve_all(k, np.zeros(4)).shape == (4,)
    with pytest.raises(ValueError, match="kernel"):
        convolve_all(k, np.zeros(5))


def test_convolve_all_matches_pointwise():
    k = kernel_by_recurrence(example2_params(), 64)
    rng = np.random.default_rng(3)
    phi = rng.uniform(-1.0, 1.0, size=65)
    direct = convolve_direct(k, phi)
    fast = convolve_all(k, phi)
    for m in (0, 1, 5, 30, 64):
        terms = [float(k.R[q]) * float(phi[m - q]) for q in range(m + 1)]
        pointwise = sum(terms) / (2.0 * k.params.h)
        bound = 1e-13 * sum(abs(t) for t in terms) / (2.0 * k.params.h)
        assert direct[m] == pytest.approx(pointwise, rel=1e-14)
        assert abs(fast[m] - pointwise) <= bound


@pytest.mark.parametrize("n", [1, 2, 127, 4097])
def test_fft_convolution_matches_direct_sum(n):
    k = kernel_by_recurrence(example1_params(), max(n - 1, 1))
    phi = np.random.default_rng(n).uniform(-1.0, 1.0, size=n)
    fast = convolve_all(k, phi)
    assert fast.shape == (n,)
    # sum_q |R_q| |phi_{m-q}| / (2 h) per level, the scale of the roundoff
    size = np.convolve(np.abs(k.R[:n]), np.abs(phi))[:n] / (2.0 * k.params.h)
    assert np.all(np.abs(fast - convolve_direct(k, phi)) <= 1e-13 * size)
    # a block of histories is convolved row by row
    block = np.stack([phi, -2.0 * phi, np.zeros(n)])
    rows = convolve_all(k, block)
    assert rows.shape == (3, n)
    assert np.all(np.abs(rows[1] + 2.0 * fast) <= 1e-13 * size)
    assert np.all(rows[2] == 0.0)


@pytest.mark.parametrize("M", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1,
                               4096, 5000])
def test_lagged_convolution_matches_direct_sum(M):
    R = kernel_by_recurrence(example1_params(), M).R
    phi = np.random.default_rng(M).uniform(-1.0, 1.0, size=M + 1)
    # direct lagged sums sum_{q=1..m} R[q] phi[m-q] and their magnitudes
    direct = np.convolve(R[1:], phi[:M])
    magnitude = np.convolve(np.abs(R[1:]), np.abs(phi[:M]))
    conv = LaggedConvolution(R)
    hist = np.full(M + 1, np.nan)  # entries from level m on are never read
    for m in range(1, M + 1):
        hist[m - 1] = phi[m - 1]
        dev = abs(conv.lagged(hist, m) - direct[m - 1])
        # below BLOCK the sum is one dot of at most BLOCK - 1 terms, with
        # no FFT roundoff
        rel = BLOCK * 2.0 ** -53 if m < BLOCK else 1e-12
        assert dev <= rel * magnitude[m - 1], m


def test_lagged_convolution_is_online():
    R = kernel_by_recurrence(example2_params(), 3).R
    hist = np.ones(4)
    with pytest.raises(ValueError, match="expected level 1"):
        LaggedConvolution(R).lagged(hist, 2)
    conv = LaggedConvolution(R)
    for m in (1, 2, 3):
        conv.lagged(hist, m)
    with pytest.raises(ValueError, match="kernel length 3"):
        conv.lagged(hist, 4)


def test_lagged_convolution_needs_a_contiguous_float64_history():
    # BLAS would read a copy of anything else, made anew at every level
    R = kernel_by_recurrence(example2_params(), 8).R
    for bad in (np.ones(18)[::2], np.ones(9, dtype=np.int64),
                np.ones(9, dtype=np.float32), np.ones((1, 9)), [1.0] * 9):
        with pytest.raises(TypeError, match="contiguous float64"):
            LaggedConvolution(R).lagged(bad, 1)
    # the check holds for every call, not only the first
    conv = LaggedConvolution(R)
    conv.lagged(np.ones(9), 1)
    with pytest.raises(TypeError, match="contiguous float64"):
        conv.lagged(np.ones(18)[::2], 2)


def test_params_from_ratios_round_trip():
    p = params_from_ratios(0.1, 10.0, 0.5, 0.25)
    assert p.d0 == pytest.approx(0.1)
    assert p.d1 == pytest.approx(10.0)
    with pytest.raises(ValueError):
        params_from_ratios(0.1, -1.0, 0.5, 0.0)
