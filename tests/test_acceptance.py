"""Acceptance gate: one test per numbered criterion, printed pass/fail.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Tolerances are fixed here and nowhere relaxed.
"""

import math
import time

import numpy as np
import pytest

from parabolic_dtbc import (SchemeConfig, build_mesh, certify_dissipativity,
                            derive_params, diagnose_energy, error_report,
                            example1, example2, kernel_by_legendre,
                            kernel_by_recurrence, kernel_gf_oracle, march,
                            march_reference, u1, u2)

from _support import params_from_ratios, random_h0_problem

SIGMAS = (0.5, 1.0)
THETAS = (0.0, 1.0 / 12.0, 1.0 / 6.0, 0.25)


def _report(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number}] {status}: {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_1_kernel_cross_construction():
    t0 = time.perf_counter()
    worst = 0.0
    for sigma in SIGMAS:
        for theta in THETAS:
            for d0 in (0.0, 0.1):
                for d1 in (0.1, 1.0, 10.0):
                    params = params_from_ratios(d0, d1, sigma, theta)
                    r_rec = kernel_by_recurrence(params, 5000).R
                    r_leg = kernel_by_legendre(params, 5000).R
                    denom = np.maximum(np.abs(r_rec), np.abs(r_leg))
                    mask = denom > 0.0
                    worst = max(worst, float(np.max(
                        np.abs(r_rec - r_leg)[mask] / denom[mask])))
    elapsed = time.perf_counter() - t0
    _report(1, worst <= 1e-12 and elapsed < 1.0,
            f"recurrence vs closed form, worst rel dev {worst:.3e} "
            f"(<= 1e-12), {elapsed:.2f}s (< 1s)")


def test_criterion_2_kernel_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for h, tau in ((0.05, 1.0 / 1500.0), (0.1, 0.01)):
        params = derive_params(1.0, 1.0, 0.0, h, tau, 0.5, 1.0 / 12.0)
        r_rec = kernel_by_recurrence(params, 50).R
        oracle = kernel_gf_oracle(params, 50)
        worst = max(worst, float(np.max(np.abs(r_rec - oracle))))
    elapsed = time.perf_counter() - t0
    _report(2, worst <= 1e-8 and elapsed < 5.0,
            f"contour oracle vs recurrence, worst abs dev {worst:.3e} "
            f"(<= 1e-8), {elapsed:.2f}s (< 5s)")


def test_criterion_3_dissipativity_suite():
    worst_w = worst_i = -math.inf
    for sigma in SIGMAS:
        for theta in THETAS:
            params = derive_params(1.0, 1.0, 0.0, 0.1, 0.01, sigma, theta)
            kernel = kernel_by_recurrence(params, 200)
            rep = certify_dissipativity(kernel, trials=1000, M=200, seed=2024,
                                        tol=1e-10)
            worst_w = max(worst_w, rep.worst_weighted)
            worst_i = max(worst_i, rep.worst_increment)
            if not rep.passed:
                _report(3, False, f"failed at sigma={sigma}, theta={theta}")
    _report(3, worst_w <= 1e-10 and worst_i <= 1e-10,
            f"1000 random + 3 adversarial probes x 8 weight pairs, "
            f"worst normalized sums {worst_w:.3e} / {worst_i:.3e} (<= 1e-10)")


def test_criterion_4_transparent_closure_exactness():
    t0 = time.perf_counter()
    prob, _ = example2()
    mesh = build_mesh(1.0, 10, tau=0.01, M=100)
    cfg = SchemeConfig(0.5, 1.0 / 12.0, "dtbc")
    res_d = march(prob, mesh, cfg)
    res_r = march_reference(prob, mesh, cfg, 5.0)  # doubling check included
    dev = float(np.max(np.abs(res_d.U - res_r.U)))
    elapsed = time.perf_counter() - t0
    _report(4, dev <= 1e-8 and elapsed < 10.0,
            f"transparent vs enlarged-interval closure, max dev {dev:.3e} "
            f"(<= 1e-8), {elapsed:.2f}s (< 10s)")


def test_criterion_5_gaussian_error_table():
    t0 = time.perf_counter()
    prob, exact = example1()
    errors = {}
    for theta in (0.0, 1.0 / 12.0):
        for M in (20, 50, 100, 200, 500, 1000, 2000):
            mesh = build_mesh(2.5, 50, tau=1.0 / M, M=M)
            res = march(prob, mesh, SchemeConfig(0.5, theta, "dtbc"))
            errors[(theta, M)] = error_report(res.U, exact, mesh).max_abs_error
    elapsed = time.perf_counter() - t0

    def within2(value, ref):
        return ref / 2.0 <= value <= ref * 2.0

    ok = within2(errors[(1.0 / 12.0, 500)], 7.28e-5)
    ok &= within2(errors[(1.0 / 12.0, 2000)], 1.28e-6)
    ok &= all(within2(errors[(0.0, M)], 9.3e-4) for M in (500, 1000, 2000))
    ok &= elapsed < 60.0
    _report(5, ok,
            f"Gaussian table: e(1/12, 500)={errors[(1/12, 500)]:.3e} "
            f"(ref 7.28e-5), e(1/12, 2000)={errors[(1/12, 2000)]:.3e} "
            f"(ref 1.28e-6), plateau(0)="
            f"{errors[(0.0, 2000)]:.3e} (ref 9.3e-4), {elapsed:.1f}s (< 60s)")


def test_criterion_6_ramp_error_table_at_m100():
    prob, exact = example2()
    refs = {0.0: 3.402e-4, 1.0 / 12.0: 4.700e-6,
            1.0 / 6.0: 3.340e-4, 0.25: 6.717e-4}
    errors = {}
    for theta in refs:
        mesh = build_mesh(1.0, 10, tau=0.01, M=100)
        res = march(prob, mesh, SchemeConfig(0.5, theta, "dtbc"))
        errors[theta] = error_report(res.U, exact, mesh).max_abs_error
    ok = all(ref / 2.0 <= errors[th] <= ref * 2.0 for th, ref in refs.items())
    # ordering: the 1/12 scheme is far ahead, 0 and 1/6 comparable, 1/4 worst
    e0, e12, e16, e14 = (errors[0.0], errors[1.0 / 12.0],
                         errors[1.0 / 6.0], errors[0.25])
    ok &= e12 < e0 / 10.0 and e12 < e16 / 10.0
    ok &= 0.5 <= e0 / e16 <= 2.0
    ok &= max(e0, e16) < e14
    _report(6, ok,
            "ramp table at M=100: " + ", ".join(
                f"theta={th:.4g}: {errors[th]:.3e}" for th in refs))


def test_criterion_7_zero_flux_closure_comparisons():
    prob, exact = example2()
    mesh = build_mesh(1.0, 10, tau=0.01, M=100)
    res_n = march(prob, mesh, SchemeConfig(0.5, 1.0 / 12.0, "neumann"))
    err_n = error_report(res_n.U, exact, mesh).max_abs_error
    res_d = march(prob, mesh, SchemeConfig(0.5, 1.0 / 12.0, "dtbc"))
    rep_d = error_report(res_d.U, exact, mesh)
    res_x5 = march_reference(prob, mesh, SchemeConfig(0.5, 1.0 / 12.0, "neumann"),
                             5.0)
    err_x5 = error_report(res_x5.U, exact, mesh).max_abs_error
    ok = 0.15 / 2.0 <= err_n <= 0.15 * 2.0
    ok &= err_x5 <= 2.0 * rep_d.max_abs_error
    ok &= (rep_d.argmax_level, rep_d.argmax_node) == (1, 1)
    _report(7, ok,
            f"zero-flux error {err_n:.3e} (ref 0.15), five-fold interval "
            f"error {err_x5:.3e} vs transparent {rep_d.max_abs_error:.3e}, "
            f"transparent argmax at (m=1, j=1)="
            f"({rep_d.argmax_level}, {rep_d.argmax_node})")


def test_criterion_8_energy_diagnostics_matrix():
    worst_eq1 = worst_eq2 = 0.0
    min_slack = math.inf
    mesh = build_mesh(1.0, 20, tau=0.02, M=50)
    for variable in (False, True):
        prob = random_h0_problem(42, mesh.x, 0.5, 1.0, variable)
        for mode in ("dtbc", "neumann"):
            for sigma in SIGMAS:
                for theta in THETAS:
                    res = march(prob, mesh, SchemeConfig(sigma, theta, mode))
                    diag = diagnose_energy(res)
                    worst_eq1 = max(worst_eq1, diag.first_equality_rel)
                    worst_eq2 = max(worst_eq2, diag.second_equality_rel)
                    min_slack = min(min_slack, diag.sb_slack, diag.sbA_slack)
    ok = worst_eq1 <= 1e-10 and worst_eq2 <= 1e-10 and min_slack >= 0.0
    _report(8, ok,
            f"32 zero-boundary runs: equality residuals {worst_eq1:.2e} / "
            f"{worst_eq2:.2e} (<= 1e-10), minimum bound slack {min_slack:.2e} "
            f"(>= 0)")


def test_criterion_9_exact_solution_oracles():
    def residual(fn, x, t, step):
        ut = (fn(x, t + step) - fn(x, t - step)) / (2.0 * step)
        uxx = (fn(x + step, t) - 2.0 * fn(x, t) + fn(x - step, t)) / step ** 2
        return abs(ut - uxx)

    rng = np.random.default_rng(9)
    orders = []
    for fn, x_range in ((u1, (0.2, 2.2)), (u2, (0.1, 0.9))):
        points = [(rng.uniform(*x_range), rng.uniform(0.2, 1.0))
                  for _ in range(12)]
        r1 = max(residual(fn, x, t, 1e-2) for x, t in points)
        r2 = max(residual(fn, x, t, 5e-3) for x, t in points)
        orders.append(math.log2(r1 / r2))
    ramp_dev = max(abs(u2(0.0, t) - t ** 2)
                   for t in np.linspace(0.01, 1.0, 23))
    ok = all(order >= 1.9 for order in orders) and ramp_dev <= 1e-13
    _report(9, ok,
            f"heat-equation residual orders {orders[0]:.2f} / {orders[1]:.2f} "
            f"(>= 1.9), boundary ramp deviation {ramp_dev:.2e} (<= 1e-13)")
