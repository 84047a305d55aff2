"""Energy stability, observed at runtime rather than taken on faith.

For zero boundary data the scheme satisfies two exact energy identities
(they hold to roundoff for every computed trajectory) and, because the
boundary convolution is dissipative, two a-priori bounds with
nonnegative slack.  This script runs a randomly seeded initial profile
through the (sigma, theta) grid and prints the residuals and slacks,
then certifies the dissipativity of the boundary kernel directly on
random input sequences.
"""

import numpy as np

from parabolic_dtbc import (ProblemSpec, SchemeConfig, build_mesh,
                            certify_dissipativity, derive_params,
                            diagnose_energy, kernel_by_recurrence, march)

mesh = build_mesh(1.0, 20, tau=0.02, M=50)
rng = np.random.default_rng(7)
values = rng.uniform(-1.0, 1.0, size=mesh.x.size)
values[0] = 0.0
values[mesh.x >= 0.5] = 0.0
knots = mesh.x.copy()

problem = ProblemSpec(
    rho=lambda x: np.ones(np.shape(x)),
    b=lambda x: np.ones(np.shape(x)),
    c=lambda x: np.zeros(np.shape(x)),
    f=None,
    g=lambda t: 0.0,
    u0=lambda x: np.interp(x, knots, values),
    X0=0.5, X=1.0, label="random-profile")

print("random zero-boundary profile, J=20, M=50, transparent closure")
print("sigma  theta   eq1 residual  eq2 residual  bound slacks")
for sigma in (0.5, 1.0):
    for theta in (0.0, 1.0 / 12.0, 1.0 / 6.0, 0.25):
        result = march(problem, mesh, SchemeConfig(sigma, theta, "dtbc"))
        diag = diagnose_energy(result)
        print(f"{sigma:5.2f} {theta:6.3f}   {diag.first_equality_rel:10.2e}"
              f"   {diag.second_equality_rel:10.2e}"
              f"   {diag.sb_slack:.2e} / {diag.sbA_slack:.2e}")

print("\nThe equalities are algebraic identities of the scheme; residuals "
      "at machine-epsilon scale confirm the assembled system, the "
      "boundary row included, is exactly the one the identities describe.")

params = derive_params(1.0, 1.0, 0.0, mesh.h_tail, mesh.tau, 0.5, 1.0 / 12.0)
kernel = kernel_by_recurrence(params, 200)
report = certify_dissipativity(kernel, trials=1000, M=200, seed=7)
print(f"\nkernel dissipativity over {report.n_sequences} probe sequences: "
      f"worst normalized sums {report.worst_weighted:.3e} (weighted) and "
      f"{report.worst_increment:.3e} (increment); both strictly negative, "
      f"which is what guarantees the bounds above.")
