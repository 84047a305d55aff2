"""Finite-difference solver for the half-line parabolic equation.

A two-parameter family of two-level schemes (time weight sigma, spatial
averaging weight theta) on a truncated interval, closed at the right end
by the exact discrete transparent boundary condition: a time convolution
whose real kernel is generated by a short three-term recurrence.  The
package ships the closed-form reference solutions, error metrics, and
energy-stability diagnostics used to validate the schemes, plus a small
CSV-emitting command line front end.
"""

from .discrete_ops import NormSet
from .dtbc_kernel import (Kernel, KernelParams, LaggedConvolution,
                          OracleConvergenceError, convolve_all, derive_params,
                          kernel_by_legendre, kernel_by_recurrence,
                          kernel_gf_oracle)
from .problem import (Mesh, PRESETS, ProblemSpec, SampledCoefficients,
                      build_mesh, example1, example2, sample)
from .stepper import (SchemeConfig, SolveResult, SolverError, march,
                      march_reference)
from .validation import (DissipativityReport, EnergyDiagnostics, ErrorReport,
                         certify_dissipativity, diagnose_energy, error_report,
                         iterated_erfc, u1, u2)

__all__ = [
    "DissipativityReport", "EnergyDiagnostics", "ErrorReport", "Kernel",
    "KernelParams", "LaggedConvolution", "Mesh", "NormSet",
    "OracleConvergenceError",
    "PRESETS", "ProblemSpec", "SampledCoefficients", "SchemeConfig",
    "SolveResult", "SolverError", "build_mesh", "certify_dissipativity",
    "convolve_all", "derive_params", "diagnose_energy", "error_report",
    "example1", "example2", "iterated_erfc", "kernel_by_legendre",
    "kernel_by_recurrence", "kernel_gf_oracle", "march", "march_reference",
    "sample", "u1", "u2",
]

__version__ = "0.1.0"
