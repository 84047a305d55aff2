"""Time stepping: one march loop over level-independent operators.

Each level advances by solving a three-point system whose rows are

* row 0: the Dirichlet identity U_0 = g(t_m),
* rows 1..J-1: the weighted interior scheme,
* row J: the right-boundary closure, either the exact transparent
  convolution (the current kernel entry moves to the diagonal, the older
  ones to the right-hand side) or the plain zero-flux form with the
  convolution dropped.

The scheme is one three-point operator at two time weights, sigma on the
new level and sigma - 1 on the old; :func:`scheme_weights` lays out its
rows, which the matrix, the old-level operator and the energy lift read.
The time grid is uniform and the coefficients do not depend on time, so
the matrix, the old-level operator and the boundary gain are the same at
every level.  :func:`march_sampled` builds and factors them once; in its
loop one compiled CSR mat-vec applies the old-level operator, the rest
of the right-hand side changes through the Dirichlet value, the forcing
and the lagged boundary convolution over the boundary column, and one
direct call of LAPACK ``dgttrs`` solves the level in place.
:func:`march_reference` checks the transparent closure: it solves the
same interior scheme on an enlarged interval with the zero-flux form at
the far end and restricts back; with a sufficient enlargement it
approximates the untruncated scheme, so the transparent closure must
reproduce it to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dtbc_kernel import (Kernel, check_weights, derive_params,
                          kernel_by_recurrence, lagged_sums)
from .problem import Mesh, ProblemSpec, SampledCoefficients, sample

BOUNDARY_MODES = ("dtbc", "neumann")
DOUBLING_TOL = 1e-9  # march_reference: largest move when the factor doubles


class SolverError(RuntimeError):
    """Numerical failure during assembly or elimination."""


@dataclass(frozen=True)
class SchemeConfig:
    """Scheme weights and the right-boundary closure.

    sigma >= 1/2 weights the new level, theta <= 1/4 controls the spatial
    averaging; ``boundary`` is "dtbc" (transparent) or "neumann".
    """

    sigma: float
    theta: float
    boundary: str = "dtbc"

    def __post_init__(self):
        check_weights(self.sigma, self.theta)
        if self.boundary not in BOUNDARY_MODES:
            raise ValueError(f"unknown boundary mode {self.boundary!r}")


class TriFactor:
    """LU factors of a tridiagonal matrix, reusable across right-hand sides.

    Elimination is pivot-free (the schemes of interest are strictly
    dominant); a non-finite entry, or a pivot that is not finite or
    collapses below roundoff of the matrix scale, raises
    :class:`SolverError` naming its row.  The factors are kept in the
    layout of LAPACK ``gttrf`` with no row interchanges: ``dl`` the
    multipliers of the unit lower factor, ``d`` the pivots, ``du`` the
    superdiagonal of the upper factor.  :meth:`solve`, the checked
    single-vector solve, hands them to LAPACK ``dgttrs``, which needs
    n >= 3 (smaller sizes raise ValueError after the pivot check); the
    march calls that routine on them directly.
    """

    def __init__(self, sub, diag, sup):
        sub, diag, sup = (np.asarray(a, dtype=float) for a in (sub, diag, sup))
        finite = np.isfinite(sub) & np.isfinite(diag) & np.isfinite(sup)
        if not finite.all():
            raise SolverError(f"non-finite entry in row {np.argmin(finite)} of "
                              "the tridiagonal matrix; invalid scheme parameters")
        n = diag.size
        floor = 1e-14 * max(float(np.max(np.abs(diag))), 1e-300)
        piv = [0.0] * n
        lo, mid, hi = sub.tolist(), diag.tolist(), sup.tolist()  # never warn
        p = mid[0]
        for i in range(n):
            if i:
                p = mid[i] - lo[i] * (hi[i - 1] / p)
            if not floor < abs(p) < math.inf:
                kind = "zero" if abs(p) <= floor else "non-finite"
                raise SolverError(f"{kind} pivot in row {i} of the tridiagonal "
                                  "factorization; invalid scheme parameters")
            piv[i] = p
        if n < 3:
            raise ValueError(f"the tridiagonal solve needs n >= 3, got n={n}")
        # deferred, for code paths that never march: after scipy.special,
        # which validation imports, this costs about 0.06 s and 6 MiB of
        # RSS; the first scipy import of a process costs about 0.27 s
        from scipy.linalg.lapack import dgttrs
        self._dgttrs = dgttrs
        self.d = np.array(piv)
        self.dl = sub[1:] / self.d[:-1]
        self.du = sup[:-1].copy()
        self._du2 = np.zeros(n - 2)
        self._ipiv = np.arange(1, n + 1, dtype=np.intc)
        self.min_pivot = float(np.min(np.abs(self.d)))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Overwrite ``rhs`` with the solution and return it.

        ``rhs`` must be a contiguous float64 vector (a row of a C-ordered
        array will do): LAPACK works on it in place, so no copy is made.
        """
        # trans "N" and overwrite_b 1, positional: f2py parses keywords slower
        x, info = self._dgttrs(self.dl, self.d, self.du, self._du2, self._ipiv,
                               rhs, "N", 1)
        if info != 0 or x is not rhs:
            raise _solve_error(info)
        return rhs


def _solve_error(info: int) -> Exception:
    """The error of a ``dgttrs`` call that failed or did not solve in place."""
    if info != 0:
        return SolverError(f"LAPACK dgttrs failed with info={info}")
    return TypeError("the in-place solve needs a contiguous float64 vector")


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Full trajectory of one march with everything needed to audit it."""

    U: np.ndarray                 # (M+1, J+1) node values per level
    mesh: Mesh
    config: SchemeConfig
    coeffs: SampledCoefficients
    kernel: Kernel | None
    min_pivot: float


# ---------------------------------------------------------------------------
# operators and marching
# ---------------------------------------------------------------------------

def scheme_weights(coeffs: SampledCoefficients, mesh: Mesh, weight: float,
                   theta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows ``(sub, diag, sup)`` of the three-point operator at one time weight.

    Row j = 1..J-1 is (alpha_j, beta_j + beta_(j+1), alpha_(j+1)), row J
    (alpha_J, beta_J, 0) and row 0 zero, with alpha_j = theta base_j
    - w b_j / h_j, beta_j = (1/2 - theta) base_j + w b_j / h_j and
    base_j = h_j rho_j / tau + w h_j c_j.  The new level uses weight
    sigma, the old level sigma - 1 (its rows land on the right-hand side).
    """
    J, h, tau = mesh.J, mesh.h, mesh.tau
    base = h * coeffs.rho_h / tau + weight * h * coeffs.c_h
    alpha = theta * base - weight * coeffs.b_h / h
    beta = (0.5 - theta) * base + weight * coeffs.b_h / h
    sub, diag, sup = np.zeros((3, J + 1))
    sub[1:] = alpha[1:]
    diag[1:] = beta[1:]
    diag[1:J] += beta[2:]
    sup[1:J] = alpha[2:]
    return sub, diag, sup


def level_matrix(coeffs: SampledCoefficients, mesh: Mesh, config: SchemeConfig,
                 kernel: Kernel | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows ``(sub, diag, sup)`` of the matrix shared by every level.

    The rows of :func:`scheme_weights` at sigma, with the Dirichlet
    identity in row 0; under the transparent mode the current kernel
    entry ``R[0]`` joins the diagonal of the closure row J.
    """
    sub, diag, sup = scheme_weights(coeffs, mesh, config.sigma, config.theta)
    diag[0] = 1.0
    if kernel is not None:
        diag[-1] -= kernel.params.b_inf / (2.0 * mesh.h_tail) * kernel.R[0]
    return sub, diag, sup


def march(problem: ProblemSpec, mesh: Mesh, config: SchemeConfig) -> SolveResult:
    """March ``problem``: :func:`~parabolic_dtbc.problem.sample` on ``mesh``
    (its ValueError comes before any level), then :func:`march_sampled`."""
    return march_sampled(sample(problem, mesh), mesh, config)


def march_sampled(coeffs: SampledCoefficients, mesh: Mesh,
                  config: SchemeConfig) -> SolveResult:
    """March sampled data from level 0 to level M.

    ``coeffs`` are taken as given (the invariants that ``sample`` enforces
    are the caller's); arrays that do not fit the mesh raise ValueError
    naming both shapes.  The matrix, the old-level operator (J + 1 CSR
    rows: row 0 empty, then rows 1..J of :func:`scheme_weights` at
    sigma - 1, less row J's zero ``sup``) and the boundary gain are built
    and factored once, and the Dirichlet column ``U[1:, 0]`` is written
    from ``G``.  Each level is
    then assembled and solved in its own row of the trajectory: one
    ``csr_matvec`` call adds the old-level product of the previous level
    to the row; the row gets the forcing (when ``F`` is given) and the
    next lagged convolution sum over the stored boundary history (drawn
    from one :func:`~parabolic_dtbc.dtbc_kernel.lagged_sums` generator);
    and the ``dgttrs`` of :class:`TriFactor`, bound once per march with its
    arrays and checked at every level as :meth:`TriFactor.solve` checks,
    overwrites it with the new level (row 0 of the matrix is the identity
    with a zero superdiagonal, so the Dirichlet value stays up to the sign
    of a zero, and the column is written from ``G`` again after the loop).
    One row view per level: the last one is the next old level.  The
    mat-vec adds a row's products in column order to the row's value, and
    the trajectory starts as -0.0, which leaves each sum its bits, signed
    zeros included (+0.0 would not), on a build that does not fuse
    multiply-adds (x86-64 builds do not).  ``csr_matvec`` is private scipy
    API, but it is the kernel of every ``csr_array @ vector`` and has kept
    its seven-argument signature for many releases; it is imported on the
    first march, not with the package.  A non-finite matrix entry, pivot
    or level raises :class:`SolverError` naming the first such row or
    level.
    """
    J, M = mesh.J, mesh.M
    for name, shape in zip(("rho_h", "b_h", "c_h", "U0", "G", "F"),
                           [(J + 1,)] * 4 + [(M + 1,), (M + 1, J + 1)]):
        arr = getattr(coeffs, name)
        if arr is not None and arr.shape != shape:
            raise ValueError(f"sampled {name} has shape {arr.shape}; the mesh "
                             f"(J={J}, M={M}) needs {shape}")
    kernel = None
    if config.boundary == "dtbc":
        params = derive_params(*coeffs.tail, mesh.h_tail, mesh.tau,
                               config.sigma, config.theta)
        kernel = kernel_by_recurrence(params, M)

    F = coeffs.F
    if F is not None:
        hbar = mesh.hbar[1:J]
        forcing = np.empty(J - 1)
    # -0.0, where the sums of the interior rows and row J start
    traj = np.full((M + 1, J + 1), -0.0)
    traj[0] = coeffs.U0
    traj[1:, 0] = coeffs.G[1:]  # the Dirichlet column, which the solves read
    hist = np.empty(M + 1)  # contiguous copy of U[:, J] for the convolution
    hist[0] = coeffs.U0[J]
    if kernel is not None:
        gain = kernel.params.b_inf / (2.0 * mesh.h_tail)
        sums = lagged_sums(kernel.R, hist)
    from scipy.sparse._sparsetools import csr_matvec  # deferred, as dgttrs
    n = J + 1
    # overflow shows as a non-finite matrix row or level: a SolverError
    with np.errstate(over="ignore", invalid="ignore"):
        factor = TriFactor(*level_matrix(coeffs, mesh, config, kernel))
        dgttrs, dl, d, du, du2, ipiv = (factor._dgttrs, factor.dl, factor.d,
                                        factor.du, factor._du2, factor._ipiv)
        # the old-level operator: rows 1..J at sigma - 1, each (sub, diag,
        # sup) on columns j-1, j, j+1, less row J's zero sup; row 0 is empty
        vals = np.column_stack(scheme_weights(coeffs, mesh, config.sigma - 1.0,
                                              config.theta))[1:].ravel()[:-1]
        cols = (np.arange(J)[:, None] + np.arange(3)).ravel()[:-1].astype(np.intc)
        starts = np.r_[0, np.arange(0, 3 * J, 3), 3 * J - 1].astype(np.intc)
        old = traj[0]
        for m, row in enumerate(traj[1:], 1):
            csr_matvec(n, n, starts, cols, vals, old, row)
            if F is not None:
                inner = row[1:J]
                np.multiply(hbar, F[m, 1:J], forcing)
                np.add(inner, forcing, inner)
            if kernel is not None:
                row[J] = row.item(J) + gain * next(sums)
            x, info = dgttrs(dl, d, du, du2, ipiv, row, "N", 1)
            if info != 0 or x is not row:
                raise _solve_error(info)
            hist[m] = row.item(J)
            old = row
    # dgttrs returns g - 0 U_1 - 0 U_2 in row 0, +0.0 for a -0.0 beside a
    # negative U_1; the column is written again, after the levels that read it
    traj[1:, 0] = coeffs.G[1:]

    # min/max propagate NaN and meet any infinity without a boolean temporary
    if not (math.isfinite(traj.min()) and math.isfinite(traj.max())):
        m = int(np.argmin(np.isfinite(traj).all(axis=1)))
        raise SolverError(f"the trajectory is not finite from level {m} "
                          f"(t_m={m * mesh.tau!r}); the data overflow the scheme")

    return SolveResult(U=traj, mesh=mesh, config=config,
                       coeffs=coeffs, kernel=kernel,
                       min_pivot=factor.min_pivot)


def march_reference(problem: ProblemSpec, mesh: Mesh, config: SchemeConfig,
                    extension_factor: float,
                    doubling_check: bool = True) -> SolveResult:
    """Brute-force reference trajectory restricted to the original nodes.

    Samples ``problem`` on ``mesh`` first (the checks, and the result's
    ``coeffs``), then marches the weights of ``config`` with the zero-flux
    closure, whatever closure ``config`` names, on the enlarged interval
    [0, extension_factor * x_J]; the result carries that zero-flux config.
    The far boundary must not influence the restricted window within the
    time horizon; this is verified by re-running with twice the factor and
    comparing against ``DOUBLING_TOL``, unless ``doubling_check`` is off.
    """
    if extension_factor is None or not 2.0 <= extension_factor < math.inf:
        raise ValueError("reference closure needs 2 <= extension_factor < inf")
    coeffs = sample(problem, mesh)
    J, h, x_end = mesh.J, mesh.h_tail, float(mesh.x[-1])
    far_cfg, runs = replace(config, boundary="neumann"), []
    for factor in (extension_factor, 2.0 * extension_factor)[:1 + doubling_check]:
        n_extra = int(np.ceil((factor * x_end - x_end) / h - 1e-9))
        x_ext = np.concatenate((mesh.x, x_end + h * np.arange(1, n_extra + 1)))
        runs.append(march(problem, Mesh(x_ext, mesh.tau, mesh.M), far_cfg))
    restricted = runs[0].U[:, :J + 1].copy()
    if doubling_check:
        dev = float(np.max(np.abs(restricted - runs[1].U[:, :J + 1])))
        if dev > DOUBLING_TOL:
            raise SolverError(
                f"far boundary contaminates the window: doubling the extension "
                f"factor moves the restricted trajectory by {dev:.3g} "
                f"(tolerance {DOUBLING_TOL:g})")
    return SolveResult(U=restricted, mesh=mesh, config=far_cfg, coeffs=coeffs,
                       kernel=None, min_pivot=runs[0].min_pivot)
