"""Time stepping: one march loop over level-independent operators.

Each level advances by solving a three-point system whose rows are

* row 0: the Dirichlet identity U_0 = g(t_m),
* rows 1..J-1: the weighted interior scheme,
* row J: the right-boundary closure, either the exact transparent
  convolution (the current kernel entry moves to the diagonal, the older
  ones to the right-hand side) or the plain zero-flux form with the
  convolution dropped.

The time grid is uniform and the coefficients do not depend on time, so
the matrix, the old-level operator and the boundary gain are the same at
every level.  :func:`march` builds and factors them once; inside its loop
only the right-hand side changes, through the Dirichlet value, the
forcing and the lagged boundary convolution over the boundary column.
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
from numpy.lib.stride_tricks import as_strided

from .dtbc_kernel import (Kernel, LaggedConvolution, check_weights,
                          derive_params, kernel_by_recurrence)
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
    superdiagonal of the upper factor.  :meth:`solve` hands them to LAPACK
    ``dgttrs``, which needs n >= 3 (smaller sizes raise ValueError after
    the pivot check).
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
        p = diag[0]
        for i in range(n):
            if i:
                p = diag[i] - sub[i] * (sup[i - 1] / p)
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
        if info != 0:
            raise SolverError(f"LAPACK dgttrs failed with info={info}")
        if x is not rhs:
            raise TypeError("the in-place solve needs a contiguous float64 "
                            "vector")
        return rhs


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

def scheme_weights(coeffs: SampledCoefficients, mesh: Mesh,
                   weight: float, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Off-diagonal and diagonal row generators for one time weight.

    Index j = 1..J; slot 0 is NaN.  The new level uses weight sigma, the
    old level sigma - 1 (its rows land on the right-hand side).
    """
    h, tau = mesh.h, mesh.tau
    base = h * coeffs.rho_h / tau + weight * h * coeffs.c_h
    alpha = theta * base - weight * coeffs.b_h / h
    beta = (0.5 - theta) * base + weight * coeffs.b_h / h
    return alpha, beta


def level_matrix(coeffs: SampledCoefficients, mesh: Mesh, config: SchemeConfig,
                 kernel: Kernel | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows ``(sub, diag, sup)`` of the matrix shared by every level.

    Row 0 is the Dirichlet identity, rows 1..J-1 the new-level interior
    scheme, row J the boundary closure; under the transparent mode the
    current kernel entry ``R[0]`` joins its diagonal.  ``sub[0]`` and
    ``sup[J]`` are zero.
    """
    J = mesh.J
    a_new, b_new = scheme_weights(coeffs, mesh, config.sigma, config.theta)
    sub = np.zeros(J + 1)
    diag = np.zeros(J + 1)
    sup = np.zeros(J + 1)
    diag[0] = 1.0
    sub[1:J] = a_new[1:J]
    diag[1:J] = b_new[1:J] + b_new[2:J + 1]
    sup[1:J] = a_new[2:J + 1]
    sub[J] = a_new[J]
    diag[J] = b_new[J]
    if kernel is not None:
        diag[J] -= kernel.params.b_inf / (2.0 * mesh.h_tail) * kernel.R[0]
    return sub, diag, sup


def march(problem: ProblemSpec, mesh: Mesh, config: SchemeConfig) -> SolveResult:
    """March the scheme from the initial data to the final level.

    The matrix, the old-level operator and the boundary gain are built and
    factored once, after :func:`~parabolic_dtbc.problem.sample` has sampled
    the data, ``g`` at every level included, and the Dirichlet column
    ``U[1:, 0]`` is written from ``G``.  Each level is then assembled and
    solved inside its own row of the preallocated trajectory: the
    old-level interior product is one multiplication of the stacked
    weights with a read-only three-row window over the previous level,
    summed into the row; the row gets the forcing (when ``f`` is given)
    and the boundary row formed from Python floats plus the lagged
    convolution over the stored boundary history (summed online by
    :class:`LaggedConvolution`); and :meth:`TriFactor.solve` overwrites
    it with the new level (LAPACK ``dgttrs`` on the pivot-free factors;
    row 0 of the matrix is the identity with a zero superdiagonal, so
    the Dirichlet value stays).  Non-finite data raises ValueError from
    ``sample`` before any level is marched; a trajectory that overflows
    to a non-finite value raises :class:`SolverError` naming the first
    such level.
    """
    coeffs = sample(problem, mesh)
    kernel = None
    if config.boundary == "dtbc":
        params = derive_params(*coeffs.tail, mesh.h_tail, mesh.tau,
                               config.sigma, config.theta)
        kernel = kernel_by_recurrence(params, mesh.M)

    J, M = mesh.J, mesh.M
    factor = TriFactor(*level_matrix(coeffs, mesh, config, kernel))
    a_old, b_old = scheme_weights(coeffs, mesh, config.sigma - 1.0, config.theta)
    weights = np.stack((a_old[1:J], b_old[1:J] + b_old[2:J + 1], a_old[2:J + 1]))
    a_J, b_J = a_old[J].item(), b_old[J].item()
    F = coeffs.F
    if F is not None:
        hbar = mesh.hbar[1:J]
        forcing = np.empty(J - 1)
    if kernel is not None:
        gain = kernel.params.b_inf / (2.0 * mesh.h_tail)
        lagged = LaggedConvolution(kernel.R).lagged

    traj = np.empty((M + 1, J + 1))
    traj[0] = coeffs.U0
    traj[1:, 0] = coeffs.G[1:]  # the Dirichlet column; the solves keep it
    hist = np.empty(M + 1)  # contiguous copy of U[:, J] for the convolution
    hist[0] = coeffs.U0[J]
    # old[m] is level m as the three rows U[0:J-1], U[1:J], U[2:J+1]; level
    # m is assembled in its row of traj from old[m-1], then solved in place
    row_step, node_step = traj.strides
    old = as_strided(traj, shape=(M, 3, J - 1),
                     strides=(row_step, node_step, node_step), writeable=False)
    prod = np.empty((3, J - 1))
    lo, mid, hi = prod
    # overflow shows as a non-finite trajectory, reported after the loop
    with np.errstate(over="ignore", invalid="ignore"):
        for m, (row, inner, window) in enumerate(
                zip(traj[1:], traj[1:, 1:J], old), 1):
            np.multiply(weights, window, out=prod)
            np.add(lo, mid, out=inner)
            np.add(inner, hi, out=inner)
            if F is not None:
                np.multiply(hbar, F[m, 1:J], out=forcing)
                np.add(inner, forcing, out=inner)
            rhs_J = a_J * traj.item(m - 1, J - 1) + b_J * traj.item(m - 1, J)
            if kernel is not None:
                rhs_J += gain * lagged(hist, m)
            row[J] = rhs_J
            factor.solve(row)
            hist[m] = row[J]

    # min/max propagate NaN and meet any infinity without a boolean temporary
    if not (math.isfinite(traj.min()) and math.isfinite(traj.max())):
        m = int(np.argmin(np.isfinite(traj).all(axis=1)))
        raise SolverError(f"the trajectory is not finite from level {m} "
                          f"(t_m={m * mesh.tau!r}); the data overflow the scheme")

    return SolveResult(U=traj, mesh=mesh, config=config,
                       coeffs=coeffs, kernel=kernel,
                       min_pivot=factor.min_pivot)


def _march_enlarged(problem: ProblemSpec, mesh: Mesh, config: SchemeConfig,
                    factor: float) -> SolveResult:
    """March ``config`` on [0, factor * x_J], keep the full result."""
    h = mesh.h_tail
    x_end = float(mesh.x[-1])
    x_far = factor * x_end
    n_extra = int(np.ceil((x_far - x_end) / h - 1e-9))
    x_ext = np.concatenate((mesh.x, x_end + h * np.arange(1, n_extra + 1)))
    return march(problem, Mesh(x=x_ext, tau=mesh.tau, M=mesh.M), config)


def march_reference(problem: ProblemSpec, mesh: Mesh, config: SchemeConfig,
                    extension_factor: float,
                    doubling_check: bool = True) -> SolveResult:
    """Brute-force reference trajectory restricted to the original nodes.

    Marches the weights of ``config`` with the zero-flux closure, whatever
    closure ``config`` names, on the enlarged interval
    [0, extension_factor * x_J]; the result carries that zero-flux config.
    The far boundary must not influence the restricted window within the
    time horizon; this is verified by re-running with twice the factor and
    comparing against ``DOUBLING_TOL``, unless ``doubling_check`` is off.
    """
    if extension_factor is None or not 2.0 <= extension_factor < math.inf:
        raise ValueError("reference closure needs 2 <= extension_factor < inf")
    J = mesh.J
    far_cfg = replace(config, boundary="neumann")
    base = _march_enlarged(problem, mesh, far_cfg, extension_factor)
    restricted = base.U[:, :J + 1].copy()
    if doubling_check:
        double = _march_enlarged(problem, mesh, far_cfg, 2.0 * extension_factor)
        dev = float(np.max(np.abs(restricted - double.U[:, :J + 1])))
        if dev > DOUBLING_TOL:
            raise SolverError(
                f"far boundary contaminates the window: doubling the extension "
                f"factor moves the restricted trajectory by {dev:.3g} "
                f"(tolerance {DOUBLING_TOL:g})")
    return SolveResult(U=restricted, mesh=mesh, config=far_cfg,
                       coeffs=sample(problem, mesh), kernel=None,
                       min_pivot=base.min_pivot)
