"""Shared problem builders and reference implementations for the test suite."""

import csv
import io

import numpy as np

from parabolic_dtbc import ProblemSpec
from parabolic_dtbc.cli import _fmt
from parabolic_dtbc.validation import eval_on_grid


def _zeros(x):
    return np.zeros(np.shape(x))


def _ones(x):
    return np.ones(np.shape(x))


def _zero_xt(x, t):
    return np.zeros(np.shape(x))


def zero_problem(X0=0.5, X=1.0):
    """Homogeneous heat problem with identically zero data."""
    return ProblemSpec(rho=_ones, b=_ones, c=_zeros, f=_zero_xt,
                       g=lambda t: 0.0, u0=_zeros,
                       rho_inf=1.0, b_inf=1.0, c_inf=0.0,
                       X0=X0, X=X, rho_lower=1.0, b_lower=1.0, label="zero")


def random_h0_problem(seed, knots, X0, X, variable=False):
    """Zero-boundary problem with seeded random initial data at the knots.

    The initial profile interpolates random values that vanish at x = 0
    and on the tail, so it is exact at the mesh nodes.  With
    ``variable=True`` the coefficients vary smoothly up to the tail onset
    and are constant beyond it.
    """
    rng = np.random.default_rng(seed)
    knots = np.asarray(knots, dtype=float)
    vals = rng.uniform(-1.0, 1.0, size=knots.size)
    vals[0] = 0.0
    vals[knots >= X0 - 1e-12] = 0.0

    def u0(x):
        return np.interp(x, knots, vals)

    if variable:
        def rho(x):
            x = np.asarray(x, dtype=float)
            return np.where(x < X0, 1.0 + 0.5 * np.sin(np.pi * x / X0) ** 2, 1.0)

        def b(x):
            x = np.asarray(x, dtype=float)
            return np.where(x < X0, 2.0 - x / X0, 1.0)

        def c(x):
            x = np.asarray(x, dtype=float)
            return np.where(x < X0, 0.3 * (1.0 - x / X0), 0.0)
    else:
        rho, b, c = _ones, _ones, _zeros

    return ProblemSpec(rho=rho, b=b, c=c, f=_zero_xt,
                       g=lambda t: 0.0, u0=u0,
                       rho_inf=1.0, b_inf=1.0, c_inf=0.0,
                       X0=X0, X=X, rho_lower=1.0, b_lower=1.0,
                       label="random-h0")


def thomas_solve(factor, rhs):
    """Pure-Python Thomas sweep on the pivot-free factors of a TriFactor.

    Forward substitution with the unit lower factor (multipliers ``dl``),
    then back substitution with the pivots ``d`` and the superdiagonal
    ``du``: the direct reference for the LAPACK solve of ``TriFactor``.
    Has the signature of ``TriFactor.solve`` so it can stand in for it.
    """
    dl, d, du = factor.dl.tolist(), factor.d.tolist(), factor.du.tolist()
    n = len(d)
    x = np.asarray(rhs, dtype=float).tolist()
    for i in range(1, n):
        x[i] -= dl[i - 1] * x[i - 1]
    x[n - 1] /= d[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = (x[i] - du[i] * x[i + 1]) / d[i]
    return np.array(x)


def reference_solution_csv(U, exact, mesh):
    """Bytes of ``solution.csv`` written row by row with ``csv.writer``.

    One ``writerow`` per node and level, every float through ``_fmt``:
    the direct reference for the template writer of ``cli solve``.  The
    ``#`` timestamp line is not included.
    """
    handle = io.StringIO(newline="")
    writer = csv.writer(handle)
    writer.writerow(["m", "t", "j", "x", "U", "exact", "error"])
    times = mesh.times()
    exact_grid = None
    if exact is not None:
        exact_grid = eval_on_grid(exact, mesh.x, times)
    for m in range(mesh.M + 1):
        for j in range(mesh.J + 1):
            u = U[m, j]
            if exact_grid is not None:
                e = exact_grid[m, j]
                row = [m, _fmt(times[m]), j, _fmt(mesh.x[j]),
                       _fmt(u), _fmt(e), _fmt(u - e)]
            else:
                row = [m, _fmt(times[m]), j, _fmt(mesh.x[j]),
                       _fmt(u), "", ""]
            writer.writerow(row)
    return handle.getvalue().encode("ascii")
