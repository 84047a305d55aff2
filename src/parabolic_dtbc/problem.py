"""Half-line problem definition, meshes, and coefficient sampling.

The continuous problem is rho(x) u_t - (b(x) u_x)_x + c(x) u = f(x, t) on
x > 0 with Dirichlet data g at x = 0, decay at infinity, and initial data
u0.  Beyond a tail onset X0 the coefficients are constant and f, u0
vanish; the solver truncates the axis at X > X0 and closes the scheme at
the last node, so everything here is bookkeeping: node placement, step
arrays, and midpoint sampling of the coefficient callables.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .validation import eval_on_grid, u1, u2


def _check_finite(name: str, arr: np.ndarray) -> None:
    # min/max propagate NaN and meet any infinity without a boolean temporary
    if not (math.isfinite(arr.min()) and math.isfinite(arr.max())):
        raise ValueError(f"{name} samples are not finite")


@dataclass(frozen=True)
class ProblemSpec:
    """Continuous problem data on the half-line truncated at X.

    ``rho``, ``b``, ``c`` are callables of x (density, diffusivity,
    reaction), ``f`` of (x, t) or None for an unforced problem, ``g`` of t
    (best one that accepts an array of times, as ``t * t`` does), ``u0``
    of x.  For x >= X0 the coefficients must be constant and f, u0
    must vanish; u0 and f are allowed to be merely below ``tail_tol``
    there, since physically relevant initial data often only decays.  The
    tail constants and the density bound of the diagnostics are measured
    by :func:`sample`, not declared.
    """

    rho: Callable
    b: Callable
    c: Callable
    f: Callable | None
    g: Callable
    u0: Callable
    X0: float
    X: float
    tail_tol: float = 1e-5
    label: str = "custom"

    def __post_init__(self):
        if not 0.0 < self.X0 < self.X:
            raise ValueError("need 0 < X0 < X")
        if not 0.0 <= self.tail_tol < math.inf:
            raise ValueError("tail_tol must be nonnegative and finite")


@dataclass(frozen=True, eq=False)
class Mesh:
    """Spatial nodes 0 = x_0 < ... < x_J with a uniform time grid.

    Step arrays are 1-based: ``h[j] = x_j - x_{j-1}`` for 1 <= j <= J and
    ``hbar[j] = (h_j + h_{j+1}) / 2`` for 1 <= j <= J - 1, with the tail
    convention ``hbar[J] = h[J]`` (the mesh continues uniformly past the
    last node).  Slot 0 of either array is NaN.  Time levels are
    ``t_m = m * tau`` for 0 <= m <= M.
    """

    x: np.ndarray
    tau: float
    M: int

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float).copy()
        if x.ndim != 1 or x.size < 3:
            raise ValueError("mesh needs at least two cells (three nodes)")
        if x[0] != 0.0:
            raise ValueError("mesh must start at x = 0")
        steps = np.diff(x)
        if not np.all((steps > 0.0) & (steps < math.inf)):
            raise ValueError("mesh nodes must be finite and strictly increasing")
        if not 0.0 < self.tau < math.inf:
            raise ValueError("time step must be positive and finite")
        if not (float(self.M).is_integer() and self.M >= 1):
            raise ValueError(f"need a whole number M >= 1 of time levels, "
                             f"got {self.M!r}")
        J = x.size - 1
        h = np.concatenate(([np.nan], steps))
        hbar = np.full(J + 1, np.nan)
        hbar[1:J] = 0.5 * (h[1:J] + h[2:J + 1])
        hbar[J] = h[J]
        for arr in (x, h, hbar):
            arr.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "M", int(self.M))
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "hbar", hbar)
        object.__setattr__(self, "J", J)

    @property
    def h_tail(self) -> float:
        """Step of the uniform tail (the last step)."""
        return float(self.h[self.J])

    def times(self) -> np.ndarray:
        return self.tau * np.arange(self.M + 1)


def build_mesh(X: float, J: int | None = None, *, tau: float, M: int,
               nodes: Sequence[float] | None = None) -> Mesh:
    """Uniform mesh of J cells on [0, X], or an explicit node list.

    An explicit node list must start at 0 and end at X; it is the caller's
    way of grading the mesh toward the left boundary.  Exactly one of J and
    ``nodes`` is given.
    """
    if (J is None) == (nodes is None):
        raise ValueError("a mesh needs J (cell count) or nodes, not both")
    if nodes is None:
        if not (float(J).is_integer() and J >= 2):
            raise ValueError(f"need a whole number J >= 2 of cells for a "
                             f"uniform mesh, got {J!r}")
        x = np.linspace(0.0, float(X), int(J) + 1)
    else:
        x = list(nodes)
    mesh = Mesh(x=x, tau=float(tau), M=M)
    if abs(mesh.x[-1] - X) > 1e-12 * max(1.0, abs(X)):
        raise ValueError("node list must end at the truncation point X")
    return mesh


@dataclass(frozen=True, eq=False)
class SampledCoefficients:
    """Midpoint coefficient samples with gridded forcing, boundary and
    initial data.

    ``rho_h[j]``, ``b_h[j]``, ``c_h[j]`` hold the coefficient value at the
    cell midpoint x_{j-1/2} for 1 <= j <= J (slot 0 is NaN).
    ``F[m, j] = f(x_j, t_m)`` for m >= 1 (row 0 is zero), or None when the
    problem is unforced (``f`` is None); ``G[m] = g(t_m)`` for every m
    (slot 0 is NaN where g fails at t = 0); ``U0[j] = u0(x_j)``.
    """

    rho_h: np.ndarray
    b_h: np.ndarray
    c_h: np.ndarray
    F: np.ndarray | None
    G: np.ndarray
    U0: np.ndarray

    def __post_init__(self):
        for arr in (self.rho_h, self.b_h, self.c_h, self.F, self.G, self.U0):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def tail(self) -> tuple[float, float, float]:
        """Tail constants ``(rho, b, c)``: the samples at the last midpoint
        x_{J-1/2}, which :func:`sample` places in the constant tail, as
        Python floats."""
        return self.rho_h.item(-1), self.b_h.item(-1), self.c_h.item(-1)


def sample(problem: ProblemSpec, mesh: Mesh) -> SampledCoefficients:
    """Sample a problem onto a mesh, enforcing positivity and tail invariants.

    The tail step must satisfy h_J <= x_J - X0, so that the last midpoint
    already lies in the constant-coefficient region; coefficient samples
    there must equal the last one (:attr:`SampledCoefficients.tail`), rho
    and b samples be positive, c samples nonnegative, and u0, f must
    vanish below the problem's tail tolerance.  Every callable goes
    through :func:`~parabolic_dtbc.validation.eval_on_grid`: rho, b and c
    at the cell midpoints and u0 at the nodes as one level, ``f`` into
    ``F[1:]`` in place over t_1..t_M and ``g`` (on the one-node column
    x_0) over t_0..t_M, one call per block of whole levels; each falls
    back to one call per level and then to one per point where a call
    fails, and a point that fails or gives no number is NaN.  Non-finite
    samples of rho, b, c, u0 or f raise ValueError naming the field, and
    of g at t_1..t_M naming the first such level.  An unforced problem
    (``f`` is None) gets no forcing grid: ``F`` is None.  ``G[0]`` serves
    only the corner check: a value that disagrees with u0(0), an
    infinite one included, warns, and a NaN one is not checked.
    """
    x, J, M = mesh.x, mesh.J, mesh.M
    x_end = float(x[J])
    if x_end <= problem.X0:
        raise ValueError("mesh must reach past the tail onset X0")
    if mesh.h[J] > x_end - problem.X0 + 1e-12 * max(1.0, x_end):
        raise ValueError(
            f"tail step h_J={mesh.h[J]:.6g} exceeds x_J - X0="
            f"{x_end - problem.X0:.6g}; refine the mesh near the right end")

    def one_level(fn, nodes):
        return eval_on_grid(lambda xs, _t: fn(xs), nodes, np.zeros(1))[0]

    xm = 0.5 * (x[:-1] + x[1:])
    nan0 = np.array([np.nan])
    rho_h, b_h, c_h = (np.concatenate((nan0, one_level(fn, xm)))
                       for fn in (problem.rho, problem.b, problem.c))
    for name, arr in (("rho", rho_h), ("b", b_h), ("c", c_h)):
        _check_finite(name, arr[1:])

    if not np.min(rho_h[1:]) > 0.0:
        raise ValueError("density sample is not positive")
    if not np.min(b_h[1:]) > 0.0:
        raise ValueError("diffusivity sample is not positive")
    if np.min(c_h[1:]) < 0.0:
        raise ValueError("reaction coefficient sample is negative")

    tail_mid = xm >= problem.X0 - 1e-12
    for name, arr in (("rho", rho_h[1:]), ("b", b_h[1:]), ("c", c_h[1:])):
        const = arr[-1]
        dev = np.max(np.abs(arr[tail_mid] - const), initial=0.0)
        if not dev <= 1e-12 * (1.0 + abs(const)):
            raise ValueError(f"coefficient {name} is not constant on the tail "
                             f"(max deviation {dev:.3g})")

    U0 = one_level(problem.u0, x)
    _check_finite("u0", U0)
    tail_nodes = x >= problem.X0 - 1e-12
    if np.max(np.abs(U0[tail_nodes])) > problem.tail_tol:
        raise ValueError("initial data does not vanish on the tail "
                         f"(tolerance {problem.tail_tol:g})")

    t = mesh.times()
    F = None
    if problem.f is not None:
        F = np.zeros((M + 1, J + 1))
        eval_on_grid(problem.f, x, t[1:], out=F[1:])
        _check_finite("f", F)
        if np.max(np.abs(F[1:, tail_nodes])) > problem.tail_tol:
            raise ValueError("forcing does not vanish on the tail "
                             f"(tolerance {problem.tail_tol:g})")

    G = eval_on_grid(lambda _x, ts: problem.g(ts), x[:1], t)[:, 0]
    if not (math.isfinite(G[1:].min()) and math.isfinite(G[1:].max())):
        m = int(np.argmin(np.isfinite(G[1:]))) + 1
        raise ValueError(f"boundary data g is not a finite number at "
                         f"t_m={t.item(m)!r} (level {m})")

    # a NaN g(0) compares false and skips the check; an infinite one warns
    if abs(U0[0] - G[0]) > 1e-10 * (1.0 + abs(U0[0])):
        warnings.warn(
            f"initial and boundary data disagree at the corner: u0(0)={U0[0]:.6g}"
            f" vs g(0)={G[0]:.6g}; proceeding with the sampled initial value",
            stacklevel=2)

    return SampledCoefficients(rho_h=rho_h, b_h=b_h, c_h=c_h, F=F, G=G, U0=U0)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def _const(value: float) -> Callable:
    return lambda x: np.full(np.shape(x), value, dtype=float)


def example1(x_star: float = 1.25, t0: float = 0.03125
             ) -> tuple[ProblemSpec, Callable]:
    """Gaussian pulse on the homogeneous heat equation, truncated at X = 2.5.

    The initial profile does not vanish identically beyond the truncation
    point; its values there stay below 1e-5 and are treated as zero under
    the tail tolerance (about 3.7e-6 at x = 2.5 for the default pulse).
    """
    prob = ProblemSpec(
        rho=_const(1.0), b=_const(1.0), c=_const(0.0), f=None,
        g=lambda t: u1(0.0, t, x_star=x_star, t0=t0),
        u0=lambda x: u1(x, 0.0, x_star=x_star, t0=t0),
        X0=2.45, X=2.5, label="example1")
    return prob, functools.partial(u1, x_star=x_star, t0=t0)


def example2() -> tuple[ProblemSpec, Callable]:
    """Quadratic boundary ramp g = t^2 with zero initial data, X = 1.

    The solution is markedly nonzero at the truncation point, which makes
    this the stress test for the boundary closure.
    """
    prob = ProblemSpec(
        rho=_const(1.0), b=_const(1.0), c=_const(0.0), f=None,
        g=lambda t: t * t,
        u0=_const(0.0), X0=0.1, X=1.0, label="example2")
    return prob, u2


PRESETS = {"example1": example1, "example2": example2}
