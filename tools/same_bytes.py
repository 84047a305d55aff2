"""Check that two source trees of parabolic_dtbc give the same bytes.

    python tools/same_bytes.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are the ``src`` directories of two checkouts.  Each
tree runs in its own subprocess, with ``PYTHONPATH`` set to it, and
prints the sha256 of every item below as one JSON line, the last line of
its standard output (``kernel --compare`` prints to standard output
before it):

* the benchmark sizes ``long_horizon`` (example2, J=50, M=50000),
  ``fine_mesh`` (example1, J=2000, M=2000, with the default and a
  jittered pulse) and ``cli_session`` (example2, J=200, M=1000) through
  the library: ``U``, ``min_pivot``, every ``ErrorReport`` field, and
  ``rho_h``, ``b_h``, ``c_h``, ``G``, ``U0`` and ``F``;
* the same items for forced problems, for variable, scalar-only and
  constant-returning coefficients, and for a scalar-only and a
  constant-returning ``g`` at J=50, M=3000, which take every fallback of
  the callable evaluator;
* at the ``cli_session`` size, the ``neumann`` closure through ``march``
  and the enlarged-interval reference through ``march_reference``
  (factor 5, doubling check on): the same items;
* the four ``diagnose_energy`` fields of zero-boundary forced runs (the
  ``forced.broadcasting`` forcing with g = 0, J=50, M=3000) for sigma in
  {1/2, 1, 2}, theta in {0, 1/12, 1/4, 1/4 + 1e-14} and both closures,
  which reach every case of the bound constants c_theta and K_sigma; and
  at sigma = 1/2, theta = 1/12, of a run with g = 0 and no forcing grid
  (the ``coefficients.variable`` problem) and of one with g = t^2 and a
  forcing grid (``forced.broadcasting``);
* the lagged boundary sums of ``lagged_sums`` (``LaggedConvolution.lagged``
  on a tree without it) at every level 1..5000 of a seeded random
  history, on the kernel of the ``fine_mesh`` (example1) and of the
  ``long_horizon`` (example2) mesh steps at sigma = 1/2, theta = 1/12:
  every near-field length 0..127 and the six FFT block sizes 128..4096;
* the kernel ``R`` of ``kernel_by_recurrence`` at M = 50000 for six
  (sigma, theta, c_inf) sets on the step ratios of the ``long_horizon``
  mesh (rho_inf = b_inf = 1, h = 0.02, tau = 2e-5), among them c_inf = 5,
  sigma in {1, 3}, beta = 0 (sigma = 1/2, theta = 1/4, c_inf = 0) and
  alpha = 0 (sigma = 1, theta = 1/4);
* the exact solutions on the benchmark meshes, each one call on the whole
  grid: ``u1`` on the ``fine_mesh`` mesh and ``u2`` on the
  ``long_horizon`` and ``cli_session`` meshes; and ``iterated_erfc(n, xi)``
  for n = 0..4 on 6001 points of [-30, 30] and the edge values 0, -0.0,
  +-1e-300, 26.5 and 30 (where erfc underflows), +-1e308 (where
  xi erfc(xi) overflows), +-inf and NaN;
* ``U`` of the zero problem with u0 = -0.0 and no forcing (J=10,
  tau=1e-3, M=3, sigma = 1/2, theta = 1/12) under both closures, whose
  old-level products are all -0.0;
* ``U``, ``min_pivot`` and the four ``diagnose_energy`` fields of a
  problem with variable rho, b and c (c = 2 on the tail), a forcing grid
  and g = sin 5t on a graded node list (J=19, M=400), for sigma in
  {1/2, 1, 3}, theta in {0, 1/12, 1/4} and both closures; and ``U`` and
  ``min_pivot`` of the same problem on uniform meshes of J = 2, 3 and 7
  cells (M=50, sigma = 1/2, theta = 1/12) under both closures;
* the ``certify_dissipativity`` fields and thresholds (library call,
  kernel and probe horizon 200, no probes) on the eight (sigma, theta)
  pairs of acceptance criterion 3 and on the weight sets of the
  certificate tests, keyed by ``(rho_inf, b_inf, c_inf, h, tau, sigma,
  theta)``; on a tree whose report carries ``tol`` instead of its two
  thresholds, the thresholds come from ``tol`` by their formula;
* the ``cli_session`` configuration through ``cli.main`` under
  ``--deterministic``: ``solve`` with diagnostics at ``--seed`` 0 and 7, each
  followed by ``kernel --compare``, giving ``solution.csv``,
  ``report.csv``, ``diagnostics.csv``, ``kernel.csv`` and the exit codes;
  ``cli_session.no_snapshots``, ``solve`` with diagnostics and
  ``emit_snapshots = false``, giving ``report.csv`` from ``error_report``
  rather than from the ``solution.csv`` writer, ``diagnostics.csv`` and
  the exit code; then ``kernel`` without ``--compare`` (m_max = 200),
  giving its ``kernel.csv``, and ``table`` over three M and three theta,
  giving ``table.csv``;
* a ``boundary = reference`` configuration (example1, J=50, M=100,
  factor 3) through ``solve`` with diagnostics and through ``table``: its
  four CSVs and the exit codes; and the same configuration through
  ``kernel --compare``, giving its ``kernel.csv`` and exit code;
* the signed ramp of ``tests/test_cli.py`` (negative U, exact and error,
  and zeros of both signs) at J=200, M=100, six blocks of the
  ``solution.csv`` writer, through ``solve``: its ``solution.csv``,
  ``report.csv`` and exit code;
* the ramp with no exact solution of ``tests/test_cli.py`` (one value
  column, rows ending ``,,``) at J=1000, M=30, eight blocks of four levels
  (four-digit j, a block that crosses m = 10), through ``solve``: its
  ``solution.csv``, ``report.csv`` and exit code.

Needs only the standard library and numpy (plus what the package itself
imports).  Exits 0 when every digest matches, 1 naming the keys that
differ or exist in one tree only.  Takes about 6 s per tree on one core
of a 2-vCPU Intel Xeon host.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

CLI_CONFIG = """\
problem = example2
sigma = 1/2
theta = 1/12
tau = 1e-3
M = 1000
J = 200
boundary = dtbc
emit_snapshots = true
run_diagnostics = true
m_max = 200
table_M = 250, 500, 1000
table_theta = 0, 1/12, 1/4
"""
NO_SNAPSHOTS_CONFIG = CLI_CONFIG.replace("emit_snapshots = true",
                                         "emit_snapshots = false")
REFERENCE_CONFIG = """\
problem = example1
sigma = 1/2
theta = 1/12
tau = 1/1000
M = 100
J = 50
boundary = reference
extension_factor = 3
run_diagnostics = true
table_M = 25, 50, 100
table_theta = 0, 1/12, 1/4
"""
# CUSTOM_SIGNED_RAMP of tests/test_cli.py, written to a file for the CLI
SIGNED_RAMP = """\
import numpy as np
from parabolic_dtbc import ProblemSpec
from parabolic_dtbc.validation import u2

PROBLEM = ProblemSpec(
    rho=lambda x: np.ones(np.shape(x)),
    b=lambda x: np.ones(np.shape(x)),
    c=lambda x: np.zeros(np.shape(x)),
    f=lambda x, t: np.zeros(np.broadcast(x, t).shape),
    g=lambda t: -float(t) ** 2,
    u0=lambda x: np.full(np.shape(x), -0.0),
    X0=0.5, X=1.0, label="signed-ramp")
EXACT = lambda x, t: -u2(x, t)
"""
SIGNED_RAMP_CONFIG = """\
problem = custom
custom_path = {tmp}/signed_ramp.py
sigma = 1/2
theta = 1/12
tau = 1e-2
M = 100
J = 200
"""
# CUSTOM_RAMP_NO_EXACT of tests/test_cli.py, written to a file for the CLI
RAMP_NO_EXACT = """\
import numpy as np
from parabolic_dtbc import ProblemSpec

PROBLEM = ProblemSpec(
    rho=lambda x: np.ones(np.shape(x)),
    b=lambda x: np.ones(np.shape(x)),
    c=lambda x: np.zeros(np.shape(x)),
    f=lambda x, t: np.zeros(np.broadcast(x, t).shape),
    g=lambda t: float(t),
    u0=lambda x: np.zeros(np.shape(x)),
    X0=0.5, X=1.0, label="ramp-no-exact")
"""
RAMP_NO_EXACT_CONFIG = """\
problem = custom
custom_path = {tmp}/ramp_no_exact.py
sigma = 1/2
theta = 1/12
tau = 1e-2
M = 30
J = 1000
"""
CLI_OUTPUTS = ("solution.csv", "report.csv", "diagnostics.csv", "kernel.csv")
REFERENCE_OUTPUTS = ("solution.csv", "report.csv", "diagnostics.csv",
                     "table.csv")
DIAG_SEEDS = (0, 7)  # --seed has no effect; two seeds check that
LAGGED_M = 5000  # levels of the lagged-sum items: block sizes up to 4096
KERNEL_M = 50000  # entries of the kernel items: the long_horizon M
# (sigma, theta, c_inf) of the kernel items
KERNEL_SETS = ((0.5, 1.0 / 12.0, 0.0), (0.5, 1.0 / 12.0, 5.0), (0.5, 0.25, 0.0),
               (1.0, 0.0, 5.0), (1.0, 0.25, 0.0), (3.0, 1.0 / 12.0, 5.0))
ERFC_XI = np.concatenate((np.linspace(-30.0, 30.0, 6001),
                          [0.0, -0.0, 1e-300, -1e-300, 26.5, 30.0, 1e308,
                           -1e308, math.inf, -math.inf, math.nan]))
VARIABLE_M = 400  # levels of the variable-coefficient items
VARIABLE_NODES = np.concatenate(([0.0, 0.01, 0.03, 0.07, 0.15, 0.3],
                                 np.linspace(0.35, 1.0, 14)))
# (rho_inf, b_inf, c_inf, h, tau, sigma, theta) of the certificate items:
# the pairs of acceptance criterion 3, then the sets of the certificate
# tests (tests/test_validation.py)
CERTIFICATE_WEIGHTS = list(dict.fromkeys(
    [(1.0, 1.0, 0.0, 0.1, 0.01, sigma, theta) for sigma in (0.5, 1.0)
     for theta in (0.0, 1.0 / 12.0, 1.0 / 6.0, 0.25)]
    + [(1.0, 1.0, 0.0, 0.1, 0.01, 0.5, 0.0),
       (1.0, 1.0, 0.0, 0.1, 0.01, 1.0, 0.25),
       (1.0, 1.0, 5.0, 0.1, 0.01, 0.5, 1.0 / 12.0),
       (1.0, 1.0, 5.0, 0.1, 0.01, 1.0, 0.0),
       (2.0, 0.5, 0.0, 0.05, 1e-3, 0.75, -0.5),
       (1.0, 1.0, 0.0, 1.0 / 200.0, 1e-3, 0.5, 1.0 / 12.0),
       (3.0, 2.0, 5.0, 0.3, 0.1, 3.0, 0.25)]))


def _digest(value) -> str:
    if isinstance(value, bytes):
        return hashlib.sha256(value).hexdigest()
    if isinstance(value, np.ndarray):
        head = f"{value.dtype.str}{value.shape}".encode()
        return hashlib.sha256(head + np.ascontiguousarray(value).tobytes()
                              ).hexdigest()
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _forced_problems(pd):
    """Problems at J=50, M=3000 that take each path of the evaluator."""
    base, exact = pd.example2()   # X0 = 0.1: data must vanish for x >= 0.1
    ex1, u1 = pd.example1()

    def zero(x, t):
        return np.zeros(np.broadcast(x, t).shape)

    def one_d_only(x, t):
        # iterates over the nodes, so a block of levels raises
        return np.array([math.sin(31.0 * xj) * t if xj < 0.05 else 0.0
                         for xj in x])

    def scalar_only(x, t):
        return math.sin(31.0 * x) * t if x < 0.05 else 0.0

    def scalar_rho(x):
        return 1.0 + 0.5 * math.sin(31.0 * x) ** 2 if x < 0.1 else 1.0

    def vector_b(x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.1, 2.0 - 10.0 * x, 1.0)

    def scalar_g(t):
        return 0.5 * math.sin(3.0 * t) ** 2

    knots = np.linspace(0.0, 0.1, 6)   # u0 vanishes at x = 0 and x >= 0.1
    bumps = np.array([0.0, 0.3, -0.2, 0.5, 0.1, 0.0])
    return {
        "forced.example1-zero": (replace(ex1, f=zero), u1),
        "forced.example2-zero": (replace(base, f=zero), exact),
        "forced.broadcasting": (replace(base, f=lambda x, t: np.where(
            x < 0.05, np.sin(31.0 * x) * np.exp(-t), 0.0)), exact),
        "forced.one-d-only": (replace(base, f=one_d_only), exact),
        "forced.scalar-only": (replace(base, f=scalar_only), exact),
        "forced.scalar-per-level": (replace(base, f=lambda x, t:
                                            1e-6 * float(t)), exact),
        "coefficients.variable": (replace(
            base, rho=scalar_rho, b=vector_b, c=lambda x: 0.0,
            u0=lambda x: np.interp(x, knots, bumps)), exact),
        "boundary.scalar-only": (replace(base, g=scalar_g), exact),
        # g(0) = 0.5 against u0(0) = 0: the corner warning, then the run
        "boundary.constant": (replace(base, g=lambda t: 0.5), exact),
    }


def _variable_problem(pd):
    """Variable rho, b and c (c = 2 on the tail), forced, g = sin 5t."""
    X0 = 0.5

    def rho(x):
        return np.where(x < X0, 1.0 + 0.5 * np.sin(np.pi * x / X0) ** 2, 1.3)

    def b(x):
        return np.where(x < X0, 2.0 - x / X0, 0.7)

    def c(x):
        return np.where(x < X0, 0.3 * (1.0 - x / X0) + 2.0, 2.0)

    def f(x, t):
        return np.where(x < 0.4, np.sin(7.0 * x) * np.cos(3.0 * t), 0.0)

    def u0(x):
        return np.where(x < 0.4, np.sin(np.pi * x / 0.4) ** 2, 0.0)

    return pd.ProblemSpec(rho=rho, b=b, c=c, f=f, g=lambda t: np.sin(5.0 * t),
                          u0=u0, X0=X0, X=1.0, label="variable")


def _library_cases(pd):
    """(key, problem, exact, J, M, march) of every library run."""
    def closure(boundary):
        config = pd.SchemeConfig(sigma=0.5, theta=1.0 / 12.0,
                                 boundary=boundary)
        return lambda problem, mesh: pd.march(problem, mesh, config)

    def reference(problem, mesh):
        return pd.march_reference(problem, mesh, pd.SchemeConfig(
            sigma=0.5, theta=1.0 / 12.0), 5.0, doubling_check=True)

    dtbc = closure("dtbc")
    jittered = pd.example1(x_star=1.25 - 0.006, t0=0.03125 * (1.0 - 0.004))
    yield "long_horizon", *pd.example2(), 50, 50000, dtbc
    yield "fine_mesh", *pd.example1(), 2000, 2000, dtbc
    yield "fine_mesh_jittered", *jittered, 2000, 2000, dtbc
    yield "cli_session_library", *pd.example2(), 200, 1000, dtbc
    yield "cli_session_neumann", *pd.example2(), 200, 1000, closure("neumann")
    yield "cli_session_reference", *pd.example2(), 200, 1000, reference
    for key, (problem, exact) in _forced_problems(pd).items():
        yield key, problem, exact, 50, 3000, dtbc


def _energy_cases(pd):
    """(key, problem, config) of every energy run."""
    problems = _forced_problems(pd)
    forced, _ = problems["forced.broadcasting"]
    problem = replace(forced, g=lambda t: 0.0)
    for sigma in (0.5, 1.0, 2.0):
        for theta in (0.0, 1.0 / 12.0, 0.25, 0.25 + 1e-14):
            for boundary in ("dtbc", "neumann"):
                yield (f"energy.{boundary}.sigma={sigma!r}.theta={theta!r}",
                       problem, pd.SchemeConfig(sigma, theta, boundary))
    config = pd.SchemeConfig(0.5, 1.0 / 12.0)
    unforced, _ = problems["coefficients.variable"]
    yield "energy.unforced", replace(unforced, g=lambda t: 0.0), config
    yield "energy.lifted-forced", forced, config


def digests() -> dict:
    """sha256 of every item, keyed ``case.item``, for the importable tree."""
    import parabolic_dtbc as pd
    from parabolic_dtbc import cli

    out = {}
    for key, problem, exact, J, M, run in _library_cases(pd):
        mesh = pd.build_mesh(problem.X, J, tau=1.0 / M, M=M)
        result = run(problem, mesh)
        report = pd.error_report(result.U, exact, mesh)
        items = {"U": result.U, "min_pivot": result.min_pivot}
        items.update((f"report.{f.name}", getattr(report, f.name))
                     for f in fields(report))
        items.update((name, getattr(result.coeffs, name))
                     for name in ("rho_h", "b_h", "c_h", "G", "U0", "F"))
        out.update((f"{key}.{item}", _digest(value))
                   for item, value in items.items())

    for key, problem, config in _energy_cases(pd):
        mesh = pd.build_mesh(problem.X, 50, tau=1.0 / 3000, M=3000)
        diag = pd.diagnose_energy(pd.march(problem, mesh, config))
        out.update((f"{key}.{f.name}", _digest(getattr(diag, f.name)))
                   for f in fields(diag))

    variable = _variable_problem(pd)
    graded = pd.build_mesh(1.0, tau=1.0 / VARIABLE_M, M=VARIABLE_M,
                           nodes=VARIABLE_NODES)
    for sigma in (0.5, 1.0, 3.0):
        for theta in (0.0, 1.0 / 12.0, 0.25):
            for boundary in ("dtbc", "neumann"):
                result = pd.march(variable, graded,
                                  pd.SchemeConfig(sigma, theta, boundary))
                diag = pd.diagnose_energy(result)
                items = {"U": result.U, "min_pivot": result.min_pivot}
                items.update((f.name, getattr(diag, f.name))
                             for f in fields(diag))
                key = f"variable.{boundary}.sigma={sigma!r}.theta={theta!r}"
                out.update((f"{key}.{item}", _digest(value))
                           for item, value in items.items())
    for J in (2, 3, 7):
        mesh = pd.build_mesh(1.0, J, tau=1.0 / 50, M=50)
        for boundary in ("dtbc", "neumann"):
            result = pd.march(variable, mesh,
                              pd.SchemeConfig(0.5, 1.0 / 12.0, boundary))
            out[f"variable.J={J}.{boundary}.U"] = _digest(result.U)
            out[f"variable.J={J}.{boundary}.min_pivot"] = \
                _digest(result.min_pivot)

    for key, (problem, _), J, M in (("example1", pd.example1(), 2000, 2000),
                                    ("example2", pd.example2(), 50, 50000)):
        mesh = pd.build_mesh(problem.X, J, tau=1.0 / M, M=1)
        params = pd.derive_params(*pd.sample(problem, mesh).tail, mesh.h_tail,
                                  mesh.tau, 0.5, 1.0 / 12.0)
        R = pd.kernel_by_recurrence(params, LAGGED_M).R
        history = np.random.default_rng(J).uniform(-1.0, 1.0, LAGGED_M + 1)
        if hasattr(pd, "lagged_sums"):
            sums = list(pd.lagged_sums(R, history))
        else:  # a tree from before the generator
            conv = pd.LaggedConvolution(R)
            sums = [conv.lagged(history, m) for m in range(1, LAGGED_M + 1)]
        out[f"lagged.{key}"] = _digest(np.array(sums))

    for sigma, theta, c_inf in KERNEL_SETS:
        params = pd.derive_params(1.0, 1.0, c_inf, 0.02, 2e-5, sigma, theta)
        out[f"kernel.sigma={sigma!r}.theta={theta!r}.c_inf={c_inf!r}"] = \
            _digest(pd.kernel_by_recurrence(params, KERNEL_M).R)

    for key, (problem, exact), J, M in (
            ("fine_mesh", pd.example1(), 2000, 2000),
            ("long_horizon", pd.example2(), 50, 50000),
            ("cli_session", pd.example2(), 200, 1000)):
        mesh = pd.build_mesh(problem.X, J, tau=1.0 / M, M=M)
        out[f"exact.{key}"] = _digest(exact(mesh.x[None, :],
                                            mesh.times()[:, None]))
    # zero data from u0 = -0.0, f = None: the old-level products are -0.0,
    # and each closure keeps three of them in U
    signed_zero = pd.ProblemSpec(
        rho=lambda x: np.ones(np.shape(x)), b=lambda x: np.ones(np.shape(x)),
        c=lambda x: np.zeros(np.shape(x)), f=None, g=lambda t: 0.0,
        u0=lambda x: np.full(np.shape(x), -0.0), X0=0.5, X=1.0,
        label="signed-zero")
    mesh = pd.build_mesh(1.0, 10, tau=1e-3, M=3)
    for boundary in ("dtbc", "neumann"):
        result = pd.march(signed_zero, mesh,
                          pd.SchemeConfig(0.5, 1.0 / 12.0, boundary))
        out[f"signed_zero.{boundary}.U"] = _digest(result.U)

    with np.errstate(all="ignore"):
        for n in range(5):
            out[f"iterated_erfc.{n}"] = _digest(pd.iterated_erfc(n, ERFC_XI))

    for weights in CERTIFICATE_WEIGHTS:
        kernel = pd.kernel_by_recurrence(pd.derive_params(*weights), 200)
        report = pd.certify_dissipativity(kernel, M=200)
        items = {f.name: getattr(report, f.name) for f in fields(report)}
        if "tol" in items:  # a tree whose report carries tol, not thresholds
            params = kernel.params
            limit = items.pop("tol") * params.scale / (2.0 * params.h)
            items.update(threshold_weighted=limit,
                         threshold_increment=2.0 * limit / params.tau)
        out.update((f"certificate.{weights!r}.{name}", _digest(value))
                   for name, value in items.items())

    with tempfile.TemporaryDirectory() as tmp:
        runs = [(f"cli_session.seed{seed}", CLI_CONFIG, CLI_OUTPUTS,
                 (["solve", "--seed", str(seed)], ["kernel", "--compare"]))
                for seed in DIAG_SEEDS]
        runs += [("cli_session.no_snapshots", NO_SNAPSHOTS_CONFIG,
                  ("report.csv", "diagnostics.csv"), (["solve"],)),
                 ("cli_session.kernel", CLI_CONFIG, ("kernel.csv",),
                  (["kernel"],)),
                 ("cli_session.table", CLI_CONFIG, ("table.csv",),
                  (["table"],)),
                 ("reference_mode", REFERENCE_CONFIG, REFERENCE_OUTPUTS,
                  (["solve"], ["table"])),
                 ("reference_mode.kernel", REFERENCE_CONFIG, ("kernel.csv",),
                  (["kernel", "--compare"],)),
                 ("signed_ramp", SIGNED_RAMP_CONFIG,
                  ("solution.csv", "report.csv"), (["solve"],)),
                 ("ramp_no_exact", RAMP_NO_EXACT_CONFIG,
                  ("solution.csv", "report.csv"), (["solve"],))]
        (Path(tmp) / "signed_ramp.py").write_text(SIGNED_RAMP)
        (Path(tmp) / "ramp_no_exact.py").write_text(RAMP_NO_EXACT)
        for key, config_text, outputs, commands in runs:
            run_dir = Path(tmp) / key
            run_dir.mkdir()
            config_path = run_dir / "run.cfg"
            config_path.write_text(config_text.format(tmp=tmp))
            common = ["--config", str(config_path), "--out", str(run_dir),
                      "--deterministic"]
            codes = tuple(cli.main([*command, *common]) for command in commands)
            out[f"{key}.exit_codes"] = _digest(codes)
            for name in outputs:
                out[f"{key}.{name}"] = _digest((run_dir / name).read_bytes())
    return out


def _run_tree(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, __file__, "--digests"], env=env,
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"{src}: the digest run failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str]) -> int:
    if argv == ["--digests"]:
        import parabolic_dtbc
        result = digests()
        result["_package"] = str(Path(parabolic_dtbc.__file__).parent)
        print(json.dumps(result, sort_keys=True))
        return 0
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python tools/same_bytes.py OLD_SRC NEW_SRC",
              file=sys.stderr)
        return 2
    trees = [Path(arg).resolve() for arg in argv]
    old, new = (_run_tree(src) for src in trees)
    for src, found in zip(trees, (old.pop("_package"), new.pop("_package"))):
        if not Path(found).is_relative_to(src):
            sys.exit(f"{src}: imported parabolic_dtbc from {found} instead")
    differ = sorted(key for key in old.keys() | new.keys()
                    if old.get(key) != new.get(key))
    for key in differ:
        print(f"differs: {key}")
    print(f"{len(old.keys() | new.keys()) - len(differ)} of "
          f"{len(old.keys() | new.keys())} items identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
