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
  ``rho_h``, ``b_h``, ``c_h``, ``U0`` and ``F``;
* the same items for forced problems and for variable, scalar-only and
  constant-returning coefficients at J=50, M=3000, which take every
  fallback of the callable evaluator;
* at the ``cli_session`` size, the ``neumann`` closure through ``march``
  and the enlarged-interval reference through ``march_reference``
  (factor 5, doubling check on): the same items;
* the four ``diagnose_energy`` fields of zero-boundary forced runs (the
  ``forced.broadcasting`` forcing with g = 0, J=50, M=3000) for sigma in
  {1/2, 1, 2}, theta in {0, 1/12, 1/4, 1/4 + 1e-14} and both closures,
  which reach the bound constants c_theta and K_sigma that the unforced
  companion run of the CLI never does;
* the ``cli_session`` configuration through ``cli.main`` under
  ``--deterministic``: ``solve`` with diagnostics at diag seeds 0-9, each
  followed by ``kernel --compare``, giving ``solution.csv``,
  ``report.csv``, ``diagnostics.csv``, ``kernel.csv`` and the exit codes;
  then ``kernel`` without ``--compare`` (m_max = 200), giving its
  ``kernel.csv``, and ``table`` over three M and three theta, giving
  ``table.csv``;
* a ``boundary = reference`` configuration (example1, J=50, M=100,
  factor 3) through ``solve`` with diagnostics and through ``table``: its
  four CSVs and the exit codes; and the same configuration through
  ``kernel --compare``, giving its ``kernel.csv`` and exit code.

``diagnose_energy`` is called with the signature of the tree under test:
``(result)``, or ``(result, problem)`` in trees whose ``ProblemSpec``
still declares its tail constants.

Needs only the standard library and numpy (plus what the package itself
imports).  Exits 0 when every digest matches, 1 naming the keys that
differ or exist in one tree only.  Takes about 12 s per tree on one core
of a 2-vCPU Intel Xeon host.
"""

from __future__ import annotations

import hashlib
import inspect
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
# example1 leaves room for the random initial data of the diagnostics
# companion run, which the example2 data (X0 = 0.1) would zero at J = 10
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
trials = 50
table_M = 25, 50, 100
table_theta = 0, 1/12, 1/4
"""
CLI_OUTPUTS = ("solution.csv", "report.csv", "diagnostics.csv", "kernel.csv")
REFERENCE_OUTPUTS = ("solution.csv", "report.csv", "diagnostics.csv",
                     "table.csv")
DIAG_SEEDS = range(10)


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
    }


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
    """(key, problem, config) of every zero-boundary forced energy run."""
    problem, _ = _forced_problems(pd)["forced.broadcasting"]
    problem = replace(problem, g=lambda t: 0.0)
    for sigma in (0.5, 1.0, 2.0):
        for theta in (0.0, 1.0 / 12.0, 0.25, 0.25 + 1e-14):
            for boundary in ("dtbc", "neumann"):
                yield (f"energy.{boundary}.sigma={sigma!r}.theta={theta!r}",
                       problem, pd.SchemeConfig(sigma, theta, boundary))


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
                     for name in ("rho_h", "b_h", "c_h", "U0", "F"))
        out.update((f"{key}.{item}", _digest(value))
                   for item, value in items.items())

    takes_problem = len(inspect.signature(pd.diagnose_energy).parameters) > 1
    for key, problem, config in _energy_cases(pd):
        mesh = pd.build_mesh(problem.X, 50, tau=1.0 / 3000, M=3000)
        result = pd.march(problem, mesh, config)
        diag = (pd.diagnose_energy(result, problem) if takes_problem
                else pd.diagnose_energy(result))
        out.update((f"{key}.{f.name}", _digest(getattr(diag, f.name)))
                   for f in fields(diag))

    with tempfile.TemporaryDirectory() as tmp:
        runs = [(f"cli_session.seed{seed}", CLI_CONFIG, CLI_OUTPUTS,
                 (["solve", "--seed", str(seed)], ["kernel", "--compare"]))
                for seed in DIAG_SEEDS]
        runs += [("cli_session.kernel", CLI_CONFIG, ("kernel.csv",),
                  (["kernel"],)),
                 ("cli_session.table", CLI_CONFIG, ("table.csv",),
                  (["table"],)),
                 ("reference_mode", REFERENCE_CONFIG, REFERENCE_OUTPUTS,
                  (["solve"], ["table"])),
                 ("reference_mode.kernel", REFERENCE_CONFIG, ("kernel.csv",),
                  (["kernel", "--compare"],))]
        for key, config_text, outputs, commands in runs:
            run_dir = Path(tmp) / key
            run_dir.mkdir()
            config_path = run_dir / "run.cfg"
            config_path.write_text(config_text)
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
