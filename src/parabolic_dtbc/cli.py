"""CSV-emitting command line front end.

Subcommands:

* ``solve``    march one configuration, write solution.csv / report.csv
* ``table``    sweep (M, theta) pairs, write the error matrix
* ``kernel``   dump the boundary kernel (m, R_m, lg|R_m|)
* ``diagnose`` dissipativity certification plus energy checks on a
  companion zero-boundary run with seeded random initial data

Configurations are line-oriented ``key = value`` files with ``#``
comments; fractions such as ``1/12`` are accepted for every number key.
Exit codes: 0 success, 1 validation error, 2 numerical failure or a failed
diagnostic check.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import sys
import time
from dataclasses import MISSING, dataclass, field, fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import validation
from .dtbc_kernel import (OracleConvergenceError, derive_params,
                          kernel_by_legendre, kernel_by_recurrence,
                          kernel_gf_oracle)
from .problem import PRESETS, ProblemSpec, build_mesh, sample
from .stepper import SchemeConfig, SolverError, march, march_reference
from .validation import certify_dissipativity, diagnose_energy, error_report

FLOAT_FMT = "%.17e"


class ConfigError(ValueError):
    pass


def _parse_number(text: str) -> float:
    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ConfigError(f"cannot parse number {text!r}") from exc


def _parse_count(text: str) -> int:
    value = _parse_number(text)
    if not (value.is_integer() and value >= 0):
        raise ConfigError(f"expected a nonnegative integer, got {text!r}")
    return int(value)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"cannot parse boolean {text!r}")


def _parse_list(parse):
    return lambda text: [parse(part) for part in text.split(",") if part.strip()]


# one parser per field type of RunConfig, keyed by the annotation text
# (a string, by the __future__ import) with " | None" stripped
_PARSERS = {"str": str, "float": _parse_number, "int": _parse_count,
            "bool": _parse_bool, "list[float]": _parse_list(_parse_number),
            "list[int]": _parse_list(_parse_count)}


@dataclass
class RunConfig:
    """Validated run configuration assembled from a config file.

    The fields are the config keys: a key is parsed by the parser of its
    field's annotated type and is required when its field has no default.
    """

    problem: str
    sigma: float
    theta: float
    tau: float
    M: int
    X: float | None = None
    J: int | None = None
    nodes: list[float] | None = None
    boundary: str = "dtbc"
    extension_factor: float | None = None
    custom_path: str | None = None
    emit_snapshots: bool = True
    run_diagnostics: bool = False
    m_max: int = 100
    trials: int = 200
    table_M: list[int] = field(default_factory=list)
    table_theta: list[float] = field(default_factory=list)

    def __post_init__(self):
        self.boundary = self.boundary.lower()

    def scheme(self) -> SchemeConfig:
        """The weights and closure of this run; a ``reference`` run checks
        the transparent closure (see :func:`_march`)."""
        boundary = "dtbc" if self.boundary == "reference" else self.boundary
        return SchemeConfig(sigma=self.sigma, theta=self.theta,
                            boundary=boundary)


def read_config(path: str | Path) -> RunConfig:
    """Parse and validate a ``key = value`` configuration file."""
    raw: dict[str, str] = {}
    line_of: dict[str, int] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: key {key!r} repeats the one "
                              f"on line {line_of[key]}")
        raw[key], line_of[key] = value, lineno

    schema = fields(RunConfig)
    unknown = set(raw) - {f.name for f in schema}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    values = {}
    for f in schema:
        if f.name in raw:
            parse = _PARSERS[f.type.removesuffix(" | None")]
            values[f.name] = parse(raw[f.name])
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing required config key {f.name!r}")
    cfg = RunConfig(**values)

    if cfg.problem not in PRESETS and cfg.problem != "custom":
        raise ConfigError(f"unknown problem {cfg.problem!r}; "
                          f"expected one of {sorted(PRESETS)} or 'custom'")
    if cfg.problem == "custom" and not cfg.custom_path:
        raise ConfigError("custom problem needs custom_path")
    try:
        for theta in (cfg.theta, *cfg.table_theta):
            replace(cfg, theta=theta).scheme()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.boundary == "reference" and not (cfg.extension_factor or 0) >= 2:
        raise ConfigError("reference mode needs extension_factor >= 2")
    if cfg.tau <= 0 or cfg.M < 1:
        raise ConfigError("need tau > 0 and M >= 1")
    if any(M < 1 for M in cfg.table_M):
        raise ConfigError(f"table_M entries must be >= 1, got {cfg.table_M}")
    return cfg


def _load_problem(cfg: RunConfig):
    """Resolve (problem, exact-or-None) from the configuration."""
    if cfg.problem in PRESETS:
        return PRESETS[cfg.problem]()
    spec_path = Path(cfg.custom_path)
    if not spec_path.exists():
        raise ConfigError(f"custom problem file not found: {spec_path}")
    module_spec = importlib.util.spec_from_file_location("_custom_problem",
                                                         spec_path)
    module = importlib.util.module_from_spec(module_spec)
    try:
        module_spec.loader.exec_module(module)
    except Exception as exc:
        raise ConfigError(f"custom problem file {spec_path} failed to load: "
                          f"{type(exc).__name__}: {exc}") from exc
    problem = getattr(module, "PROBLEM", None)
    if not isinstance(problem, ProblemSpec):
        raise ConfigError(f"{spec_path} must define PROBLEM as a ProblemSpec")
    return problem, getattr(module, "EXACT", None)


def _make_mesh(cfg: RunConfig, problem: ProblemSpec):
    X = cfg.X if cfg.X is not None else problem.X
    return build_mesh(X, cfg.J, tau=cfg.tau, M=cfg.M, nodes=cfg.nodes)


def _march(cfg: RunConfig, problem: ProblemSpec, mesh):
    """The run's march, or its reference march for ``boundary = reference``."""
    if cfg.boundary == "reference":
        return march_reference(problem, mesh, cfg.scheme(),
                               cfg.extension_factor)
    return march(problem, mesh, cfg.scheme())


def _open(path: Path, deterministic: bool):
    """Open an output CSV, creating its directory, stamped with a
    ``# generated`` line unless ``deterministic``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    handle = path.open("w", newline="")
    if not deterministic:
        handle.write(f"# generated {time.strftime('%Y-%m-%dT%H:%M:%S')}\n")
    return handle


def _write_csv(path: Path, deterministic: bool, rows) -> None:
    with _open(path, deterministic) as handle:
        csv.writer(handle).writerows(rows)


def _fmt(value: float) -> str:
    return FLOAT_FMT % value


def _write_solution(handle, U, exact, mesh) -> None:
    """Write the ``m,t,j,x,U,exact,error`` rows of a trajectory.

    Each level is one ``%`` format of a row template built once per mesh;
    the bytes are those ``csv.writer`` gives for the same fields formatted
    by ``_fmt`` (no field ever needs quoting, ``\\r\\n`` ends each row), with
    empty ``exact``/``error`` fields when ``exact`` is None.  The exact
    solution is evaluated in the level blocks of
    :func:`validation.eval_on_grid`, so beyond the trajectory the extra
    memory is O(J) plus one block of 2^16 cells.  What remains of the cost
    is the correctly rounded ``%.17e`` formatting of every value.
    """
    if exact is None:
        tail, n_args = f",{FLOAT_FMT},,\r\n", 2
    else:
        tail, n_args = f",{FLOAT_FMT},{FLOAT_FMT},{FLOAT_FMT}\r\n", 4
    template = "".join(f"%s,{j},{_fmt(xj)}{tail}"
                       for j, xj in enumerate(mesh.x.tolist()))
    # one row of format arguments per node: "m,t", U, exact, error
    args = np.empty((mesh.J + 1, n_args), dtype=object)
    times = mesh.times()
    for lo, hi in validation._level_blocks(mesh.M + 1, mesh.J + 1):
        if exact is not None:
            E = validation.eval_on_grid(exact, mesh.x, times[lo:hi])
        for m in range(lo, hi):
            args[:, 0] = f"{m},{_fmt(times[m])}"
            args[:, 1] = U[m]
            if exact is not None:
                args[:, 2] = E[m - lo]
                args[:, 3] = U[m] - E[m - lo]
            handle.write(template % tuple(args.ravel().tolist()))


def cmd_solve(cfg: RunConfig, out: Path, deterministic: bool,
              seed: int) -> int:
    problem, exact = _load_problem(cfg)
    mesh = _make_mesh(cfg, problem)
    companion = _companion(problem, mesh, seed) if cfg.run_diagnostics else None
    t_begin = time.perf_counter()
    result = _march(cfg, problem, mesh)
    runtime = time.perf_counter() - t_begin

    report = None
    if exact is not None:
        report = error_report(result.U, exact, mesh)

    if cfg.emit_snapshots:
        with _open(out / "solution.csv", deterministic) as handle:
            handle.write("m,t,j,x,U,exact,error\r\n")
            _write_solution(handle, result.U, exact, mesh)

    rows = [["quantity", "value"], ["problem", problem.label],
            ["sigma", _fmt(cfg.sigma)], ["theta", _fmt(cfg.theta)],
            ["boundary", cfg.boundary], ["J", mesh.J], ["M", mesh.M],
            ["tau", _fmt(mesh.tau)], ["min_pivot", _fmt(result.min_pivot)]]
    if not deterministic:
        rows.append(["runtime_s", "%.6f" % runtime])
    if report is not None:
        rows += [["max_abs_error", _fmt(report.max_abs_error)],
                 ["argmax_level", report.argmax_level],
                 ["argmax_node", report.argmax_node]]
    _write_csv(out / "report.csv", deterministic, rows)

    if cfg.run_diagnostics and not _run_diagnostics(cfg, companion, mesh, out,
                                                    deterministic, seed):
        return 2
    return 0


def cmd_table(cfg: RunConfig, out: Path, deterministic: bool) -> int:
    if not cfg.table_M or not cfg.table_theta:
        raise ConfigError("table command needs table_M and table_theta")
    problem, exact = _load_problem(cfg)
    if exact is None:
        raise ConfigError("table command needs a problem with a reference solution")
    horizon = cfg.tau * cfg.M
    rows = [["theta"] + [f"M={m}" for m in cfg.table_M]]
    for theta in cfg.table_theta:
        rows.append([_fmt(theta)])
        for M in cfg.table_M:
            cell = replace(cfg, theta=theta, tau=horizon / M, M=M)
            mesh = _make_mesh(cell, problem)
            result = _march(cell, problem, mesh)
            rows[-1].append(_fmt(error_report(result.U, exact, mesh).max_abs_error))
    # written only now, so that a failing cell leaves no partial table.csv
    _write_csv(out / "table.csv", deterministic, rows)
    return 0


def cmd_kernel(cfg: RunConfig, out: Path, deterministic: bool,
               compare: bool) -> int:
    problem, _ = _load_problem(cfg)
    mesh = _make_mesh(cfg, problem)
    params = derive_params(*sample(replace(problem, f=None), mesh).tail,
                           mesh.h_tail, cfg.tau, cfg.sigma, cfg.theta)
    m_max = cfg.m_max
    recurrence = kernel_by_recurrence(params, max(m_max, 1)).R[:m_max + 1]
    rows = [["m", "R_m", "lg_abs_R_m"]]
    if compare:
        legendre = kernel_by_legendre(params, max(m_max, 1)).R[:m_max + 1]
        oracle = kernel_gf_oracle(params, min(m_max, 50))
        rows[0] += ["R_m_legendre", "delta_legendre", "delta_oracle"]
    for m, value in enumerate(recurrence):
        lg = np.log10(abs(value)) if value != 0.0 else -np.inf
        rows.append([m, _fmt(value), _fmt(lg)])
        if compare:
            rows[-1] += [_fmt(legendre[m]), _fmt(legendre[m] - value),
                         _fmt(oracle[m] - value) if m < len(oracle) else ""]
    _write_csv(out / "kernel.csv", deterministic, rows)
    if compare:
        print(f"max |recurrence - legendre| = "
              f"{np.max(np.abs(legendre - recurrence)):.3e}")
        print(f"max |recurrence - oracle|   = "
              f"{np.max(np.abs(oracle - recurrence[:len(oracle)])):.3e}")
    return 0


def _companion(problem: ProblemSpec, mesh, seed: int) -> ProblemSpec:
    """Zero-boundary companion of ``problem`` for the energy checks.

    The energy identities require vanishing left data, so the companion
    keeps the coefficients but has g = 0, no forcing and seeded random
    initial values at the nodes in (0, X0 - 1e-12).  With no such node the
    run would be all zero and pass vacuously: a ConfigError.
    """
    live = mesh.x < problem.X0 - 1e-12
    live[0] = False
    if not live.any():
        raise ConfigError(
            f"the energy diagnostics need a mesh node in (0, X0 - 1e-12) "
            f"with X0={problem.X0!r} for the random initial data of their "
            f"companion run; the first node past 0 is x={float(mesh.x[1])!r}")
    rng = np.random.default_rng(seed)
    vals = np.where(live, rng.uniform(-1.0, 1.0, size=live.size), 0.0)
    knots = mesh.x.copy()
    return replace(problem, f=None, g=lambda t: 0.0,
                   u0=lambda x: np.interp(x, knots, vals),
                   label=problem.label + "-diagnostic")


def _run_diagnostics(cfg: RunConfig, companion: ProblemSpec, mesh, out: Path,
                     deterministic: bool, seed: int) -> bool:
    """Kernel dissipativity plus energy checks on the :func:`_companion` run."""
    result = march(companion, mesh, cfg.scheme())
    params = derive_params(*result.coeffs.tail, mesh.h_tail, cfg.tau,
                           cfg.sigma, cfg.theta)
    levels = 200  # horizon of the dissipativity certificate
    kernel = kernel_by_recurrence(params, levels)
    dissip = certify_dissipativity(kernel, trials=cfg.trials, M=levels,
                                   seed=seed)
    energy = diagnose_energy(result)

    checks = [
        ("dissipativity_weighted", dissip.worst_weighted, dissip.tol,
         dissip.worst_weighted <= dissip.tol),
        ("dissipativity_increment", dissip.worst_increment, dissip.tol,
         dissip.worst_increment <= dissip.tol),
        ("first_energy_equality_rel", energy.first_equality_rel, 1e-10,
         energy.first_equality_rel <= 1e-10),
        ("second_energy_equality_rel", energy.second_equality_rel, 1e-10,
         energy.second_equality_rel <= 1e-10),
        ("first_energy_bound_slack", energy.sb_slack, 0.0,
         energy.sb_slack >= 0.0),
        ("second_energy_bound_slack", energy.sbA_slack, 0.0,
         energy.sbA_slack >= 0.0),
    ]
    rows = [["check", "value", "threshold", "pass"]]
    rows += [[name, _fmt(value), _fmt(threshold), "true" if ok else "false"]
             for name, value, threshold, ok in checks]
    _write_csv(out / "diagnostics.csv", deterministic, rows)
    return all(ok for *_, ok in checks)


def cmd_diagnose(cfg: RunConfig, out: Path, deterministic: bool,
                 seed: int) -> int:
    problem, _ = _load_problem(cfg)
    mesh = _make_mesh(cfg, problem)
    ok = _run_diagnostics(cfg, _companion(problem, mesh, seed), mesh, out,
                          deterministic, seed)
    return 0 if ok else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="parabolic-dtbc",
        description="Half-line parabolic solver with a transparent boundary")
    parser.add_argument("command",
                        choices=["solve", "table", "kernel", "diagnose"])
    parser.add_argument("--config", required=True, help="key = value file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--deterministic", action="store_true",
                        help="suppress timestamps for byte-identical output")
    parser.add_argument("--compare", action="store_true",
                        help="kernel: add closed-form and oracle columns")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized diagnostics (diagnose, and "
                        "solve with run_diagnostics)")
    args = parser.parse_args(argv)

    try:
        cfg = read_config(args.config)
        out = Path(args.out)
        if args.command == "solve":
            return cmd_solve(cfg, out, args.deterministic, args.seed)
        if args.command == "table":
            return cmd_table(cfg, out, args.deterministic)
        if args.command == "kernel":
            return cmd_kernel(cfg, out, args.deterministic, args.compare)
        return cmd_diagnose(cfg, out, args.deterministic, args.seed)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SolverError, OracleConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
