"""CSV-emitting command line front end.

Subcommands:

* ``solve``    march one configuration, write solution.csv / report.csv
* ``table``    sweep (M, theta) pairs, write the error matrix
* ``kernel``   dump the boundary kernel (m, R_m, lg|R_m|)
* ``diagnose`` dissipativity certification plus energy checks on a
  companion zero-boundary run with seeded random initial data

Configurations are line-oriented ``key = value`` files with ``#``
comments; fractions such as ``1/12`` are accepted for the scheme weights.
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
from .problem import PRESETS, ProblemSpec, build_mesh
from .stepper import SchemeConfig, SolverError, march
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
    emit_kernel: bool = False
    run_diagnostics: bool = False
    m_max: int = 100
    trials: int = 200
    table_M: list[int] = field(default_factory=list)
    table_theta: list[float] = field(default_factory=list)

    def __post_init__(self):
        self.boundary = self.boundary.lower()

    def scheme(self) -> SchemeConfig:
        """The scheme weights and boundary closure of this run."""
        return SchemeConfig(sigma=self.sigma, theta=self.theta,
                            boundary=self.boundary,
                            extension_factor=self.extension_factor)


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
        cfg.scheme()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
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
    if cfg.nodes is not None:
        return build_mesh(X, tau=cfg.tau, M=cfg.M, nodes=cfg.nodes)
    if cfg.J is None:
        raise ConfigError("configuration needs J (cell count) or nodes")
    return build_mesh(X, cfg.J, tau=cfg.tau, M=cfg.M)


def _writer(path: Path, deterministic: bool):
    handle = path.open("w", newline="")
    if not deterministic:
        handle.write(f"# generated {time.strftime('%Y-%m-%dT%H:%M:%S')}\n")
    return handle, csv.writer(handle)


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
    result = march(problem, mesh, cfg.scheme())

    report = None
    if exact is not None:
        report = error_report(result.U, exact, mesh)

    if cfg.emit_snapshots:
        handle, writer = _writer(out / "solution.csv", deterministic)
        with handle:
            writer.writerow(["m", "t", "j", "x", "U", "exact", "error"])
            _write_solution(handle, result.U, exact, mesh)

    handle, writer = _writer(out / "report.csv", deterministic)
    with handle:
        writer.writerow(["quantity", "value"])
        writer.writerow(["problem", problem.label])
        writer.writerow(["sigma", _fmt(cfg.sigma)])
        writer.writerow(["theta", _fmt(cfg.theta)])
        writer.writerow(["boundary", cfg.boundary])
        writer.writerow(["J", mesh.J])
        writer.writerow(["M", mesh.M])
        writer.writerow(["tau", _fmt(mesh.tau)])
        writer.writerow(["min_pivot", _fmt(result.min_pivot)])
        if not deterministic:
            writer.writerow(["runtime_s", "%.6f" % result.elapsed])
        if report is not None:
            writer.writerow(["max_abs_error", _fmt(report.max_abs_error)])
            writer.writerow(["argmax_level", report.argmax_level])
            writer.writerow(["argmax_node", report.argmax_node])

    if cfg.emit_kernel and result.kernel is not None:
        _dump_kernel(result.kernel.params, min(cfg.m_max, mesh.M),
                     out / "kernel.csv", deterministic, compare=False)
    if cfg.run_diagnostics and not _run_diagnostics(cfg, problem, mesh, out,
                                                    deterministic, seed=seed):
        return 2
    return 0


def cmd_table(cfg: RunConfig, out: Path, deterministic: bool) -> int:
    if not cfg.table_M or not cfg.table_theta:
        raise ConfigError("table command needs table_M and table_theta")
    problem, exact = _load_problem(cfg)
    if exact is None:
        raise ConfigError("table command needs a problem with a reference solution")
    horizon = cfg.tau * cfg.M
    handle, writer = _writer(out / "table.csv", deterministic)
    with handle:
        writer.writerow(["theta"] + [f"M={m}" for m in cfg.table_M])
        for theta in cfg.table_theta:
            row = [_fmt(theta)]
            for M in cfg.table_M:
                cell = replace(cfg, theta=theta, tau=horizon / M, M=M)
                mesh = _make_mesh(cell, problem)
                result = march(problem, mesh, cell.scheme())
                row.append(_fmt(error_report(result.U, exact, mesh).max_abs_error))
            writer.writerow(row)
    return 0


def _dump_kernel(params, m_max: int, path: Path, deterministic: bool,
                 compare: bool) -> None:
    recurrence = kernel_by_recurrence(params, max(m_max, 1)).R[:m_max + 1]
    columns = ["m", "R_m", "lg_abs_R_m"]
    legendre = oracle = None
    if compare:
        legendre = kernel_by_legendre(params, max(m_max, 1)).R[:m_max + 1]
        oracle = kernel_gf_oracle(params, min(m_max, 50))
        columns += ["R_m_legendre", "delta_legendre", "delta_oracle"]
    handle, writer = _writer(path, deterministic)
    with handle:
        writer.writerow(columns)
        for m in range(m_max + 1):
            value = recurrence[m]
            lg = np.log10(abs(value)) if value != 0.0 else -np.inf
            row = [m, _fmt(value), _fmt(lg)]
            if compare:
                row.append(_fmt(legendre[m]))
                row.append(_fmt(legendre[m] - value))
                row.append(_fmt(oracle[m] - value) if m < len(oracle) else "")
            writer.writerow(row)
    if compare:
        print(f"max |recurrence - legendre| = "
              f"{np.max(np.abs(legendre - recurrence)):.3e}")
        print(f"max |recurrence - oracle|   = "
              f"{np.max(np.abs(oracle - recurrence[:len(oracle)])):.3e}")


def cmd_kernel(cfg: RunConfig, out: Path, deterministic: bool,
               compare: bool) -> int:
    problem, _ = _load_problem(cfg)
    mesh = _make_mesh(cfg, problem)
    params = derive_params(problem.rho_inf, problem.b_inf, problem.c_inf,
                           mesh.h_tail, cfg.tau, cfg.sigma, cfg.theta)
    _dump_kernel(params, cfg.m_max, out / "kernel.csv", deterministic, compare)
    return 0


def _run_diagnostics(cfg: RunConfig, problem: ProblemSpec, mesh, out: Path,
                     deterministic: bool, seed: int) -> bool:
    """Kernel dissipativity plus energy checks on a zero-boundary companion run.

    The energy identities require vanishing left data, so the companion
    run keeps the configuration's coefficients and mesh but replaces the
    data by g = 0, no forcing and seeded random initial values supported away
    from the tail.
    """
    params = derive_params(problem.rho_inf, problem.b_inf, problem.c_inf,
                           mesh.h_tail, cfg.tau, cfg.sigma, cfg.theta)
    levels = 200  # horizon of the dissipativity certificate
    kernel = kernel_by_recurrence(params, levels)
    dissip = certify_dissipativity(kernel, trials=cfg.trials, M=levels,
                                   seed=seed)

    rng = np.random.default_rng(seed)
    vals = rng.uniform(-1.0, 1.0, size=mesh.x.size)
    vals[0] = 0.0
    vals[mesh.x >= problem.X0 - 1e-12] = 0.0
    knots = mesh.x.copy()
    companion = replace(problem, f=None, g=lambda t: 0.0,
                        u0=lambda x: np.interp(x, knots, vals),
                        label=problem.label + "-diagnostic")
    boundary = cfg.boundary if cfg.boundary in ("dtbc", "neumann") else "dtbc"
    scheme = replace(cfg, boundary=boundary, extension_factor=None).scheme()
    result = march(companion, mesh, scheme)
    energy = diagnose_energy(result, companion)

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
    handle, writer = _writer(out / "diagnostics.csv", deterministic)
    with handle:
        writer.writerow(["check", "value", "threshold", "pass"])
        for name, value, threshold, ok in checks:
            writer.writerow([name, _fmt(value), _fmt(threshold),
                             "true" if ok else "false"])
    return all(ok for *_, ok in checks)


def cmd_diagnose(cfg: RunConfig, out: Path, deterministic: bool,
                 seed: int) -> int:
    problem, _ = _load_problem(cfg)
    mesh = _make_mesh(cfg, problem)
    ok = _run_diagnostics(cfg, problem, mesh, out, deterministic, seed)
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
        out.mkdir(parents=True, exist_ok=True)
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
