"""CSV-emitting command line front end.

Subcommands:

* ``solve``    march one configuration, write solution.csv / report.csv
* ``table``    sweep (M, theta) pairs, write the error matrix
* ``kernel``   dump the boundary kernel (m, R_m, lg|R_m|)
* ``diagnose`` closed-form dissipativity certificate of the boundary kernel
  plus energy checks on the run's own trajectory, write diagnostics.csv

Configurations are line-oriented ``key = value`` files with ``#``
comments; fractions such as ``1/12`` are accepted for every number key.
Exit codes: 0 success, 1 validation error, 2 numerical failure or a failed
diagnostic check.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import runpy
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
from .stepper import (SchemeConfig, SolverError, march, march_reference,
                      march_sampled)
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
    try:
        namespace = runpy.run_path(str(spec_path))
    except Exception as exc:
        raise ConfigError(f"custom problem file {spec_path} failed to load: "
                          f"{type(exc).__name__}: {exc}") from exc
    problem = namespace.get("PROBLEM")
    if not isinstance(problem, ProblemSpec):
        raise ConfigError(f"{spec_path} must define PROBLEM as a ProblemSpec")
    return problem, namespace.get("EXACT")


def _make_mesh(cfg: RunConfig, problem: ProblemSpec):
    X = cfg.X if cfg.X is not None else problem.X
    return build_mesh(X, cfg.J, tau=cfg.tau, M=cfg.M, nodes=cfg.nodes)


def _march(cfg: RunConfig, problem: ProblemSpec, mesh):
    """The run's march, or its reference march for ``boundary = reference``."""
    if cfg.boundary == "reference":
        return march_reference(problem, mesh, cfg.scheme(),
                               cfg.extension_factor)
    return march(problem, mesh, cfg.scheme())


@contextlib.contextmanager
def _open(path: Path, deterministic: bool):
    """Open an output CSV, creating its directory, stamped with a
    ``# generated`` line unless ``deterministic``.  The rows go to a
    ``.part`` sibling that replaces ``path`` when the body returns; when it
    raises, the ``.part`` file and every directory made for it are removed,
    so an error leaves no partial CSV and an earlier run's file as it was."""
    made = [d for d in (path.parent, *path.parent.parents) if not d.exists()]
    path.parent.mkdir(parents=True, exist_ok=True)
    part = path.with_name(path.name + ".part")
    try:
        with part.open("w", newline="") as handle:
            if not deterministic:
                handle.write(f"# generated {time.strftime('%Y-%m-%dT%H:%M:%S')}\n")
            yield handle
    except BaseException:
        part.unlink(missing_ok=True)
        for directory in made:  # the innermost first
            directory.rmdir()
        raise
    part.replace(path)


def _write_csv(path: Path, deterministic: bool, rows) -> None:
    with _open(path, deterministic) as handle:
        csv.writer(handle).writerows(rows)


def _fmt(value: float) -> str:
    return FLOAT_FMT % value


# FLOAT_FMT in numpy (see _format_e17): 10^k for k in _POW10_K as
# double-doubles hi + lo, one row (hi, hi's halves of 26 bits, lo) per k,
# and the text pieces of a formatted value.  For 1e-280 <= |x| < 1e300 the
# k needed lie in _POW10_K, lo stays normal and the splits stay finite.
_POW10_K = range(-290, 300)
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant


def _split(a):
    t = a * _SPLIT
    hi = t - (t - a)
    return hi, a - hi


def _pow10_table():
    # 10^k = n / d and hi = p / q exactly; Python's int division rounds
    # correctly, so hi is 10^k rounded and lo is 10^k - hi rounded
    exact = [(10 ** k, 1) if k >= 0 else (1, 10 ** -k) for k in _POW10_K]
    hi = np.array([n / d for n, d in exact])
    lo = [(n * q - p * d) / (d * q) for (n, d), (p, q)
          in zip(exact, map(float.as_integer_ratio, hi.tolist()))]
    return np.stack([hi, *_split(hi), np.array(lo)], axis=1)


def _fields(texts):
    """ASCII ``texts`` as the NUL-padded rows of a uint8 array."""
    items = np.array([text.encode() for text in texts])
    return items.view(np.uint8).reshape(items.size, items.itemsize)


def _words(texts, size=4):
    """ASCII ``texts`` of at most ``size`` (4 or 1) bytes, NUL-padded, as
    little-endian unsigned words: one store each."""
    return np.array([text.encode() for text in texts], f"S{size}").view(
        f"<u{size}")


_POW10 = _pow10_table()
_HEAD = _words(f"{g // 100}.{g % 100:02d}" for g in range(1000))
_GROUP = _words(f"{g:03d}" for g in range(1000))
_E_MIN = -300
_EXP = _words(f"e{e:+03d}"[:4] for e in range(_E_MIN, 301))
_EXP3 = _words((f"e{e:+03d}"[4:] for e in range(_E_MIN, 301)), 1)


def _scaled(a, E):
    """``a * 10^(17 - E)`` as ``p + r``: p the rounded product of a and the
    table's hi, r the rest (Dekker's exact two-product plus a * lo) with an
    error below 1e-12 for p + r below 1e19."""
    rows = _POW10.take((17 - _POW10_K.start) - E, axis=0)
    hi, hi_hi, hi_lo, lo = np.moveaxis(rows, -1, 0)
    p = a * hi
    a_hi, a_lo = _split(a)
    r = a_hi * hi_hi - p  # the terms summed in place, left to right
    for u, v in ((a_hi, hi_lo), (a_lo, hi_hi), (a_lo, hi_lo), (a, lo)):
        r += u * v
    return p, r


def _put(out, at, lut, index):
    out[:, at:at + lut.itemsize].view(lut.dtype)[:, 0] = lut.take(index)


def _digits(x):
    """E, d (0 where they fail) and where they hold, for ``x`` (see below)."""
    a = np.abs(x)
    zero = a == 0
    ok = (a >= 1e-280) & (a < 1e300)  # false on NaN
    a = np.where(ok, a, 1.0)
    E = np.floor(np.log10(a)).astype(np.int64)
    p, r = _scaled(a, E)
    fix = ((p - 1e18) + r >= 0).astype(np.int64) - ((p - 1e17) + r < 0)
    if fix.any():
        E += fix
        p, r = _scaled(a, E)
    q = np.rint(r)
    d = p.astype(np.int64) + q.astype(np.int64)
    ok &= (d >= 10**17) & (d < 10**18) & (abs(abs(r - q) - 0.5) > 1e-6)
    # zero, where a = 1 and E = 0, reads "0.00000000000000000e+00"
    return E, np.where(ok, d, 0), ok | zero


def _format_e17(x):
    """The slots of ``FLOAT_FMT % v`` for the values of each row of ``x``,
    of shape (columns, n): per row, a slot width and a function that writes
    the row's slots, NUL-padded, into the rows of a uint8 array of shape
    (n, width).  A slot is a sign byte (a sign or NUL) when some value of
    the row has its sign bit set, "d.dd", five groups of three digits,
    "e+dd", and a third exponent digit (a digit or NUL) when some |E| >=
    100: 23 to 25 bytes, and 25 when some value takes the fallback.  One
    set of numpy passes formats every row, and the digits come first, as
    they give the widths.  Every byte of the array is written.

    After Gay (1990) and Adams ("Ryu revisited", 2019): the 18 digits are
    d = round-half-even(|x| 10^(17-E)), with E from ``log10`` moved by one
    where p + r of :func:`_scaled` leaves [1e17, 1e18).  There p is an
    integer, so d = p + rint(r), added in int64.  Zero is written
    directly; NaN, infinities, other |x| outside [1e-280, 1e300), a d
    outside [1e17, 1e18) (a carry to the next power of ten) and an r within
    1e-6 of a tie, exact ties included, go to :func:`_fmt`.  The groups of
    three digits come from d's upper and lower nine digits, one int64
    division, divided by 1000 in int32.
    """
    E, d, good = _digits(x)
    upper = d // 10**9
    nines = np.stack([upper, d - upper * 10**9]).astype(np.int32)
    thousands = nines // 1000
    heads = thousands // 1000
    # per half of d: its groups of three digits, left to right
    groups = (heads, thousands - heads * 1000, nines - thousands * 1000)
    negative = np.signbit(x)
    fallback = ~good.all(axis=1)
    signs = fallback | negative.any(axis=1)
    wides = fallback | (np.abs(E).max(axis=1, initial=0) >= 100)

    def slots(row):
        sign, wide = int(signs[row]), int(wides[row])
        width = 23 + sign + wide
        head, *rest = (g[half, row] for half in (0, 1) for g in groups)

        def write(out):
            # one word per table entry, left to right, each group's NUL
            # overwritten by the next store, into dense rows that stay in
            # cache; then one copy of a row's bytes per value
            dense = np.empty(out.shape, np.uint8)
            if sign:
                dense[:, 0] = negative[row] * np.uint8(ord("-"))
            _put(dense, sign, _HEAD, head)
            for k, group in enumerate(rest):
                _put(dense, sign + 4 + 3 * k, _GROUP, group)
            _put(dense, sign + 19, _EXP, E[row] - _E_MIN)
            if wide:
                _put(dense, sign + 23, _EXP3, E[row] - _E_MIN)
            if fallback[row]:
                at = np.flatnonzero(~good[row])
                texts = [_fmt(v).encode() for v in x[row, at].tolist()]
                dense[at] = np.array(texts, "S25").view(np.uint8).reshape(-1, 25)
            out.view(f"V{width}")[...] = dense.view(f"V{width}")
        return width, write
    return [slots(row) for row in range(len(x))]


def _rows(levels, nodes, columns, end: bytes, canvas: bytearray):
    """The bytes of the rows of some levels: ``levels`` and ``nodes`` hold
    the ``m,t,`` and ``j,x,`` fields (see :func:`_fields`), ``columns``
    the values, of shape (columns, levels, nodes), and ``end`` closes a
    row.  The rows are the fixed-width rows of ``canvas``, resized to them
    (so one buffer serves every block), each value in the slot its column
    takes in these levels (:func:`_format_e17`), and the canvas's NUL
    padding is dropped at the end."""
    (n_levels, w_level), (n_nodes, w_node) = levels.shape, nodes.shape
    slots = _format_e17(columns.reshape(len(columns), -1))
    at = w_level + w_node
    width = at + sum(w + 1 for w, _ in slots) - 1 + len(end)
    size = n_levels * n_nodes * width
    canvas.extend(bytes(max(size - len(canvas), 0)))
    del canvas[size:]
    rows = np.frombuffer(canvas, np.uint8).reshape(-1, width)
    grid = rows.reshape(n_levels, n_nodes, width)
    grid[:, :, :w_level] = levels[:, None]
    grid[:, :, w_level:at] = nodes
    for w, write in slots:
        write(rows[:, at:at + w])
        rows[:, at + w] = ord(",")
        at += w + 1
    rows[:, at - 1:] = np.frombuffer(end, np.uint8)
    return canvas.replace(b"\0", b"")


def write_solution(handle, U, exact, mesh):
    """Write the ``m,t,j,x,U,exact,error`` rows of a trajectory and return
    its :class:`~.validation.ErrorReport` (None when ``exact`` is None).

    The bytes are those ``csv.writer`` gives for the same fields formatted
    by ``_fmt`` (no field ever needs quoting, ``\\r\\n`` ends each row), with
    empty ``exact``/``error`` fields when ``exact`` is None, and they go
    straight to ``handle.buffer`` after a flush of ``handle``.  Each block
    of whole levels of at most a sixteenth of ``validation.EVAL_BLOCK_CELLS``
    cells evaluates the exact solution (:func:`validation.eval_on_grid`),
    feeds U - E to the reduction of ``error_report`` (whose ValueError
    comes before the block is written), and is formatted by numpy
    (:func:`_format_e17`), each column in the narrowest slot that its
    values in the block need, so that little NUL padding is left to drop:
    the Python work is O(1) per level, and beyond the trajectory the
    memory is O(M + J) plus the canvas and temporaries of one block.
    """
    nodes = _fields(f"{j},{_fmt(xj)}," for j, xj in enumerate(mesh.x.tolist()))
    end = b"\r\n" if exact is not None else b",,\r\n"
    times = mesh.times()
    errors = None if exact is None else validation._LevelErrors(mesh)
    canvas = bytearray()
    handle.flush()
    for a, b in validation._level_blocks(mesh.M + 1, 16 * (mesh.J + 1)):
        levels = _fields(f"{m},{_fmt(t)}," for m, t
                         in zip(range(a, b), times[a:b].tolist()))
        columns = U[None, a:b]
        if exact is not None:
            columns = np.empty((3, b - a, mesh.J + 1))
            columns[0] = U[a:b]
            validation.eval_on_grid(exact, mesh.x, times[a:b], out=columns[1])
            np.subtract(columns[0], columns[1], out=columns[2])
            errors.add(a, columns[2])
        handle.buffer.write(_rows(levels, nodes, columns, end, canvas))
    return None if errors is None else errors.report()


def cmd_solve(cfg: RunConfig, out: Path, deterministic: bool) -> int:
    problem, exact = _load_problem(cfg)
    mesh = _make_mesh(cfg, problem)
    t_begin = time.perf_counter()
    result = _march(cfg, problem, mesh)
    runtime = time.perf_counter() - t_begin

    report = None
    if cfg.emit_snapshots:
        with _open(out / "solution.csv", deterministic) as handle:
            handle.write("m,t,j,x,U,exact,error\r\n")
            report = write_solution(handle, result.U, exact, mesh)
    elif exact is not None:
        report = error_report(result.U, exact, mesh)

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

    if cfg.run_diagnostics:
        # a reference run's trajectory is a zero-flux run on a larger
        # interval, whose identities do not close on [0, X]
        if result.config != cfg.scheme():
            result = march_sampled(result.coeffs, mesh, cfg.scheme())
        if not _run_diagnostics(result, out, deterministic):
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


def _run_diagnostics(result, out: Path, deterministic: bool) -> bool:
    """Energy checks on the run ``result`` and, when the march closed it
    with a kernel, that kernel's dissipativity, certified for every
    horizon; a zero-flux run has no kernel and no dissipativity rows."""
    kernel, at_most = result.kernel, []
    if kernel is not None:
        dissip = certify_dissipativity(kernel)
        at_most = [("dissipativity_weighted", dissip.worst_weighted,
                    dissip.threshold_weighted),
                   ("dissipativity_increment", dissip.worst_increment,
                    dissip.threshold_increment)]
    energy = diagnose_energy(result)
    at_most += [
        ("first_energy_equality_rel", energy.first_equality_rel, 1e-10),
        ("second_energy_equality_rel", energy.second_equality_rel, 1e-10)]
    slacks = [("first_energy_bound_slack", energy.sb_slack),
              ("second_energy_bound_slack", energy.sbA_slack)]
    checks = ([(name, value, bound, value <= bound)
               for name, value, bound in at_most]
              + [(name, value, 0.0, value >= 0.0) for name, value in slacks])
    rows = [["check", "value", "threshold", "pass"]]
    rows += [[name, _fmt(value), _fmt(threshold), "true" if ok else "false"]
             for name, value, threshold, ok in checks]
    _write_csv(out / "diagnostics.csv", deterministic, rows)
    return all(ok for *_, ok in checks)


def cmd_diagnose(cfg: RunConfig, out: Path, deterministic: bool) -> int:
    problem, _ = _load_problem(cfg)
    result = march(problem, _make_mesh(cfg, problem), cfg.scheme())
    return 0 if _run_diagnostics(result, out, deterministic) else 2


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
                        help="accepted for old scripts; has no effect")
    args = parser.parse_args(argv)

    try:
        cfg = read_config(args.config)
        out = Path(args.out)
        if args.command == "kernel":
            return cmd_kernel(cfg, out, args.deterministic, args.compare)
        command = {"solve": cmd_solve, "table": cmd_table,
                   "diagnose": cmd_diagnose}[args.command]
        return command(cfg, out, args.deterministic)
    # a MemoryError is a run too large for the machine; numpy names the bytes
    except (ConfigError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SolverError, OracleConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
