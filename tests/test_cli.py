import csv
import os
import re
import sys
import tracemalloc
import typing
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np
import pytest

from parabolic_dtbc import (SchemeConfig, build_mesh, cli, diagnose_energy,
                            dtbc_kernel, example2, march, validation)
from parabolic_dtbc.cli import (ConfigError, RunConfig, _load_problem,
                                _make_mesh, _write_solution, main, read_config)

from _support import reference_solution_csv

CUSTOM_ZERO = """\
import numpy as np
from parabolic_dtbc import ProblemSpec

PROBLEM = ProblemSpec(
    rho=lambda x: np.ones(np.shape(x)),
    b=lambda x: np.ones(np.shape(x)),
    c=lambda x: np.zeros(np.shape(x)),
    f=lambda x, t: np.zeros(np.shape(x)),
    g=lambda t: 0.0,
    u0=lambda x: np.zeros(np.shape(x)),
    X0=0.5, X=1.0, label="zero-custom")
EXACT = lambda x, t: np.zeros(np.broadcast(x, t).shape)
"""


def write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


def read_report(path: Path) -> dict:
    rows = {}
    with path.open() as handle:
        for row in csv.reader(r for r in handle if not r.startswith("#")):
            if row and row[0] != "quantity":
                rows[row[0]] = row[1]
    return rows


def test_config_parsing_with_fractions_and_comments(tmp_path):
    cfg_file = write(tmp_path / "run.cfg", """\
# comment line
problem = example2
sigma = 1/2     # trailing comment
theta = 1/12
tau = 0.01
M = 100
J = 10
emit_snapshots = false
""")
    cfg = read_config(cfg_file)
    assert cfg.sigma == 0.5
    assert cfg.theta == pytest.approx(1.0 / 12.0, abs=0.0)
    assert cfg.M == 100 and cfg.J == 10
    assert cfg.emit_snapshots is False


def test_config_rejects_bad_input(tmp_path):
    bad = write(tmp_path / "bad.cfg", "problem = example2\nsigma = 0.3\n"
                "theta = 0\ntau = 0.01\nM = 10\nJ = 10\n")
    with pytest.raises(ValueError):
        read_config(bad)
    unknown = write(tmp_path / "unknown.cfg", "problem = example2\nsigma = 1\n"
                    "theta = 0\ntau = 0.01\nM = 10\nJ = 10\nwat = 1\n")
    with pytest.raises(ValueError):
        read_config(unknown)
    for extra in ("boundary = weird\n", "boundary = reference\n",
                  "boundary = reference\nextension_factor = 1.5\n",
                  "X = 1e400\n"):
        cfg = write(tmp_path / "mode.cfg", "problem = example2\nsigma = 1\n"
                    "theta = 0\ntau = 0.01\nM = 10\nJ = 10\n" + extra)
        with pytest.raises(ValueError):
            read_config(cfg)


def test_repeated_config_key_exits_one(tmp_path, capsys):
    cfg = write(tmp_path / "run.cfg", "problem = example2\nsigma = 1/2\n"
                "theta = 0\ntau = 0.01\nM = 10\nJ = 10\n\nM = 20  # typo\n")
    with pytest.raises(ConfigError,
                       match=r"run\.cfg:8: key 'M' repeats the one on line 5"):
        read_config(cfg)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
    assert "'M'" in capsys.readouterr().err
    assert not out.exists()


def test_table_M_rejects_levels_below_one(tmp_path, capsys):
    cfg = write(tmp_path / "run.cfg", "problem = example2\nsigma = 1/2\n"
                "theta = 0\ntau = 0.01\nM = 10\nJ = 10\n"
                "table_M = 0, 5\ntable_theta = 0\n")
    out = tmp_path / "out"
    assert main(["table", "--config", str(cfg), "--out", str(out)]) == 1
    assert "table_M entries must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_failing_table_cell_leaves_no_table(tmp_path, capsys):
    # the enlarged interval of factor 3 is too short for the doubling check
    cfg = write(tmp_path / "run.cfg", "problem = example2\nsigma = 1/2\n"
                "theta = 1/12\ntau = 0.01\nM = 50\nJ = 10\n"
                "boundary = reference\nextension_factor = 3\n"
                "table_M = 5, 10, 25\ntable_theta = 0, 1/12\n")
    out = tmp_path / "out"
    assert main(["table", "--config", str(cfg), "--out", str(out),
                 "--deterministic"]) == 2
    assert "contaminates the window" in capsys.readouterr().err
    assert not out.exists()


BASE_KEYS = {"problem": "example2", "sigma": "1/2", "theta": "0",
             "tau": "0.01", "M": "10", "J": "10"}
CUSTOM_NO_EXACT = CUSTOM_ZERO.replace("EXACT = ", "UNUSED = ")


@pytest.mark.parametrize("command, keys, message", [
    ("solve", {"M": "10\nJ 10"}, "run.cfg:6: expected 'key = value'"),
    ("solve", {"emit_snapshots": "maybe"}, "cannot parse boolean 'maybe'"),
    ("solve", {"problem": "example9"}, "unknown problem 'example9'"),
    ("solve", {"problem": "custom"}, "custom problem needs custom_path"),
    ("solve", {"tau": "0"}, "need tau > 0 and M >= 1"),
    ("solve", {"M": "0"}, "need tau > 0 and M >= 1"),
    ("solve", {"problem": "custom", "custom_path": "{tmp}/nope.py"},
     "custom problem file not found"),
    ("solve", {"problem": "custom", "custom_path": "{tmp}/empty.py"},
     "must define PROBLEM as a ProblemSpec"),
    ("solve", {"J": None}, "needs J (cell count) or nodes"),
    ("solve", {"nodes": "0, 0.5, 1"}, "needs J (cell count) or nodes, not both"),
    ("table", {"table_theta": "0"}, "table command needs table_M and "
     "table_theta"),
    ("table", {"problem": "custom", "custom_path": "{tmp}/no_exact.py",
               "table_M": "5", "table_theta": "0"},
     "table command needs a problem with a reference solution"),
    ("table", {"table_M": "5", "table_theta": "0, 0.3"},
     "theta=0.3 unsupported"),
    # example2 has X0 = 0.1: at J = 10 no node is left for the random
    # initial data of the diagnostics companion run
    ("solve", {"run_diagnostics": "true"}, "X0=0.1"),
    ("diagnose", {}, "X0=0.1"),
    # kernel.csv comes from the kernel command only
    ("solve", {"emit_kernel": "true"}, "unknown config keys: ['emit_kernel']"),
    # kernel samples the problem on its mesh, as solve does
    ("kernel", {"X": "0.05"}, "mesh must reach past the tail onset X0"),
], ids=["malformed-line", "bad-boolean", "unknown-problem", "custom-no-path",
        "tau-zero", "M-zero", "custom-file-missing", "custom-no-PROBLEM",
        "no-J-or-nodes", "J-and-nodes", "table-no-lists", "table-no-exact",
        "table-bad-theta", "solve-diagnostics-no-node", "diagnose-no-node",
        "removed-emit-kernel", "kernel-mesh-before-X0"])
def test_config_errors_exit_one_with_their_message(tmp_path, capsys, command,
                                                   keys, message):
    write(tmp_path / "empty.py", "X = 1\n")
    write(tmp_path / "no_exact.py", CUSTOM_NO_EXACT)
    # a key given as None is left out of the file
    keys = {key: value.replace("{tmp}", str(tmp_path))
            for key, value in {**BASE_KEYS, **keys}.items() if value is not None}
    cfg = write(tmp_path / "run.cfg", config_text(**keys))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


# a value for every config key; integral numbers may be written as floats
EVERY_KEY = {
    "problem": "example2", "sigma": "1/2", "theta": "1/12", "tau": "1/100",
    "M": "20", "X": "1", "J": "10.0", "nodes": "0, 0.5, 1",
    "boundary": "Neumann", "extension_factor": "2", "custom_path": "unused.py",
    "emit_snapshots": "no", "run_diagnostics": "on",
    "m_max": "7", "trials": "3e1", "table_M": "5, 10", "table_theta": "0, 1/12",
}


def config_text(**keys) -> str:
    return "".join(f"{key} = {value}\n" for key, value in keys.items())


def is_instance(value, hint) -> bool:
    """``value`` has the annotated type ``hint`` exactly (no bool for int)."""
    args = [a for a in typing.get_args(hint) if a is not type(None)]
    if typing.get_origin(hint) is list:
        return isinstance(value, list) and all(is_instance(v, args[0])
                                               for v in value)
    if args:  # X | None
        return is_instance(value, args[0])
    return type(value) is hint


def test_every_run_config_field_is_a_key_parsed_to_its_type(tmp_path):
    schema = fields(RunConfig)
    assert set(EVERY_KEY) == {f.name for f in schema}
    cfg = read_config(write(tmp_path / "run.cfg", config_text(**EVERY_KEY)))
    for name, hint in typing.get_type_hints(RunConfig).items():
        assert is_instance(getattr(cfg, name), hint), name
    assert (cfg.J, cfg.trials, cfg.table_M) == (10, 30, [5, 10])
    assert cfg.boundary == "neumann" and cfg.emit_snapshots is False
    assert cfg.table_theta == [0.0, 1.0 / 12.0]
    # a key is required exactly when its field has no default
    required = [f.name for f in schema
                if f.default is MISSING and f.default_factory is MISSING]
    assert required == ["problem", "sigma", "theta", "tau", "M"]
    for name in required:
        keys = {k: v for k, v in EVERY_KEY.items() if k != name}
        with pytest.raises(ConfigError, match=f"missing required .*{name}"):
            read_config(write(tmp_path / "run.cfg", config_text(**keys)))


@pytest.mark.parametrize("key, value", [
    ("M", "10.7"), ("J", "10.9"), ("m_max", "-1"), ("trials", "-5"),
    ("table_M", "5, 10.5"), ("M", "1/2"),
])
def test_integer_keys_reject_fractions_and_negatives(tmp_path, capsys, key,
                                                     value):
    keys = {"problem": "example2", "sigma": "1/2", "theta": "0",
            "tau": "0.01", "M": "10", "J": "10", key: value}
    cfg = write(tmp_path / "run.cfg", config_text(**keys))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
    assert "nonnegative integer" in capsys.readouterr().err
    assert not out.exists()


def test_readme_config_table_lists_exactly_the_run_config_fields():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme[readme.index("| key "):].split("\n\n", 1)[0]
    keys = [key for line in table.splitlines()[2:]
            for key in re.findall(r"`(\w+)`", line.split("|")[1])]
    assert sorted(keys) == sorted(f.name for f in fields(RunConfig))


def test_solve_example1_reports_expected_error(tmp_path):
    cfg = write(tmp_path / "run.cfg", """\
problem = example1
sigma = 1/2
theta = 1/12
tau = 1/1000
M = 1000
J = 50
X = 2.5
emit_snapshots = false
""")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    report = read_report(out / "report.csv")
    err = float(report["max_abs_error"])
    assert 1.35e-5 / 2.0 <= err <= 1.35e-5 * 2.0


def test_solve_custom_zero_problem(tmp_path):
    write(tmp_path / "prob.py", CUSTOM_ZERO)
    cfg = write(tmp_path / "run.cfg", f"""\
problem = custom
custom_path = {tmp_path / 'prob.py'}
sigma = 1/2
theta = 0
tau = 0.05
M = 10
J = 8
X = 1
boundary = neumann
""")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    report = read_report(out / "report.csv")
    assert float(report["max_abs_error"]) == 0.0
    rows = (out / "solution.csv").read_text().splitlines()
    assert rows[0].startswith("#")  # timestamp header unless --deterministic
    assert rows[1] == "m,t,j,x,U,exact,error"
    assert any(line.startswith("10,") for line in rows)


@pytest.mark.filterwarnings("ignore::UserWarning", "error::RuntimeWarning")
def test_solve_overflowing_trajectory_exits_two(tmp_path, capsys):
    # finite but huge boundary data overflow at the first level
    write(tmp_path / "prob.py", """\
from dataclasses import replace
from parabolic_dtbc import example2
PROBLEM = replace(example2()[0], g=lambda t: 1e307)
""")
    cfg = write(tmp_path / "run.cfg", f"""\
problem = custom
custom_path = {tmp_path / 'prob.py'}
sigma = 1/2
theta = 1/12
tau = 0.001
M = 5
J = 50
X = 1
""")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
    assert "not finite from level 1 " in capsys.readouterr().err
    assert not (out / "solution.csv").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_solve_non_finite_exact_solution_exits_one(tmp_path, capsys, value):
    # the exact solution is non-finite at levels 3 and 7 of 10
    write(tmp_path / "prob.py", CUSTOM_ZERO + f"""
def EXACT(x, t):
    bad = (np.abs(t - 0.15) < 1e-9) | (np.abs(t - 0.35) < 1e-9)
    return np.where(bad, float("{value}"), 0.0) + np.zeros_like(x)
""")
    cfg = write(tmp_path / "run.cfg", f"""\
problem = custom
custom_path = {tmp_path / 'prob.py'}
sigma = 1/2
theta = 0
tau = 0.05
M = 10
J = 8
""")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
    assert "not finite at level 3 " in capsys.readouterr().err
    assert not out.exists()


def test_solve_reference_mode(tmp_path):
    write(tmp_path / "prob.py", CUSTOM_ZERO)
    cfg = write(tmp_path / "run.cfg", f"""\
problem = custom
custom_path = {tmp_path / 'prob.py'}
sigma = 1
theta = 1/4
tau = 0.05
M = 5
J = 8
X = 1
boundary = reference
extension_factor = 3
emit_snapshots = false
""")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    assert float(read_report(out / "report.csv")["max_abs_error"]) == 0.0


def test_solve_deterministic_outputs_are_byte_identical(tmp_path):
    cfg = write(tmp_path / "run.cfg", """\
problem = example2
sigma = 1/2
theta = 1/12
tau = 0.01
M = 20
J = 10
""")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["solve", "--config", str(cfg), "--out", str(out),
                     "--deterministic"]) == 0
    assert (out1 / "solution.csv").read_bytes() == (out2 / "solution.csv").read_bytes()
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()


CUSTOM_RAMP_NO_EXACT = """\
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

# negative ramp from initial data -0.0: U, exact and error take both signs
# of zero and negative values
CUSTOM_SIGNED_RAMP = """\
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

# name: (custom problem module or None, config lines, --deterministic,
#        byte strings the output must contain)
SOLUTION_CASES = {
    "example2": (None, "problem = example2\nJ = 10\n", True, []),
    "no-exact": (CUSTOM_RAMP_NO_EXACT, "J = 8\n", True, [b",,\r\n"]),
    "graded-signed": (CUSTOM_SIGNED_RAMP,
                      "nodes = 0, 0.02, 0.06, 0.12, 0.2, 0.3, 0.45, 0.6, "
                      "0.8, 1\n", True,
                      [b",-0.00000000000000000e+00,", b",0.00000000000000000e+00",
                       b",-1.", b",2,5.99999999999999978e-02,"]),
    "timestamped": (None, "problem = example2\nJ = 10\n", False, []),
}


@pytest.mark.parametrize("case", sorted(SOLUTION_CASES))
def test_solution_csv_matches_row_by_row_writer(tmp_path, case):
    module, lines, deterministic, tokens = SOLUTION_CASES[case]
    text = "sigma = 1/2\ntheta = 1/12\ntau = 0.01\nM = 20\n" + lines
    if module is not None:
        write(tmp_path / "prob.py", module)
        text += f"problem = custom\ncustom_path = {tmp_path / 'prob.py'}\n"
    cfg_file = write(tmp_path / "run.cfg", text)
    out = tmp_path / "out"
    argv = ["solve", "--config", str(cfg_file), "--out", str(out)]
    assert main(argv + ["--deterministic"] * deterministic) == 0
    written = (out / "solution.csv").read_bytes()
    if not deterministic:
        stamp, written = written.split(b"\n", 1)
        assert stamp.startswith(b"# generated ")
        assert float(read_report(out / "report.csv")["runtime_s"]) >= 0.0

    cfg = read_config(cfg_file)
    problem, exact = _load_problem(cfg)
    mesh = _make_mesh(cfg, problem)
    U = march(problem, mesh, SchemeConfig(cfg.sigma, cfg.theta)).U
    assert written == reference_solution_csv(U, exact, mesh)
    for token in tokens:
        assert token in written


def test_solution_writer_memory_stays_bounded(monkeypatch):
    # O(J) template, format arguments and row strings plus the temporaries
    # of one block of the ramp solution; a small block puts the whole
    # exact grid (8 bytes per cell) well past the bound at a small M
    monkeypatch.setattr(validation, "EVAL_BLOCK_CELLS", 1 << 10)
    _, exact = example2()
    J, M = 50, 1000
    mesh = build_mesh(1.0, J, tau=1.0 / M, M=M)
    U = np.zeros((M + 1, J + 1))
    bound = 8 * (64 * (J + 1) + 16 * validation.EVAL_BLOCK_CELLS)
    assert 8 * U.size > 2 * bound
    with open(os.devnull, "w", newline="") as sink:
        tracemalloc.start()
        try:
            _write_solution(sink, U, exact, mesh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= bound


def test_kernel_command_and_compare(tmp_path, capsys):
    cfg = write(tmp_path / "run.cfg", """\
problem = example1
sigma = 1/2
theta = 1/12
tau = 1/1500
M = 10
J = 50
X = 2.5
m_max = 100
""")
    out = tmp_path / "out"
    assert main(["kernel", "--config", str(cfg), "--out", str(out),
                 "--deterministic", "--compare"]) == 0
    printed = capsys.readouterr().out
    assert "recurrence - legendre" in printed
    rows = (out / "kernel.csv").read_text().splitlines()
    assert len(rows) == 102  # header + 101 entries
    first = rows[1].split(",")
    assert float(first[1]) < 0.0  # leading kernel entry is negative
    deltas = [abs(float(r.split(",")[4])) for r in rows[1:]]
    assert max(deltas) <= 1e-12


KERNEL_COMPARE_CFG = """\
problem = example2
sigma = 1/2
theta = 1/12
tau = 0.01
M = 10
J = 10
m_max = 5
"""


def test_kernel_compare_unconverged_oracle_exits_two(tmp_path, monkeypatch,
                                                      capsys):
    monkeypatch.setattr(dtbc_kernel, "ORACLE_MAX_POINTS", 16)
    cfg = write(tmp_path / "run.cfg", KERNEL_COMPARE_CFG)
    assert main(["kernel", "--config", str(cfg), "--out", str(tmp_path),
                 "--compare"]) == 2
    assert "did not converge" in capsys.readouterr().err


def test_kernel_compare_runs_without_mpmath(tmp_path, monkeypatch):
    monkeypatch.setitem(sys.modules, "mpmath", None)  # import raises
    cfg = write(tmp_path / "run.cfg", KERNEL_COMPARE_CFG)
    assert main(["kernel", "--config", str(cfg), "--out", str(tmp_path),
                 "--compare", "--deterministic"]) == 0
    with (tmp_path / "kernel.csv").open() as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 6
    assert max(abs(float(row["delta_oracle"])) for row in rows) <= 1e-12


@pytest.mark.parametrize("source, error", [
    ("import no_such_module_for_this_test\n", "ModuleNotFoundError"),
    ("PROBLEM = (\n", "SyntaxError"),
], ids=["import", "syntax"])
def test_broken_custom_problem_exits_one(tmp_path, capsys, source, error):
    prob = write(tmp_path / "prob.py", source)
    cfg = write(tmp_path / "run.cfg", f"""\
problem = custom
custom_path = {prob}
sigma = 1/2
theta = 0
tau = 0.05
M = 10
J = 8
""")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1  # one line, no traceback
    assert str(prob) in err and error in err


def test_kernel_command_single_entry(tmp_path):
    cfg = write(tmp_path / "run.cfg", """\
problem = example2
sigma = 1/2
theta = 0
tau = 0.01
M = 10
J = 10
m_max = 0
""")
    out = tmp_path / "out"
    assert main(["kernel", "--config", str(cfg), "--out", str(out),
                 "--deterministic"]) == 0
    rows = (out / "kernel.csv").read_text().splitlines()
    assert len(rows) == 2


def test_table_single_cell_matches_solve(tmp_path):
    common = """\
problem = example2
sigma = 1/2
theta = 1/12
tau = 0.01
M = 100
J = 10
emit_snapshots = false
"""
    cfg_solve = write(tmp_path / "solve.cfg", common)
    cfg_table = write(tmp_path / "table.cfg",
                      common + "table_M = 100\ntable_theta = 1/12\n")
    out_s, out_t = tmp_path / "s", tmp_path / "t"
    assert main(["solve", "--config", str(cfg_solve), "--out", str(out_s),
                 "--deterministic"]) == 0
    assert main(["table", "--config", str(cfg_table), "--out", str(out_t),
                 "--deterministic"]) == 0
    solve_err = float(read_report(out_s / "report.csv")["max_abs_error"])
    table_rows = (out_t / "table.csv").read_text().splitlines()
    cell = float(table_rows[1].split(",")[1])
    assert cell == solve_err


def test_diagnose_writes_passing_checks(tmp_path):
    cfg = write(tmp_path / "run.cfg", """\
problem = example2
sigma = 1/2
theta = 1/12
tau = 0.01
M = 50
J = 20
trials = 50
""")
    out = tmp_path / "out"
    assert main(["diagnose", "--config", str(cfg), "--out", str(out),
                 "--deterministic", "--seed", "3"]) == 0
    with (out / "diagnostics.csv").open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["check", "value", "threshold", "pass"]
    assert len(rows) == 7
    assert all(row[3] == "true" for row in rows[1:])


def test_solve_diagnostics_follow_the_seed(tmp_path):
    # example1 leaves room for the seeded random initial profile of the
    # companion run, so its energy residuals differ between seeds
    cfg = write(tmp_path / "run.cfg", """\
problem = example1
sigma = 1/2
theta = 1/12
tau = 1/1500
M = 20
J = 50
trials = 20
emit_snapshots = false
run_diagnostics = true
""")
    written = {}
    for command in ("solve", "diagnose"):
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out),
                     "--deterministic", "--seed", "7"]) == 0
        written[command] = (out / "diagnostics.csv").read_bytes()
    assert written["solve"] == written["diagnose"]


def test_solve_with_failing_diagnostics_exits_two(tmp_path, monkeypatch):
    # as diagnose does, but only after every output has been written
    def failing(result):
        return replace(diagnose_energy(result), first_equality_rel=1.0)

    monkeypatch.setattr(cli, "diagnose_energy", failing)
    cfg = write(tmp_path / "run.cfg", """\
problem = example2
sigma = 1/2
theta = 1/12
tau = 0.01
M = 20
J = 20
trials = 20
run_diagnostics = true
""")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out),
                 "--deterministic"]) == 2
    for name in ("solution.csv", "report.csv"):
        assert (out / name).stat().st_size > 0, name
    with (out / "diagnostics.csv").open() as handle:
        rows = {row[0]: row[3] for row in csv.reader(handle)}
    assert rows["first_energy_equality_rel"] == "false"
    assert [ok for name, ok in rows.items()
            if name not in ("check", "first_energy_equality_rel")] == ["true"] * 5
    monkeypatch.undo()
    assert main(["solve", "--config", str(cfg), "--out", str(out),
                 "--deterministic"]) == 0


def test_every_csv_is_stamped_unless_deterministic(tmp_path):
    cfg = write(tmp_path / "run.cfg", """\
problem = example2
sigma = 1/2
theta = 1/12
tau = 0.01
M = 20
J = 20
trials = 20
run_diagnostics = true
m_max = 10
table_M = 5, 10
table_theta = 0, 1/12
""")
    written = {}
    for deterministic in (False, True):
        out = tmp_path / f"deterministic={deterministic}"
        for command in ("solve", "kernel", "table"):
            assert main([command, "--config", str(cfg), "--out", str(out)]
                        + ["--deterministic"] * deterministic) == 0
        written[deterministic] = {path.name: path.read_bytes()
                                  for path in out.glob("*.csv")}
    assert sorted(written[False]) == sorted(written[True]) == [
        "diagnostics.csv", "kernel.csv", "report.csv", "solution.csv",
        "table.csv"]
    for name, text in written[False].items():
        stamp, body = text.split(b"\n", 1)
        assert re.fullmatch(rb"# generated \d{4}-\d\d-\d\dT\d\d:\d\d:\d\d",
                            stamp), name
        if name == "report.csv":
            body, runtime_rows = re.subn(rb"runtime_s,[0-9.]+\r\n", b"", body)
            assert runtime_rows == 1
        assert body == written[True][name], name


def test_missing_config_key_exits_one(tmp_path):
    cfg = write(tmp_path / "run.cfg", "problem = example2\nsigma = 1/2\n")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 1


def test_unreadable_config_exits_one(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path)]) == 1
