import csv
import io
import os
import re
import subprocess
import sys
import tracemalloc
import typing
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np
import pytest

from parabolic_dtbc import (SchemeConfig, build_mesh, certify_dissipativity,
                            cli, diagnose_energy, dtbc_kernel, example2, march,
                            sample, stepper, validation)
from parabolic_dtbc.cli import (ConfigError, RunConfig, _load_problem,
                                _make_mesh, main, read_config, write_solution)

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
    # kernel.csv comes from the kernel command only
    ("solve", {"emit_kernel": "true"}, "unknown config keys: ['emit_kernel']"),
    # dissipativity is certified in closed form, with no probes to count
    ("diagnose", {"trials": "200"}, "unknown config keys: ['trials']"),
    # kernel samples the problem on its mesh, as solve does
    ("kernel", {"X": "0.05"}, "mesh must reach past the tail onset X0"),
], ids=["malformed-line", "bad-boolean", "unknown-problem", "custom-no-path",
        "tau-zero", "M-zero", "custom-file-missing", "custom-no-PROBLEM",
        "no-J-or-nodes", "J-and-nodes", "table-no-lists", "table-no-exact",
        "table-bad-theta", "removed-emit-kernel", "removed-trials",
        "kernel-mesh-before-X0"])
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
    "m_max": "3e1", "table_M": "5, 10", "table_theta": "0, 1/12",
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
    assert (cfg.J, cfg.m_max, cfg.table_M) == (10, 30, [5, 10])
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
    ("M", "10.7"), ("J", "10.9"), ("m_max", "-1"), ("J", "-5"),
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


# a dataclass under postponed annotations looks its module up in
# sys.modules; a file without the .py suffix has no import loader
@pytest.mark.parametrize("name, source", [
    ("prob.py", "from __future__ import annotations\n"
     "from dataclasses import dataclass\n\n\n@dataclass\nclass Tag:\n"
     "    name: str\n\n\n"
     + CUSTOM_ZERO.replace('"zero-custom"', 'Tag("zero-custom").name')),
    ("prob.problem", CUSTOM_ZERO),
], ids=["dataclass", "no-py-suffix"])
def test_custom_problem_file_runs_as_a_script(tmp_path, name, source):
    prob = write(tmp_path / name, source)
    cfg = write(tmp_path / "run.cfg", f"""\
problem = custom
custom_path = {prob}
sigma = 1/2
theta = 0
tau = 0.05
M = 10
J = 8
X = 1
""")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    report = read_report(out / "report.csv")
    assert report["problem"] == "zero-custom"
    assert float(report["max_abs_error"]) == 0.0


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


# example2 with an exact solution that is NaN at t = 0.045 only: level 45
# at tau = 1e-3, in the third of the writer's blocks of 20 levels at J = 200
CUSTOM_NAN_AT_LEVEL_45 = """\
import numpy as np
from parabolic_dtbc import example2

PROBLEM, ramp = example2()
EXACT = lambda x, t: np.where(np.abs(t - 0.045) < 1e-9, np.nan, ramp(x, t))
"""


@pytest.mark.parametrize("out_dir", ["new", "nested", "existing"])
def test_solve_non_finite_exact_solution_in_a_later_block_leaves_no_csv(
        tmp_path, capsys, monkeypatch, out_dir):
    # the writer has written two blocks when the third raises; the error
    # removes the partial file and every directory made for it, and leaves
    # an earlier run's solution.csv as it was
    write(tmp_path / "prob.py", CUSTOM_NAN_AT_LEVEL_45)
    cfg = write(tmp_path / "run.cfg", f"""\
problem = custom
custom_path = {tmp_path / 'prob.py'}
sigma = 1/2
theta = 1/12
tau = 1e-3
M = 100
J = 200
""")
    out = tmp_path / "a" / "b" if out_dir == "nested" else tmp_path / "out"
    if out_dir == "existing":
        out.mkdir()
        write(out / "other.txt", "kept")
        write(out / "solution.csv", "stale")
    rows, written = cli._rows, []
    monkeypatch.setattr(cli, "_rows", lambda *args: written.append(
        args[0].shape[0]) or rows(*args))
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
    assert "not finite at level 45 (t_m=0.045)" in capsys.readouterr().err
    assert written == [20, 20]
    if out_dir == "existing":
        assert sorted(p.name for p in out.iterdir()) == ["other.txt",
                                                         "solution.csv"]
        assert (out / "other.txt").read_text() == "kept"
        assert (out / "solution.csv").read_text() == "stale"
    else:
        assert sorted(tmp_path.iterdir()) == [tmp_path / "prob.py",
                                              tmp_path / "run.cfg"]


# custom problems whose callables fail even point by point, with the part
# of the message that names the field or the level
MALFORMED_CALLABLES = {
    "exact-not-callable": (CUSTOM_ZERO + "EXACT = 5\n",
                           "not finite at level 1 (t_m=0.05)"),
    "exact-matrix": (CUSTOM_ZERO + "EXACT = lambda x, t: np.zeros((2, 2))\n",
                     "not finite at level 1 (t_m=0.05)"),
    "g-list": (CUSTOM_ZERO + "from dataclasses import replace\n"
               "PROBLEM = replace(PROBLEM, g=lambda t: [t, t])\n",
               "g is not a finite number at t_m=0.05 (level 1)"),
    "rho-matrix": (CUSTOM_ZERO + "from dataclasses import replace\n"
                   "PROBLEM = replace(PROBLEM, rho=lambda x: np.eye(2))\n",
                   "error: rho samples are not finite"),
    # math-only callables that raise an ArithmeticError at one point
    "u0-zerodiv": (CUSTOM_ZERO + "import math\nfrom dataclasses import replace\n"
                   "PROBLEM = replace(PROBLEM, u0=lambda x: 0.0 / math.fabs(x))\n",
                   "error: u0 samples are not finite"),
    "g-overflow": (CUSTOM_ZERO + "import math\nfrom dataclasses import replace\n"
                   "PROBLEM = replace(PROBLEM,\n"
                   "                  g=lambda t: math.exp(1e5 * t) * 0.0)\n",
                   "g is not a finite number at t_m=0.05 (level 1)"),
    "exact-zerodiv": (CUSTOM_ZERO + "import math\n"
                      "EXACT = lambda x, t: 0.0 / math.fabs(x)\n",
                      "not finite at level 1 (t_m=0.05)"),
    # a complex result is a failed call, not a real part
    "rho-complex": (CUSTOM_ZERO + "from dataclasses import replace\n"
                    "PROBLEM = replace(PROBLEM, rho=lambda x: 1 + 0.5j * x)\n",
                    "error: rho samples are not finite"),
    "rho-string": (CUSTOM_ZERO + "from dataclasses import replace\n"
                   "PROBLEM = replace(PROBLEM, rho=lambda x: '1.5')\n",
                   "error: rho samples are not finite"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CALLABLES))
def test_solve_malformed_callable_exits_one(tmp_path, capsys, case):
    source, message = MALFORMED_CALLABLES[case]
    write(tmp_path / "prob.py", source)
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
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert message in err and "x=" not in err
    assert not out.exists()


def test_solve_past_the_address_space_exits_one(tmp_path, capsys):
    # 8 (M + 1) bytes of level times are far past the address space, so
    # the allocation is refused at once: one error line, no traceback
    keys = {**BASE_KEYS, "tau": "1e-15", "M": "1000000000000000", "J": "2",
            "emit_snapshots": "false"}
    cfg = write(tmp_path / "run.cfg", config_text(**keys))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate ") and "PiB" in err
    assert err.count("\n") == 1 and "Traceback" not in err
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

# example2 with an exact solution that is NaN, +inf and -inf at t = 0 only:
# error_report skips level 0, so these values reach the writer's fallback
CUSTOM_NONFINITE_LEVEL0 = """\
import numpy as np
from parabolic_dtbc import example2

PROBLEM, ramp = example2()
SPECIAL = np.array([np.nan, np.inf, -np.inf])
EXACT = lambda x, t: np.where(
    t == 0, SPECIAL[np.searchsorted([0.3, 0.6], x)], ramp(x, t))
"""

# example2 with an exact solution negated before t = 0.2 and scaled by
# -1e-200 from t = 0.4 on: at J = 200 the writer's blocks hold 20 levels,
# and the exact column changes slot width from block to block
CUSTOM_WIDTHS_BY_BLOCK = """\
import numpy as np
from parabolic_dtbc import example2

PROBLEM, ramp = example2()
EXACT = lambda x, t: ramp(x, t) * np.where(
    t < 0.2, -1.0, np.where(t < 0.4, 1.0, -1e-200))
"""

# name: (custom problem module or None, config lines, --deterministic,
#        byte strings the output must contain); at J <= 10 the writer
#        writes each run in one block of all its levels
SOLUTION_CASES = {
    "example2": (None, "problem = example2\nJ = 10\nM = 20\n", True, []),
    "no-exact": (CUSTOM_RAMP_NO_EXACT, "J = 8\nM = 20\n", True, [b",,\r\n"]),
    "graded-signed": (CUSTOM_SIGNED_RAMP,
                      "nodes = 0, 0.02, 0.06, 0.12, 0.2, 0.3, 0.45, 0.6, "
                      "0.8, 1\nM = 20\n", True,
                      [b",-0.00000000000000000e+00,", b",0.00000000000000000e+00",
                       b",-1.", b",2,5.99999999999999978e-02,"]),
    "timestamped": (None, "problem = example2\nJ = 10\nM = 20\n", False, []),
    "nonfinite-level0": (CUSTOM_NONFINITE_LEVEL0, "J = 10\nM = 20\n", True,
                         [b",nan,nan\r\n", b",inf,-inf\r\n",
                          b",-inf,inf\r\n"]),
    "multi-level-blocks": (None, "problem = example2\nJ = 10\nM = 100\n",
                           True, [b"\r\n100,1.00000000000000000e+00,10,"]),
    "widths-by-block": (CUSTOM_WIDTHS_BY_BLOCK, "J = 200\nM = 60\n", True,
                        [b",-", b"e-201,"]),
    # four-digit j, and blocks of 4 levels: the third, levels 8-11, crosses
    # m = 10 and widens the m field within the block
    "four-digit-j": (None, "problem = example2\nJ = 1000\nM = 12\n", True,
                     [b"\r\n9,", b"\r\n10,", b",1000,1.00000000000000000e+00,"]),
}


def check_solution_case(tmp_path, case):
    """``cli solve`` on ``SOLUTION_CASES[case]`` writes the bytes of the
    row-by-row reference writer."""
    module, lines, deterministic, tokens = SOLUTION_CASES[case]
    text = "sigma = 1/2\ntheta = 1/12\ntau = 0.01\n" + lines
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


@pytest.mark.parametrize("case", sorted(SOLUTION_CASES))
def test_solution_csv_matches_row_by_row_writer(tmp_path, case):
    check_solution_case(tmp_path, case)


@pytest.mark.parametrize("case", ["example2", "graded-signed",
                                  "widths-by-block", "four-digit-j"])
def test_every_canvas_byte_is_written(tmp_path, monkeypatch, case):
    # the writer reuses one bytearray canvas for its blocks, builds each
    # column's slots in a uint8 array from np.empty, and writes every byte
    # of both, NUL padding included; here each block's canvas is filled
    # with 0xFF when numpy takes it, and so is every new uint8 array, so a
    # byte left unwritten shows in the output instead of an earlier
    # block's digits
    format_e17, widths = cli._format_e17, []

    def recorded(x):
        slots = format_e17(x)
        widths.extend(width for width, _ in slots)
        return slots

    def filled(make):
        def made(*args, **kwargs):
            out = make(*args, **kwargs)
            if out.dtype == np.uint8 and out.flags.writeable:
                out.fill(0xFF)
            return out
        return made

    for name in ("empty", "frombuffer"):
        monkeypatch.setattr(np, name, filled(getattr(np, name)))
    monkeypatch.setattr(cli, "_format_e17", recorded)
    check_solution_case(tmp_path, case)
    if case == "widths-by-block":
        # U, exact and error slots of the blocks of levels 0-19, 20-39,
        # 40-59 and 60: the exact column takes a sign byte, neither, both
        assert widths == [23, 24, 23, 23, 23, 23, 23, 25, 23, 23, 25, 23]


def test_solution_writer_at_the_benchmark_size(monkeypatch):
    # the benchmark's CLI session: example2, J = 200, M = 1000, 603,603
    # values, of which at most 2 take the fallback: _fmt also formats the
    # J + 1 node and M + 1 level fields
    problem, exact = example2()
    mesh = build_mesh(1.0, 200, tau=1e-3, M=1000)
    U = march(problem, mesh, SchemeConfig(0.5, 1.0 / 12.0)).U
    reference = reference_solution_csv(U, exact, mesh)
    calls = []
    fmt = cli._fmt
    monkeypatch.setattr(cli, "_fmt", lambda v: calls.append(v) or fmt(v))
    handle = io.TextIOWrapper(io.BytesIO(), newline="")
    handle.write("m,t,j,x,U,exact,error\r\n")
    write_solution(handle, U, exact, mesh)
    handle.flush()
    assert handle.buffer.getvalue() == reference
    assert len(calls) - (mesh.J + 1) - (mesh.M + 1) <= 2


def test_solution_writer_memory_stays_bounded(monkeypatch):
    # O(J) node fields plus the exact solution, the canvas, the formatting
    # temporaries and the output bytes of one block of levels (here one
    # level); a small block puts the whole exact grid (8 bytes per cell)
    # well past the bound at a small M
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
            write_solution(sink, U, exact, mesh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= bound


def test_solution_writer_evaluates_each_level_once_in_the_blocks_it_writes():
    # the exact solution is evaluated on exactly the levels of each written
    # block, a sixteenth of error_report's: 20 levels at J = 200
    _, exact = example2()
    J, M = 200, 100
    mesh = build_mesh(1.0, J, tau=1e-3, M=M)
    calls = []

    def counted(x, t):
        calls.append(np.ravel(t).tolist())
        return exact(x, t)

    with open(os.devnull, "w", newline="") as sink:
        write_solution(sink, np.zeros((M + 1, J + 1)), counted, mesh)
    assert sorted(t for call in calls for t in call) == mesh.times().tolist()
    most = max(1, validation.EVAL_BLOCK_CELLS // (16 * (J + 1)))
    assert max(len(call) for call in calls) <= most


def test_solution_writer_returns_the_error_report():
    # the writer's blocks of 20 levels and error_report's of 326 at J = 200
    # give the same report, to the bit
    problem, exact = example2()
    mesh = build_mesh(1.0, 200, tau=1e-3, M=1000)
    U = march(problem, mesh, SchemeConfig(0.5, 1.0 / 12.0)).U
    with open(os.devnull, "w", newline="") as sink:
        written = write_solution(sink, U, exact, mesh)
        assert write_solution(sink, U, None, mesh) is None
    report = validation.error_report(U, exact, mesh)
    for f in fields(report):
        assert np.asarray(getattr(written, f.name)).tobytes() == \
            np.asarray(getattr(report, f.name)).tobytes()


def test_solve_evaluates_each_level_of_the_exact_solution_once(
        tmp_path, monkeypatch):
    # with snapshots the writer's blocks feed the error report: every
    # level, 0 included, is evaluated once; without, error_report
    # evaluates levels 1..M once
    problem, exact = example2()
    calls = []

    def counted(x, t):
        calls.extend(np.ravel(t).tolist())
        return exact(x, t)

    monkeypatch.setattr(cli, "_load_problem", lambda cfg: (problem, counted))
    text = ("problem = example2\nsigma = 1/2\ntheta = 1/12\ntau = 1e-3\n"
            "M = 100\nJ = 200\n")
    times = build_mesh(1.0, 200, tau=1e-3, M=100).times().tolist()
    for snapshots, levels in (("true", times), ("false", times[1:])):
        calls.clear()
        cfg = write(tmp_path / "run.cfg",
                    text + f"emit_snapshots = {snapshots}\n")
        assert main(["solve", "--config", str(cfg), "--out",
                     str(tmp_path / snapshots), "--deterministic"]) == 0
        assert sorted(calls) == levels


@pytest.mark.parametrize("case", ["example2", "signed-ramp"])
def test_report_is_the_same_with_and_without_snapshots(tmp_path, case):
    if case == "example2":
        text = "problem = example2\ntau = 1e-3\nM = 1000\nJ = 200\n"
    else:
        write(tmp_path / "prob.py", CUSTOM_SIGNED_RAMP)
        text = (f"problem = custom\ncustom_path = {tmp_path / 'prob.py'}\n"
                "tau = 1e-2\nM = 100\nJ = 200\n")
    reports = []
    for snapshots in ("true", "false"):
        cfg = write(tmp_path / "run.cfg", text + "sigma = 1/2\ntheta = 1/12\n"
                    f"emit_snapshots = {snapshots}\n")
        out = tmp_path / snapshots
        assert main(["solve", "--config", str(cfg), "--out", str(out),
                     "--deterministic"]) == 0
        assert (out / "solution.csv").exists() == (snapshots == "true")
        assert not list(out.glob("*.part"))
        reports.append((out / "report.csv").read_bytes())
    assert reports[0] == reports[1]
    assert b"max_abs_error" in reports[0]


def test_solution_writer_peak_stays_at_the_exact_solution_block():
    # at the size of the benchmark's CLI session the peak of error_report is
    # set by the evaluation of one block of the exact solution; the writer
    # evaluates and formats blocks of a sixteenth of its levels
    problem, exact = example2()
    mesh = build_mesh(1.0, 200, tau=1e-3, M=1000)
    U = march(problem, mesh, SchemeConfig(0.5, 1.0 / 12.0)).U
    peaks = []
    with open(os.devnull, "w", newline="") as sink:
        for call in (lambda: validation.error_report(U, exact, mesh),
                     lambda: write_solution(sink, U, exact, mesh)):
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert peaks[1] <= 0.6 * peaks[0]


def test_pow10_table_matches_the_fraction_construction():
    # 10^k and 10^k - hi rounded, from exact rational arithmetic
    from fractions import Fraction
    exact = [Fraction(10) ** k for k in cli._POW10_K]
    hi = np.array([float(p) for p in exact])
    lo = np.array([float(p - Fraction(h)) for p, h in zip(exact, hi.tolist())])
    table = cli._pow10_table()
    assert table.shape == (len(cli._POW10_K), 4)
    assert table[:, 0].tobytes() == hi.tobytes()
    assert table[:, 3].tobytes() == lo.tobytes()
    assert all(np.array_equal(a, b)
               for a, b in zip(table[:, 1:3].T, cli._split(hi)))


def written(slot, size) -> tuple[bytes, int]:
    """The bytes that ``slot``, a (width, write) pair of the writer's
    formatter, writes for its ``size`` values, each followed by a comma,
    and its width."""
    width, write = slot
    canvas = np.zeros((size, width + 1), np.uint8)
    write(canvas[:, :width])
    canvas[:, width] = ord(",")
    return canvas[canvas != 0].tobytes(), width


def formatted(values) -> tuple[bytes, int]:
    """``values`` through the writer's formatter as a block's one column,
    each followed by a comma, and the slot width it chose for them."""
    [slot] = cli._format_e17(values[None])
    return written(slot, values.size)


def percent_formatted(values) -> bytes:
    """The same bytes from ``FLOAT_FMT % v``, value by value."""
    return "".join(f"{cli.FLOAT_FMT % v}," for v in values.tolist()).encode()


def test_formatter_matches_percent_format(monkeypatch):
    rng = np.random.default_rng(20261019)
    bits = rng.integers(0, 2**64, size=1_000_000, dtype=np.uint64,
                        endpoint=False)
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    # exact integers k 10^9 (k 5^9 < 2^53): d's lower nine digits are zero
    billions = (rng.integers(1, 4 * 10**9, size=2000) * 10**9).astype(float)
    values = np.concatenate([
        bits.view(np.float64), [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan],
        billions, -billions,
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        [5e-324, np.finfo(float).max]])
    # every class of float64 with either sign bit, NaN included
    a, tiny = np.abs(values), np.finfo(float).tiny
    negative = np.signbit(values)
    for cls in (a >= tiny, (a > 0) & (a < tiny), a == 0, np.isinf(values),
                np.isnan(values)):
        assert (cls & negative).any() and (cls & ~negative).any()
    fallbacks = []
    monkeypatch.setattr(cli, "_fmt",
                        lambda v: fallbacks.append(v) or cli.FLOAT_FMT % v)
    assert formatted(values) == (percent_formatted(values), 25)

    # one call per slot layout: 23 bytes, plus a sign byte when some sign
    # bit is set and a third exponent digit when some |E| >= 100, and 25
    # when some value takes the fallback
    fast = ~np.isin(values, fallbacks)
    short = fast & ((a > 1e-98) & (a < 1e98) | (a == 0))
    long = fast & ((a >= 1e-280) & (a < 1e-101) | (a >= 1e101) & (a < 1e300))
    layouts = [(values[short & ~negative], 23), (values[short], 24),
               (values[long & ~negative], 24), (values[long], 25),
               (np.append(values[short & ~negative], np.nan), 25)]
    for cls, width in layouts:
        assert formatted(cls) == (percent_formatted(cls), width)

    # exact ties m/8, m odd, round half to even and take the fallback
    odd = 2 * rng.integers(4 * 10**15, 2**52, size=2000) + 1
    ties = np.concatenate([[1000000000000000.125, 1000000000000000.375],
                           odd / 8.0])
    assert cli.FLOAT_FMT % ties[0] == "1.00000000000000012e+15"
    assert cli.FLOAT_FMT % ties[1] == "1.00000000000000038e+15"
    fallbacks.clear()
    assert formatted(ties) == (percent_formatted(ties), 25)
    assert fallbacks == ties.tolist()


def test_formatter_gives_each_row_of_a_block_its_own_slots():
    # one call on a block of three columns that need three layouts: a sign
    # byte only, a third exponent digit only, and 25 bytes for one value
    # that takes the fallback; each column gets the bytes and the width it
    # gets when formatted alone
    rng = np.random.default_rng(20261020)
    signed = rng.standard_normal(4020)
    wide = 10.0 ** rng.uniform(-250.0, 10.0, 4020)
    fallback = rng.uniform(0.5, 2.0, 4020)
    fallback[1234] = 1000000000000000.125
    block = np.stack([signed, wide, fallback])
    alone = [formatted(column) for column in block]
    assert [width for _, width in alone] == [24, 24, 25]
    assert [written(slot, block.shape[1])
            for slot in cli._format_e17(block)] == alone
    assert [text for text, _ in alone] == [percent_formatted(column)
                                           for column in block]


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


@pytest.mark.parametrize("name, source, error", [
    ("prob.py", "import no_such_module_for_this_test\n",
     "ModuleNotFoundError"),
    ("prob.py", "PROBLEM = (\n", "SyntaxError"),
    ("prob", "PROBLEM = (\n", "SyntaxError"),
], ids=["import", "syntax", "syntax-no-py-suffix"])
def test_broken_custom_problem_exits_one(tmp_path, capsys, name, source,
                                         error):
    prob = write(tmp_path / name, source)
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


def package_env(**extra):
    """The environment of a subprocess that imports this package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, **extra,
            "PYTHONPATH": os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_import_and_kernel_leave_scipy_linalg_unloaded(tmp_path):
    # the march imports scipy.linalg and scipy.sparse when first called,
    # so importing the package, dumping a kernel (with the oracle) and
    # certifying dissipativity (with probes) load neither
    cfg = write(tmp_path / "run.cfg", config_text(**BASE_KEYS, m_max="20"))
    code = (
        "import sys\n"
        "import parabolic_dtbc as pd\n"
        "from parabolic_dtbc import cli\n"
        "def loaded():\n"
        "    return [m for m in ('scipy.linalg', 'scipy.sparse') "
        "if m in sys.modules]\n"
        "first = loaded()\n"
        f"rc = cli.main(['kernel', '--config', {str(cfg)!r}, '--out', "
        f"{str(tmp_path / 'out')!r}, '--deterministic', '--compare'])\n"
        "params = pd.derive_params(1.0, 1.0, 5.0, 0.1, 0.01, 1.0, 0.0)\n"
        "rep = pd.certify_dissipativity(pd.kernel_by_recurrence(params, 50), "
        "trials=5, M=50)\n"
        "print(first, rc, rep.passed, loaded(), "
        "'scipy.special' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=package_env(),
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "[] 0 True [] True"


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
""")
    out = tmp_path / "out"
    assert main(["diagnose", "--config", str(cfg), "--out", str(out),
                 "--deterministic", "--seed", "3"]) == 0
    with (out / "diagnostics.csv").open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["check", "value", "threshold", "pass"]
    assert len(rows) == 7
    assert all(row[3] == "true" for row in rows[1:])


def test_diagnostics_ignore_the_seed(tmp_path):
    # solve checks the run it wrote and diagnose marches the same run; the
    # certificate draws no random numbers, so --seed changes no byte
    cfg = write(tmp_path / "run.cfg", """\
problem = example1
sigma = 1/2
theta = 1/12
tau = 1/1500
M = 20
J = 50
emit_snapshots = false
run_diagnostics = true
""")
    written = set()
    for command in ("solve", "diagnose"):
        for seed in ("0", "7"):
            out = tmp_path / f"{command}{seed}"
            assert main([command, "--config", str(cfg), "--out", str(out),
                         "--deterministic", "--seed", seed]) == 0
            written.add((out / "diagnostics.csv").read_bytes())
    assert len(written) == 1


def test_diagnostics_are_the_same_at_one_and_two_blas_threads(tmp_path):
    # no row of diagnostics.csv may move with the number of BLAS threads
    cfg = write(tmp_path / "run.cfg", """\
problem = example2
sigma = 1/2
theta = 1/12
tau = 1e-3
M = 20
J = 200
""")
    written = set()
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = package_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                          MKL_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "parabolic_dtbc.cli", "diagnose",
                        "--config", str(cfg), "--out", str(out),
                        "--deterministic"], env=env, check=True)
        written.add((out / "diagnostics.csv").read_bytes())
    assert len(written) == 1


def read_checks(path: Path) -> dict:
    with path.open() as handle:
        return {row[0]: row[3] for row in csv.reader(handle)
                if row[0] != "check"}


@pytest.mark.parametrize("command", ["solve", "diagnose"])
def test_diagnostics_run_with_no_node_left_of_x0(tmp_path, command):
    # example2 has X0 = 0.1, and at J = 10 the first node past 0 is x = 0.1:
    # the checks run on the ramp run itself, whatever its initial data
    keys = {**BASE_KEYS, "run_diagnostics": "true"}
    cfg = write(tmp_path / "run.cfg", config_text(**keys))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out),
                 "--deterministic"]) == 0
    checks = read_checks(out / "diagnostics.csv")
    assert len(checks) == 6 and set(checks.values()) == {"true"}


def test_dissipativity_rows_take_the_certificate_thresholds(tmp_path):
    # sigma just below 1/2, as check_weights admits: the weighted row reads
    # about +2e-10, inside its threshold tol * scale / 2h (about 5e-7)
    cfg = write(tmp_path / "run.cfg", """\
problem = example2
sigma = 0.49999999999999
theta = 0
tau = 1e-5
M = 20
J = 10
""")
    out = tmp_path / "out"
    assert main(["diagnose", "--config", str(cfg), "--out", str(out),
                 "--deterministic"]) == 0
    with (out / "diagnostics.csv").open() as handle:
        rows = {row[0]: row[1:] for row in csv.reader(handle)}
    value, threshold, ok = rows["dissipativity_weighted"]
    assert 1e-10 < float(value) < 1e-9 < float(threshold) and ok == "true"
    value, threshold, ok = rows["dissipativity_increment"]
    assert float(value) == 0.0 and ok == "true"
    assert float(threshold) == 2.0 * float(
        rows["dissipativity_weighted"][1]) / 1e-5


RAMP_DIAGNOSTICS = """\
problem = example2
sigma = 1/2
theta = 1/12
tau = 0.001
M = 200
J = 50
emit_snapshots = false
run_diagnostics = true
"""


@pytest.mark.parametrize("boundary", ["dtbc", "neumann"])
def test_solve_diagnostics_march_once(tmp_path, monkeypatch, boundary):
    calls = []

    def counted(*args):
        calls.append(args[2])
        return march(*args)

    monkeypatch.setattr(cli, "march", counted)
    cfg = write(tmp_path / "run.cfg",
                RAMP_DIAGNOSTICS + f"boundary = {boundary}\n")
    assert main(["solve", "--config", str(cfg), "--out",
                 str(tmp_path / "out"), "--deterministic"]) == 0
    assert calls == [SchemeConfig(0.5, 1.0 / 12.0, boundary)]


def test_reference_mode_diagnoses_the_dtbc_march(tmp_path, monkeypatch):
    # the written trajectory is a restricted zero-flux run on a larger
    # interval; the checks go to the transparent march of the same data
    checked = []

    def recording(result):
        checked.append(result)
        return diagnose_energy(result)

    monkeypatch.setattr(cli, "diagnose_energy", recording)
    written = {}
    for boundary in ("reference\nextension_factor = 3", "dtbc"):
        cfg = write(tmp_path / "run.cfg",
                    RAMP_DIAGNOSTICS + f"boundary = {boundary}\n")
        out = tmp_path / boundary[:4]
        assert main(["solve", "--config", str(cfg), "--out", str(out),
                     "--deterministic"]) == 0
        written[boundary[:4]] = (out / "diagnostics.csv").read_bytes()
    assert written["refe"] == written["dtbc"]
    assert [res.config for res in checked] == [
        SchemeConfig(0.5, 1.0 / 12.0, "dtbc")] * 2
    np.testing.assert_array_equal(checked[0].U, checked[1].U)


def test_reference_diagnostics_sample_each_mesh_once(tmp_path, monkeypatch):
    # the run's own mesh first, which checks it before the enlarged marches;
    # the diagnostics march reuses those samples
    sampled = []

    def counted(problem, mesh):
        sampled.append(mesh.J)
        return sample(problem, mesh)

    for module in (stepper, cli):
        monkeypatch.setattr(module, "sample", counted)
    cfg = write(tmp_path / "run.cfg", RAMP_DIAGNOSTICS.replace("J = 50", "J = 10")
                + "boundary = reference\nextension_factor = 3\n")
    assert main(["solve", "--config", str(cfg), "--out",
                 str(tmp_path / "out"), "--deterministic"]) == 0
    assert sampled == [10, 30, 60]


ENERGY_ROWS = ["first_energy_equality_rel", "second_energy_equality_rel",
               "first_energy_bound_slack", "second_energy_bound_slack"]


@pytest.mark.parametrize("boundary", ["dtbc", "neumann"])
def test_diagnose_certifies_the_kernel_of_the_march(tmp_path, monkeypatch,
                                                    boundary):
    # the certificate reads the kernel that closed the run; a zero-flux
    # run has none and writes the four energy rows only
    runs, certified = [], []

    def recording_march(*args):
        runs.append(march(*args))
        return runs[-1]

    def recording_certify(kernel):
        certified.append(kernel)
        return certify_dissipativity(kernel)

    monkeypatch.setattr(cli, "march", recording_march)
    monkeypatch.setattr(cli, "certify_dissipativity", recording_certify)
    cfg = write(tmp_path / "run.cfg",
                RAMP_DIAGNOSTICS + f"boundary = {boundary}\n")
    out = tmp_path / "out"
    assert main(["diagnose", "--config", str(cfg), "--out", str(out),
                 "--deterministic"]) == 0
    with (out / "diagnostics.csv").open() as handle:
        rows = {row[0]: row[1:] for row in csv.reader(handle)}
    [result] = runs
    if boundary == "neumann":
        assert result.kernel is None and certified == []
        assert list(rows) == ["check"] + ENERGY_ROWS
        return
    assert len(certified) == 1 and certified[0] is result.kernel
    report = certify_dissipativity(result.kernel)
    params = result.kernel.params
    unit = 1e-10 * params.scale / (2.0 * params.h)  # the default tol
    assert (report.threshold_weighted, report.threshold_increment) == (
        unit, 2.0 * unit / params.tau)
    assert list(rows) == ["check", "dissipativity_weighted",
                          "dissipativity_increment"] + ENERGY_ROWS
    assert rows["dissipativity_weighted"] == [
        cli._fmt(report.worst_weighted), cli._fmt(unit), "true"]
    assert rows["dissipativity_increment"] == [
        cli._fmt(report.worst_increment), cli._fmt(2.0 * unit / params.tau),
        "true"]


def test_solve_exits_two_on_a_perturbed_trajectory(tmp_path, monkeypatch):
    # one interior value of one level moved by 1e-6 relative breaks the
    # first identity on the run that solve writes
    def perturbed(*args):
        result = march(*args)
        result.U[100, 5] *= 1.0 + 1e-6
        return result

    monkeypatch.setattr(cli, "march", perturbed)
    cfg = write(tmp_path / "run.cfg", RAMP_DIAGNOSTICS)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out),
                 "--deterministic"]) == 2
    checks = read_checks(out / "diagnostics.csv")
    assert checks["first_energy_equality_rel"] == "false"


def test_diagnose_overflowing_energies_fail_without_warnings(tmp_path,
                                                            capsys):
    # g = 1e160 t^2 keeps the trajectory finite, but its energies overflow:
    # the four energy rows read nan and fail, with no warning on the way
    write(tmp_path / "prob.py", """\
import numpy as np
from parabolic_dtbc import ProblemSpec

PROBLEM = ProblemSpec(
    rho=lambda x: np.ones(np.shape(x)),
    b=lambda x: np.ones(np.shape(x)),
    c=lambda x: np.zeros(np.shape(x)),
    f=None, g=lambda t: 1e160 * t ** 2,
    u0=lambda x: np.zeros(np.shape(x)),
    X0=0.1, X=1.0)
""")
    cfg = write(tmp_path / "run.cfg", f"""\
problem = custom
custom_path = {tmp_path / 'prob.py'}
sigma = 1/2
theta = 1/12
tau = 0.01
M = 100
J = 20
""")
    out = tmp_path / "out"
    assert main(["diagnose", "--config", str(cfg), "--out", str(out),
                 "--deterministic"]) == 2
    with (out / "diagnostics.csv").open() as handle:
        rows = {row[0]: row[1:] for row in csv.reader(handle)}
    for name in ENERGY_ROWS:
        assert rows[name][0] == "nan" and rows[name][2] == "false", name
    assert rows["dissipativity_weighted"][2] == "true"
    assert rows["dissipativity_increment"][2] == "true"
    assert capsys.readouterr().err == ""


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
run_diagnostics = true
""")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out),
                 "--deterministic"]) == 2
    for name in ("solution.csv", "report.csv"):
        assert (out / name).stat().st_size > 0, name
    rows = read_checks(out / "diagnostics.csv")
    assert rows["first_energy_equality_rel"] == "false"
    assert [ok for name, ok in rows.items()
            if name != "first_energy_equality_rel"] == ["true"] * 5
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
