"""Smoke test: every demo script and README example runs to completion."""

import csv
import re
import runpy
import sys
from pathlib import Path

import pytest

from parabolic_dtbc import cli

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys, monkeypatch):
    monkeypatch.setitem(sys.modules, "mpmath", None)  # numpy and scipy only
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


def _readme_block(heading, language):
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index(heading):]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_readme_examples_run(tmp_path, capsys, monkeypatch):
    exec(_readme_block("## Library quick start", "python"), {})
    printed = float(capsys.readouterr().out)
    assert printed == pytest.approx(4.70e-6, rel=5e-3)

    cfg = tmp_path / "run.cfg"
    cfg.write_text(_readme_block("Example configuration reproducing", "ini"))
    out = tmp_path / "out"
    assert cli.main(["table", "--config", str(cfg), "--out", str(out),
                     "--deterministic"]) == 0
    with (out / "table.csv").open(newline="") as handle:
        header, *rows = csv.reader(handle)
    assert header == ["theta"] + [f"M={m}" for m in (5, 10, 20, 50, 100, 200)]
    assert len(rows) == 4
    for row in rows:
        assert len(row) == 7 and all(0.0 < float(cell) < 1.0 for cell in row[1:])

    # the custom problem file and its configuration, run from their folder
    custom = tmp_path / "custom"
    custom.mkdir()
    (custom / "graded_density.py").write_text(
        _readme_block("### Custom problems", "python"))
    (custom / "run.cfg").write_text(
        _readme_block("### Custom problems", "ini"))
    monkeypatch.chdir(custom)
    assert cli.main(["solve", "--config", "run.cfg", "--out", "out",
                     "--deterministic"]) == 0
    with (custom / "out" / "report.csv").open(newline="") as handle:
        report = dict(csv.reader(handle))
    assert report["problem"] == "graded-density"
    assert (report["J"], report["M"]) == ("20", "100")
