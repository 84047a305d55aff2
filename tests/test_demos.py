"""Smoke test: every demo script runs to completion."""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys, monkeypatch):
    monkeypatch.setitem(sys.modules, "mpmath", None)  # numpy and scipy only
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
