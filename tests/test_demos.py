"""Smoke test: the demos run to completion and report what they check."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0[123]_*.py"))


def _run(demo: Path, cwd: Path) -> str:
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    # run outside the repository: demo 02 may write a PNG to its cwd
    proc = subprocess.run([sys.executable, str(demo)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    _run(demo, tmp_path)


def test_three_demos_found():
    assert len(DEMOS) == 3


@pytest.mark.skipif(shutil.which("gcc") is None, reason="demo 05 compiles with gcc")
def test_external_cross_check_demo(tmp_path):
    out = _run(ROOT / "demos" / "05_external_cross_check.py", tmp_path)
    assert "compiled C vs in-process tape: 10000/10000 inputs bit-identical" in out


def test_combined_race_demo(tmp_path):
    out = _run(ROOT / "demos" / "06_combined_race.py", tmp_path)
    assert "verdict=sat source=portfolio" in out
    assert "verdict=unsat source=external" in out
