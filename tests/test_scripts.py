"""Smoke tests of the scripts in ``scripts/``: each runs as a user would
run it, in a fresh interpreter, so that a change to the library internals
they sit on cannot leave them broken unnoticed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_confluence_sweep():
    proc = _run("confluence_sweep.py", "--trials", "300")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "300 diagrams x 5 orders: all encodings agree"
    assert lines[1].startswith("1663 reduction steps in ")


def test_ball_census():
    proc = _run("ball_census.py", "--radius", "2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split() == ["2", "4", "3", "3", "2"]


def test_retraction_demo():
    proc = _run("retraction_demo.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("configuration: ")


def test_retraction_demo_config():
    proc = _run("retraction_demo.py", "--config", "3 7", "--samples", "2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[:2] == ["configuration: 3 7", "  s=    0  ->  3 7"]


@pytest.mark.parametrize("script, args, message", [
    ("retraction_demo.py", ["--config", "1/0"], "--config: cannot read '1/0' as a rational"),
    ("retraction_demo.py", ["--config", "x"], "--config: cannot read 'x' as a rational"),
    ("retraction_demo.py", ["--config", "1 1 1"],
     "--config: 1 1 1 is not a configuration"),
    ("retraction_demo.py", ["--config", ""], "--config: expected one configuration line, found 0"),
    ("retraction_demo.py", ["--samples", "0"], "--samples must be at least 1"),
    ("ball_census.py", ["--radius", "2", "--cap", "3"],
     "radius 2: ball exceeded the vertex cap (3)"),
    ("ball_census.py", ["--radius", "-1"], "--radius must be nonnegative"),
    ("confluence_sweep.py", ["--max-carets", "-1"], "--max-carets must be nonnegative"),
])
def test_bad_argument_is_one_error_line(script, args, message):
    # argparse's usage block, then one error line: no traceback
    proc = _run(script, *args)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("usage: ")
    errors = [line for line in proc.stderr.splitlines() if not line.startswith(" ")][1:]
    assert errors == [f"{script}: error: {message}"]
