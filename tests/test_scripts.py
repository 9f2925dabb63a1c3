"""Smoke tests of the scripts in ``scripts/``: each runs as a user would
run it, in a fresh interpreter, so that a change to the library internals
they sit on cannot leave them broken unnoticed."""

import os
import subprocess
import sys
from pathlib import Path

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
