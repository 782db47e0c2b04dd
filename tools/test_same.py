"""Smoke test for tools/same.py: this checkout against its own HEAD.

    python3 -m pytest -q tools/test_same.py

It fails while the working tree holds a change of behaviour not yet
committed, which is what the tool is for.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_same_finds_no_difference_against_head():
    inside = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"], capture_output=True
    )
    if inside.returncode:
        pytest.skip("not a git checkout with a HEAD")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "same.py"), "--base", "HEAD", "--sessions", "20"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "20 sessions (seed 0) against HEAD: no difference" in proc.stdout
