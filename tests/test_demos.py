"""Smoke test: every demo script runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import ENV

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script):
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=ENV, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
