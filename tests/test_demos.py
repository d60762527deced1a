"""Each narrative demo runs to completion."""

import pathlib
import subprocess
import sys

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
