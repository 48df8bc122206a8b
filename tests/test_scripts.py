"""Smoke tests for ``scripts/``: each runs as its own process and prints its
summary line."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, summary", [
    ("run_fig3.py", [],
     r"reserve midpoint 3\.50; the weak seller closed 0\.698 below it"),
    ("squeeze_sweep.py", [], r"  terminal settlement +0\.0004"),
    ("compare_regimes.py", ["--seeds", "2", "--epochs", "20"],
     r"mean difference: [+-]\d\.\d{5} \(authoritarian more unequal in [0-2]/2 seeds\)"),
])
def test_script_runs_to_its_summary(script, args, summary):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert re.fullmatch(summary, proc.stdout.splitlines()[-1])
