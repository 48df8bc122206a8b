"""Smoke tests for ``scripts/``: each runs as its own process and prints its
summary line."""

import hashlib
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
    proc = run_script(script, args)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert re.fullmatch(summary, proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("script, digest", [
    ("run_fig3.py", "43b644d9c31ea9cb08891e171294499474ecc0c77d75a0b5d57913f011d0fbe0"),
    ("squeeze_sweep.py", "b1e6234d19823298a66525867137987ca4c827ccc2fd76e8cdc77e267c175fb2"),
])
def test_script_prints_its_pinned_bytes(script, digest):
    """The whole stdout, by sha256: a change to any trace row, settlement
    or share shows, not only one to the summary line."""
    proc = run_script(script, [])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize("args, message", [
    (["--seeds", "0"], "argument --seeds: must be a positive integer"),
    (["--agents", "1"], "argument --agents: must be >= 2"),
    (["--cap", "0.5"], "argument --cap: must be >= 1"),
    (["--gamma", "-1"], "argument --gamma: must be >= 0"),
    (["--agents", "1000001"], "argument --agents: must be <= 1000000"),
    (["--epochs", "100001"], "argument --epochs: (n_agents // 2) * epochs * pairings_per_epoch "
                             "must be <= 10000000"),
])
def test_compare_regimes_reports_bad_arguments_as_usage_errors(args, message):
    proc = run_script("compare_regimes.py", args)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1] == f"compare_regimes.py: error: {message}"


@pytest.mark.parametrize("factor, message", [
    ("0", "0.0 gives own_power: must be > 0"),
    ("-1", "-1.0 gives own_power: must be > 0"),
    ("nan", "nan gives own_power: must be a finite number"),
    ("inf", "inf gives own_power: must be a finite number"),
    ("1e308", "1e+308 gives own_power: must be a finite number"),
    ("1e-300", "1e-300 gives own_power: must be >= the epsilon floor 1e-09, got 2e-300"),
])
def test_squeeze_sweep_reports_bad_factors_as_usage_errors(factor, message):
    proc = run_script("squeeze_sweep.py", ["--factors", "1.5", factor])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1] == f"squeeze_sweep.py: error: argument --factors: {message}"


def run_script(script, args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)
