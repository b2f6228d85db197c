"""Smoke runs of the benchmark harness, so that it cannot rot unnoticed.

No timing bound: only that one short run of a workload completes and that
every op it made passed the harness's own correctness checks.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _smoke_run(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "42",
         "--seconds", "0.01", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1


def test_swarm_wide_smoke_run_is_correct():
    _smoke_run("swarm-wide")


def test_cli_paper_smoke_run_is_correct():
    # Seed 42's first cycle is the golden runs, each a fresh `python -m fanetsim`.
    _smoke_run("cli-paper")
