#!/usr/bin/env python3
"""Regenerate the committed golden datasets.

Run only when a behaviour change is intended; the test suite compares
every run against these bytes.
"""

from pathlib import Path

from fanetsim.cli import main

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"

RUNS = [
    (["topology", "--seed", "42", "--format", "json"], "topology_seed42.json"),
    (["sweep-power", "--seed", "42"], "sweep_power_seed42.csv"),
    (["sweep-frequency", "--seed", "42"], "sweep_frequency_seed42.csv"),
    (["sweep-area", "--seed", "42"], "sweep_area_seed42.csv"),
    (["sweep-count", "--seed", "42"], "sweep_count_seed42.csv"),
    (["adapt"], "adaptation_trace.csv"),
    (["sweep-power", "--seed", "42", "--format", "json"], "sweep_power_seed42.json"),
    (["adapt", "--format", "json"], "adaptation_trace.json"),
    (["predict", "--loss", "20", "--power", "9", "--format", "json"], "predict_loss20_power9.json"),
]


def regenerate() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for argv, name in RUNS:
        out = GOLDEN / name
        status = main([*argv, "--out", str(out)])
        if status != 0:
            raise SystemExit(f"{argv} exited with status {status}")
        print(f"wrote {out}")


if __name__ == "__main__":
    regenerate()
