"""The golden runs: each argv and the file under tests/golden/ that its output must equal.

scripts/regenerate_golden.py writes the files from this list, and the
tests compare every run against them.
"""

from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

GOLDEN_RUNS = [
    (["topology", "--seed", "42", "--format", "json"], "topology_seed42.json"),
    (["sweep-power", "--seed", "42"], "sweep_power_seed42.csv"),
    (["sweep-frequency", "--seed", "42"], "sweep_frequency_seed42.csv"),
    (["sweep-area", "--seed", "42"], "sweep_area_seed42.csv"),
    (["sweep-count", "--seed", "42"], "sweep_count_seed42.csv"),
    (["adapt"], "adaptation_trace.csv"),
    (["sweep-power", "--seed", "42", "--format", "json"], "sweep_power_seed42.json"),
    (["adapt", "--format", "json"], "adaptation_trace.json"),
    (["predict", "--loss", "20", "--power", "9", "--format", "json"], "predict_loss20_power9.json"),
    (["fit", "--seed", "42"], "fit_seed42.csv"),
    (["fit", "--seed", "42", "--format", "json"], "fit_seed42.json"),
]
