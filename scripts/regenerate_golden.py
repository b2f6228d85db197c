#!/usr/bin/env python3
"""Regenerate the committed golden datasets listed in tests/golden_runs.py.

Run only when a behaviour change is intended; the test suite compares
every run against these bytes.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from golden_runs import GOLDEN_DIR, GOLDEN_RUNS  # noqa: E402

from fanetsim.cli import main  # noqa: E402


def regenerate() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for argv, name in GOLDEN_RUNS:
        out = GOLDEN_DIR / name
        status = main([*argv, "--out", str(out)])
        if status != 0:
            raise SystemExit(f"{argv} exited with status {status}")
        print(f"wrote {out}")


if __name__ == "__main__":
    regenerate()
