"""Smoke runs of scripts/compare_documents.py: it finds no difference in one tree and sees a real one."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "compare_documents.py"
SRC = ROOT / "src"


def _compare(old: Path, new: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT), str(old), str(new), "--seeds", "2"],
                          capture_output=True, text=True, timeout=60)


def test_a_tree_matches_itself():
    proc = _compare(SRC, SRC)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 of 20 documents differ\n"


def test_a_changed_constant_is_reported(tmp_path):
    shutil.copytree(SRC / "fanetsim", tmp_path / "fanetsim", ignore=shutil.ignore_patterns("__pycache__"))
    link = tmp_path / "fanetsim" / "link.py"
    link.write_text(link.read_text().replace("SPEED_OF_LIGHT_M_S = 3.0e8", "SPEED_OF_LIGHT_M_S = 2.99792458e8"))
    proc = _compare(SRC, tmp_path)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "20 of 20 documents differ"
    assert "sweep-power csv 0" in lines and "fit json 1" in lines
