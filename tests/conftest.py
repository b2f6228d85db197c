from pathlib import Path

import pytest
from golden_runs import GOLDEN_DIR

from fanetsim import AreaSpec, generate_topology


@pytest.fixture(scope="session")
def golden_dir() -> Path:
    return GOLDEN_DIR


@pytest.fixture(scope="session")
def seed42_topology():
    return generate_topology(42, 20, AreaSpec(1500.0, 1500.0), 10)
