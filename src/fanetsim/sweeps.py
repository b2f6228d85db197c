"""Experiment grids: mean packet loss across power, frequency, area, and swarm size.

Each sweep evaluates every (axis value, packet size) cell on deterministic
replicate topologies seeded base_seed + r, and reports the mean and
population standard deviation of the per-topology pair-mean loss.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from fanetsim.link import RadioParams, pair_mean_losses_percent
from fanetsim.rng import MASK64
from fanetsim.topology import AreaSpec, generate_topology

DEFAULT_PACKET_SIZES = (10, 100, 1000, 10000)
DEFAULT_POWER_AXIS_DBM = (5.0, 7.0, 9.0)
DEFAULT_FREQUENCY_AXIS_HZ = (2.4e9, 5.8e9, 2.8e10)
DEFAULT_AREA_AXIS_M = (500.0, 1000.0, 1500.0, 2000.0, 3000.0)
DEFAULT_COUNT_AXIS = (5, 10, 20, 40, 80)


class SweepAxis(Enum):
    POWER_DBM = "power_dbm"
    FREQUENCY_HZ = "frequency_hz"
    AREA_SIDE_M = "area_side_m"
    UAV_COUNT = "uav_count"


# A NamedTuple body may not define __new__, so SweepSpec's checks run in a subclass.
class _SweepSpec(NamedTuple):
    base_seed: int
    axis: SweepAxis
    axis_values: tuple[float, ...]
    num_uavs: int = 20
    area: AreaSpec = AreaSpec(1500.0, 1500.0)
    num_pairs: int = 10
    radio: RadioParams = RadioParams()
    packet_sizes: tuple[int, ...] = DEFAULT_PACKET_SIZES
    replicates: int = 1


class SweepSpec(_SweepSpec):
    """One experiment grid: topology parameters, radio, packet sizes, swept axis."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.axis_values:
            raise ValueError("axis_values must be non-empty")
        if any(hi <= lo for lo, hi in zip(self.axis_values, self.axis_values[1:])):
            raise ValueError("axis_values must be strictly increasing")
        if not self.packet_sizes:
            raise ValueError("packet_sizes must be non-empty")
        if any(not isinstance(s, int) or s < 1 for s in self.packet_sizes):
            raise ValueError("packet sizes must be integers >= 1")
        if any(hi <= lo for lo, hi in zip(self.packet_sizes, self.packet_sizes[1:])):
            raise ValueError("packet_sizes must be strictly increasing")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.num_uavs < 2:
            raise ValueError("num_uavs must be at least 2")
        if self.num_pairs < 1:
            raise ValueError("num_pairs must be >= 1")
        return self


class SweepRow(NamedTuple):
    axis_value: float
    packet_size_bits: int
    mean_loss_percent: float
    std_loss_percent: float


class SweepResult(NamedTuple):
    spec: SweepSpec
    rows: tuple[SweepRow, ...]


def _grid_point(spec: SweepSpec, value: float) -> tuple[RadioParams, int, AreaSpec]:
    """The radio, swarm size and flight area that one axis value stands for.

    A swept radio is rebuilt through RadioParams, whose check _replace skips.
    """
    if spec.axis is SweepAxis.POWER_DBM:
        return RadioParams(*spec.radio._replace(tx_power_dbm=value)), spec.num_uavs, spec.area
    if spec.axis is SweepAxis.FREQUENCY_HZ:
        return RadioParams(*spec.radio._replace(frequency_hz=value)), spec.num_uavs, spec.area
    if spec.axis is SweepAxis.AREA_SIDE_M:
        return spec.radio, spec.num_uavs, AreaSpec(value, value)
    count = int(value)
    if count != value or count < 2:
        raise ValueError(f"UAV count axis values must be integers >= 2, got {value}")
    return spec.radio, count, spec.area


def _pair_distances(spec: SweepSpec, r: int, num_uavs: int, area: AreaSpec) -> list[float]:
    """Pair distances of replicate r (seed base_seed + r), in pair order; coincident UAVs are named."""
    topology = generate_topology((spec.base_seed + r) & MASK64, num_uavs, area, spec.num_pairs)
    positions = topology.positions
    distances = []
    for src, dst in topology.pairs:
        # topology.distance without its index checks; not math.dist, which rounds differently.
        xi, yi = positions[src]
        xj, yj = positions[dst]
        dx = xi - xj
        dy = yi - yj
        d = math.sqrt(dx * dx + dy * dy)
        if d <= 0:
            raise ValueError(f"replicate seed {topology.seed}: the UAVs of pair ({src}, {dst}) coincide")
        distances.append(d)
    return distances


def _mean(values: list[float]) -> float:
    # fsum is correctly rounded. 0.0 + turns a sum of -0.0 into 0.0, so no cell prints as -0.
    return (0.0 + math.fsum(values)) / len(values)


def _std(values: list[float]) -> float:
    """Population standard deviation."""
    mean = _mean(values)
    return math.sqrt(math.fsum([(v - mean) * (v - mean) for v in values]) / len(values))


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Loss vs packet size for each value of the spec's axis.

    Power and frequency values share the replicate topologies; area and count
    values draw new ones. Each link budget is evaluated once per (replicate,
    pair, axis value), and its BER gives the loss at every packet size.

    Under a pure free-space model the swarm size leaves the pair-distance
    distribution unchanged, so the count sweep is flat in expectation: the
    count only changes sampling variability, and no trend is asserted.
    """
    distances: dict[tuple[int, AreaSpec], list[list[float]]] = {}
    rows = []
    for value in spec.axis_values:
        radio, num_uavs, area = _grid_point(spec, value)
        if (num_uavs, area) not in distances:
            distances[num_uavs, area] = [_pair_distances(spec, r, num_uavs, area) for r in range(spec.replicates)]
        per_replicate = [pair_mean_losses_percent(d, radio, spec.packet_sizes) for d in distances[num_uavs, area]]
        label = float(num_uavs) if spec.axis is SweepAxis.UAV_COUNT else value
        for k, size in enumerate(spec.packet_sizes):
            losses = [means[k] for means in per_replicate]
            rows.append(SweepRow(label, size, _mean(losses), _std(losses)))
    return SweepResult(spec, tuple(rows))

