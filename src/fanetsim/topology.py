"""UAV constellation generation and geometry.

A topology is a static 2-D snapshot: node coordinates drawn uniformly in a
rectangle plus a set of directional source/destination pairs.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

from fanetsim.rng import SplitMix64, distinct_indices


# A NamedTuple body may not define __new__, so AreaSpec's checks run in a subclass.
class _AreaSpec(NamedTuple):
    width_m: float
    height_m: float


class AreaSpec(_AreaSpec):
    """Rectangular flight area, in meters."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (self.width_m > 0 and self.height_m > 0):
            raise ValueError("area dimensions must be positive")
        return self


class Topology(NamedTuple):
    """Immutable constellation snapshot: positions, directional pairs, and provenance."""

    positions: tuple[tuple[float, float], ...]
    pairs: tuple[tuple[int, int], ...]
    seed: int
    area: AreaSpec

    @property
    def num_uavs(self) -> int:
        return len(self.positions)


def generate_topology(seed: int, num_uavs: int, area: AreaSpec, num_pairs: int) -> Topology:
    """Generate node coordinates and communicating pairs from a single seed.

    Draw order is fixed (x before y, node 0 first, then one draw per pair)
    and pair index idx names the idx-th directional pair (i, j), i != j, in
    lexicographic order, so the same seed regenerates the identical topology
    anywhere. Time and memory are O(n + k log k): the n(n-1) candidate pairs
    are decoded arithmetically, never listed.
    """
    if num_uavs < 2:
        raise ValueError("num_uavs must be at least 2")
    max_pairs = num_uavs * (num_uavs - 1)
    if num_pairs < 0 or num_pairs > max_pairs:
        raise ValueError(f"num_pairs must be in [0, {max_pairs}] for {num_uavs} UAVs")

    draws = SplitMix64(seed).uniforms(2 * num_uavs + num_pairs)
    w, h = area.width_m, area.height_m
    positions = tuple((x * w, y * h) for x, y in zip(draws[0 : 2 * num_uavs : 2], draws[1 : 2 * num_uavs : 2]))
    pairs = []
    for idx in distinct_indices(max_pairs, draws[2 * num_uavs :]):
        i, r = divmod(idx, num_uavs - 1)
        pairs.append((i, r + (r >= i)))
    return Topology(positions, tuple(pairs), seed, area)


def distance(topology: Topology, i: int, j: int) -> float:
    """Euclidean distance in meters between nodes i and j."""
    n = len(topology.positions)
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"UAV index out of range for {n} UAVs")
    xi, yi = topology.positions[i]
    xj, yj = topology.positions[j]
    dx = xi - xj
    dy = yi - yj
    return math.sqrt(dx * dx + dy * dy)


def serialize_topology(topology: Topology) -> str:
    """Round-trippable JSON document (full-precision coordinates)."""
    doc = {
        "seed": topology.seed,
        "area": {"width": topology.area.width_m, "height": topology.area.height_m},
        "positions": [[x, y] for x, y in topology.positions],
        "pairs": [[src, dst] for src, dst in topology.pairs],
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_topology(text: str) -> Topology:
    doc = json.loads(text)
    area = AreaSpec(float(doc["area"]["width"]), float(doc["area"]["height"]))
    positions = tuple((float(x), float(y)) for x, y in doc["positions"])
    pairs = tuple((int(src), int(dst)) for src, dst in doc["pairs"])
    return Topology(positions, pairs, int(doc["seed"]), area)
