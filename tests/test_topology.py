"""Topology generation, geometry, and serialization."""

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanetsim import AreaSpec, Topology, distance, generate_topology, parse_topology, serialize_topology
from fanetsim.rng import MASK64, SplitMix64


def test_area_requires_positive_dimensions():
    with pytest.raises(ValueError, match="^area dimensions must be positive$"):
        AreaSpec(0.0, 1500.0)
    with pytest.raises(ValueError, match="^area dimensions must be positive$"):
        AreaSpec(1500.0, -1.0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: AreaSpec(3.0, 4.0),
        lambda: Topology(((0.0, 0.0), (1.0, 2.0)), ((0, 1),), 7, AreaSpec(3.0, 4.0)),
    ],
)
def test_records_are_immutable_values(make):
    record = make()
    assert make() == record
    for name in (*record._fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_positions_within_bounds_and_pairs_valid(seed42_topology):
    t = seed42_topology
    assert t.num_uavs == 20
    for x, y in t.positions:
        assert 0.0 <= x <= 1500.0
        assert 0.0 <= y <= 1500.0
    assert len(t.pairs) == 10
    assert len(set(t.pairs)) == 10
    for src, dst in t.pairs:
        assert src != dst
        assert 0 <= src < 20
        assert 0 <= dst < 20


def test_two_uavs_two_pairs_exhausts_ordered_pairs():
    t = generate_topology(5, 2, AreaSpec(100.0, 100.0), 2)
    assert set(t.pairs) == {(0, 1), (1, 0)}


def test_regeneration_is_identical(seed42_topology):
    again = generate_topology(42, 20, AreaSpec(1500.0, 1500.0), 10)
    assert again == seed42_topology


def test_golden_seed42_document(seed42_topology, golden_dir):
    golden = (golden_dir / "topology_seed42.json").read_text(encoding="utf-8")
    assert serialize_topology(seed42_topology) == golden


def test_invalid_generation_arguments():
    area = AreaSpec(100.0, 100.0)
    with pytest.raises(ValueError):
        generate_topology(1, 1, area, 0)
    with pytest.raises(ValueError):
        generate_topology(1, 3, area, 7)  # only 6 ordered pairs exist
    with pytest.raises(ValueError):
        generate_topology(1, 3, area, -1)


def _manual_topology(positions, pairs=((0, 1),)):
    return Topology(tuple(positions), tuple(pairs), 0, AreaSpec(1500.0, 1500.0))


def test_distance_same_index_is_zero(seed42_topology):
    for i in range(seed42_topology.num_uavs):
        assert distance(seed42_topology, i, i) == 0.0


def test_distance_pythagorean_triple():
    t = _manual_topology([(0.0, 0.0), (3.0, 4.0)])
    assert distance(t, 0, 1) == 5.0


def test_distance_area_diagonal():
    t = _manual_topology([(0.0, 0.0), (1500.0, 1500.0)])
    assert distance(t, 0, 1) == pytest.approx(1500.0 * math.sqrt(2.0), abs=1e-9)
    assert round(distance(t, 0, 1), 2) == 2121.32


def test_distance_index_out_of_range(seed42_topology):
    with pytest.raises(ValueError):
        distance(seed42_topology, 0, 20)
    with pytest.raises(ValueError):
        distance(seed42_topology, -1, 0)


def test_distance_symmetry_and_nonnegativity(seed42_topology):
    n = seed42_topology.num_uavs
    for i in range(n):
        for j in range(n):
            d = distance(seed42_topology, i, j)
            assert d >= 0.0
            assert d == distance(seed42_topology, j, i)


def test_triangle_inequality(seed42_topology):
    n = seed42_topology.num_uavs
    for i in range(n):
        for j in range(n):
            for k in range(n):
                dij = distance(seed42_topology, i, j)
                dik = distance(seed42_topology, i, k)
                dkj = distance(seed42_topology, k, j)
                assert dij <= dik + dkj + 1e-9


def test_serialize_round_trip(seed42_topology):
    assert parse_topology(serialize_topology(seed42_topology)) == seed42_topology


def test_two_uav_document_has_two_position_records():
    t = generate_topology(9, 2, AreaSpec(10.0, 10.0), 1)
    doc = json.loads(serialize_topology(t))
    assert len(doc["positions"]) == 2
    assert len(doc["pairs"]) == 1


def test_bounds_hold_for_randomized_parameterizations():
    picker = random.Random(4242)
    for _ in range(1000):
        num_uavs = picker.randint(2, 12)
        width = picker.uniform(1.0, 5000.0)
        height = picker.uniform(1.0, 5000.0)
        max_pairs = num_uavs * (num_uavs - 1)
        num_pairs = picker.randint(1, max_pairs)
        seed = picker.getrandbits(64)
        t = generate_topology(seed, num_uavs, AreaSpec(width, height), num_pairs)
        assert all(0.0 <= x <= width and 0.0 <= y <= height for x, y in t.positions)
        assert len(set(t.pairs)) == num_pairs


def _all_pairs_topology(seed, num_uavs, area, num_pairs):
    """The original generator: scalar draws and a list of all n(n-1) ordered pairs."""
    rng = SplitMix64(seed)
    positions = []
    for _ in range(num_uavs):
        x = rng.next_uniform() * area.width_m
        y = rng.next_uniform() * area.height_m
        positions.append((x, y))
    all_pairs = [(i, j) for i in range(num_uavs) for j in range(num_uavs) if i != j]
    pairs = [all_pairs.pop(int(rng.next_uniform() * len(all_pairs))) for _ in range(num_pairs)]
    return Topology(tuple(positions), tuple(pairs), seed, area)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.one_of(st.integers(0, MASK64), st.sampled_from([0, MASK64])),
    num_uavs=st.integers(2, 25),
    width=st.floats(0.5, 5000.0),
    height=st.floats(0.5, 5000.0),
    data=st.data(),
)
def test_generation_matches_all_pairs_reference(seed, num_uavs, width, height, data):
    num_pairs = data.draw(st.integers(0, num_uavs * (num_uavs - 1)))
    area = AreaSpec(width, height)
    t = generate_topology(seed, num_uavs, area, num_pairs)
    assert t == _all_pairs_topology(seed, num_uavs, area, num_pairs)
    assert all(type(x) is float and type(y) is float for x, y in t.positions)


def test_huge_swarm_generates_without_the_pair_list():
    # 10**10 ordered pairs: the all-pairs list could not be built.
    t = generate_topology(3, 100_000, AreaSpec(1500.0, 1500.0), 10)
    assert t.num_uavs == 100_000
    assert len(set(t.pairs)) == 10
    for src, dst in t.pairs:
        assert src != dst
        assert 0 <= src < 100_000
        assert 0 <= dst < 100_000
