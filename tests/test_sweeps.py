"""Sweep grids: consistency, trends, replicate statistics."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanetsim import (
    AreaSpec,
    RadioParams,
    SweepResult,
    SweepRow,
    distance,
    generate_topology,
    link_quality,
    pair_mean_losses_percent,
    run_sweep,
)
from fanetsim.sweeps import SweepAxis, SweepSpec, _mean, _std

SIZES = (10, 100, 1000, 10000)


def _chain_mean_loss(topology, radio, size):
    """The pair-mean loss in percent from the scalar chain: link_quality per pair, summed in pair order."""
    total = 0.0
    for src, dst in topology.pairs:
        total += link_quality(distance(topology, src, dst), radio, size).loss_prob * 100.0
    return total / len(topology.pairs)


def _table(result):
    return {(row.axis_value, row.packet_size_bits): row.mean_loss_percent for row in result.rows}


def _power_spec(**kwargs):
    return SweepSpec(base_seed=42, axis=SweepAxis.POWER_DBM, axis_values=(5.0, 7.0, 9.0), **kwargs)


@pytest.fixture(scope="module")
def power_result():
    return run_sweep(_power_spec())


def test_degenerate_sweep_equals_direct_mean(seed42_topology):
    spec = SweepSpec(
        base_seed=42, axis=SweepAxis.POWER_DBM, axis_values=(7.0,), packet_sizes=(1000,)
    )
    result = run_sweep(spec)
    assert len(result.rows) == 1
    row = result.rows[0]
    assert row.mean_loss_percent == _chain_mean_loss(seed42_topology, RadioParams(), 1000)
    assert row.std_loss_percent == 0.0


def test_power_sweep_shape_and_bounds(power_result):
    assert len(power_result.rows) == 12
    keys = [(row.axis_value, row.packet_size_bits) for row in power_result.rows]
    assert keys == sorted(keys)
    for row in power_result.rows:
        assert 0.0 <= row.mean_loss_percent <= 100.0
        assert row.std_loss_percent == 0.0  # single replicate


def test_loss_increases_strictly_with_packet_size(power_result):
    table = _table(power_result)
    for power in (5.0, 7.0, 9.0):
        losses = [table[(power, size)] for size in SIZES]
        assert all(b > a for a, b in zip(losses, losses[1:]))


def test_loss_decreases_strictly_with_power(power_result):
    table = _table(power_result)
    for size in SIZES:
        assert table[(5.0, size)] > table[(7.0, size)] > table[(9.0, size)]


def test_frequency_sweep_consistent_with_power_sweep():
    freq = run_sweep(
        SweepSpec(base_seed=42, axis=SweepAxis.FREQUENCY_HZ, axis_values=(2.4e9,))
    )
    power = run_sweep(
        SweepSpec(base_seed=42, axis=SweepAxis.POWER_DBM, axis_values=(7.0,))
    )
    assert [r.mean_loss_percent for r in freq.rows] == [r.mean_loss_percent for r in power.rows]


def test_loss_nondecreasing_with_frequency():
    result = run_sweep(
        SweepSpec(base_seed=42, axis=SweepAxis.FREQUENCY_HZ, axis_values=(2.4e9, 5.8e9, 2.8e10))
    )
    table = _table(result)
    for size in SIZES:
        losses = [table[(f, size)] for f in (2.4e9, 5.8e9, 2.8e10)]
        assert all(b >= a for a, b in zip(losses, losses[1:]))


def test_area_sweep_single_cell_matches_power_sweep():
    area = run_sweep(
        SweepSpec(base_seed=42, axis=SweepAxis.AREA_SIDE_M, axis_values=(1500.0,))
    )
    power = run_sweep(
        SweepSpec(base_seed=42, axis=SweepAxis.POWER_DBM, axis_values=(7.0,))
    )
    assert [r.mean_loss_percent for r in area.rows] == [r.mean_loss_percent for r in power.rows]


def test_area_sweep_mean_nondecreasing_with_32_replicates():
    sides = (500.0, 1000.0, 1500.0, 2000.0, 3000.0)
    result = run_sweep(
        SweepSpec(base_seed=42, axis=SweepAxis.AREA_SIDE_M, axis_values=sides, replicates=32)
    )
    table = _table(result)
    for size in SIZES:
        losses = [table[(side, size)] for side in sides]
        assert all(b >= a for a, b in zip(losses, losses[1:]))
    for row in result.rows:
        assert row.std_loss_percent >= 0.0


def test_count_sweep_row_matches_power_sweep_at_default_count():
    count = run_sweep(
        SweepSpec(base_seed=42, axis=SweepAxis.UAV_COUNT, axis_values=(5.0, 10.0, 20.0, 40.0, 80.0))
    )
    power = run_sweep(
        SweepSpec(base_seed=42, axis=SweepAxis.POWER_DBM, axis_values=(7.0,))
    )
    count_table = _table(count)
    power_table = _table(power)
    for size in SIZES:
        assert count_table[(20.0, size)] == power_table[(7.0, size)]


def test_count_sweep_exhaustive_pairing():
    spec = SweepSpec(
        base_seed=11,
        axis=SweepAxis.UAV_COUNT,
        axis_values=(2.0,),
        num_pairs=2,
        packet_sizes=(1000,),
    )
    result = run_sweep(spec)
    topo = generate_topology(11, 2, spec.area, 2)
    assert set(topo.pairs) == {(0, 1), (1, 0)}
    assert result.rows[0].mean_loss_percent == _chain_mean_loss(topo, RadioParams(), 1000)


def test_count_sweep_argument_errors():
    with pytest.raises(ValueError):
        run_sweep(SweepSpec(base_seed=1, axis=SweepAxis.UAV_COUNT, axis_values=(1.0, 5.0)))
    with pytest.raises(ValueError):
        run_sweep(SweepSpec(base_seed=1, axis=SweepAxis.UAV_COUNT, axis_values=(2.5, 5.0)))
    with pytest.raises(ValueError):
        # 3 UAVs offer 6 ordered pairs; the default asks for 10
        run_sweep(SweepSpec(base_seed=1, axis=SweepAxis.UAV_COUNT, axis_values=(3.0,)))


def test_spec_validation():
    with pytest.raises(ValueError, match="^axis_values must be non-empty$"):
        SweepSpec(base_seed=1, axis=SweepAxis.POWER_DBM, axis_values=())
    with pytest.raises(ValueError, match="^axis_values must be strictly increasing$"):
        SweepSpec(base_seed=1, axis=SweepAxis.POWER_DBM, axis_values=(9.0, 5.0))
    with pytest.raises(ValueError, match="^replicates must be >= 1$"):
        SweepSpec(base_seed=1, axis=SweepAxis.POWER_DBM, axis_values=(5.0,), replicates=0)
    with pytest.raises(ValueError, match="^packet_sizes must be non-empty$"):
        SweepSpec(base_seed=1, axis=SweepAxis.POWER_DBM, axis_values=(5.0,), packet_sizes=())
    with pytest.raises(ValueError, match="^packet_sizes must be strictly increasing$"):
        SweepSpec(base_seed=1, axis=SweepAxis.POWER_DBM, axis_values=(5.0,), packet_sizes=(100, 10))
    with pytest.raises(ValueError, match="^packet sizes must be integers >= 1$"):
        SweepSpec(base_seed=1, axis=SweepAxis.POWER_DBM, axis_values=(5.0,), packet_sizes=(0, 10))
    with pytest.raises(ValueError, match="^num_uavs must be at least 2$"):
        SweepSpec(base_seed=1, axis=SweepAxis.POWER_DBM, axis_values=(5.0,), num_uavs=1)
    with pytest.raises(ValueError, match="^num_pairs must be >= 1$"):
        SweepSpec(base_seed=1, axis=SweepAxis.POWER_DBM, axis_values=(5.0,), num_pairs=0)


@pytest.mark.parametrize("frequency_hz", [0.0, -2.4e9])
def test_swept_radio_is_validated(frequency_hz):
    spec = SweepSpec(base_seed=1, axis=SweepAxis.FREQUENCY_HZ, axis_values=(frequency_hz, 2.4e9))
    with pytest.raises(ValueError, match="^frequency_hz must be positive$"):
        run_sweep(spec)


@pytest.mark.parametrize(
    "make",
    [
        lambda: SweepSpec(base_seed=1, axis=SweepAxis.POWER_DBM, axis_values=(5.0,)),
        lambda: SweepRow(5.0, 10, 12.5, 0.25),
        lambda: run_sweep(SweepSpec(1, SweepAxis.POWER_DBM, (5.0,), packet_sizes=(10,))),
    ],
)
def test_records_are_immutable_values(make):
    record = make()
    assert make() == record
    for name in (*record._fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_identical_specs_give_identical_results(power_result):
    again = run_sweep(_power_spec())
    assert again == power_result


def test_replicates_spread_statistics():
    spec = SweepSpec(
        base_seed=42,
        axis=SweepAxis.AREA_SIDE_M,
        axis_values=(1500.0,),
        packet_sizes=(1000,),
        replicates=3,
    )
    result = run_sweep(spec)
    row = result.rows[0]
    losses = [
        _chain_mean_loss(generate_topology(42 + r, 20, AreaSpec(1500.0, 1500.0), 10), RadioParams(), 1000)
        for r in range(3)
    ]
    assert row.mean_loss_percent == pytest.approx(sum(losses) / 3, rel=1e-12)
    assert row.std_loss_percent > 0.0


def _exact_mean(values):
    """The mean with the sum taken exactly and rounded once, then divided by n."""
    return float(sum(map(Fraction, values))) / len(values)


def _exact_std(values):
    """Population std from the exactly summed squared deviations from _exact_mean."""
    mean = _exact_mean(values)
    return math.sqrt(float(sum(Fraction((v - mean) * (v - mean)) for v in values)) / len(values))


def _reference_sweep(spec):
    """The per-cell loop: the scalar chain's pair-mean loss per replicate topology, then the exact mean and std."""
    rows = []
    for value in spec.axis_values:
        radio, num_uavs, area = spec.radio, spec.num_uavs, spec.area
        if spec.axis is SweepAxis.POWER_DBM:
            radio = RadioParams(value, radio.noise_floor_dbm, radio.frequency_hz, radio.ber_model)
        elif spec.axis is SweepAxis.FREQUENCY_HZ:
            radio = RadioParams(radio.tx_power_dbm, radio.noise_floor_dbm, value, radio.ber_model)
        elif spec.axis is SweepAxis.AREA_SIDE_M:
            area = AreaSpec(value, value)
        else:
            num_uavs = int(value)
        topologies = [
            generate_topology(spec.base_seed + r, num_uavs, area, spec.num_pairs) for r in range(spec.replicates)
        ]
        for size in spec.packet_sizes:
            losses = [_chain_mean_loss(t, radio, size) for t in topologies]
            rows.append(SweepRow(float(value), size, _exact_mean(losses), _exact_std(losses)))
    return SweepResult(spec, tuple(rows))


_AXIS_VALUES = {
    SweepAxis.POWER_DBM: st.floats(-20.0, 20.0, allow_nan=False),
    SweepAxis.FREQUENCY_HZ: st.floats(1e8, 6e10),
    SweepAxis.AREA_SIDE_M: st.floats(10.0, 5000.0),
    SweepAxis.UAV_COUNT: st.integers(6, 30).map(float),
}


@settings(max_examples=60, deadline=None)
@given(data=st.data(), axis=st.sampled_from(list(SweepAxis)))
def test_run_sweep_rows_equal_the_per_cell_reference(data, axis):
    spec = SweepSpec(
        base_seed=data.draw(st.integers(0, 2**32)),
        axis=axis,
        axis_values=tuple(sorted(data.draw(st.sets(_AXIS_VALUES[axis], min_size=1, max_size=3)))),
        num_uavs=data.draw(st.integers(6, 25)),
        num_pairs=data.draw(st.integers(1, 30)),
        packet_sizes=tuple(sorted(data.draw(st.sets(st.integers(1, 20000), min_size=1, max_size=5)))),
        replicates=data.draw(st.integers(1, 4)),
    )
    assert run_sweep(spec) == _reference_sweep(spec)


def test_run_sweep_with_130_replicates_equals_the_per_cell_reference():
    spec = SweepSpec(base_seed=7, axis=SweepAxis.POWER_DBM, axis_values=(5.0, 9.0), num_pairs=4, replicates=130)
    assert run_sweep(spec) == _reference_sweep(spec)


def _loss_like(n: int, seed: int) -> list[float]:
    """n values in [0, 1e3] with full mantissas over 24 decades, one in ten 0.0, -0.0, a subnormal or 1e3."""
    rng = random.Random(seed)
    specials = (0.0, -0.0, 5e-324, 1e-310, 1e3)
    return [
        rng.choice(specials) if rng.random() < 0.1 else rng.uniform(0.0, 1e3) * 10.0 ** -rng.randint(0, 20)
        for _ in range(n)
    ]


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 1100), seed=st.integers(0, 2**32))
def test_mean_and_std_equal_the_exact_sum_rounded_once(n, seed):
    values = _loss_like(n, seed)
    # float.hex tells 0.0 from -0.0, which == does not.
    assert _mean(values).hex() == _exact_mean(values).hex()
    assert _std(values).hex() == _exact_std(values).hex()


def test_mean_of_negative_zeros_is_positive_zero_as_in_numpy():
    values = [-0.0] * 9
    assert _mean(values).hex() == _exact_mean(values).hex() == float(np.mean(values)).hex() == "0x0.0p+0"


def test_pair_mean_losses_equal_the_scalar_chain_at_each_size(seed42_topology):
    dists = [distance(seed42_topology, src, dst) for src, dst in seed42_topology.pairs]
    radio = RadioParams(tx_power_dbm=5.0)
    sizes = (1, 10, 100, 1000, 10000, 65536)
    losses = pair_mean_losses_percent(dists, radio, sizes)
    assert losses == [_chain_mean_loss(seed42_topology, radio, size) for size in sizes]
