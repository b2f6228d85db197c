"""Configuration merging, validation, and echo round-trip."""

import json

import pytest

from fanetsim import DEFAULT_POWER_AXIS_DBM, BerModel, SweepAxis, SweepSpec
from fanetsim.config import (
    ConfigError,
    adaptation_policy,
    area_spec,
    config_to_dict,
    curve_family,
    parse_config,
    radio_params,
    sweep_spec,
)


def test_defaults_without_file_or_flags():
    cfg = parse_config(None, {})
    assert cfg.seed == 42
    assert cfg.num_uavs == 20
    assert cfg.area_width_m == 1500.0
    assert cfg.area_height_m == 1500.0
    assert cfg.num_pairs == 10
    assert cfg.tx_power_dbm == 7.0
    assert cfg.noise_floor_dbm == -100.0
    assert cfg.frequency_hz == 2.4e9
    assert cfg.bandwidth_hz == 2e6
    assert cfg.ber_model == "exp-half-snr"
    assert cfg.packet_sizes_bits == (10, 100, 1000, 10000)
    assert cfg.power_axis_dbm == (5.0, 7.0, 9.0)
    assert cfg.replicates == 1
    assert cfg.format is None
    assert cfg.out is None


def test_empty_file_equals_defaults():
    assert parse_config("{}", {}) == parse_config(None, {})


def test_run_config_is_an_immutable_value():
    cfg = parse_config(None, {"seed": 7})
    assert parse_config('{"seed": 7}', {}) == cfg
    for name in (*cfg._fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(cfg, name, None)


def test_file_overrides_defaults_and_flags_override_file():
    file_text = json.dumps({"num_uavs": 30, "seed": 7})
    cfg = parse_config(file_text, {})
    assert cfg.num_uavs == 30
    assert cfg.seed == 7
    cfg = parse_config(file_text, {"seed": 8})
    assert cfg.seed == 8
    assert cfg.num_uavs == 30


def test_none_overrides_are_ignored():
    cfg = parse_config(json.dumps({"seed": 7}), {"seed": None, "num_uavs": None})
    assert cfg.seed == 7
    assert cfg.num_uavs == 20


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown config key: nm_uavs"):
        parse_config(json.dumps({"nm_uavs": 3}), {})
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config(None, {"frequency": 1e9})


def test_malformed_file_rejected():
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config("{seed: 42", {})
    with pytest.raises(ConfigError, match="JSON object"):
        parse_config("[1, 2, 3]", {})


@pytest.mark.parametrize(
    "key,value",
    [
        ("seed", -1),
        ("seed", 2**64),
        ("seed", 1.5),
        ("num_uavs", 1),
        ("area_width_m", 0),
        ("area_height_m", -5),
        ("num_pairs", 0),
        ("frequency_hz", -2.4e9),
        ("bandwidth_hz", 0),
        ("ber_model", "gaussian"),
        ("packet_sizes_bits", []),
        ("packet_sizes_bits", [100, 10]),
        ("packet_sizes_bits", [0, 10]),
        ("power_axis_dbm", [9.0, 5.0]),
        ("frequency_axis_hz", [2.4e9, -5.8e9]),
        ("area_axis_m", []),
        ("count_axis", [1, 5]),
        ("count_axis", [5, 5]),
        ("replicates", 0),
        ("initial_packet_bits", 0),
        ("growth_step_bits", -1),
        ("backoff_bits", -2),
        ("max_ticks", 0),
        ("format", "xml"),
        ("out", 7),
        ("curves", []),
        ("curves", [{"power_dbm": 5.0, "slope": 1.0}]),
        ("rungs", [[7.0, 40.0], [5.0, 50.0]]),
    ],
)
def test_invalid_values_name_the_key(key, value):
    with pytest.raises(ConfigError, match=key.split("_")[0]):
        parse_config(json.dumps({key: value}), {})


def test_error_message_names_frequency_key():
    with pytest.raises(ConfigError, match="frequency_hz"):
        parse_config(json.dumps({"frequency_hz": -1}), {})


def test_cross_key_checks():
    with pytest.raises(ConfigError, match="num_pairs"):
        parse_config(json.dumps({"num_uavs": 3, "num_pairs": 7}), {})
    with pytest.raises(ConfigError, match="rungs"):
        parse_config(json.dumps({"rungs": [[6.0, 50.0]]}), {})


def test_echo_round_trip_reproduces_config():
    cfg = parse_config(json.dumps({"seed": 9, "replicates": 4, "format": "json"}), {"num_uavs": 25})
    echoed = json.dumps(config_to_dict(cfg))
    assert parse_config(echoed, {}) == cfg


def test_builders_produce_domain_objects():
    cfg = parse_config(None, {})
    assert area_spec(cfg).width_m == 1500.0
    radio = radio_params(cfg)
    assert radio.tx_power_dbm == 7.0
    assert radio.ber_model is BerModel.EXP_HALF_SNR
    family = curve_family(cfg)
    assert family.powers == (5.0, 7.0, 9.0)
    assert family.curve_at(5.0).slope == 6.8
    policy = adaptation_policy(cfg)
    assert [r.power_dbm for r in policy.rungs] == [5.0, 7.0, 9.0]
    assert [r.loss_threshold_percent for r in policy.rungs] == [50.0, 40.0, 30.0]
    assert policy.initial_packet_bits == 20
    spec = sweep_spec(cfg, SweepAxis.AREA_SIDE_M)
    assert spec.axis is SweepAxis.AREA_SIDE_M
    assert spec.axis_values == (500.0, 1000.0, 1500.0, 2000.0, 3000.0)
    assert spec.base_seed == 42
    count_spec = sweep_spec(cfg, SweepAxis.UAV_COUNT)
    assert count_spec.axis_values == (5.0, 10.0, 20.0, 40.0, 80.0)


def test_default_power_spec_is_the_stock_sweep_spec():
    assert sweep_spec(parse_config(None), SweepAxis.POWER_DBM) == SweepSpec(42, SweepAxis.POWER_DBM, DEFAULT_POWER_AXIS_DBM)
