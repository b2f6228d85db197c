"""Run configuration: defaults, JSON config files, command-line overrides.

Precedence is defaults < config file < flags (rightmost wins). Unknown keys
are rejected, every validation error names the offending key, and the
merged configuration can be echoed back out as a config file that
reproduces the run byte for byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import Any, Mapping

from fanetsim.adaptation import AdaptationPolicy, PowerRung
from fanetsim.curves import CurveFamily, LossCurve
from fanetsim.link import BerModel, RadioParams
from fanetsim.rng import MASK64
from fanetsim.sweeps import (
    DEFAULT_AREA_AXIS_M,
    DEFAULT_COUNT_AXIS,
    DEFAULT_FREQUENCY_AXIS_HZ,
    DEFAULT_PACKET_SIZES,
    DEFAULT_POWER_AXIS_DBM,
    SweepAxis,
    SweepSpec,
)
from fanetsim.topology import AreaSpec

DEFAULT_CURVES = (
    {"power_dbm": 5.0, "slope": 6.8, "intercept": 26.0},
    {"power_dbm": 7.0, "slope": 7.1, "intercept": 4.0},
    {"power_dbm": 9.0, "slope": 6.2, "intercept": -6.0},
)
DEFAULT_RUNGS = ((5.0, 50.0), (7.0, 40.0), (9.0, 30.0))


class ConfigError(Exception):
    """Invalid configuration; the message names the offending key."""


@dataclass(frozen=True)
class RunConfig:
    seed: int = 42
    num_uavs: int = 20
    area_width_m: float = 1500.0
    area_height_m: float = 1500.0
    num_pairs: int = 10
    tx_power_dbm: float = 7.0
    noise_floor_dbm: float = -100.0
    frequency_hz: float = 2.4e9
    bandwidth_hz: float = 2e6  # carried for config fidelity; no formula consumes it
    ber_model: str = "exp-half-snr"
    packet_sizes_bits: tuple[int, ...] = DEFAULT_PACKET_SIZES
    power_axis_dbm: tuple[float, ...] = DEFAULT_POWER_AXIS_DBM
    frequency_axis_hz: tuple[float, ...] = DEFAULT_FREQUENCY_AXIS_HZ
    area_axis_m: tuple[float, ...] = DEFAULT_AREA_AXIS_M
    count_axis: tuple[int, ...] = DEFAULT_COUNT_AXIS
    replicates: int = 1
    curves: tuple[dict, ...] = DEFAULT_CURVES
    rungs: tuple[tuple[float, float], ...] = DEFAULT_RUNGS
    initial_packet_bits: int = 20
    growth_step_bits: int = 10
    backoff_bits: int = 20
    max_ticks: int = 10000
    format: str = "csv"
    out: str | None = None


_CONFIG_KEYS = tuple(f.name for f in fields(RunConfig))


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)  # json.loads lets NaN/Infinity through
    return _is_int(value)


def _require(condition: bool, key: str, want: str) -> None:
    if not condition:
        raise ConfigError(f"{key}: {want}")


def _check_int(value: Any, key: str, minimum: int | None = None) -> int:
    _require(_is_int(value), key, "must be an integer")
    if minimum is not None:
        _require(value >= minimum, key, f"must be >= {minimum}")
    return value


def _check_number(value: Any, key: str, positive: bool = False) -> float:
    _require(_is_number(value), key, "must be a number")
    if positive:
        _require(value > 0, key, "must be positive")
    return float(value)


def _check_increasing_numbers(value: Any, key: str, positive: bool = False) -> tuple[float, ...]:
    _require(isinstance(value, (list, tuple)) and len(value) > 0, key, "must be a non-empty list")
    out = tuple(_check_number(v, key, positive=positive) for v in value)
    _require(all(hi > lo for lo, hi in zip(out, out[1:])), key, "must be strictly increasing")
    return out


def _check_increasing_ints(value: Any, key: str, minimum: int) -> tuple[int, ...]:
    _require(isinstance(value, (list, tuple)) and len(value) > 0, key, "must be a non-empty list")
    out = tuple(_check_int(v, key, minimum=minimum) for v in value)
    _require(all(hi > lo for lo, hi in zip(out, out[1:])), key, "must be strictly increasing")
    return out


def _check_curves(value: Any, key: str) -> tuple[dict, ...]:
    _require(isinstance(value, (list, tuple)) and len(value) > 0, key, "must be a non-empty list")
    out = []
    for entry in value:
        _require(isinstance(entry, Mapping), key, "entries must be objects")
        _require(
            set(entry.keys()) == {"power_dbm", "slope", "intercept"},
            key,
            "entries must have exactly the keys power_dbm, slope, intercept",
        )
        out.append(
            {
                "power_dbm": _check_number(entry["power_dbm"], key),
                "slope": _check_number(entry["slope"], key),
                "intercept": _check_number(entry["intercept"], key),
            }
        )
    powers = [c["power_dbm"] for c in out]
    _require(all(hi > lo for lo, hi in zip(powers, powers[1:])), key, "powers must be strictly increasing")
    return tuple(out)


def _check_rungs(value: Any, key: str) -> tuple[tuple[float, float], ...]:
    _require(isinstance(value, (list, tuple)) and len(value) > 0, key, "must be a non-empty list")
    out = []
    for entry in value:
        _require(
            isinstance(entry, (list, tuple)) and len(entry) == 2,
            key,
            "entries must be [power_dbm, loss_threshold_percent] pairs",
        )
        out.append((_check_number(entry[0], key), _check_number(entry[1], key)))
    powers = [p for p, _ in out]
    _require(all(hi > lo for lo, hi in zip(powers, powers[1:])), key, "powers must be strictly increasing")
    return tuple(out)


def _validate(key: str, value: Any) -> Any:
    if key == "seed":
        v = _check_int(value, key, minimum=0)
        _require(v <= MASK64, key, "must fit in 64 bits")
        return v
    if key == "num_uavs":
        return _check_int(value, key, minimum=2)
    if key in ("area_width_m", "area_height_m", "frequency_hz", "bandwidth_hz"):
        return _check_number(value, key, positive=True)
    if key == "num_pairs":
        return _check_int(value, key, minimum=1)
    if key in ("tx_power_dbm", "noise_floor_dbm"):
        return _check_number(value, key)
    if key == "ber_model":
        choices = [m.value for m in BerModel]
        _require(value in choices, key, f"must be one of {choices}")
        return value
    if key == "packet_sizes_bits":
        return _check_increasing_ints(value, key, minimum=1)
    if key == "power_axis_dbm":
        return _check_increasing_numbers(value, key)
    if key in ("frequency_axis_hz", "area_axis_m"):
        return _check_increasing_numbers(value, key, positive=True)
    if key == "count_axis":
        return _check_increasing_ints(value, key, minimum=2)
    if key in ("replicates", "initial_packet_bits", "max_ticks"):
        return _check_int(value, key, minimum=1)
    if key in ("growth_step_bits", "backoff_bits"):
        return _check_int(value, key, minimum=0)
    if key == "curves":
        return _check_curves(value, key)
    if key == "rungs":
        return _check_rungs(value, key)
    if key == "format":
        _require(value in ("csv", "json"), key, "must be 'csv' or 'json'")
        return value
    if key == "out":
        _require(value is None or isinstance(value, str), key, "must be a path or null")
        return value
    raise ConfigError(f"unknown config key: {key}")


def parse_config(file_text: str | None, overrides: Mapping[str, Any] | None = None) -> RunConfig:
    """Merge defaults, a JSON config file, and flag overrides into a RunConfig."""
    merged: dict[str, Any] = {}

    if file_text is not None:
        try:
            doc = json.loads(file_text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config file must contain a JSON object")
        for key, value in doc.items():
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"unknown config key: {key}")
            merged[key] = value

    for key, value in (overrides or {}).items():
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key: {key}")
        if value is not None:
            merged[key] = value

    validated = {key: _validate(key, value) for key, value in merged.items()}
    cfg = RunConfig(**validated)

    # Cross-key checks.
    max_pairs = cfg.num_uavs * (cfg.num_uavs - 1)
    _require(cfg.num_pairs <= max_pairs, "num_pairs", f"must be <= {max_pairs} for {cfg.num_uavs} UAVs")
    curve_powers = {c["power_dbm"] for c in cfg.curves}
    for power, _ in cfg.rungs:
        _require(power in curve_powers, "rungs", f"no curve defined for rung power {power} dBm")
    return cfg


def config_to_dict(cfg: RunConfig) -> dict[str, Any]:
    """Plain-JSON form of the effective configuration (stable key order)."""
    out: dict[str, Any] = {}
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = [dict(v) if isinstance(v, Mapping) else (list(v) if isinstance(v, tuple) else v) for v in value]
        out[f.name] = value
    return out


def area_spec(cfg: RunConfig) -> AreaSpec:
    return AreaSpec(cfg.area_width_m, cfg.area_height_m)


def radio_params(cfg: RunConfig) -> RadioParams:
    return RadioParams(
        tx_power_dbm=cfg.tx_power_dbm,
        noise_floor_dbm=cfg.noise_floor_dbm,
        frequency_hz=cfg.frequency_hz,
        ber_model=BerModel(cfg.ber_model),
    )


def curve_family(cfg: RunConfig) -> CurveFamily:
    return CurveFamily(
        tuple(LossCurve(c["slope"], c["intercept"], c["power_dbm"]) for c in cfg.curves)
    )


def adaptation_policy(cfg: RunConfig) -> AdaptationPolicy:
    return AdaptationPolicy(
        rungs=tuple(PowerRung(power, threshold) for power, threshold in cfg.rungs),
        initial_packet_bits=cfg.initial_packet_bits,
        growth_step_bits=cfg.growth_step_bits,
        backoff_bits=cfg.backoff_bits,
        max_ticks=cfg.max_ticks,
    )


def sweep_spec(cfg: RunConfig, axis: SweepAxis) -> SweepSpec:
    if axis is SweepAxis.UAV_COUNT:
        smallest = min(cfg.count_axis)
        max_pairs = smallest * (smallest - 1)
        _require(cfg.num_pairs <= max_pairs, "num_pairs",
                 f"must be <= {max_pairs} for the smallest count_axis value, {smallest} UAVs")
    axis_values = {
        SweepAxis.POWER_DBM: cfg.power_axis_dbm,
        SweepAxis.FREQUENCY_HZ: cfg.frequency_axis_hz,
        SweepAxis.AREA_SIDE_M: cfg.area_axis_m,
        SweepAxis.UAV_COUNT: tuple(float(c) for c in cfg.count_axis),
    }[axis]
    return SweepSpec(
        base_seed=cfg.seed,
        axis=axis,
        axis_values=axis_values,
        num_uavs=cfg.num_uavs,
        area=area_spec(cfg),
        num_pairs=cfg.num_pairs,
        radio=radio_params(cfg),
        packet_sizes=cfg.packet_sizes_bits,
        replicates=cfg.replicates,
    )
