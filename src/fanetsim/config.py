"""Run configuration: defaults, JSON config files, command-line overrides.

Precedence is defaults < config file < flags (rightmost wins). Unknown keys
are rejected, every validation error names the offending key, and the
merged configuration can be echoed back out as a config file that
reproduces the run byte for byte. Each key is declared once, with its
default and its check, as one RunConfig field; the CLI derives its flags.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from typing import Any, Callable, Mapping

from fanetsim.adaptation import AdaptationPolicy, PowerRung, default_policy
from fanetsim.curves import CurveFamily, LossCurve, default_curve_family
from fanetsim.link import BerModel, RadioParams
from fanetsim.rng import MASK64
from fanetsim.sweeps import (
    DEFAULT_AREA_AXIS_M,
    DEFAULT_COUNT_AXIS,
    DEFAULT_FREQUENCY_AXIS_HZ,
    DEFAULT_POWER_AXIS_DBM,
    SweepAxis,
    SweepSpec,
)
from fanetsim.topology import AreaSpec

Check = Callable[[Any, str], Any]  # (value, key) -> validated value, or raises ConfigError


class ConfigError(Exception):
    """Invalid configuration; the message names the offending key."""


def _require(condition: bool, key: str, want: str) -> None:
    if not condition:
        raise ConfigError(f"{key}: {want}")


def _int(minimum: int, maximum: int | None = None) -> Check:
    def check(value: Any, key: str) -> int:
        _require(isinstance(value, int) and not isinstance(value, bool), key, "must be an integer")
        _require(value >= minimum, key, f"must be >= {minimum}")
        _require(maximum is None or value <= maximum, key, f"must be <= {maximum}")
        return value

    return check


def _number(positive: bool = False) -> Check:
    def check(value: Any, key: str) -> float:
        # json.loads lets NaN and Infinity through.
        finite = math.isfinite(value) if isinstance(value, float) else isinstance(value, int)
        _require(finite and not isinstance(value, bool), key, "must be a number")
        _require(not positive or value > 0, key, "must be positive")
        return float(value)

    return check


def _one_of(*choices: Any) -> Check:
    def check(value: Any, key: str) -> Any:
        _require(value in choices, key, f"must be one of {json.dumps(choices)}")
        return value

    return check


def _increasing(item: Check, power: Callable[[Any], float] | None = None) -> Check:
    """A non-empty list of items, strictly increasing in themselves or in their power."""

    def check(value: Any, key: str) -> tuple:
        _require(isinstance(value, (list, tuple)) and len(value) > 0, key, "must be a non-empty list")
        out = tuple(item(v, key) for v in value)
        order = [power(v) for v in out] if power else out
        _require(all(hi > lo for lo, hi in zip(order, order[1:])), key,
                 f"{'powers ' if power else ''}must be strictly increasing")
        return out

    return check


_CURVE_KEYS = ("power_dbm", "slope", "intercept")  # the LossCurve fields, in document order


def _curve(entry: Any, key: str) -> dict:
    _require(isinstance(entry, Mapping), key, "entries must be objects")
    _require(set(entry) == set(_CURVE_KEYS), key, f"entries must have exactly the keys {', '.join(_CURVE_KEYS)}")
    return {name: _number()(entry[name], key) for name in _CURVE_KEYS}


def _rung(entry: Any, key: str) -> tuple[float, float]:
    _require(isinstance(entry, (list, tuple)) and len(entry) == 2, key,
             "entries must be [power_dbm, loss_threshold_percent] pairs")
    return _number()(entry[0], key), _number()(entry[1], key)


def _path(value: Any, key: str) -> str | None:
    _require(value is None or isinstance(value, str), key, "must be a path or null")
    return value


_STOCK_SWEEP = SweepSpec(42, SweepAxis.POWER_DBM, DEFAULT_POWER_AXIS_DBM)
_STOCK_POLICY = default_policy()

# Every config key in document order: its default and the check a file or flag value must pass.
_KEYS: dict[str, tuple[Any, Check]] = {
    "seed": (_STOCK_SWEEP.base_seed, _int(0, MASK64)),
    "num_uavs": (_STOCK_SWEEP.num_uavs, _int(2)),
    "area_width_m": (_STOCK_SWEEP.area.width_m, _number(positive=True)),
    "area_height_m": (_STOCK_SWEEP.area.height_m, _number(positive=True)),
    "num_pairs": (_STOCK_SWEEP.num_pairs, _int(1)),
    "tx_power_dbm": (_STOCK_SWEEP.radio.tx_power_dbm, _number()),
    "noise_floor_dbm": (_STOCK_SWEEP.radio.noise_floor_dbm, _number()),
    "frequency_hz": (_STOCK_SWEEP.radio.frequency_hz, _number(positive=True)),
    # Carried for config fidelity; no formula consumes it.
    "bandwidth_hz": (2e6, _number(positive=True)),
    "ber_model": (_STOCK_SWEEP.radio.ber_model.value, _one_of(*(m.value for m in BerModel))),
    "packet_sizes_bits": (_STOCK_SWEEP.packet_sizes, _increasing(_int(1))),
    "power_axis_dbm": (DEFAULT_POWER_AXIS_DBM, _increasing(_number())),
    "frequency_axis_hz": (DEFAULT_FREQUENCY_AXIS_HZ, _increasing(_number(positive=True))),
    "area_axis_m": (DEFAULT_AREA_AXIS_M, _increasing(_number(positive=True))),
    "count_axis": (DEFAULT_COUNT_AXIS, _increasing(_int(2))),
    "replicates": (_STOCK_SWEEP.replicates, _int(1)),
    "curves": (
        tuple({name: getattr(c, name) for name in _CURVE_KEYS} for c in default_curve_family().curves),
        _increasing(_curve, power=lambda c: c["power_dbm"]),
    ),
    "rungs": (
        tuple((r.power_dbm, r.loss_threshold_percent) for r in _STOCK_POLICY.rungs),
        _increasing(_rung, power=lambda r: r[0]),
    ),
    "initial_packet_bits": (_STOCK_POLICY.initial_packet_bits, _int(1)),
    "growth_step_bits": (_STOCK_POLICY.growth_step_bits, _int(0)),
    "backoff_bits": (_STOCK_POLICY.backoff_bits, _int(0)),
    "max_ticks": (_STOCK_POLICY.max_ticks, _int(1)),
    "format": (None, _one_of(None, "csv", "json")),  # None: the command's own format
    "out": (None, _path),
}
RunConfig = namedtuple("RunConfig", _KEYS, defaults=[default for default, _ in _KEYS.values()])
_CHECKS = {key: check for key, (_, check) in _KEYS.items()}


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
            if key not in _CHECKS:
                raise ConfigError(f"unknown config key: {key}")
            merged[key] = value

    for key, value in (overrides or {}).items():
        if key not in _CHECKS:
            raise ConfigError(f"unknown config key: {key}")
        if value is not None:
            merged[key] = value

    validated = {key: _CHECKS[key](value, key) for key, value in merged.items()}
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
    for key, value in cfg._asdict().items():
        if isinstance(value, tuple):
            value = [dict(v) if isinstance(v, Mapping) else (list(v) if isinstance(v, tuple) else v) for v in value]
        out[key] = value
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
    return CurveFamily(tuple(LossCurve(**c) for c in cfg.curves))


def adaptation_policy(cfg: RunConfig) -> AdaptationPolicy:
    return AdaptationPolicy(
        rungs=tuple(PowerRung(*rung) for rung in cfg.rungs),
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
