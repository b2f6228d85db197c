"""Threshold-ladder adaptive transmission controller.

Packet size grows by a fixed step each tick. When the loss predicted by the
current power's curve crosses that rung's threshold, the controller backs
off the packet size and escalates to the next power rung; crossing the
final rung's threshold terminates the run. Power never decreases.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from fanetsim.curves import CurveFamily, evaluate_curve


class TraceEvent(Enum):
    NONE = "none"
    ESCALATED = "escalated"
    TERMINATED = "terminated"


class NonTerminationError(RuntimeError):
    """The run exhausted its tick budget without crossing the final threshold."""


class PowerRung(NamedTuple):
    power_dbm: float
    loss_threshold_percent: float


# A NamedTuple body may not define __new__, so AdaptationPolicy's checks run in a subclass.
class _AdaptationPolicy(NamedTuple):
    rungs: tuple[PowerRung, ...]
    initial_packet_bits: int = 20
    growth_step_bits: int = 10
    backoff_bits: int = 20
    max_ticks: int = 10000


class AdaptationPolicy(_AdaptationPolicy):
    """Escalation ladder plus packet-size schedule.

    One tick is one transmission interval (a minute, in the default
    labelling); the controller itself is unit-agnostic.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.rungs:
            raise ValueError("policy needs at least one power rung")
        powers = [r.power_dbm for r in self.rungs]
        if any(hi <= lo for lo, hi in zip(powers, powers[1:])):
            raise ValueError("rung powers must be strictly increasing")
        if self.initial_packet_bits < 1:
            raise ValueError("initial_packet_bits must be >= 1")
        if self.growth_step_bits < 0 or self.backoff_bits < 0:
            raise ValueError("growth_step_bits and backoff_bits must be >= 0")
        if self.max_ticks < 1:
            raise ValueError("max_ticks must be >= 1")
        return self


def default_policy() -> AdaptationPolicy:
    """Stock ladder: 5 dBm / 50%, 7 dBm / 40%, 9 dBm / 30%; start 20 bits, +10/tick, -20 on escalation."""
    return AdaptationPolicy(
        rungs=(PowerRung(5.0, 50.0), PowerRung(7.0, 40.0), PowerRung(9.0, 30.0)),
    )


class TraceSample(NamedTuple):
    tick: int
    packet_bits: int
    loss_percent: float
    power_dbm: float
    event: TraceEvent


def run_adaptation(policy: AdaptationPolicy, family: CurveFamily) -> tuple[TraceSample, ...]:
    """Run the controller to termination; error out after max_ticks samples.

    Each tick samples the loss at the current packet size and rung. An
    escalation applies the backoff and power change before the
    unconditional per-tick growth, so a 40-bit escalation with backoff 20
    and growth 10 resumes at 30 bits on the next rung.
    """
    curves = []
    for rung in policy.rungs:
        curve = family.curve_at(rung.power_dbm)
        if curve is None:
            raise ValueError(f"no loss curve for rung power {rung.power_dbm} dBm")
        curves.append(curve)

    bits, rung_index, samples = policy.initial_packet_bits, 0, []
    for tick in range(policy.max_ticks):
        rung = policy.rungs[rung_index]
        loss = evaluate_curve(curves[rung_index], bits)
        event = TraceEvent.NONE
        if loss >= rung.loss_threshold_percent:
            event = TraceEvent.ESCALATED if rung_index + 1 < len(curves) else TraceEvent.TERMINATED
        samples.append(TraceSample(tick, bits, loss, rung.power_dbm, event))
        if event is TraceEvent.TERMINATED:
            return tuple(samples)
        if event is TraceEvent.ESCALATED:
            bits -= policy.backoff_bits
            if bits < 1:
                raise ValueError(f"degenerate policy: backoff drops packet size to {bits} bits")
            rung_index += 1
        bits += policy.growth_step_bits
    raise NonTerminationError(
        f"no termination within {policy.max_ticks} ticks "
        f"(loss {loss:.2f}% at {rung.power_dbm} dBm)"
    )


class TraceSummary(NamedTuple):
    """Aggregates of one adaptation run."""

    dwell_ticks: tuple[tuple[float, int], ...]  # (power_dbm, samples at that power)
    peak_loss_percent: float
    peak_loss_tick: int
    final: TraceSample


def summarize_trace(trace: tuple[TraceSample, ...] | list[TraceSample]) -> TraceSummary:
    if not trace:
        raise ValueError("cannot summarize an empty trace")
    dwell: dict[float, int] = {}
    for sample in trace:
        dwell[sample.power_dbm] = dwell.get(sample.power_dbm, 0) + 1
    peak = max(trace, key=lambda s: s.loss_percent)
    return TraceSummary(
        dwell_ticks=tuple(dwell.items()),
        peak_loss_percent=peak.loss_percent,
        peak_loss_tick=peak.tick,
        final=trace[-1],
    )
