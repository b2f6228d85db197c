"""Adaptive transmission controller against an independent recurrence."""

import math

import pytest

from fanetsim import (
    AdaptationPolicy,
    CurveFamily,
    LossCurve,
    NonTerminationError,
    PowerRung,
    TraceEvent,
    default_curve_family,
    default_policy,
    evaluate_curve,
    run_adaptation,
    summarize_trace,
)


def _recurrence_oracle():
    """Literal transcription of the default adaptation loop, kept separate
    from the controller implementation on purpose."""
    x, power, t = 20, 5, 0
    history = []
    while True:
        if power == 5:
            y = 6.8 * math.log(x) + 26
        elif power == 7:
            y = 7.1 * math.log(x) + 4
        else:
            y = 6.2 * math.log(x) - 6
        measured_power = power  # history records the power the loss was measured at
        event = "none"
        if power == 5 and y >= 50:
            x -= 20
            power = 7
            event = "escalated"
        elif power == 7 and y >= 40:
            x -= 20
            power = 9
            event = "escalated"
        elif power == 9 and y >= 30:
            event = "terminated"
        history.append((t, y, float(measured_power), event))
        if event == "terminated":
            return history
        x += 10
        t += 1


def test_default_trace_matches_independent_recurrence():
    trace = run_adaptation(default_policy(), default_curve_family())
    oracle = _recurrence_oracle()
    assert len(trace) == len(oracle) == 37
    for sample, (tick, y, power, event) in zip(trace, oracle):
        assert sample.tick == tick
        assert sample.loss_percent == y
        assert sample.power_dbm == power
        assert sample.event.value == event


def test_default_trace_landmarks():
    trace = run_adaptation(default_policy(), default_curve_family())
    escalations = [s for s in trace if s.event is TraceEvent.ESCALATED]
    assert [(s.tick, s.packet_bits, s.power_dbm) for s in escalations] == [(2, 40, 5.0), (16, 160, 7.0)]
    final = trace[-1]
    assert final.event is TraceEvent.TERMINATED
    assert (final.tick, final.packet_bits, final.power_dbm) == (36, 340, 9.0)
    assert final.loss_percent == pytest.approx(30.14, abs=1e-2)


def test_first_step_sample():
    sample = run_adaptation(default_policy(), default_curve_family())[0]
    assert (sample.tick, sample.packet_bits, sample.power_dbm) == (0, 20, 5.0)
    assert sample.event is TraceEvent.NONE
    assert round(sample.loss_percent, 2) == 46.37


def test_escalation_step_applies_backoff_then_growth():
    trace = run_adaptation(default_policy(), default_curve_family())
    sample = trace[2]
    assert (sample.tick, sample.packet_bits, sample.power_dbm) == (2, 40, 5.0)
    assert sample.event is TraceEvent.ESCALATED
    assert sample.loss_percent == pytest.approx(51.08, abs=1e-2)
    # backoff to 20, next rung, then +10 growth
    assert (trace[3].tick, trace[3].packet_bits, trace[3].power_dbm) == (3, 30, 7.0)


def test_single_rung_zero_threshold_terminates_immediately():
    policy = AdaptationPolicy(rungs=(PowerRung(5.0, 0.0),))
    trace = run_adaptation(policy, default_curve_family())
    assert len(trace) == 1
    assert trace[0].event is TraceEvent.TERMINATED


def test_unreachable_threshold_raises_non_termination():
    policy = AdaptationPolicy(rungs=(PowerRung(5.0, 1e9),), max_ticks=50)
    with pytest.raises(NonTerminationError):
        run_adaptation(policy, default_curve_family())


def test_degenerate_backoff_rejected():
    policy = AdaptationPolicy(
        rungs=(PowerRung(5.0, 0.0), PowerRung(7.0, 100.0)),
        initial_packet_bits=20,
        backoff_bits=25,
    )
    with pytest.raises(ValueError):
        run_adaptation(policy, default_curve_family())


def test_rung_without_curve_rejected():
    policy = AdaptationPolicy(rungs=(PowerRung(6.0, 50.0),))
    with pytest.raises(ValueError):
        run_adaptation(policy, default_curve_family())


def test_policy_validation():
    with pytest.raises(ValueError, match="^policy needs at least one power rung$"):
        AdaptationPolicy(rungs=())
    with pytest.raises(ValueError, match="^rung powers must be strictly increasing$"):
        AdaptationPolicy(rungs=(PowerRung(7.0, 40.0), PowerRung(5.0, 50.0)))
    with pytest.raises(ValueError, match="^initial_packet_bits must be >= 1$"):
        AdaptationPolicy(rungs=(PowerRung(5.0, 50.0),), initial_packet_bits=0)
    with pytest.raises(ValueError, match="^growth_step_bits and backoff_bits must be >= 0$"):
        AdaptationPolicy(rungs=(PowerRung(5.0, 50.0),), growth_step_bits=-1)
    with pytest.raises(ValueError, match="^growth_step_bits and backoff_bits must be >= 0$"):
        AdaptationPolicy(rungs=(PowerRung(5.0, 50.0),), backoff_bits=-1)
    with pytest.raises(ValueError, match="^max_ticks must be >= 1$"):
        AdaptationPolicy(rungs=(PowerRung(5.0, 50.0),), max_ticks=0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: PowerRung(5.0, 50.0),
        lambda: default_policy(),
        lambda: run_adaptation(default_policy(), default_curve_family())[0],
        lambda: summarize_trace(run_adaptation(default_policy(), default_curve_family())),
    ],
)
def test_records_are_immutable_values(make):
    record = make()
    assert make() == record
    for name in (*record._fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_trace_invariants():
    policy = default_policy()
    family = default_curve_family()
    trace = run_adaptation(policy, family)
    powers = [s.power_dbm for s in trace]
    assert all(b >= a for a, b in zip(powers, powers[1:]))
    assert sum(1 for s in trace if s.event is TraceEvent.ESCALATED) <= len(policy.rungs) - 1
    assert [s.event for s in trace].count(TraceEvent.TERMINATED) == 1
    assert trace[-1].event is TraceEvent.TERMINATED
    # packet size grows by exactly one step per tick within a constant-power segment
    for a, b in zip(trace, trace[1:]):
        if a.power_dbm == b.power_dbm:
            assert b.packet_bits - a.packet_bits == policy.growth_step_bits
    # every sample is recomputable from its own (packet size, power)
    for s in trace:
        assert s.loss_percent == evaluate_curve(family.curve_at(s.power_dbm), s.packet_bits)


def test_positive_thresholds_always_terminate():
    # Loss grows without bound in packet size, so each rung's threshold is
    # eventually crossed; these ladders all finish inside the tick budget.
    family = default_curve_family()
    for thresholds in ((70.0, 60.0, 55.0), (60.0, 55.0, 50.0)):
        policy = AdaptationPolicy(
            rungs=tuple(PowerRung(p, th) for p, th in zip((5.0, 7.0, 9.0), thresholds)),
        )
        trace = run_adaptation(policy, family)
        assert trace[-1].event is TraceEvent.TERMINATED
        assert len(trace) <= 10_000


def test_summary_of_default_trace():
    trace = run_adaptation(default_policy(), default_curve_family())
    summary = summarize_trace(trace)
    assert summary.dwell_ticks == ((5.0, 3), (7.0, 14), (9.0, 20))
    assert summary.peak_loss_percent == pytest.approx(51.08, abs=1e-2)
    assert summary.peak_loss_tick == 2
    assert summary.final == trace[-1]


def test_summary_of_single_sample_trace():
    policy = AdaptationPolicy(rungs=(PowerRung(5.0, 0.0),))
    trace = run_adaptation(policy, default_curve_family())
    summary = summarize_trace(trace)
    assert summary.dwell_ticks == ((5.0, 1),)
    assert summary.final == trace[0]
    assert summary.peak_loss_tick == 0


def test_summary_rejects_empty_trace():
    with pytest.raises(ValueError):
        summarize_trace([])


def test_custom_family_backed_run():
    family = CurveFamily((LossCurve(10.0, 0.0, 3.0), LossCurve(8.0, -5.0, 6.0)))
    policy = AdaptationPolicy(
        rungs=(PowerRung(3.0, 30.0), PowerRung(6.0, 40.0)),
        initial_packet_bits=5,
        growth_step_bits=5,
        backoff_bits=4,
    )
    trace = run_adaptation(policy, family)
    assert trace[-1].event is TraceEvent.TERMINATED
    assert all(
        s.loss_percent == evaluate_curve(family.curve_at(s.power_dbm), s.packet_bits) for s in trace
    )
