"""Acceptance gate: one test per shipped criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every tolerance is pinned here, not calibrated elsewhere.
"""

import math
import random

import mpmath
import pytest

from fanetsim import (
    LossCurve,
    TraceEvent,
    default_curve_family,
    default_policy,
    evaluate_curve,
    fit_log_curve,
    friis_gain_linear,
    fspl_db,
    grid_oracle_predict,
    invert_curve,
    predict_packet_size,
    run_adaptation,
    run_sweep,
    summarize_trace,
)
from fanetsim.cli import main
from fanetsim.sweeps import SweepAxis, SweepSpec
from golden_runs import GOLDEN_RUNS

SIZES = (10, 100, 1000, 10000)


def _pass(number, text):
    print(f"PASS criterion {number}: {text}")


def test_criterion_1_loss_anchor_at_20_bits():
    value = evaluate_curve(LossCurve(6.8, 26.0, 5.0), 20)
    assert round(value, 2) == 46.37
    assert abs(value - 46.0) < 1.0
    _pass(1, f"20-bit loss at 5 dBm reported as {value:.2f}% (within 1 of 46)")


def _adaptation_recurrence():
    """Independent transcription of the default adaptation loop."""
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
            x, power, event = x - 20, 7, "escalated"
        elif power == 7 and y >= 40:
            x, power, event = x - 20, 9, "escalated"
        elif power == 9 and y >= 30:
            event = "terminated"
        history.append((t, y, measured_power, event))
        if event == "terminated":
            return history
        x += 10
        t += 1


def test_criterion_2_adaptation_trace():
    trace = run_adaptation(default_policy(), default_curve_family())
    assert len(trace) == 37

    escalations = [s for s in trace if s.event is TraceEvent.ESCALATED]
    assert len(escalations) == 2
    first, second = escalations
    assert (first.tick, first.packet_bits, first.power_dbm) == (2, 40, 5.0)
    assert abs(first.loss_percent - 51.08) <= 1e-2
    assert trace[3].power_dbm == 7.0
    assert (second.tick, second.packet_bits, second.power_dbm) == (16, 160, 7.0)
    assert abs(second.loss_percent - 40.03) <= 1e-2
    assert trace[17].power_dbm == 9.0

    final = trace[-1]
    assert final.event is TraceEvent.TERMINATED
    assert (final.tick, final.packet_bits) == (36, 340)
    assert abs(final.loss_percent - 30.14) <= 1e-2

    assert summarize_trace(trace).dwell_ticks == ((5.0, 3), (7.0, 14), (9.0, 20))

    oracle = _adaptation_recurrence()
    assert len(oracle) == len(trace)
    for sample, (tick, y, power, event) in zip(trace, oracle):
        assert sample.tick == tick
        assert sample.loss_percent == y
        assert sample.power_dbm == float(power)
        assert sample.event.value == event
    _pass(2, "escalations at ticks 2 and 16, termination at tick 36, dwell (3, 14, 20)")


def test_criterion_3_predictor():
    family = default_curve_family()
    analytic = predict_packet_size(20.0, 9.0, family)
    with mpmath.workdps(50):
        oracle = float(mpmath.exp(mpmath.mpf(26) / mpmath.mpf("6.2")))
    assert abs(analytic - oracle) <= 0.01
    grid = grid_oracle_predict(20.0, 9.0, family)
    assert grid == 70
    assert abs(grid - analytic) <= 10.0

    nine = family.curve_at(9.0)
    lo = evaluate_curve(nine, 10) + 1e-9
    hi = evaluate_curve(nine, 10000) - 1e-9
    picker = random.Random(5)
    for _ in range(500):
        y = picker.uniform(lo, hi)
        assert abs(grid_oracle_predict(y, 9.0, family) - predict_packet_size(y, 9.0, family)) <= 10.0
    _pass(3, f"analytic {analytic:.2f} bits (exp(26/6.2)), grid 70 bits, gap <= 10 in range")


def test_criterion_4_friis_doubling_laws():
    delta = 20.0 * math.log10(2.0)
    picker = random.Random(1234)
    for _ in range(1000):
        d = picker.uniform(0.1, 1e5)
        f = picker.uniform(1e8, 1e11)
        assert abs(fspl_db(2.0 * d, f) - fspl_db(d, f) - delta) <= 1e-9
        assert abs(fspl_db(d, 2.0 * f) - fspl_db(d, f) - delta) <= 1e-9
    _pass(4, "6.0206 dB per doubling of distance and frequency over 1000 random inputs")


def test_criterion_5_fspl_cross_form():
    picker = random.Random(4321)
    for _ in range(1000):
        d = picker.uniform(0.1, 1e5)
        f = picker.uniform(1e8, 1e11)
        assert abs(fspl_db(d, f) + 10.0 * math.log10(friis_gain_linear(d, f))) <= 1e-9
    assert abs(fspl_db(100.0, 2.4e9) - 80.0465) <= 1e-3
    _pass(5, "dB form matches -10*log10(linear gain); 80.046 dB at 100 m / 2.4 GHz")


def test_criterion_6_monotonic_trends():
    power = run_sweep(
        SweepSpec(base_seed=42, axis=SweepAxis.POWER_DBM, axis_values=(5.0, 7.0, 9.0))
    )
    table = {(r.axis_value, r.packet_size_bits): r.mean_loss_percent for r in power.rows}
    for p in (5.0, 7.0, 9.0):
        losses = [table[(p, s)] for s in SIZES]
        assert all(b > a for a, b in zip(losses, losses[1:]))
    for s in SIZES:
        assert table[(5.0, s)] > table[(7.0, s)] > table[(9.0, s)]

    freq = run_sweep(
        SweepSpec(base_seed=42, axis=SweepAxis.FREQUENCY_HZ, axis_values=(2.4e9, 5.8e9, 2.8e10))
    )
    ftable = {(r.axis_value, r.packet_size_bits): r.mean_loss_percent for r in freq.rows}
    for s in SIZES:
        losses = [ftable[(f, s)] for f in (2.4e9, 5.8e9, 2.8e10)]
        assert all(b >= a for a, b in zip(losses, losses[1:]))

    sides = (500.0, 1000.0, 1500.0, 2000.0, 3000.0)
    area = run_sweep(
        SweepSpec(base_seed=42, axis=SweepAxis.AREA_SIDE_M, axis_values=sides, replicates=32)
    )
    atable = {(r.axis_value, r.packet_size_bits): r.mean_loss_percent for r in area.rows}
    for s in SIZES:
        losses = [atable[(side, s)] for side in sides]
        assert all(b >= a for a, b in zip(losses, losses[1:]))
    _pass(6, "size-strict, power-ordered, frequency- and area-monotone trends on pinned seeds")


def test_criterion_7_power_ratio_observation():
    result = run_sweep(
        SweepSpec(base_seed=42, axis=SweepAxis.POWER_DBM, axis_values=(5.0, 7.0, 9.0))
    )
    table = {(r.axis_value, r.packet_size_bits): r.mean_loss_percent for r in result.rows}
    ratios = [table[(5.0, s)] / table[(9.0, s)] for s in SIZES]
    assert all(r > 1.0 for r in ratios)
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    _pass(7, f"5->9 dBm loss ratios {[round(r, 3) for r in ratios]} all > 1 and decreasing")


def test_criterion_8_fit_recovery_and_inversion_identity():
    points = [(float(x), 6.8 * math.log(x) + 26.0) for x in SIZES]
    curve = fit_log_curve(points, 5.0)
    assert curve.slope == pytest.approx(6.8, rel=1e-9)
    assert curve.intercept == pytest.approx(26.0, rel=1e-9)
    for x in [10.0**e for e in range(7)] + [3.0, 77.0, 4096.0, 999999.0]:
        if x > 1e6:
            continue
        assert invert_curve(curve, evaluate_curve(curve, x)) == pytest.approx(x, rel=1e-9)
    _pass(8, "noiseless fit returns (6.8, 26) to 1e-9; inversion identity holds on [1, 1e6]")


def test_criterion_9_determinism_and_golden_files(capsys, golden_dir):
    for argv, golden_name in GOLDEN_RUNS:
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert first == (golden_dir / golden_name).read_text(encoding="utf-8")
    capsys.readouterr()
    _pass(9, "all subcommands byte-identical across reruns and equal to committed goldens")
