"""Log-curve fitting, inversion, and packet-size prediction."""

import math
import random

import numpy as np
import pytest

from fanetsim import (
    CurveFamily,
    LossCurve,
    default_curve_family,
    evaluate_curve,
    fit_family_from_power_sweep,
    fit_log_curve,
    grid_oracle_predict,
    invert_curve,
    predict_packet_size,
    predict_with_oracle,
    run_sweep,
)
from fanetsim.sweeps import SweepAxis, SweepSpec

SIZES = (10, 100, 1000, 10000)


def _points_from(slope, intercept, xs=SIZES):
    return [(float(x), slope * math.log(x) + intercept) for x in xs]


def test_exact_model_recovery():
    curve = fit_log_curve(_points_from(6.8, 26.0), 5.0)
    assert curve.slope == pytest.approx(6.8, rel=1e-9)
    assert curve.intercept == pytest.approx(26.0, rel=1e-9)


def test_randomized_exact_recovery():
    picker = random.Random(13)
    for _ in range(200):
        slope = 10.0 ** picker.uniform(-1.0, 2.0)  # 0.1 .. 100
        intercept = picker.uniform(-50.0, 50.0)
        xs = sorted(picker.sample(range(1, 100_000), picker.randint(2, 10)))
        curve = fit_log_curve(_points_from(slope, intercept, xs), 7.0)
        assert curve.slope == pytest.approx(slope, rel=1e-9)
        assert curve.intercept == pytest.approx(intercept, rel=1e-9, abs=1e-9)


def test_two_points_interpolated_exactly():
    points = [(10.0, 12.0), (1000.0, 40.0)]
    curve = fit_log_curve(points, 7.0)
    for x, y in points:
        assert evaluate_curve(curve, x) == pytest.approx(y, rel=1e-12)


def test_fit_matches_polyfit_on_noisy_data():
    picker = random.Random(29)
    points = [
        (float(x), 6.8 * math.log(x) + 26.0 + picker.gauss(0.0, 2.0)) for x in (10, 50, 100, 500, 1000, 10000)
    ]
    curve = fit_log_curve(points, 5.0)
    slope_np, intercept_np = np.polyfit(np.log([p[0] for p in points]), [p[1] for p in points], 1)
    assert curve.slope == pytest.approx(float(slope_np), rel=1e-9)
    assert curve.intercept == pytest.approx(float(intercept_np), rel=1e-9)


def test_fit_argument_errors():
    with pytest.raises(ValueError):
        fit_log_curve([(10.0, 5.0)], 7.0)
    with pytest.raises(ValueError):
        fit_log_curve([(0.5, 5.0), (10.0, 6.0)], 7.0)
    with pytest.raises(ValueError):
        fit_log_curve([(10.0, 5.0), (10.0, 6.0)], 7.0)  # single distinct x


def test_evaluate_paper_anchor_values():
    family = default_curve_family()
    five, seven, nine = family.curves
    assert round(evaluate_curve(five, 20), 2) == 46.37
    assert evaluate_curve(nine, 340) == pytest.approx(30.14, abs=1e-2)
    assert evaluate_curve(seven, 1) == seven.intercept


def test_evaluate_rejects_sub_bit_sizes():
    with pytest.raises(ValueError):
        evaluate_curve(LossCurve(6.8, 26.0, 5.0), 0.5)


def test_invert_at_intercept_is_one_bit():
    assert invert_curve(LossCurve(6.2, -6.0, 9.0), -6.0) == 1.0


def test_invert_spot_value():
    # exp(26/6.2), frozen from a 60-digit evaluation
    got = invert_curve(LossCurve(6.2, -6.0, 9.0), 20.0)
    assert got == pytest.approx(66.25748152017384, rel=1e-12)


def test_invert_zero_slope_rejected():
    with pytest.raises(ValueError):
        invert_curve(LossCurve(0.0, 5.0, 7.0), 10.0)


def test_round_trip_identities():
    curve = LossCurve(7.1, 4.0, 7.0)
    for x in np.logspace(0.0, 6.0, 200):
        x = float(x)
        assert invert_curve(curve, evaluate_curve(curve, x)) == pytest.approx(x, rel=1e-9)
    # y range whose inverse stays within [1, 1e6] bits
    for y in np.linspace(evaluate_curve(curve, 1.0), evaluate_curve(curve, 1e6), 200):
        y = float(y)
        assert evaluate_curve(curve, invert_curve(curve, y)) == pytest.approx(y, rel=1e-9, abs=1e-9)


def test_family_validation():
    with pytest.raises(ValueError, match="^curve family must hold at least one curve$"):
        CurveFamily(())
    with pytest.raises(ValueError, match="^curve powers must be strictly increasing$"):
        CurveFamily((LossCurve(1.0, 0.0, 7.0), LossCurve(1.0, 0.0, 5.0)))
    with pytest.raises(ValueError, match="^curve powers must be strictly increasing$"):
        CurveFamily((LossCurve(1.0, 0.0, 7.0), LossCurve(1.0, 0.0, 7.0)))


@pytest.mark.parametrize(
    "make",
    [
        lambda: LossCurve(6.8, 26.0, 5.0),
        lambda: default_curve_family(),
        lambda: predict_with_oracle(20.0, 9.0, default_curve_family()),
    ],
)
def test_records_are_immutable_values(make):
    record = make()
    assert make() == record
    for name in (*record._fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_predict_at_anchor_equals_inversion():
    family = default_curve_family()
    nine = family.curve_at(9.0)
    assert predict_packet_size(20.0, 9.0, family) == invert_curve(nine, 20.0)


def test_predict_interpolates_between_powers():
    family = default_curve_family()
    # midway between 5 and 7 dBm: slope (6.8+7.1)/2, intercept (26+4)/2
    expected = math.exp((20.0 - 15.0) / 6.95)
    assert predict_packet_size(20.0, 6.0, family) == pytest.approx(expected, rel=1e-12)


def test_predict_rejects_out_of_range_power():
    family = default_curve_family()
    with pytest.raises(ValueError):
        predict_packet_size(20.0, 4.9, family)
    with pytest.raises(ValueError):
        predict_packet_size(20.0, 9.1, family)


def test_predicted_size_increases_with_target_loss():
    family = default_curve_family()
    picker = random.Random(43)
    for _ in range(200):
        power = picker.uniform(5.0, 9.0)
        y = picker.uniform(0.0, 60.0)
        step = picker.uniform(0.1, 10.0)
        assert predict_packet_size(y + step, power, family) > predict_packet_size(y, power, family)


def test_grid_oracle_spot_value():
    assert grid_oracle_predict(20.0, 9.0, default_curve_family()) == 70


def test_grid_oracle_exact_row():
    family = default_curve_family()
    y340 = evaluate_curve(family.curve_at(9.0), 340)
    assert grid_oracle_predict(y340, 9.0, family) == 340


def test_grid_oracle_tie_breaks_toward_smaller_x():
    flat = CurveFamily((LossCurve(0.0, 10.0, 9.0),))
    assert grid_oracle_predict(10.0, 9.0, flat) == 10


def test_grid_oracle_requires_exact_power():
    with pytest.raises(ValueError):
        grid_oracle_predict(20.0, 6.0, default_curve_family())


def test_grid_oracle_rejects_nonpositive_table():
    family = CurveFamily((LossCurve(1.0, -1e6, 5.0),))
    with pytest.raises(ValueError):
        grid_oracle_predict(20.0, 5.0, family)


def test_grid_oracle_agrees_with_analytic_inverse():
    family = default_curve_family()
    nine = family.curve_at(9.0)
    picker = random.Random(71)
    for _ in range(300):
        y = picker.uniform(evaluate_curve(nine, 10) + 1e-6, evaluate_curve(nine, 10000) - 1e-6)
        analytic = predict_packet_size(y, 9.0, family)
        grid = grid_oracle_predict(y, 9.0, family)
        assert 10 <= grid <= 10000
        assert abs(grid - analytic) <= 10.0


def test_grid_oracle_stays_on_grid_for_extreme_queries():
    family = default_curve_family()
    assert grid_oracle_predict(-100.0, 9.0, family) in range(10, 10001, 10)
    assert grid_oracle_predict(1e6, 9.0, family) == 10000


def test_predict_with_oracle_bundles_both_routes():
    family = default_curve_family()
    pred = predict_with_oracle(20.0, 9.0, family)
    assert pred.analytic_bits == pytest.approx(66.25748152017384, rel=1e-12)
    assert pred.grid_bits == 70
    interp = predict_with_oracle(20.0, 6.0, family)
    assert interp.grid_bits is None


def test_fit_family_from_golden_power_sweep():
    spec = SweepSpec(base_seed=42, axis=SweepAxis.POWER_DBM, axis_values=(5.0, 7.0, 9.0))
    family = fit_family_from_power_sweep(run_sweep(spec))
    assert family.powers == (5.0, 7.0, 9.0)
    seven = family.curve_at(7.0)
    # Frozen from the first run on the golden sweep.
    assert seven.slope == pytest.approx(5.539684510483782, rel=1e-9)
    assert seven.intercept == pytest.approx(35.56314279481832, rel=1e-9)
