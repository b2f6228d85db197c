#!/usr/bin/env python3
"""Fitting log-loss curves and predicting packet sizes from target loss.

Fits y = a*ln(x) + b to the power-sweep data, compares against the stock
coefficient family, then answers "how many bits can I send at this power
if I tolerate y% loss?" two ways: analytic inversion and the 10-bit grid
lookup used as its cross-check.
"""

from fanetsim import (
    default_curve_family,
    evaluate_curve,
    fit_family_from_power_sweep,
    grid_oracle_predict,
    predict_packet_size,
    run_sweep,
)
from fanetsim.sweeps import DEFAULT_POWER_AXIS_DBM, SweepAxis, SweepSpec

print("=== curves fitted to the seed-42 power sweep ===")
sweep = run_sweep(
    SweepSpec(base_seed=42, axis=SweepAxis.POWER_DBM, axis_values=DEFAULT_POWER_AXIS_DBM)
)
fitted = fit_family_from_power_sweep(sweep)
for curve in fitted.curves:
    print(f"  {curve.power_dbm:g} dBm: y = {curve.slope:.3f} * ln(x) + {curve.intercept:.3f}")

print("\n=== stock family used by prediction and adaptation ===")
family = default_curve_family()
for curve in family.curves:
    sign = "+" if curve.intercept >= 0 else "-"
    print(f"  {curve.power_dbm:g} dBm: y = {curve.slope:g} * ln(x) {sign} {abs(curve.intercept):g}")
print("  loss at 20 bits, 5 dBm:", round(evaluate_curve(family.curve_at(5.0), 20), 2), "%")

print("\n=== packet size for a 20% loss target ===")
for power in (5.0, 6.0, 7.0, 9.0):
    analytic = predict_packet_size(20.0, power, family)
    line = f"  {power:g} dBm: analytic {analytic:8.2f} bits"
    exact = family.curve_at(power)
    if exact is not None:
        line += f", grid {grid_oracle_predict(20.0, power, family):5d} bits"
    else:
        line += "              (interpolated coefficients, no grid column)"
    print(line)

print("\n=== analytic vs grid across targets at 9 dBm ===")
print(f"  {'loss %':>7} {'analytic':>10} {'grid':>6} {'gap':>6}")
for y in (10.0, 15.0, 20.0, 30.0, 40.0, 50.0):
    analytic = predict_packet_size(y, 9.0, family)
    grid = grid_oracle_predict(y, 9.0, family)
    print(f"  {y:7.1f} {analytic:10.2f} {grid:6d} {abs(grid - analytic):6.2f}")
print("  (the gap never exceeds the 10-bit grid spacing while in range)")
