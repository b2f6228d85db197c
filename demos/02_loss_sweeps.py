#!/usr/bin/env python3
"""The four packet-loss experiment grids on the seed-42 constellation.

Reproduces the headline datasets: loss vs packet size for three transmit
powers, three carrier frequencies, five flight-area sizes (averaged over
32 replicate constellations) and five swarm sizes, plus the loss ratio
between each two powers beside their transmit-power ratio.
"""

from itertools import combinations

from fanetsim import run_sweep
from fanetsim.sweeps import (
    DEFAULT_AREA_AXIS_M,
    DEFAULT_COUNT_AXIS,
    DEFAULT_FREQUENCY_AXIS_HZ,
    DEFAULT_POWER_AXIS_DBM,
    SweepAxis,
    SweepSpec,
)

SIZES = (10, 100, 1000, 10000)


def show(result, label, fmt_axis=lambda v: f"{v:g}"):
    print(f"\n=== {label} ===")
    print(f"  {'axis':>10} " + "".join(f"{s:>10}" for s in SIZES))
    table = {(r.axis_value, r.packet_size_bits): r.mean_loss_percent for r in result.rows}
    for value in result.spec.axis_values:
        cells = "".join(f"{table[(value, s)]:10.3f}" for s in SIZES)
        print(f"  {fmt_axis(value):>10} {cells}")


power = run_sweep(
    SweepSpec(base_seed=42, axis=SweepAxis.POWER_DBM, axis_values=DEFAULT_POWER_AXIS_DBM)
)
show(power, "mean loss % by transmit power (dBm), 20 UAVs in 1500x1500 m")

freq = run_sweep(
    SweepSpec(base_seed=42, axis=SweepAxis.FREQUENCY_HZ, axis_values=DEFAULT_FREQUENCY_AXIS_HZ)
)
show(freq, "mean loss % by carrier frequency (Hz), 7 dBm", fmt_axis=lambda v: f"{v:.2g}")

area = run_sweep(
    SweepSpec(
        base_seed=42, axis=SweepAxis.AREA_SIDE_M, axis_values=DEFAULT_AREA_AXIS_M, replicates=32
    )
)
show(area, "mean loss % by area side (m), 32 replicate constellations")

count = run_sweep(
    SweepSpec(
        base_seed=42,
        axis=SweepAxis.UAV_COUNT,
        axis_values=tuple(float(c) for c in DEFAULT_COUNT_AXIS),
        replicates=32,
    )
)
show(count, "mean loss % by swarm size, 32 replicate constellations")
print("  (a pure free-space model has no congestion: the count only moves sampling noise)")

print("\n=== loss ratios between powers (single seed-42 constellation) ===")
loss = {(r.axis_value, r.packet_size_bits): r.mean_loss_percent for r in power.rows}
for low, high in combinations(power.spec.axis_values, 2):
    ratios = ", ".join(f"{loss[(low, s)] / loss[(high, s)]:.2f}" for s in SIZES)
    print(
        f"  {low:g} -> {high:g} dBm: power ratio 10^(({high:g}-{low:g})/10) = "
        f"{10.0 ** ((high - low) / 10.0):.2f}, loss ratios by size [{ratios}]"
    )
