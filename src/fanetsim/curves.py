"""Logarithmic loss curves: fitting, evaluation, inversion, prediction.

Loss-vs-packet-size data is well described by y = slope * ln(x) + intercept
with y in percent and x in bits. Prediction of the packet size that hits a
target loss is the analytic inverse of that curve; a coarse grid lookup is
kept alongside as an independent cross-check.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

GRID_START_BITS = 10
GRID_STOP_BITS = 10000
GRID_STEP_BITS = 10


class LossCurve(NamedTuple):
    """y = slope * ln(x) + intercept for one transmit power."""

    slope: float  # percent per nat of packet size
    intercept: float  # percent at x = 1 bit
    power_dbm: float


# A NamedTuple body may not define __new__, so CurveFamily's checks run in a subclass.
class _CurveFamily(NamedTuple):
    curves: tuple[LossCurve, ...]


class CurveFamily(_CurveFamily):
    """Loss curves ordered by strictly increasing transmit power."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.curves:
            raise ValueError("curve family must hold at least one curve")
        powers = [c.power_dbm for c in self.curves]
        if any(hi <= lo for lo, hi in zip(powers, powers[1:])):
            raise ValueError("curve powers must be strictly increasing")
        return self

    @property
    def powers(self) -> tuple[float, ...]:
        return tuple(c.power_dbm for c in self.curves)

    def curve_at(self, power_dbm: float) -> LossCurve | None:
        """Member with exactly this power, or None."""
        for curve in self.curves:
            if curve.power_dbm == power_dbm:
                return curve
        return None


def default_curve_family() -> CurveFamily:
    """Stock 5/7/9 dBm coefficients used by the prediction and adaptation defaults."""
    return CurveFamily(
        (
            LossCurve(6.8, 26.0, 5.0),
            LossCurve(7.1, 4.0, 7.0),
            LossCurve(6.2, -6.0, 9.0),
        )
    )


def fit_log_curve(points: Sequence[tuple[float, float]], power_dbm: float) -> LossCurve:
    """Closed-form least squares of y on ln(x).

    slope = cov(ln x, y) / var(ln x), intercept = mean(y) - slope * mean(ln x).
    """
    if len(points) < 2:
        raise ValueError("need at least 2 points to fit a curve")
    xs = [float(x) for x, _ in points]
    ys = [float(y) for _, y in points]
    if any(x < 1 for x in xs):
        raise ValueError("packet sizes must be >= 1 bit")
    if len(set(xs)) < 2:
        raise ValueError("need at least 2 distinct packet sizes to fit a curve")
    n = len(points)
    lx = [math.log(x) for x in xs]
    lx_mean = math.fsum(lx) / n
    y_mean = math.fsum(ys) / n
    var = math.fsum([(a - lx_mean) ** 2 for a in lx]) / n
    if var == 0.0:
        raise ValueError("degenerate fit data: ln(x) has zero variance")
    cov = math.fsum([(a - lx_mean) * (y - y_mean) for a, y in zip(lx, ys)]) / n
    slope = cov / var
    intercept = y_mean - slope * lx_mean
    return LossCurve(slope, intercept, power_dbm)


def evaluate_curve(curve: LossCurve, packet_size_bits: float) -> float:
    """Loss in percent at the given packet size."""
    if packet_size_bits < 1:
        raise ValueError("packet size must be >= 1 bit")
    return curve.slope * math.log(packet_size_bits) + curve.intercept


def invert_curve(curve: LossCurve, loss_percent: float) -> float:
    """Packet size (real-valued bits) at which the curve reaches the given loss."""
    if curve.slope == 0:
        raise ValueError("curve with zero slope is not invertible")
    try:
        return math.exp((loss_percent - curve.intercept) / curve.slope)
    except OverflowError:
        raise ValueError(f"packet size for {loss_percent:g}% loss overflows a double") from None


def _curve_for_power(family: CurveFamily, power_dbm: float) -> LossCurve:
    """Exact member, or coefficients linearly interpolated between bracketing powers."""
    exact = family.curve_at(power_dbm)
    if exact is not None:
        return exact
    powers = family.powers
    if power_dbm < powers[0] or power_dbm > powers[-1]:
        raise ValueError(
            f"power {power_dbm} dBm outside the fitted range [{powers[0]}, {powers[-1]}]"
        )
    for lo, hi in zip(family.curves, family.curves[1:]):
        if lo.power_dbm < power_dbm < hi.power_dbm:
            t = (power_dbm - lo.power_dbm) / (hi.power_dbm - lo.power_dbm)
            slope = lo.slope + t * (hi.slope - lo.slope)
            intercept = lo.intercept + t * (hi.intercept - lo.intercept)
            return LossCurve(slope, intercept, power_dbm)
    raise AssertionError("unreachable: power inside range but not bracketed")


def predict_packet_size(loss_percent: float, power_dbm: float, family: CurveFamily) -> float:
    """Analytic packet-size prediction for a target loss at a given power.

    No extrapolation: the power must lie within the family's power range.
    """
    return invert_curve(_curve_for_power(family, power_dbm), loss_percent)


def grid_oracle_predict(loss_percent: float, power_dbm: float, family: CurveFamily) -> int:
    """Nearest-neighbour lookup on the x = 10, 20, ..., 10000 bit grid.

    Rows with non-positive loss are dropped; ties break toward smaller x.
    Agrees with the analytic inverse to within one grid step whenever the
    analytic answer is in range.
    """
    curve = family.curve_at(power_dbm)
    if curve is None:
        raise ValueError(f"grid prediction requires an exact family power, got {power_dbm} dBm")
    best_x = None
    best_err = math.inf
    for x in range(GRID_START_BITS, GRID_STOP_BITS + 1, GRID_STEP_BITS):
        y = evaluate_curve(curve, x)
        if y <= 0:
            continue
        err = abs(loss_percent - y)
        if err < best_err:
            best_err = err
            best_x = x
    if best_x is None:
        raise ValueError("grid table is empty: curve is non-positive on the whole grid")
    return best_x


def fit_family_from_power_sweep(result) -> CurveFamily:
    """Fit one log curve per transmit power from a power-sweep result."""
    by_power: dict[float, list[tuple[float, float]]] = {}
    for row in result.rows:
        by_power.setdefault(row.axis_value, []).append(
            (float(row.packet_size_bits), row.mean_loss_percent)
        )
    curves = tuple(
        fit_log_curve(points, power) for power, points in sorted(by_power.items())
    )
    return CurveFamily(curves)


class PacketSizePrediction(NamedTuple):
    """Paired analytic and grid predictions for one query."""

    loss_percent: float
    power_dbm: float
    analytic_bits: float
    grid_bits: int | None


def predict_with_oracle(
    loss_percent: float, power_dbm: float, family: CurveFamily
) -> PacketSizePrediction:
    """Analytic prediction plus, when the power is an exact family member, the grid lookup."""
    analytic = predict_packet_size(loss_percent, power_dbm, family)
    grid = None
    if family.curve_at(power_dbm) is not None:
        grid = grid_oracle_predict(loss_percent, power_dbm, family)
    return PacketSizePrediction(loss_percent, power_dbm, analytic, grid)
