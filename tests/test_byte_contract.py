"""The golden documents do not hang on the last bits of libm.

Two checks hold the 6-significant-digit contract apart from the platform's
transcendental functions: biasing exp, log10, log, expm1 and log1p by a few
ulps leaves every golden byte-identical, and every float cell of the golden
runs lies far, in its own ulps, from the point where its rounding changes.
"""

import contextlib
import io
import math
import struct
import types
from decimal import Decimal
from fractions import Fraction

import pytest

from fanetsim import curves, link, output, sweeps, topology
from fanetsim.cli import main
from golden_runs import GOLDEN_RUNS

_BIASED = ("exp", "log10", "log", "expm1", "log1p")
_INF_BITS = struct.unpack("<q", struct.pack("<d", math.inf))[0]


def _run(argv) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(argv) == 0, argv
    return buffer.getvalue()


def _biased(func, k, calls):
    """func with each nonzero finite result moved k ulps away from zero (toward it for k < 0)."""

    def biased(*args):
        calls.append(func.__name__)
        y = func(*args)
        if y == 0.0 or not math.isfinite(y):
            return y
        bits = struct.unpack("<q", struct.pack("<d", abs(y)))[0] + k
        return math.copysign(struct.unpack("<d", struct.pack("<q", min(max(bits, 0), _INF_BITS)))[0], y)

    return biased


@pytest.mark.parametrize("k", [-64, -1, 1, 64])
def test_goldens_survive_libm_biased_by_k_ulps(k, golden_dir, monkeypatch):
    calls = []
    biased_math = types.SimpleNamespace(**{name: getattr(math, name) for name in dir(math) if not name.startswith("_")})
    for name in _BIASED:
        setattr(biased_math, name, _biased(getattr(math, name), k, calls))
    for module in (link, topology, curves, sweeps):
        monkeypatch.setattr(module, "math", biased_math)
    for argv, golden_name in GOLDEN_RUNS:
        assert _run(argv) == (golden_dir / golden_name).read_text(encoding="utf-8"), argv
    # The bias was seen: the link budget's log10 and exp and the fit's log.
    assert {"exp", "log10", "log"} <= set(calls)


def _ulps_to_rounding_boundary(value: float) -> Fraction:
    """Distance, in ulps of value, to the nearest point where its 6-significant-digit rounding changes."""
    x = Fraction(abs(value))
    e = Decimal(abs(value)).adjusted()  # 10**e <= x < 10**(e + 1)
    quantum = Fraction(10) ** (e - 5)
    n = round(x / quantum)
    # x rounds to n quanta. The boundary below lies half a quantum down, or
    # a twentieth of one at 10**e, below which the quantum is ten times finer.
    below = (n - Fraction(1, 2)) * quantum if n > 10**5 else Fraction(10) ** e - quantum / 20
    above = (n + Fraction(1, 2)) * quantum
    return min(x - below, above - x) / Fraction(math.ulp(value))


def test_ulps_to_rounding_boundary_examples():
    assert _ulps_to_rounding_boundary(1.5) == Fraction(5, 10**6) / Fraction(math.ulp(1.5))
    assert _ulps_to_rounding_boundary(-1000.0) == Fraction(5, 10**4) / Fraction(math.ulp(1000.0))
    assert _ulps_to_rounding_boundary(1.0000049999999) < 10**6


def test_golden_cells_lie_far_from_their_rounding_boundary(monkeypatch):
    cells = []
    format_float = output.format_float

    def recording(value):
        cells.append(value)
        return format_float(value)

    monkeypatch.setattr(output, "format_float", recording)
    for argv, _ in GOLDEN_RUNS:
        _run(argv)
    margins = {value: _ulps_to_rounding_boundary(value) for value in cells if value != 0.0}
    assert len(margins) > 100
    assert {value: m for value, m in margins.items() if m < 10**6} == {}
