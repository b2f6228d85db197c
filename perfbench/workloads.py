"""The benchmark's workloads: the fanetsim invocations each cycle makes, and their checks.

Cycle i runs with seed ``base_seed + 1000 * i``; the spacing keeps the
replicate seeds (``seed + r``, fewer than 1000 replicates) of different
cycles apart, so no op repeats another op's input. A cli-paper cycle is eight
commands sharing one seed; at base seed 42 its first cycle is exactly the
golden runs of ``scripts/regenerate_golden.py``.

Each check recomputes an output through the public scalar API
(``generate_topology``, ``parse_topology``, ``link_quality``,
``packet_loss_prob``), never through the sweep, fit or output code it checks.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from fanetsim.link import RadioParams, link_quality, packet_loss_prob
from fanetsim.topology import AreaSpec, Topology, generate_topology, parse_topology

SEED_STRIDE = 1000
GOLDEN_SEED = 42

# The CLI defaults the golden runs rely on (README, "Configuration").
NUM_UAVS = 20
SIDE_M = 1500.0
NUM_PAIRS = 10
TX_POWER_DBM = 7.0
FREQUENCY_HZ = 2.4e9
PACKET_SIZES = (10, 100, 1000, 10000)
AXES = {
    "sweep-power": (5.0, 7.0, 9.0),
    "sweep-frequency": (2.4e9, 5.8e9, 2.8e10),
    "sweep-area": (500.0, 1000.0, 1500.0, 2000.0, 3000.0),
    "sweep-count": (5, 10, 20, 40, 80),
}
CURVES = {5.0: (6.8, 26.0), 7.0: (7.1, 4.0), 9.0: (6.2, -6.0)}  # power -> (slope, intercept)


class CheckFailed(Exception):
    """An op's output disagrees with its independent recomputation."""


@dataclass
class Call:
    """One fanetsim invocation: its argv, where its document goes, and how to check it."""

    argv: list[str]
    check: Callable[[bytes, "Reference"], None] | None
    out: Path | None = None
    golden: str | None = None  # golden file the document must equal at seed 42
    link_evals: int = 0  # pairs x packet sizes x axis values x replicates
    distinct_distances: int = 0  # distinct (topology, pair) distances the call needs


@dataclass
class Cycle:
    """The calls a workload repeats, all with one seed.

    A subprocess workload times each call as one op; an in-process workload
    times the whole cycle as one op.
    """

    seed: int
    calls: list[Call] = field(default_factory=list)

    @property
    def link_evals(self) -> int:
        return sum(c.link_evals for c in self.calls)


def cycle_seed(base_seed: int, index: int) -> int:
    return base_seed + SEED_STRIDE * index


# -- cycles --------------------------------------------------------------------


@dataclass(frozen=True)
class SweepInput:
    command: str  # a sweep subcommand, or "fit" (which runs the power sweep)
    seed: int
    num_uavs: int = NUM_UAVS
    num_pairs: int = NUM_PAIRS
    replicates: int = 1
    axis: tuple = ()

    @property
    def axis_values(self) -> tuple:
        return self.axis or AXES["sweep-power" if self.command == "fit" else self.command]

    @property
    def regenerates(self) -> bool:
        """Area and count sweeps draw new topologies per axis value; the others share them."""
        return self.command in ("sweep-area", "sweep-count")

    def link_evals(self) -> int:
        return self.num_pairs * len(PACKET_SIZES) * len(self.axis_values) * self.replicates

    def distinct_distances(self) -> int:
        per_axis = len(self.axis_values) if self.regenerates else 1
        return self.num_pairs * self.replicates * per_axis


def _sweep_call(spec: SweepInput, argv: list[str], out: Path | None = None, golden: str | None = None) -> Call:
    checker = check_fit if spec.command == "fit" else check_sweep
    return Call(
        argv=argv,
        check=lambda doc, ref: checker(doc, ref, spec),
        out=out,
        golden=golden,
        link_evals=spec.link_evals(),
        distinct_distances=spec.distinct_distances(),
    )


def cli_paper_cycle(base_seed: int, index: int, workdir: Path) -> Cycle:
    """The six golden runs writing with --out, then fit and predict on stdout."""
    seed = cycle_seed(base_seed, index)
    s = str(seed)
    cycle = Cycle(seed)
    out = workdir / "topology.json"
    cycle.calls.append(
        Call(
            ["topology", "--seed", s, "--format", "json", "--out", str(out)],
            lambda doc, ref: check_topology(doc, ref, seed, NUM_UAVS, NUM_PAIRS),
            out=out,
            golden="topology_seed42.json",
        )
    )
    for command in ("sweep-power", "sweep-frequency", "sweep-area", "sweep-count"):
        name = command.replace("-", "_") + "_seed42.csv"
        out = workdir / name
        cycle.calls.append(_sweep_call(SweepInput(command, seed), [command, "--seed", s, "--out", str(out)], out, name))
    out = workdir / "adaptation_trace.csv"
    # The trace depends on the curves and the policy only, so every seed must
    # reproduce the golden trace.
    cycle.calls.append(Call(["adapt", "--seed", s, "--out", str(out)], None, out=out, golden="adaptation_trace.csv"))
    cycle.calls.append(_sweep_call(SweepInput("fit", seed), ["fit", "--seed", s]))
    cycle.calls.append(
        Call(["predict", "--loss", "20", "--power", "9", "--format", "json", "--seed", s], check_predict)
    )
    return cycle


DENSE_UAVS = 80
DENSE_PAIRS = 200
DENSE_REPLICATES = 50


def sweep_dense_cycle(base_seed: int, index: int, workdir: Path) -> Cycle:
    seed = cycle_seed(base_seed, index)
    flags = ["--seed", str(seed), "--num-uavs", str(DENSE_UAVS), "--num-pairs", str(DENSE_PAIRS),
             "--replicates", str(DENSE_REPLICATES)]
    return Cycle(
        seed,
        [
            _sweep_call(SweepInput(command, seed, DENSE_UAVS, DENSE_PAIRS, DENSE_REPLICATES), [command, *flags])
            for command in ("sweep-power", "sweep-frequency")
        ],
    )


WIDE_COUNTS = (250, 500, 1000)
WIDE_UAVS = 1000
WIDE_PAIRS = 10


def swarm_wide_cycle(base_seed: int, index: int, workdir: Path) -> Cycle:
    seed = cycle_seed(base_seed, index)
    s = str(seed)
    counts = ",".join(str(c) for c in WIDE_COUNTS)
    spec = SweepInput("sweep-count", seed, num_pairs=WIDE_PAIRS, axis=WIDE_COUNTS)
    out = workdir / "topology.json"
    return Cycle(
        seed,
        [
            _sweep_call(spec, ["sweep-count", "--seed", s, "--count-axis", counts, "--num-pairs", str(WIDE_PAIRS)]),
            Call(
                ["topology", "--seed", s, "--num-uavs", str(WIDE_UAVS), "--num-pairs", str(WIDE_PAIRS),
                 "--format", "json", "--out", str(out)],
                lambda doc, ref: check_topology(doc, ref, seed, WIDE_UAVS, WIDE_PAIRS),
                out=out,
            ),
        ],
    )


# name -> (cycle factory, whether each call runs as its own fanetsim process)
WORKLOADS = {
    "cli-paper": (cli_paper_cycle, True),
    "sweep-dense": (sweep_dense_cycle, False),
    "swarm-wide": (swarm_wide_cycle, False),
}


# -- checks --------------------------------------------------------------------


def _close(got: float, want: float, scale: float = 0.0) -> bool:
    """Agreement at 6 significant digits, allowing for rounding of the printed value.

    ``scale`` is the magnitude of the inputs a value was computed from; it
    absorbs summation-order differences in values that cancel towards zero.
    """
    return abs(got - want) <= 1e-5 * abs(want) + 1e-9 * scale


def _csv_rows(doc: bytes, header: list[str]) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(doc.decode("utf-8"))))
    if not rows or rows[0] != header:
        raise CheckFailed(f"unexpected header {rows[:1]}")
    return rows[1:]


class Reference:
    """Scalar recomputations shared by the checks of one op.

    Calls of one op often need the same topology (sweep-power and
    sweep-frequency share their replicates; swarm-wide's topology document is
    its count sweep's 1000-UAV replicate), so each is generated once.
    """

    def __init__(self):
        self._topologies: dict[tuple, Topology] = {}
        self._distances: dict[tuple, list[float]] = {}

    def topology(self, seed: int, num_uavs: int, side: float, num_pairs: int) -> Topology:
        key = (seed, num_uavs, side, num_pairs)
        if key not in self._topologies:
            self._topologies[key] = generate_topology(seed, num_uavs, AreaSpec(side, side), num_pairs)
        return self._topologies[key]

    def distances(self, seed: int, num_uavs: int, side: float, num_pairs: int) -> list[float]:
        key = (seed, num_uavs, side, num_pairs)
        if key not in self._distances:
            t = self.topology(*key)
            self._distances[key] = [math.dist(t.positions[i], t.positions[j]) for i, j in t.pairs]
        return self._distances[key]


def check_topology(doc: bytes, ref: Reference, seed: int, num_uavs: int, num_pairs: int) -> None:
    if parse_topology(doc.decode("utf-8")) != ref.topology(seed, num_uavs, SIDE_M, num_pairs):
        raise CheckFailed(f"topology seed {seed} does not round-trip to generate_topology")


def _radio(spec: SweepInput, value: float) -> RadioParams:
    if spec.command in ("sweep-power", "fit"):
        return RadioParams(tx_power_dbm=value, frequency_hz=FREQUENCY_HZ)
    if spec.command == "sweep-frequency":
        return RadioParams(tx_power_dbm=TX_POWER_DBM, frequency_hz=value)
    return RadioParams(tx_power_dbm=TX_POWER_DBM, frequency_hz=FREQUENCY_HZ)


def expected_sweep(spec: SweepInput, ref: Reference) -> list[tuple[float, int, float, float]]:
    """(axis value, packet size, mean %, population std %) per cell, by scalar recomputation.

    link_quality runs once per pair and radio; its BER gives the loss at each
    packet size through packet_loss_prob, exactly as inside link_quality.
    """
    rows = []
    for value in spec.axis_values:
        side = value if spec.command == "sweep-area" else SIDE_M
        n = int(value) if spec.command == "sweep-count" else spec.num_uavs
        radio = _radio(spec, value)
        per_size = {size: [] for size in PACKET_SIZES}  # pair-mean loss % of each replicate
        for r in range(spec.replicates):
            bers = [link_quality(d, radio, 1).ber for d in ref.distances(spec.seed + r, n, side, spec.num_pairs)]
            for size, losses in per_size.items():
                losses.append(math.fsum(packet_loss_prob(ber, size) * 100.0 for ber in bers) / len(bers))
        for size, losses in per_size.items():
            mean = math.fsum(losses) / len(losses)
            std = math.sqrt(math.fsum((x - mean) ** 2 for x in losses) / len(losses))
            rows.append((float(value), size, mean, std))
    return rows


def check_sweep(doc: bytes, ref: Reference, spec: SweepInput) -> None:
    rows = _csv_rows(doc, ["axis_value", "packet_size_bits", "mean_loss_percent", "std_loss_percent"])
    expected = expected_sweep(spec, ref)
    if len(rows) != len(expected):
        raise CheckFailed(f"{spec.command} seed {spec.seed}: {len(rows)} rows, expected {len(expected)}")
    for row, (value, size, mean, std) in zip(rows, expected):
        if row[0] != f"{value:.6g}" or int(row[1]) != size:
            raise CheckFailed(f"{spec.command} seed {spec.seed}: cell {row[:2]} out of order")
        if not (_close(float(row[2]), mean) and _close(float(row[3]), std, scale=mean)):
            raise CheckFailed(f"{spec.command} seed {spec.seed}: cell {row} != {(value, size, mean, std)}")


def check_fit(doc: bytes, ref: Reference, spec: SweepInput) -> None:
    rows = _csv_rows(doc, ["power_dbm", "slope", "intercept"])
    cells = expected_sweep(spec, ref)
    lx = [math.log(size) for size in PACKET_SIZES]
    lx_mean = math.fsum(lx) / len(lx)
    var = math.fsum((a - lx_mean) ** 2 for a in lx) / len(lx)
    if len(rows) != len(spec.axis_values):
        raise CheckFailed(f"fit seed {spec.seed}: {len(rows)} curves, expected {len(spec.axis_values)}")
    for row, power in zip(rows, spec.axis_values):
        ys = [mean for value, _size, mean, _std in cells if value == power]
        y_mean = math.fsum(ys) / len(ys)
        slope = math.fsum((a - lx_mean) * (y - y_mean) for a, y in zip(lx, ys)) / len(lx) / var
        intercept = y_mean - slope * lx_mean
        scale = max(abs(y) for y in ys)
        if row[0] != f"{power:.6g}" or not (
            _close(float(row[1]), slope, scale) and _close(float(row[2]), intercept, scale)
        ):
            raise CheckFailed(f"fit seed {spec.seed}: curve {row} != {(power, slope, intercept)}")


def check_predict(doc: bytes, ref: Reference, loss: float = 20.0, power: float = 9.0) -> None:
    got = json.loads(doc)
    slope, intercept = CURVES[power]
    analytic = math.exp((loss - intercept) / slope)
    grid, best = None, math.inf
    for x in range(10, 10001, 10):  # nearest grid size with positive loss, ties to the smaller
        y = slope * math.log(x) + intercept
        if y > 0 and abs(loss - y) < best:
            grid, best = x, abs(loss - y)
    want = {"loss_percent": loss, "power_dbm": power, "grid_bits": grid}
    if {k: got.get(k) for k in want} != want or not _close(got.get("analytic_bits", math.nan), analytic):
        raise CheckFailed(f"predict: {got} != analytic {analytic}, {want}")


def check_call(call: Call, doc: bytes, ref: Reference, seed: int, golden_dir: Path) -> None:
    """Golden bytes where the call has a golden for this seed, else the call's recomputation."""
    if call.golden is not None and (seed == GOLDEN_SEED or call.check is None):
        if doc != (golden_dir / call.golden).read_bytes():
            raise CheckFailed(f"{call.argv[0]} seed {seed}: differs from golden {call.golden}")
        return
    call.check(doc, ref)


def check_op(calls: list[Call], docs: list[bytes], statuses: list, seed: int, golden_dir: Path) -> str | None:
    """None when every call exited 0 and its document checks out, else why not."""
    if len(statuses) != len(calls) or any(status != 0 for status in statuses):
        return f"exit statuses {statuses}"
    ref = Reference()
    try:
        for call, doc in zip(calls, docs):
            check_call(call, doc, ref, seed, golden_dir)
    except CheckFailed as exc:
        return str(exc)
    except Exception as exc:  # a document the checker cannot parse is wrong output
        return f"unreadable output: {exc!r}"
    return None
