#!/usr/bin/env python3
"""fanetsim benchmark: one closed-loop client, one op in flight at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and measures the fanetsim package
under ``src/`` (it is not installed). cli-paper runs each op as a
``python -m fanetsim`` process; the other workloads call
``fanetsim.cli.main(argv)`` in this process. Ops repeat for S seconds, then
every output is checked outside the timed region.

With ``--trace 0`` the last stdout line holds the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` ops alternate between untraced and traced
(see tracer.py) and the line holds the per-layer metrics. Earlier lines are
a readable summary. Per-op sha256 digests go to ``.perfbench/digests/`` and
the spans of a traced run to ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

from tracer import Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
STATE = ROOT / ".perfbench"
TRACER = HERE / "tracer.py"

# Set-up (or, traced, import-split) samples are spread over the run, so that
# their median, like the ops', covers the machine's slow and fast spells.
SIDE_SAMPLES = 9
CHILD_TIMEOUT_S = 120


def child_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def fresh_interpreter(code: str) -> tuple[float, str]:
    """Wall time of a new interpreter running ``code``, and what it printed."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, check=True,
    )
    return time.perf_counter() - start, proc.stdout


def setup_sample() -> float:
    """Time for a fresh interpreter to import fanetsim.cli: every workload's set-up."""
    return fresh_interpreter("import fanetsim.cli")[0]


def import_sample() -> tuple[float, float, float, bool]:
    """Fresh interpreters running ``pass``, ``import numpy`` and ``import fanetsim.cli``.

    Returns the first one's wall time, the imports' own times, and whether
    importing fanetsim.cli also imported numpy.
    """
    interpreter = fresh_interpreter("pass")[0]
    numpy = fresh_interpreter("import time; t = time.perf_counter(); import numpy; print(time.perf_counter() - t)")
    fanetsim = fresh_interpreter(
        "import sys, time; t = time.perf_counter(); import fanetsim.cli\n"
        "print(time.perf_counter() - t, 'numpy' in sys.modules)")[1].split()
    return interpreter, float(numpy[1]), float(fanetsim[0]), fanetsim[1] == "True"


def import_split(samples: list[tuple[float, float, float, bool]]) -> dict[str, float]:
    numpy_s = statistics.median(s[1] for s in samples)
    return {
        "import.interpreter_s": statistics.median(s[0] for s in samples),
        "import.numpy_s": numpy_s,
        "import.fanetsim_s": statistics.median(s[2] - (numpy_s if s[3] else 0.0) for s in samples),
    }


class Runner:
    """Runs cycles and keeps, per op, its time, documents, statuses and trace record."""

    def __init__(self, separate: bool, workdir: Path):
        self.separate = separate
        self.workdir = workdir
        self.times: dict[bool, list[float]] = {False: [], True: []}  # traced? -> op times
        self.cycle_times: list[float] = []
        self.ops: list[dict] = []
        self.records: list[dict] = []

    def run(self, cycle, traced: bool) -> None:
        if self.separate:
            ops = [self._subprocess(cycle, call, traced) for call in cycle.calls]
        else:
            ops = [self._in_process(cycle, traced)]
        for op in ops:
            op["traced"] = traced
            self.times[traced].append(op["time"])
        self.cycle_times.append(sum(op["time"] for op in ops))
        self.ops.extend(ops)

    def _subprocess(self, cycle, call, traced: bool) -> dict:
        record_path = self.workdir / "record.json"
        head = [str(TRACER), str(record_path)] if traced else ["-m", "fanetsim"]
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *head, *call.argv], env=child_env(), stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S,
        )
        elapsed = time.perf_counter() - start
        doc = document(call, proc.returncode, proc.stdout)
        if traced and proc.returncode == 0:
            self.records.append(json.loads(record_path.read_text(encoding="utf-8")))
        return {"cycle": cycle, "calls": [call], "docs": [doc], "statuses": [proc.returncode], "time": elapsed}

    def _in_process(self, cycle, traced: bool) -> dict:
        cli = sys.modules["fanetsim.cli"]  # looked up per call, so an installed tracer sees main
        statuses, buffers = [], []
        tracer = Tracer() if traced else None
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            for call in cycle.calls:
                buffer = io.StringIO()
                with contextlib.redirect_stdout(buffer):
                    statuses.append(cli.main(call.argv))
                buffers.append(buffer)
        except Exception as exc:  # an op that crashes is a failed op, not a crashed benchmark
            traceback.print_exc()
            statuses.append(f"raised {type(exc).__name__}")
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
                self.records.append(tracer.take())
        docs = [
            document(call, status, buffer.getvalue().encode("utf-8"))
            for call, status, buffer in zip(cycle.calls, statuses, buffers)
        ]
        return {"cycle": cycle, "calls": cycle.calls, "docs": docs, "statuses": statuses, "time": elapsed}


def document(call, status, stdout: bytes) -> bytes:
    """The call's output: its --out file, removed once read so no later op sees it, or its stdout."""
    if call.out is None:
        return stdout
    if status != 0 or not call.out.exists():
        return b""
    doc = call.out.read_bytes()
    call.out.unlink()
    return doc


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten ops beyond it, and that percentile.

    With fewer than 21 ops no percentile above the median has ten ops beyond
    it; the upper median is reported then.
    """
    ordered = sorted(times)
    rank = max(len(ordered) - 10, len(ordered) // 2 + 1)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def end_to_end(runner: Runner, setup: list[float], peak_rss_mb: float) -> dict[str, float]:
    times = runner.times[False]
    cycle = runner.ops[0]["cycle"]
    return {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail(times)[0],
        "link_evals_per_s": cycle.link_evals / statistics.median(runner.cycle_times),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(runner: Runner, imports: list[tuple[float, float, float, bool]]) -> dict[str, float]:
    """Mean per traced op of each layer's self time and counts."""
    n = len(runner.times[True])
    self_s, calls = Counter(), Counter()
    draws = cells = 0
    for record in runner.records:
        summary = summarize(record)
        self_s.update(summary["self_s"])
        calls.update(summary["calls"])
        draws += record["rng_draws"]
        cells += record["sweep_cells"]
    distinct = sum(c.distinct_distances for op in runner.ops if op["traced"] for c in op["calls"])
    distance_calls = calls.get("topology.distance", 0)
    metrics = import_split(imports)
    for layer in ("cli", "config", "topology", "link", "sweeps", "output", "curves", "adaptation"):
        metrics[f"{layer}.self_s"] = self_s[layer] / n
    metrics.update({
        "rng.draws": draws / n,
        "topology.generated": calls.get("topology.generate_topology", 0) / n,
        "topology.distance_calls": distance_calls / n,
        "link.calls": calls.get("link", 0) / n,
        # 0 when no distance() call was seen, so the reuse cannot be observed.
        "link.distance_reuse": distinct / distance_calls if distance_calls else 0.0,
        "sweeps.cells": cells / n,
        "output.bytes": statistics.fmean(sum(len(d) for d in op["docs"]) for op in runner.ops),
        "trace.overhead_s": statistics.median(runner.times[True]) - statistics.median(runner.times[False]),
    })
    return metrics


def write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")


def parse_args(argv: list[str] | None, spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = parse_args(argv, spec)
    if not (SRC / "fanetsim" / "__init__.py").is_file() or not GOLDEN.is_dir():
        print(f"perfbench: no fanetsim source tree (src/fanetsim, tests/golden) under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fanetsim.cli
    import numpy
    import workloads

    if not Path(fanetsim.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: fanetsim imported from {fanetsim.__file__}, not {SRC}", file=sys.stderr)
        return 2

    build, separate = workloads.WORKLOADS[args.workload]
    STATE.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=STATE))
    try:
        side = import_sample if args.trace else setup_sample
        side()  # warm-up: the first fresh import may still compile bytecode
        side_samples = []
        runner = Runner(separate, workdir)
        start = next_side = time.perf_counter()
        index = 0
        while index == 0 or time.perf_counter() - start < args.seconds:
            if time.perf_counter() >= next_side:
                side_samples.append(side())
                next_side += args.seconds / SIDE_SAMPLES
            runner.run(build(args.seed, index, workdir), traced=bool(args.trace) and index % 2 == 1)
            index += 1
        while len(side_samples) < SIDE_SAMPLES:
            side_samples.append(side())
        usage = resource.RUSAGE_CHILDREN if separate else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
        failures = [
            (op, workloads.check_op(op["calls"], op["docs"], op["statuses"], op["cycle"].seed, GOLDEN))
            for op in runner.ops
        ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [(op, why) for op, why in failures if why is not None]
    for op, why in failed[:5]:
        print(f"FAILED {op['calls'][0].argv[0]} seed {op['cycle'].seed}: {why}", file=sys.stderr)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    digests = [
        {"seed": op["cycle"].seed, "command": " ".join(c.argv[0] for c in op["calls"]),
         "sha256": [hashlib.sha256(d).hexdigest() for d in op["docs"]]}
        for op in runner.ops
    ]
    write_json(STATE / "digests" / f"{label}.json", digests)
    if args.trace:
        write_json(STATE / "traces" / f"{label}.json", runner.records)
        metrics, declared = per_layer(runner, side_samples), spec["per_layer"]
    else:
        metrics, declared = end_to_end(runner, side_samples, peak_rss_mb), spec["end_to_end"]

    times = runner.times[False]
    value, percentile = tail(times)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  cycles {index}  ops {len(runner.ops)}")
    print(f"machine: nproc {os.cpu_count()}, python {platform.python_version()}, numpy {numpy.__version__}")
    print(f"failed_ratio = {len(failed) / len(runner.ops):.6g}  ({len(failed)} of {len(runner.ops)} ops)")
    print(f"op_tail_s is p{percentile:.1f} of {len(times)} untraced ops: {value:.6g} s")
    for entry in declared:
        print(f"{entry['name']} = {metrics[entry['name']]:.6g} {entry['unit']}")
    joined = hashlib.sha256("".join("".join(d["sha256"]) for d in digests).encode()).hexdigest()
    print(f"outputs sha256 {joined[:16]} over {len(digests)} ops; per op in .perfbench/digests/{label}.json")
    result = {
        "correct": not failed,
        "attempted": len(runner.ops),
        "failed": len(failed),
        "metrics": {e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]} for e in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
