"""Span tracer for fanetsim's module boundaries, installed from outside the package.

A layer is a fanetsim submodule (cli, config, rng, topology, link, sweeps,
curves, adaptation, output). A public function is a layer boundary when
another fanetsim submodule imports it; the tracer replaces every binding of
such a function (in the defining module and in each importer) with a wrapper
that records a span: layer, function name, start, end and parent span. A
layer's self time is its spans' durations minus the part covered by their
child spans. Nothing inside the package is edited, and a function a later
refactor bypasses or renames simply records zero calls.

Run as a script, it traces one CLI invocation in a fresh interpreter:

    python perfbench/tracer.py RECORD.json SUBCOMMAND [FLAGS...]

which behaves like ``python -m fanetsim SUBCOMMAND [FLAGS...]`` and also
writes the trace record of that invocation to RECORD.json.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from types import FunctionType

LAYERS = ("cli", "config", "rng", "topology", "link", "sweeps", "curves", "adaptation", "output")

# distance() runs once per link evaluation (~0.3 us each); a span would cost
# more than the call, so it is counted and its time stays with its caller.
COUNT_ONLY = {("topology", "distance")}

MASK64 = (1 << 64) - 1
_GAMMA_INV = pow(0x9E3779B97F4A7C15, -1, 1 << 64)


def _layer_modules() -> dict[str, object]:
    return {name: sys.modules[f"fanetsim.{name}"] for name in LAYERS if f"fanetsim.{name}" in sys.modules}


def _binding_modules() -> list[object]:
    """Every loaded fanetsim module, the package itself included."""
    return [m for name, m in list(sys.modules.items()) if name == "fanetsim" or name.startswith("fanetsim.")]


class Tracer:
    """Collects spans and counts for the fanetsim calls made while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.sweep_cells = 0
        self._generators: list[tuple[int, object]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap the boundary functions of every fanetsim module already imported."""
        layers = _layer_modules()
        targets: dict[int, tuple[object, object]] = {}
        for layer, module in layers.items():
            for name, obj in vars(module).items():
                if name.startswith("_") or not isinstance(obj, FunctionType) or obj.__module__ != module.__name__:
                    continue
                imported = any(
                    other != layer and any(v is obj for v in vars(m).values()) for other, m in layers.items()
                )
                if imported or (layer, name) == ("cli", "main"):
                    targets[id(obj)] = (obj, self._wrap(layer, name, obj))
        rng = layers.get("rng")
        generator_class = getattr(rng, "SplitMix64", None) if rng is not None else None
        if isinstance(generator_class, type):
            targets[id(generator_class)] = (generator_class, self._counting_generator(generator_class))
        for module in _binding_modules():
            for name, obj in list(vars(module).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((module, name, obj))
                    setattr(module, name, hit[1])

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    def _wrap(self, layer: str, name: str, fn):
        if (layer, name) in COUNT_ONLY:
            key = f"{layer}.{name}"
            counts = self.counts

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return counted

        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((layer, name, 0.0, 0.0, parent))
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, name, start, end, parent)
            if layer == "sweeps" and (parent < 0 or spans[parent][0] != "sweeps"):
                self.sweep_cells += len(getattr(result, "rows", ()))
            return result

        return spanned

    def _counting_generator(self, base: type) -> type:
        """Subclass that remembers each generator, so draws are read off its state."""
        generators = self._generators

        class CountedGenerator(base):
            __slots__ = ()

            def __init__(self, seed, *args, **kwargs):
                super().__init__(seed, *args, **kwargs)
                generators.append((seed & MASK64, self))

        CountedGenerator.__name__ = CountedGenerator.__qualname__ = base.__name__
        return CountedGenerator

    # -- results ----------------------------------------------------------

    def take(self) -> dict:
        """Return the record of everything traced since the last take, and reset."""
        draws = 0
        for seed, generator in self._generators:
            state = getattr(generator, "state", None)
            if isinstance(state, int):
                # SplitMix64 advances its state by gamma per draw.
                draws += ((state - seed) * _GAMMA_INV) & MASK64
        record = {
            "spans": list(self.spans),
            "counts": dict(self.counts),
            "rng_draws": draws,
            "sweep_cells": self.sweep_cells,
        }
        self.spans.clear()
        self.counts.clear()
        self._generators.clear()
        self.sweep_cells = 0
        return record


def summarize(record: dict) -> dict:
    """Per-layer self time, per-layer span count and per-function call count of one record."""
    spans = record["spans"]
    covered = [0.0] * len(spans)
    for _layer, _name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_s: Counter = Counter()
    calls: Counter = Counter(record["counts"])
    for index, (layer, name, start, end, _parent) in enumerate(spans):
        self_s[layer] += (end - start) - covered[index]
        calls[layer] += 1
        calls[f"{layer}.{name}"] += 1
    return {"self_s": self_s, "calls": calls}


def _trace_cli(record_path: str, argv: list[str]) -> int:
    import fanetsim.cli

    tracer = Tracer()
    tracer.install()
    try:
        status = fanetsim.cli.main(argv)
    finally:
        tracer.uninstall()
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.take(), handle)
    return status


if __name__ == "__main__":
    raise SystemExit(_trace_cli(sys.argv[1], sys.argv[2:]))
