"""Deterministic CSV/JSON emission.

Floating values are printed with 6 significant digits (round-half-even),
which decouples committed golden files from platform printf differences.
The same result always serializes to identical bytes.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from enum import Enum
from pathlib import Path
from typing import Sequence

from fanetsim.adaptation import TraceSample
from fanetsim.curves import CurveFamily, PacketSizePrediction
from fanetsim.sweeps import SweepResult
from fanetsim.topology import Topology, serialize_topology


class OutputFormat(Enum):
    CSV = "csv"
    JSON = "json"


def format_float(value: float) -> str:
    return f"{value:.6g}"


def _round6(value: float) -> float:
    return float(format_float(value))


def _csv(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_doc(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _sweep_spec_echo(result: SweepResult) -> dict:
    spec = result.spec
    return {
        "axis": spec.axis.value,
        "axis_values": [_round6(v) for v in spec.axis_values],
        "base_seed": spec.base_seed,
        "num_uavs": spec.num_uavs,
        "area": {"width": _round6(spec.area.width_m), "height": _round6(spec.area.height_m)},
        "num_pairs": spec.num_pairs,
        "radio": {
            "tx_power_dbm": _round6(spec.radio.tx_power_dbm),
            "noise_floor_dbm": _round6(spec.radio.noise_floor_dbm),
            "frequency_hz": _round6(spec.radio.frequency_hz),
            "ber_model": spec.radio.ber_model.value,
        },
        "packet_sizes_bits": list(spec.packet_sizes),
        "replicates": spec.replicates,
    }


def _emit_sweep(result: SweepResult, fmt: OutputFormat) -> str:
    if fmt is OutputFormat.CSV:
        rows = [
            (
                format_float(row.axis_value),
                str(row.packet_size_bits),
                format_float(row.mean_loss_percent),
                format_float(row.std_loss_percent),
            )
            for row in result.rows
        ]
        return _csv(("axis_value", "packet_size_bits", "mean_loss_percent", "std_loss_percent"), rows)
    return _json_doc(
        {
            "spec": _sweep_spec_echo(result),
            "rows": [
                {
                    "axis_value": _round6(row.axis_value),
                    "packet_size_bits": row.packet_size_bits,
                    "mean_loss_percent": _round6(row.mean_loss_percent),
                    "std_loss_percent": _round6(row.std_loss_percent),
                }
                for row in result.rows
            ],
        }
    )


def _emit_trace(trace: Sequence[TraceSample], fmt: OutputFormat) -> str:
    if fmt is OutputFormat.CSV:
        rows = [
            (
                str(s.tick),
                str(s.packet_bits),
                format_float(s.loss_percent),
                format_float(s.power_dbm),
                s.event.value,
            )
            for s in trace
        ]
        return _csv(("tick", "packet_bits", "loss_percent", "power_dbm", "event"), rows)
    return _json_doc(
        {
            "samples": [
                {
                    "tick": s.tick,
                    "packet_bits": s.packet_bits,
                    "loss_percent": _round6(s.loss_percent),
                    "power_dbm": _round6(s.power_dbm),
                    "event": s.event.value,
                }
                for s in trace
            ]
        }
    )


def _emit_curves(family: CurveFamily, fmt: OutputFormat) -> str:
    if fmt is OutputFormat.CSV:
        rows = [
            (format_float(c.power_dbm), format_float(c.slope), format_float(c.intercept))
            for c in family.curves
        ]
        return _csv(("power_dbm", "slope", "intercept"), rows)
    return _json_doc(
        {
            "curves": [
                {
                    "power_dbm": _round6(c.power_dbm),
                    "slope": _round6(c.slope),
                    "intercept": _round6(c.intercept),
                }
                for c in family.curves
            ]
        }
    )


def _emit_prediction(pred: PacketSizePrediction, fmt: OutputFormat) -> str:
    if fmt is OutputFormat.CSV:
        rows = [("analytic", format_float(pred.analytic_bits))]
        if pred.grid_bits is not None:
            rows.append(("grid", str(pred.grid_bits)))
        return _csv(("method", "packet_size_bits"), rows)
    return _json_doc(
        {
            "loss_percent": _round6(pred.loss_percent),
            "power_dbm": _round6(pred.power_dbm),
            "analytic_bits": _round6(pred.analytic_bits),
            "grid_bits": pred.grid_bits,
        }
    )


def emit_table(result, fmt: OutputFormat) -> str:
    """Serialize a result to its CSV or JSON document."""
    if isinstance(result, SweepResult):
        return _emit_sweep(result, fmt)
    if isinstance(result, Topology):
        if fmt is OutputFormat.CSV:
            raise ValueError("topology documents are JSON only")
        return serialize_topology(result)
    if isinstance(result, CurveFamily):
        return _emit_curves(result, fmt)
    if isinstance(result, PacketSizePrediction):
        return _emit_prediction(result, fmt)
    if isinstance(result, (list, tuple)) and all(isinstance(s, TraceSample) for s in result):
        return _emit_trace(result, fmt)
    raise TypeError(f"no table emitter for {type(result).__name__}")


def write_document(text: str, out_path: str | None) -> None:
    """Write to stdout, or atomically to a file through a unique temp file and a rename.

    A failed write removes the temp file, so no partial document is left.
    """
    if out_path is None:
        sys.stdout.write(text)
        return
    path = Path(out_path)
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            # mkstemp creates the file 0600; give the document the mode a plain
            # open() would: 0666 less the umask, which is read by setting it.
            umask = os.umask(0o022)
            os.umask(umask)
            os.chmod(handle.fileno(), 0o666 & ~umask)
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
