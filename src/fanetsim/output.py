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


# Table cells are floats, written at 6 significant digits, except these
# integer columns, written as they are, and enums, written as their value.
_INT_COLUMNS = frozenset({"packet_size_bits", "tick", "packet_bits"})


def _csv_cell(name: str, value) -> str:
    if isinstance(value, Enum):
        return value.value
    return str(value) if name in _INT_COLUMNS else format_float(value)


def _json_cell(name: str, value):
    if isinstance(value, Enum):
        return value.value
    return value if name in _INT_COLUMNS else _round6(value)


def _table(result) -> tuple[str, Sequence, tuple[str, ...]]:
    """A table document's JSON list key, its rows, and its columns (row attributes)."""
    if isinstance(result, SweepResult):
        return "rows", result.rows, ("axis_value", "packet_size_bits", "mean_loss_percent", "std_loss_percent")
    if isinstance(result, CurveFamily):
        return "curves", result.curves, ("power_dbm", "slope", "intercept")
    if isinstance(result, (list, tuple)) and all(isinstance(s, TraceSample) for s in result):
        return "samples", result, ("tick", "packet_bits", "loss_percent", "power_dbm", "event")
    raise TypeError(f"no table emitter for {type(result).__name__}")


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
    if isinstance(result, PacketSizePrediction):
        return _emit_prediction(result, fmt)
    key, rows, columns = _table(result)
    if fmt is OutputFormat.CSV:
        return _csv(columns, [[_csv_cell(c, getattr(row, c)) for c in columns] for row in rows])
    doc = {"spec": _sweep_spec_echo(result)} if isinstance(result, SweepResult) else {}
    doc[key] = [{c: _json_cell(c, getattr(row, c)) for c in columns} for row in rows]
    return _json_doc(doc)


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
