"""Deterministic document emission."""

import json
import os
import stat

import pytest

from fanetsim import (
    CurveFamily,
    LossCurve,
    PacketSizePrediction,
    SweepResult,
    SweepRow,
    TraceEvent,
    TraceSample,
)
from fanetsim.output import OutputFormat, emit_table, format_float, write_document
from fanetsim.sweeps import SweepAxis, SweepSpec


@pytest.mark.parametrize(
    "value,expected",
    [
        (46.370979460167135, "46.371"),
        (80.0459970202808, "80.046"),
        (2.4e9, "2.4e+09"),
        (50.0, "50"),
        (0.000123456789, "0.000123457"),
        (0.0, "0"),
        (-6.0, "-6"),
    ],
)
def test_format_float_six_significant_digits(value, expected):
    assert format_float(value) == expected


def _small_sweep_result():
    spec = SweepSpec(
        base_seed=1, axis=SweepAxis.POWER_DBM, axis_values=(5.0, 9.0), packet_sizes=(10, 100)
    )
    rows = (
        SweepRow(5.0, 10, 12.345678, 0.0),
        SweepRow(5.0, 100, 23.456789, 0.0),
        SweepRow(9.0, 10, 1.2345678, 0.0),
        SweepRow(9.0, 100, 2.3456789, 0.0),
    )
    return SweepResult(spec, rows)


def test_sweep_csv_document():
    doc = emit_table(_small_sweep_result(), OutputFormat.CSV)
    assert doc == (
        "axis_value,packet_size_bits,mean_loss_percent,std_loss_percent\n"
        "5,10,12.3457,0\n"
        "5,100,23.4568,0\n"
        "9,10,1.23457,0\n"
        "9,100,2.34568,0\n"
    )


def test_sweep_json_document():
    doc = emit_table(_small_sweep_result(), OutputFormat.JSON)
    parsed = json.loads(doc)
    assert parsed["spec"]["axis"] == "power_dbm"
    assert parsed["spec"]["radio"]["ber_model"] == "exp-half-snr"
    assert parsed["rows"][0] == {
        "axis_value": 5.0,
        "packet_size_bits": 10,
        "mean_loss_percent": 12.3457,
        "std_loss_percent": 0.0,
    }


def test_emission_is_deterministic():
    result = _small_sweep_result()
    for fmt in OutputFormat:
        assert emit_table(result, fmt) == emit_table(result, fmt)


def test_trace_documents():
    trace = (
        TraceSample(0, 20, 46.370979460167135, 5.0, TraceEvent.NONE),
        TraceSample(1, 30, 49.128113289078504, 5.0, TraceEvent.ESCALATED),
        TraceSample(2, 20, 25.270442377579097, 7.0, TraceEvent.TERMINATED),
    )
    csv_doc = emit_table(trace, OutputFormat.CSV)
    assert csv_doc == (
        "tick,packet_bits,loss_percent,power_dbm,event\n"
        "0,20,46.371,5,none\n"
        "1,30,49.1281,5,escalated\n"
        "2,20,25.2704,7,terminated\n"
    )
    parsed = json.loads(emit_table(trace, OutputFormat.JSON))
    assert [s["event"] for s in parsed["samples"]] == ["none", "escalated", "terminated"]
    assert parsed["samples"][0]["loss_percent"] == 46.371


def test_curve_family_documents():
    family = CurveFamily((LossCurve(6.8, 26.0, 5.0), LossCurve(6.2, -6.0, 9.0)))
    assert emit_table(family, OutputFormat.CSV) == (
        "power_dbm,slope,intercept\n5,6.8,26\n9,6.2,-6\n"
    )
    parsed = json.loads(emit_table(family, OutputFormat.JSON))
    assert parsed["curves"][1] == {"power_dbm": 9.0, "slope": 6.2, "intercept": -6.0}


def test_prediction_documents():
    pred = PacketSizePrediction(20.0, 9.0, 66.25748152017384, 70)
    assert emit_table(pred, OutputFormat.CSV) == (
        "method,packet_size_bits\nanalytic,66.2575\ngrid,70\n"
    )
    parsed = json.loads(emit_table(pred, OutputFormat.JSON))
    assert parsed == {
        "loss_percent": 20.0,
        "power_dbm": 9.0,
        "analytic_bits": 66.2575,
        "grid_bits": 70,
    }
    no_grid = PacketSizePrediction(20.0, 6.0, 2.053251143236552, None)
    assert "grid" not in emit_table(no_grid, OutputFormat.CSV).splitlines()[-1]
    assert json.loads(emit_table(no_grid, OutputFormat.JSON))["grid_bits"] is None


def test_emit_table_rejects_unknown_types():
    with pytest.raises(TypeError):
        emit_table({"not": "a result"}, OutputFormat.CSV)


def test_write_document_to_stdout(capsys):
    write_document("hello\n", None)
    assert capsys.readouterr().out == "hello\n"


def test_write_document_atomic_to_file(tmp_path):
    target = tmp_path / "out.csv"
    write_document("a,b\n1,2\n", str(target))
    assert target.read_text(encoding="utf-8") == "a,b\n1,2\n"
    assert list(tmp_path.iterdir()) == [target]


def test_write_document_failure_removes_temp_file(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()  # os.replace cannot put a file over a directory
    with pytest.raises(OSError):
        write_document("a,b\n", str(target))
    assert list(tmp_path.iterdir()) == [target]
    assert list(target.iterdir()) == []


def test_write_document_file_mode_follows_umask(tmp_path):
    target = tmp_path / "out.csv"
    previous = os.umask(0o027)
    try:
        write_document("a,b\n", str(target))
    finally:
        os.umask(previous)
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
