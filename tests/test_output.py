"""Deterministic document emission."""

import csv
import io
import json
import os
import stat
from enum import Enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanetsim import (
    AdaptationPolicy,
    CurveFamily,
    LossCurve,
    PacketSizePrediction,
    SweepResult,
    SweepRow,
    TraceEvent,
    TraceSample,
    default_curve_family,
    default_policy,
    fit_family_from_power_sweep,
    predict_with_oracle,
    run_adaptation,
    run_sweep,
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


def _sig6(value: float) -> float:
    """value rounded to 6 significant digits, by another route than format_float."""
    return float(f"{value:.5e}")


def _assert_table_parses_back(result, key, rows):
    """The CSV and JSON documents of result both parse back to rows at 6 significant digits."""
    from_csv = list(csv.DictReader(io.StringIO(emit_table(result, OutputFormat.CSV))))
    from_json = json.loads(emit_table(result, OutputFormat.JSON))[key]
    assert len(from_csv) == len(from_json) == len(rows)
    for row, csv_row, json_row in zip(rows, from_csv, from_json):
        assert list(csv_row) == list(json_row) and set(csv_row) <= set(row._fields)
        for name, cell in csv_row.items():
            want = getattr(row, name)
            if isinstance(want, Enum):
                assert cell == json_row[name] == want.value
            elif isinstance(want, int):
                assert int(cell) == json_row[name] == want
            else:
                assert float(cell) == json_row[name] == _sig6(want)


_SWEEP_AXIS_VALUES = {
    SweepAxis.POWER_DBM: st.floats(-20.0, 20.0),
    SweepAxis.FREQUENCY_HZ: st.floats(1e8, 6e10),
    SweepAxis.AREA_SIDE_M: st.floats(10.0, 5000.0),
    SweepAxis.UAV_COUNT: st.integers(6, 30).map(float),
}


@st.composite
def _small_sweep_specs(draw, axes=tuple(SweepAxis), min_sizes=1):
    axis = draw(st.sampled_from(axes))
    return SweepSpec(
        base_seed=draw(st.integers(0, 2**32)),
        axis=axis,
        axis_values=tuple(sorted(draw(st.sets(_SWEEP_AXIS_VALUES[axis], min_size=1, max_size=4)))),
        num_uavs=draw(st.integers(6, 20)),
        num_pairs=draw(st.integers(1, 10)),
        packet_sizes=tuple(sorted(draw(st.sets(st.integers(1, 20000), min_size=min_sizes, max_size=4)))),
        replicates=draw(st.integers(1, 3)),
    )


@settings(max_examples=40, deadline=None)
@given(_small_sweep_specs())
def test_sweep_documents_parse_back_to_their_rows(spec):
    result = run_sweep(spec)
    _assert_table_parses_back(result, "rows", result.rows)
    echo = json.loads(emit_table(result, OutputFormat.JSON))["spec"]
    assert echo["axis_values"] == [_sig6(v) for v in spec.axis_values]


@settings(max_examples=20, deadline=None)
@given(_small_sweep_specs(axes=(SweepAxis.POWER_DBM,), min_sizes=2))
def test_fit_documents_parse_back_to_their_curves(spec):
    family = fit_family_from_power_sweep(run_sweep(spec))
    _assert_table_parses_back(family, "curves", family.curves)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 100), st.integers(1, 50), st.integers(0, 30))
def test_trace_documents_parse_back_to_their_samples(initial, growth, backoff):
    policy = AdaptationPolicy(default_policy().rungs, initial, growth, backoff)
    trace = run_adaptation(policy, default_curve_family())
    _assert_table_parses_back(trace, "samples", trace)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 60.0), st.one_of(st.sampled_from([5.0, 7.0, 9.0]), st.floats(5.0, 9.0)))
def test_prediction_documents_parse_back_to_their_prediction(loss, power):
    pred = predict_with_oracle(loss, power, default_curve_family())
    methods = dict(list(csv.reader(io.StringIO(emit_table(pred, OutputFormat.CSV))))[1:])
    assert float(methods.pop("analytic")) == _sig6(pred.analytic_bits)
    assert methods == ({} if pred.grid_bits is None else {"grid": str(pred.grid_bits)})
    assert json.loads(emit_table(pred, OutputFormat.JSON)) == {
        "loss_percent": _sig6(pred.loss_percent),
        "power_dbm": _sig6(pred.power_dbm),
        "analytic_bits": _sig6(pred.analytic_bits),
        "grid_bits": pred.grid_bits,
    }


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
