"""End-to-end CLI behaviour: subcommands, exit codes, golden datasets."""

import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanetsim import CurveFamily, LossCurve, default_policy, run_adaptation
from fanetsim.cli import _SUBCOMMANDS, build_parser, main
from fanetsim.config import RunConfig
from fanetsim.output import OutputFormat, emit_table
from golden_runs import GOLDEN_RUNS

ROOT = Path(__file__).resolve().parent.parent

ALL_SUBCOMMAND_ARGS = [
    ["topology", "--format", "json"],
    ["sweep-power"],
    ["sweep-frequency"],
    ["sweep-area"],
    ["sweep-count"],
    ["fit"],
    ["predict", "--loss", "20", "--power", "9"],
    ["adapt"],
]


def _run(argv, capsys):
    try:
        status = main(argv)
    except SystemExit as exc:  # the argument parser rejected argv
        status = exc.code
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep-power", "--no-such-flag", "1"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("argv,golden_name", GOLDEN_RUNS)
def test_subcommands_reproduce_golden_datasets(argv, golden_name, capsys, golden_dir):
    status, out, err = _run(argv, capsys)
    assert status == 0
    assert err == ""
    assert out == (golden_dir / golden_name).read_text(encoding="utf-8")


def test_every_golden_file_comes_from_exactly_one_run(golden_dir):
    names = [name for _, name in GOLDEN_RUNS]
    assert len(set(names)) == len(names)
    assert sorted(path.name for path in golden_dir.iterdir()) == sorted(names)


@pytest.mark.parametrize("argv", ALL_SUBCOMMAND_ARGS)
def test_every_subcommand_is_byte_deterministic(argv, capsys):
    status1, out1, _ = _run(argv, capsys)
    status2, out2, _ = _run(argv, capsys)
    assert status1 == status2 == 0
    assert out1 == out2
    assert out1  # never empty


def test_out_flag_writes_identical_bytes(tmp_path, capsys, golden_dir):
    target = tmp_path / "fig3.csv"
    status, out, _ = _run(["sweep-power", "--seed", "42", "--out", str(target)], capsys)
    assert status == 0
    assert out == ""
    assert target.read_bytes() == (golden_dir / "sweep_power_seed42.csv").read_bytes()


def test_fit_emits_one_curve_per_power(capsys):
    status, out, _ = _run(["fit", "--seed", "42"], capsys)
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "power_dbm,slope,intercept"
    assert [line.split(",")[0] for line in lines[1:]] == ["5", "7", "9"]
    # Frozen fit of the 7 dBm golden-sweep column.
    assert lines[2] == "7,5.53968,35.5631"


def test_predict_reports_both_routes(capsys):
    status, out, _ = _run(["predict", "--loss", "20", "--power", "9"], capsys)
    assert status == 0
    assert out == "method,packet_size_bits\nanalytic,66.2575\ngrid,70\n"


def test_predict_interpolated_power_omits_grid(capsys):
    status, out, _ = _run(["predict", "--loss", "20", "--power", "6", "--format", "json"], capsys)
    assert status == 0
    assert json.loads(out)["grid_bits"] is None


def test_adapt_json_trace(capsys):
    status, out, _ = _run(["adapt", "--format", "json"], capsys)
    assert status == 0
    samples = json.loads(out)["samples"]
    assert len(samples) == 37
    assert samples[-1]["event"] == "terminated"
    assert samples[-1]["packet_bits"] == 340


def test_fit_document_drives_adapt(tmp_path, capsys):
    # A fit document is a config file whose one key is curves.
    fitted = tmp_path / "fit.json"
    status, _, _ = _run(["fit", "--format", "json", "--replicates", "50", "--out", str(fitted)], capsys)
    assert status == 0
    family = CurveFamily(tuple(LossCurve(**c) for c in json.loads(fitted.read_text(encoding="utf-8"))["curves"]))
    trace = run_adaptation(default_policy(), family)
    assert len(trace) == 14
    status, out, err = _run(["adapt", "--config", str(fitted), "--format", "json"], capsys)
    assert (status, err) == (0, "")
    assert out == emit_table(trace, OutputFormat.JSON)
    # One replicate fits 65% loss at 20 bits and 5 dBm, so the first
    # escalation backs the packet off to nothing.
    status, _, _ = _run(["fit", "--format", "json", "--out", str(fitted)], capsys)
    assert status == 0
    status, out, err = _run(["adapt", "--config", str(fitted)], capsys)
    assert (status, out) == (3, "")
    assert err == "error: degenerate policy: backoff drops packet size to 0 bits\n"


def test_topology_defaults_to_json(capsys, golden_dir):
    status, out, err = _run(["topology"], capsys)
    assert status == 0
    assert err == ""
    assert out == (golden_dir / "topology_seed42.json").read_text(encoding="utf-8")


def test_topology_rejects_csv_format(capsys):
    status, out, err = _run(["topology", "--format", "csv"], capsys)
    assert status == 2
    assert out == ""
    assert "format" in err


def test_config_error_exits_2(capsys, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"no_such_key": 1}), encoding="utf-8")
    status, out, err = _run(["sweep-power", "--config", str(cfg)], capsys)
    assert status == 2
    assert "no_such_key" in err
    status, _, err = _run(["sweep-power", "--frequency-hz", "-1"], capsys)
    assert status == 2
    assert "frequency_hz" in err
    status, _, err = _run(["sweep-power", "--config", str(tmp_path / "missing.json")], capsys)
    assert status == 2


def test_domain_error_exits_3(capsys):
    status, out, err = _run(["predict", "--loss", "20", "--power", "20"], capsys)
    assert status == 3
    assert out == ""
    assert "outside" in err


def test_non_termination_exits_4(capsys):
    status, out, err = _run(["adapt", "--max-ticks", "5"], capsys)
    assert status == 4
    assert out == ""
    assert "5" in err


def test_failed_run_leaves_no_partial_file(tmp_path, capsys):
    target = tmp_path / "never.csv"
    status, _, _ = _run(["predict", "--loss", "20", "--power", "20", "--out", str(target)], capsys)
    assert status == 3
    assert not target.exists()


def test_print_config_echo_reproduces_run(tmp_path, capsys, golden_dir):
    status, out, _ = _run(["sweep-power", "--seed", "42", "--print-config"], capsys)
    assert status == 0
    echoed = json.loads(out)
    assert echoed["seed"] == 42
    assert echoed["format"] is None  # each command's own format
    cfg_path = tmp_path / "echo.json"
    cfg_path.write_text(out, encoding="utf-8")
    status, rerun_out, _ = _run(["sweep-power", "--config", str(cfg_path)], capsys)
    assert status == 0
    assert rerun_out == (golden_dir / "sweep_power_seed42.csv").read_text(encoding="utf-8")


def test_flag_overrides_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 1, "packet_sizes_bits": [10, 100]}), encoding="utf-8")
    status, out, _ = _run(
        ["sweep-power", "--config", str(cfg_path), "--seed", "42", "--power-axis-dbm", "7"], capsys
    )
    assert status == 0
    lines = out.splitlines()
    assert lines[1].startswith("7,10,")
    assert len(lines) == 3  # header + one power x two sizes


def test_json_format_sweep_parses(capsys):
    status, out, _ = _run(["sweep-power", "--seed", "42", "--format", "json"], capsys)
    assert status == 0
    doc = json.loads(out)
    assert doc["spec"]["base_seed"] == 42
    assert len(doc["rows"]) == 12


@pytest.mark.parametrize(
    "argv,message",
    [
        (["predict", "--loss", "20", "--power", "nan"], "power: must be a finite number"),
        (["predict", "--loss", "20", "--power", "inf"], "power: must be a finite number"),
        (["predict", "--loss", "nan", "--power", "9"], "loss: must be a finite number"),
        (["predict", "--loss", "inf", "--power", "9"], "loss: must be a finite number"),
        (
            ["sweep-count", "--num-pairs", "30"],
            "num_pairs: must be <= 20 for the smallest count_axis value, 5 UAVs",
        ),
        (["adapt", "--ber-model", "gaussian"], 'ber_model: must be one of ["exp-half-snr", "exp-snr"]'),
        (["sweep-power", "--format", "xml"], 'format: must be one of [null, "csv", "json"]'),
        # Rejected by the argument parser itself.
        (["sweep-power", "--seed", "1.5"], "argument --seed: invalid int value: '1.5'"),
        (
            ["sweep-power", "--power-axis-dbm", "x"],
            "argument --power-axis-dbm: expected comma-separated float values, got 'x'",
        ),
        (["predict", "--power", "9"], "the following arguments are required: --loss"),
        (["sweep-power", "--no-such-flag", "1"], "unrecognized arguments: --no-such-flag 1"),
        (["sweep-power", "a\nb"], "unrecognized arguments: a\\nb"),
        # A flag's prefix is no abbreviation of it.
        (["sweep-power", "--power", "9"], "unrecognized arguments: --power 9"),
        (["adapt", "--max", "5"], "unrecognized arguments: --max 5"),
    ],
)
def test_invalid_flag_values_are_config_errors(argv, message, capsys):
    status, out, err = _run(argv, capsys)
    assert status == 2
    assert out == ""
    assert err == f"configuration error: {message}\n"


def test_out_into_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "fig.csv"
    status, out, err = _run(["sweep-power", "--out", str(target)], capsys)
    assert status == 2
    assert out == ""
    assert err.startswith("configuration error: out: ")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


_OVERFLOWS = "overflows a double on the linear scale"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["sweep-power", "--power-axis-dbm", "3000,3100"], rf"power of 3100 dBm {_OVERFLOWS}"),
        (["sweep-power", "--noise-floor-dbm", "-4000"], rf"SNR of [0-9.]+ dB {_OVERFLOWS}"),
        (["sweep-frequency", "--tx-power-dbm", "1e308"], rf"power of 1e\+308 dBm {_OVERFLOWS}"),
        (["fit", "--power-axis-dbm", "5,1e308"], rf"power of 1e\+308 dBm {_OVERFLOWS}"),
        (["predict", "--loss", "1e308", "--power", "9"], r"packet size for 1e\+308% loss overflows a double"),
        (["sweep-area", "--area-axis-m", "1e-320"], r"replicate seed 42: the UAVs of pair \(\d+, \d+\) coincide"),
        (
            ["sweep-power", "--power-axis-dbm=-3300"],
            r"received power from -3300 dBm transmitted over [0-9.]+ m underflows a double on the linear scale",
        ),
    ],
)
def test_domain_errors_exit_3_naming_the_quantity(argv, message, capsys):
    status, out, err = _run(argv, capsys)
    assert status == 3
    assert out == ""
    assert re.fullmatch(f"error: {message}\n", err), err


# Half the drawn numbers are edge values: +-1e308 and 1e-320 overflow or
# underflow a double in the link chain; 0, -1, nan and +-inf probe validation.
_FUZZ_VALUES = st.one_of(
    st.sampled_from(["1e308", "-1e308", "1e-320"]),
    st.sampled_from(["0", "-1", "nan", "inf", "-inf"]),
    st.integers(-3, 40).map(str),
    st.floats(-50.0, 50.0, allow_nan=False).map(repr),
)
_FUZZ_INTS = st.integers(-3, 40).map(str)
_FUZZ_LISTS = st.lists(_FUZZ_VALUES, min_size=1, max_size=4, unique=True).map(
    lambda v: ",".join(sorted(v, key=float))  # mostly increasing, as axes must be
)
_FUZZ_FLAGS = {
    "--seed": _FUZZ_INTS,
    "--num-uavs": _FUZZ_INTS,
    "--num-pairs": _FUZZ_INTS,
    "--replicates": st.integers(-1, 3).map(str),
    "--area-width-m": _FUZZ_VALUES,
    "--area-height-m": _FUZZ_VALUES,
    "--tx-power-dbm": _FUZZ_VALUES,
    "--noise-floor-dbm": _FUZZ_VALUES,
    "--frequency-hz": _FUZZ_VALUES,
    "--bandwidth-hz": _FUZZ_VALUES,
    "--ber-model": st.sampled_from(["exp-half-snr", "exp-snr", "gaussian"]),
    "--packet-sizes-bits": st.lists(st.integers(-2, 20000), min_size=1, max_size=4).map(
        lambda v: ",".join(map(str, v))
    ),
    "--power-axis-dbm": _FUZZ_LISTS,
    "--frequency-axis-hz": _FUZZ_LISTS,
    "--area-axis-m": _FUZZ_LISTS,
    "--count-axis": st.lists(_FUZZ_INTS, min_size=1, max_size=4, unique=True).map(
        lambda v: ",".join(sorted(v, key=int))
    ),
    "--initial-packet-bits": _FUZZ_INTS,
    "--growth-step-bits": _FUZZ_INTS,
    "--backoff-bits": _FUZZ_INTS,
    "--max-ticks": _FUZZ_INTS,
    "--format": st.sampled_from(["csv", "json", "xml"]),
    "--print-config": st.none(),  # takes no value
    "--loss": _FUZZ_VALUES,
    "--power": _FUZZ_VALUES,
}


def test_argv_fuzz_covers_every_flag():
    # --config and --out name files; the config-file fuzz below covers them.
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {opt for sub in subparsers.choices.values() for action in sub._actions for opt in action.option_strings}
    assert flags - {"-h", "--help", "--config", "--out"} == set(_FUZZ_FLAGS)


@st.composite
def _fuzz_argv(draw):
    argv = [draw(st.sampled_from([name for name, _ in _SUBCOMMANDS]))]
    for flag in draw(st.lists(st.sampled_from(sorted(_FUZZ_FLAGS)), min_size=1, max_size=3, unique=True)):
        value = draw(_FUZZ_FLAGS[flag])
        argv.append(flag if value is None else f"{flag}={value}")
    if argv[0] == "predict" and draw(st.booleans()):
        argv += [f"--loss={draw(_FUZZ_VALUES)}", f"--power={draw(_FUZZ_VALUES)}"]
    return argv


@settings(max_examples=500, deadline=None)
@given(_fuzz_argv())
def test_fuzzed_argv_exits_within_the_contract(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse rejects the flags
            status = exc.code
    assert status in (0, 2, 3, 4), (argv, stderr.getvalue())
    if status != 0:
        assert stderr.getvalue().count("\n") == 1, (argv, stderr.getvalue())


# Modules no command may load. numpy costs more to import than the paper's
# commands compute (and it pulls in inspect); dataclasses loads inspect, ast
# and dis.
_FORBIDDEN_MODULES = ("dataclasses", "inspect", "numpy")


def test_each_command_leaves_its_forbidden_modules_unloaded():
    # One fresh interpreter runs every command, then a 200-UAV topology: its
    # 410 draws take numpy's block branch, and the numpy it loads is the check
    # that the probe sees an import once it happens.
    argvs = [*ALL_SUBCOMMAND_ARGS, ["topology", "--num-uavs", "200", "--format", "json"]]
    script = (
        "import contextlib, io, sys\n"
        "from fanetsim.cli import main\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        f"    print(*[m for m in {_FORBIDDEN_MODULES!r} if m in sys.modules])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = [line.split() for line in proc.stdout.splitlines()]
    assert len(loaded) == len(argvs)
    assert {argv[0]: modules for argv, modules in zip(ALL_SUBCOMMAND_ARGS, loaded)} == {
        argv[0]: [] for argv in ALL_SUBCOMMAND_ARGS
    }
    assert "numpy" in loaded[-1]


# Config-file values: the argv fuzz's numbers as JSON numbers (NaN and
# Infinity included, which json.loads accepts) plus values of the wrong type.
_JSON_NUMBERS = st.one_of(
    st.sampled_from([1e308, -1e308, 1e-320, 0, -1, math.nan, math.inf, -math.inf]),
    st.integers(-3, 40),
    st.floats(-50.0, 50.0, allow_nan=False),
)
_WRONG_TYPES = st.sampled_from([None, True, "7", "", [], {}, [1, 2], {"a": 1}])
_JSON_VALUES = st.one_of(_JSON_NUMBERS, _WRONG_TYPES)
_JSON_INTS = st.one_of(st.integers(-3, 40), _WRONG_TYPES)
_JSON_AXES = st.one_of(st.lists(_JSON_NUMBERS, max_size=4).map(sorted), _WRONG_TYPES)
_CURVE_POWERS = st.one_of(st.sampled_from([5.0, 7.0, 9.0]), _JSON_VALUES)
_JSON_CURVE = st.one_of(
    st.fixed_dictionaries({"power_dbm": _CURVE_POWERS, "slope": _JSON_VALUES, "intercept": _JSON_VALUES}),
    st.dictionaries(st.sampled_from(["power_dbm", "slope", "intercept", "extra"]), _JSON_VALUES),
    _JSON_VALUES,
)
_JSON_RUNG = st.one_of(st.tuples(_CURVE_POWERS, _JSON_VALUES).map(list), st.lists(_JSON_VALUES, max_size=3))
_CONFIG_VALUES = {
    "seed": st.one_of(_JSON_INTS, st.sampled_from([2**64 - 1, 2**64])),
    "num_uavs": _JSON_INTS,
    "area_width_m": _JSON_VALUES,
    "area_height_m": _JSON_VALUES,
    "num_pairs": _JSON_INTS,
    "tx_power_dbm": _JSON_VALUES,
    "noise_floor_dbm": _JSON_VALUES,
    "frequency_hz": _JSON_VALUES,
    "bandwidth_hz": _JSON_VALUES,
    "ber_model": st.one_of(st.sampled_from(["exp-half-snr", "exp-snr"]), _JSON_VALUES),
    "packet_sizes_bits": st.one_of(st.lists(st.integers(-2, 20000), max_size=4).map(sorted), _WRONG_TYPES),
    "power_axis_dbm": _JSON_AXES,
    "frequency_axis_hz": _JSON_AXES,
    "area_axis_m": _JSON_AXES,
    "count_axis": st.one_of(st.lists(st.integers(-3, 40), max_size=4).map(sorted), _WRONG_TYPES),
    "replicates": st.one_of(st.integers(-1, 3), _WRONG_TYPES),
    "curves": st.one_of(st.lists(_JSON_CURVE, max_size=4), _WRONG_TYPES),
    "rungs": st.one_of(st.lists(_JSON_RUNG, max_size=4), _WRONG_TYPES),
    "initial_packet_bits": _JSON_INTS,
    "growth_step_bits": _JSON_INTS,
    "backoff_bits": _JSON_INTS,
    "max_ticks": _JSON_INTS,
    "format": st.one_of(st.sampled_from(["csv", "json"]), _JSON_VALUES),
    # {tmp} is the example's own directory; the missing subdirectory makes the write fail.
    "out": st.one_of(
        st.sampled_from([None, "{tmp}/out.txt", "{tmp}/missing/out.txt"]),
        _JSON_NUMBERS,
        _WRONG_TYPES.filter(lambda v: not isinstance(v, str)),
    ),
}
_CONFIG_VALUES_AND_UNKNOWN = {**_CONFIG_VALUES, "no_such_key": _JSON_VALUES}
# A few keys per document, as the argv fuzz sets a few flags, and one
# document in eight not an object, so that many documents reach the commands.
_CONFIG_OBJECTS = st.lists(st.sampled_from(sorted(_CONFIG_VALUES_AND_UNKNOWN)), max_size=3, unique=True).flatmap(
    lambda keys: st.fixed_dictionaries({key: _CONFIG_VALUES_AND_UNKNOWN[key] for key in keys})
)
_CONFIG_DOCUMENTS = st.integers(0, 7).flatmap(lambda i: _JSON_VALUES if i == 0 else _CONFIG_OBJECTS)


def test_config_fuzz_covers_every_config_key():
    assert sorted(_CONFIG_VALUES) == sorted(RunConfig._fields)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([name for name, _ in _SUBCOMMANDS]), _CONFIG_DOCUMENTS)
def test_fuzzed_config_file_exits_within_the_contract(command, doc):
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if isinstance(doc, dict) and isinstance(doc.get("out"), str):
            doc = {**doc, "out": doc["out"].format(tmp=tmp)}
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        argv = [command, "--config", str(config)]
        if command == "predict":
            argv += ["--loss", "20", "--power", "9"]
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            status = main(argv)
    assert status in (0, 2, 3, 4), (doc, stderr.getvalue())
    if status != 0:
        assert stderr.getvalue().count("\n") == 1, (doc, stderr.getvalue())
