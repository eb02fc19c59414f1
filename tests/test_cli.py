"""End-to-end tests of the command-line interface (in-process)."""

import gc
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import vesselsyn
from vesselsyn.cli import _TUNE_FLAGS, build_parser, main
from vesselsyn.ga import GaHyperParams
from vesselsyn.ingest import VesselTrack, write_records
from vesselsyn.synopses import SynopsisConfig
from vesselsyn.synthetic import make_fleet, make_mixed_voyage

from tracks import make_slow_motion_track, make_straight_track


def write_tracks_csv(path, tracks, vessel_type=None):
    with open(path, "w", encoding="utf-8") as fh:
        for track in tracks:
            points = track.points
            if vessel_type is not None:
                points = [p._replace(vessel_type=vessel_type) for p in points]
            write_records(points, fh)


def compress_outputs(path, out, *flags):
    """``compress``'s synopsis.csv bytes and metrics.json without its ``input`` field."""
    assert main(["compress", "--input", str(path), "--out", str(out), *flags]) == 0
    metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    del metrics["input"]
    return (out / "synopsis.csv").read_bytes(), metrics


def write_config(path, mapping):
    path.write_text(json.dumps(mapping), encoding="utf-8")
    return str(path)


@pytest.fixture()
def straight_csv(tmp_path):
    path = tmp_path / "straight.csv"
    write_tracks_csv(path, [make_straight_track()])
    return str(path)


def test_compress_writes_synopsis_and_metrics(tmp_path, straight_csv, capsys):
    out = tmp_path / "out"
    rc = main(["compress", "--input", straight_csv, "--out", str(out)])
    assert rc == 0
    lines = (out / "synopsis.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "mmsi,timestamp,lon,lat,annotations"
    assert len(lines) == 3  # header + the two retained endpoints
    metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    assert metrics["ratio"] == 0.1
    assert metrics["rmse_m"] < 0.5
    assert metrics["noiseless_count"] == 20
    assert metrics["critical_count"] == 2
    assert metrics["config"] == SynopsisConfig().to_dict()
    assert metrics["input"] == straight_csv
    assert "compressed 20 reports to 2 critical points" in capsys.readouterr().out


def test_compress_accepts_explicit_config(tmp_path, straight_csv):
    cfg_path = write_config(tmp_path / "cfg.json", {"gap_period_s": 900})
    out = tmp_path / "out"
    rc = main(["compress", "--input", straight_csv, "--config", cfg_path, "--out", str(out)])
    assert rc == 0
    metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    assert metrics["config"]["gap_period_s"] == 900.0


def test_eval_prints_metrics_json(straight_csv, capsys):
    rc = main(["eval", "--input", straight_csv])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ratio"] == 0.1
    assert payload["config"]["buffer_size"] == 5


def test_compare_writes_both_configs_to_comparison_json_only(tmp_path, capsys):
    data = tmp_path / "fishing.csv"
    write_tracks_csv(data, [make_slow_motion_track()], vessel_type="fishing")
    cfg_a = write_config(tmp_path / "a.json", {})
    cfg_b = write_config(
        tmp_path / "b.json",
        {"angle_threshold_deg": 18.99, "buffer_size": 3, "gap_period_s": 200.0, "speed_ratio": 0.01},
    )
    out = tmp_path / "cmp"
    rc = main([
        "compare",
        "--input", str(data),
        "--config-a", cfg_a,
        "--config-b", cfg_b,
        "--out", str(out),
    ])
    assert rc == 0
    assert sorted(p.name for p in out.iterdir()) == ["comparison.json"]
    comparison = json.loads((out / "comparison.json").read_text(encoding="utf-8"))
    assert comparison["a"]["config"] == SynopsisConfig().to_dict()
    assert comparison["b"]["config"]["angle_threshold_deg"] == 18.99
    for side in ("a", "b"):
        assert 0.0 < comparison[side]["ratio"] <= 1.0
    assert capsys.readouterr().out.startswith("a: rmse")


def test_each_side_of_compare_is_what_eval_prints(tmp_path, capsys):
    data = tmp_path / "fleet.csv"
    write_tracks_csv(data, make_fleet(600, 3, seed=1))
    configs = {
        "a": write_config(tmp_path / "a.json", {}),
        "b": write_config(tmp_path / "b.json", {"buffer_size": 7, "gap_period_s": 600.0}),
    }
    out = tmp_path / "cmp"
    argv = ["compare", "--input", str(data), "--config-a", configs["a"], "--config-b", configs["b"]]
    assert main([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    comparison = json.loads((out / "comparison.json").read_text(encoding="utf-8"))
    assert comparison["a"] != comparison["b"]
    for side, path in configs.items():
        assert main(["eval", "--input", str(data), "--config", path]) == 0
        assert comparison[side] == json.loads(capsys.readouterr().out), side


def test_compare_identical_configs_agree(tmp_path, straight_csv):
    cfg = write_config(tmp_path / "same.json", {})
    out = tmp_path / "cmp"
    rc = main([
        "compare",
        "--input", straight_csv,
        "--config-a", cfg,
        "--config-b", cfg,
        "--out", str(out),
    ])
    assert rc == 0
    comparison = json.loads((out / "comparison.json").read_text(encoding="utf-8"))
    assert comparison["a"]["rmse_m"] == comparison["b"]["rmse_m"]
    assert comparison["a"]["ratio"] == comparison["b"]["ratio"]


# ---------------------------------------------------------------------------
# failure modes


def test_missing_input_is_a_usage_error(tmp_path, capsys):
    rc = main(["eval", "--input", str(tmp_path / "nope.csv")])
    assert rc == 2
    assert "nope.csv" in capsys.readouterr().err


def test_a_directory_as_input_is_a_usage_error(tmp_path, capsys):
    rc = main(["eval", "--input", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"error: cannot read input file {tmp_path}: " in err
    assert "Traceback" not in err


def test_a_pipe_as_input_gives_the_outputs_of_the_file(tmp_path):
    data = tmp_path / "fleet.csv"
    write_tracks_csv(data, make_fleet(600, 3, seed=1))
    piped = tmp_path / "piped"
    command = "import sys\nfrom vesselsyn.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    args = ["compress", "--input", "/dev/stdin", "--out", str(piped)]
    result = run_python(command, *args, input=data.read_text(encoding="utf-8"))
    assert result.returncode == 0, result.stderr
    metrics = json.loads((piped / "metrics.json").read_text(encoding="utf-8"))
    assert metrics.pop("input") == "/dev/stdin"
    assert ((piped / "synopsis.csv").read_bytes(), metrics) == compress_outputs(data, tmp_path / "file")


@pytest.mark.parametrize(
    "data", [b"1,100,0.5,50.25,\xff\n", b"1,100,0.5,50.25\n1,160,0.6,50.25,p\xeache\n"], ids=["line_1", "line_2"]
)
def test_input_that_is_not_utf8_is_a_usage_error_naming_the_file(tmp_path, capsys, data):
    path = tmp_path / "latin1.csv"
    path.write_bytes(data)
    assert main(["eval", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"error: cannot read input file {path}: 'utf-8' codec can't decode" in err
    assert "Traceback" not in err


def test_an_unreadable_input_is_a_usage_error_naming_the_file(straight_csv, capsys, monkeypatch):
    def denied(path):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr("vesselsyn.cli.load_records", denied)
    assert main(["eval", "--input", straight_csv]) == 2
    err = capsys.readouterr().err
    assert f"error: cannot read input file {straight_csv}: [Errno 13] Permission denied" in err
    assert "Traceback" not in err


OUT_COMMANDS = pytest.mark.parametrize("command", [
    ["compress"],
    ["compare", "--config-a", "a.json", "--config-b", "b.json"],
    ["tune", "--type", "fishing", "--k", "2"],
], ids=["compress", "compare", "tune"])


@pytest.fixture()
def run_in_tmp(tmp_path, monkeypatch):
    """Run a command in ``tmp_path`` on ``fishing.csv`` and the configs ``a.json`` and ``b.json``.

    ``fishing.csv`` holds two tracks, enough for tune's two folds.
    Compressing, scoring or tuning fails the test, so a run that returns
    has judged ``--out`` before any of that work.
    """
    monkeypatch.chdir(tmp_path)
    tracks = [make_slow_motion_track(), make_slow_motion_track(mmsi=2)]
    write_tracks_csv(tmp_path / "fishing.csv", tracks, vessel_type="fishing")
    write_config(tmp_path / "a.json", {})
    write_config(tmp_path / "b.json", {"buffer_size": 7})

    def unreachable(*args, **kwargs):
        raise AssertionError("--out was judged after the work began")

    for name in ("compress_track", "evaluate_config", "cross_validate"):
        monkeypatch.setattr(f"vesselsyn.cli.{name}", unreachable)

    def run(command, out, input="fishing.csv"):
        return main([*command, "--input", input, "--out", str(out)])

    return run


def assert_out_refused(capsys, out):
    err = capsys.readouterr().err
    assert f"error: cannot make --out directory {out}: [Errno " in err
    assert "Traceback" not in err


@OUT_COMMANDS
def test_an_out_that_is_not_a_directory_is_a_usage_error_before_any_work(
    tmp_path, capsys, monkeypatch, run_in_tmp, command
):
    # The input is read first; no report is compressed or tuned.  The last
    # two cases are ENAMETOOLONG and EACCES, the latter from a patched
    # makedirs, since root ignores permission bits.
    out = tmp_path / "out"
    out.write_text("kept\n", encoding="utf-8")
    dangling = tmp_path / "dangling"
    dangling.symlink_to(tmp_path / "nowhere")
    before = sorted(tmp_path.iterdir())
    for path in (out, out / "sub" / "dir", dangling, dangling / "sub", "x" * 300):
        assert run_in_tmp(command, path) == 2
        assert_out_refused(capsys, path)

    def denied(path, exist_ok=False):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr("vesselsyn.cli.os.makedirs", denied)
    assert run_in_tmp(command, "denied") == 2
    assert_out_refused(capsys, "denied")
    assert out.read_text(encoding="utf-8") == "kept\n"
    assert sorted(tmp_path.iterdir()) == before


@OUT_COMMANDS
def test_an_empty_out_is_a_usage_error_before_any_work(tmp_path, capsys, run_in_tmp, command):
    before = sorted(tmp_path.iterdir())
    assert run_in_tmp(command, "") == 2
    assert_out_refused(capsys, "")
    assert sorted(tmp_path.iterdir()) == before


@OUT_COMMANDS
def test_an_input_error_comes_before_out_is_made(tmp_path, capsys, run_in_tmp, command):
    assert run_in_tmp(command, "fresh", input="missing.csv") == 2
    assert "error: cannot read input file missing.csv: [Errno 2]" in capsys.readouterr().err
    assert not (tmp_path / "fresh").exists()


def test_missing_config_file_is_a_usage_error(tmp_path, straight_csv, capsys):
    rc = main([
        "compress",
        "--input", straight_csv,
        "--config", str(tmp_path / "ghost.json"),
        "--out", str(tmp_path / "out"),
    ])
    assert rc == 2
    assert "ghost.json" in capsys.readouterr().err


def test_malformed_config_json_is_a_usage_error(tmp_path, straight_csv, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    rc = main(["eval", "--input", straight_csv, "--config", str(bad)])
    assert rc == 2
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text", ['{"buffer_size": ' + "9" * 5000 + "}", "[" * 200_000], ids=["long_integer", "deep_nesting"]
)
def test_config_json_cannot_decode_is_a_usage_error_naming_the_file(tmp_path, straight_csv, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text, encoding="utf-8")
    assert main(["eval", "--input", straight_csv, "--config", str(bad)]) == 2
    assert f"error: config file {bad} is not valid JSON: " in capsys.readouterr().err


def test_config_that_is_not_utf8_is_a_usage_error_naming_the_file(tmp_path, straight_csv, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"angle_threshold_deg": 4} \xff')
    rc = main(["eval", "--input", straight_csv, "--config", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"cannot read config file {bad}" in err and "Traceback" not in err


def test_config_path_that_is_a_directory_is_a_usage_error_naming_it(tmp_path, straight_csv, capsys):
    folder = tmp_path / "cfgdir"
    folder.mkdir()
    rc = main(["eval", "--input", straight_csv, "--config", str(folder)])
    assert rc == 2
    assert f"cannot read config file {folder}" in capsys.readouterr().err


def test_unknown_config_key_is_a_usage_error(tmp_path, straight_csv, capsys):
    cfg = write_config(tmp_path / "typo.json", {"angle_treshold_deg": 4})
    rc = main(["eval", "--input", straight_csv, "--config", cfg])
    assert rc == 2
    assert "angle_treshold_deg" in capsys.readouterr().err


def test_non_object_config_is_a_usage_error(tmp_path, straight_csv, capsys):
    cfg = tmp_path / "list.json"
    cfg.write_text("[1, 2, 3]", encoding="utf-8")
    rc = main(["eval", "--input", straight_csv, "--config", str(cfg)])
    assert rc == 2
    assert "JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    '{"buffer_size": 1e400}',
    '{"gap_period_s": 1e400}',
    '{"speed_ratio": NaN}',
    '{"angle_threshold_deg": null}',
    '{"gap_period_s": "900"}',
    '{"buffer_size": "7.0"}',
])
def test_non_finite_config_value_is_a_usage_error(tmp_path, straight_csv, capsys, text):
    cfg = tmp_path / "value.json"
    cfg.write_text(text, encoding="utf-8")
    rc = main(["compress", "--input", straight_csv, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "finite number" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ('{"buffer_size": 7.9}', "buffer_size must be an integer"),
    ('{"speed_ratio": true}', "speed_ratio must be a finite number"),
], ids=["fractional_buffer_size", "boolean"])
def test_fractional_or_boolean_config_value_is_a_usage_error(tmp_path, straight_csv, capsys, text, message):
    cfg = tmp_path / "value.json"
    cfg.write_text(text, encoding="utf-8")
    rc = main(["compress", "--input", straight_csv, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_missing_required_flag_is_a_usage_error(capsys):
    rc = main(["compress"])
    assert rc == 2
    capsys.readouterr()


def test_unknown_subcommand_is_a_usage_error(capsys):
    rc = main(["frobnicate"])
    assert rc == 2
    capsys.readouterr()


def test_unusable_input_is_a_runtime_error(tmp_path, capsys):
    # A number leads line 1, so it is read as a row; a word-led one is a header.
    path = tmp_path / "garbage.csv"
    path.write_text("0,not,a,row\nstill,not,valid,here\n", encoding="utf-8")
    rc = main(["eval", "--input", str(path)])
    assert rc == 1
    assert "no usable reports" in capsys.readouterr().err


def test_parse_rejections_are_noted_on_stderr(tmp_path, capsys):
    path = tmp_path / "mixed.csv"
    good = make_straight_track().points
    with open(path, "w", encoding="utf-8") as fh:
        write_records(good, fh)
        fh.write("1,100,999.0,48.0,cargo\n")  # longitude out of range
    rc = main(["eval", "--input", str(path)])
    assert rc == 0
    assert "rejected 1 malformed" in capsys.readouterr().err


def test_repeated_timestamps_are_noted_on_stderr(tmp_path, capsys):
    path = tmp_path / "repeated.csv"
    first = "1,100,10.0,50.0,cargo\n"
    path.write_text(first + first + "1,160,10.001,50.0,cargo\n1,220,10.002,50.0,cargo\n", encoding="utf-8")
    rc = main(["eval", "--input", str(path)])
    assert rc == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["noiseless_count"] == 3
    assert "note: dropped 1 reports with a repeated timestamp" in captured.err


@settings(max_examples=25, deadline=None)
@given(
    total=st.integers(60, 600),
    n_vessels=st.integers(3, 4),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_compress_output_does_not_depend_on_how_vessels_interleave(total, n_vessels, seed, data):
    """Any merge of the vessels' rows, each vessel's kept in order, plus one repeated timestamp."""
    fleet = make_fleet(total, n_vessels, seed=seed)
    queues = [iter(t.points) for t in fleet]
    picks = data.draw(st.permutations([i for i, t in enumerate(fleet) for _ in t.points]), label="picks")
    rows = [next(queues[i]) for i in picks]
    original = data.draw(st.integers(0, total - 1), label="original")
    repeat = data.draw(st.integers(original + 1, total), label="repeat at")
    # Another position at the same timestamp: only the first of the two may be kept.
    rows.insert(repeat, rows[original]._replace(lat=rows[original].lat / 2))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_tracks_csv(tmp / "by_vessel.csv", fleet)
        with open(tmp / "interleaved.csv", "w", encoding="utf-8") as fh:
            write_records(rows, fh)
        assert compress_outputs(tmp / "interleaved.csv", tmp / "a") == compress_outputs(tmp / "by_vessel.csv", tmp / "b")


@pytest.mark.parametrize("noise_flag", [[], ["--no-noise-filter"]])
def test_antipodal_reports_compress_cleanly(tmp_path, capsys, noise_flag):
    path = tmp_path / "antipodal.csv"
    path.write_text("1,100,-88.6,69.3\n1,5000,91.4,-69.3\n", encoding="utf-8")
    rc = main(["compress", "--input", str(path), "--out", str(tmp_path / "out"), *noise_flag])
    assert rc == 0, capsys.readouterr().err


_FIELD = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70).map(str),
    st.floats().map(repr),
    st.text(max_size=6),
)


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def assert_strict_json_files(root):
    """Every ``.json`` file under ``root`` parses without NaN or Infinity."""
    for folder, _, names in os.walk(root):
        for name in names:
            if name.endswith(".json"):
                with open(os.path.join(folder, name), encoding="utf-8") as fh:
                    json.loads(fh.read(), parse_constant=_reject_constant)


_TWO_VESSELS = ["1,0,0.0,0.0", "1,60,0.001,0.0", "2,0,1.0,1.0", "2,60,1.001,1.0"]


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.lists(_FIELD, min_size=3, max_size=5).map(",".join), max_size=8),
    r=st.floats(),
    n=st.floats(),
    population=st.integers(-1, 3),
    generations=st.integers(-1, 2),
)
@example(rows=["1,0,0.0,0.0", "1,1" + "0" * 400 + ",0.1,0.1"], r=10.0, n=1.0, population=2, generations=1)
@example(rows=["1,0,0.0,0.0", "1,10000000000000000000,0.1,0.1"], r=10.0, n=1.0, population=2, generations=1)
@example(rows=_TWO_VESSELS, r=1e308, n=3.0, population=2, generations=1)
@example(rows=_TWO_VESSELS, r=math.nan, n=1.0, population=2, generations=1)
@example(rows=_TWO_VESSELS, r=10.0, n=1.0, population=1, generations=0)
def test_no_cli_input_produces_a_traceback(rows, r, n, population, generations):
    tune = [
        "tune", "--type", "unknown", "--k", "2", "--stagnation", "1",
        "--r", repr(r), "--n", repr(n),
        "--population", str(population), "--generations", str(generations),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")
        out = ["--out", os.path.join(tmp, "out")]
        compare = [
            "compare",
            "--config-a", write_config(Path(tmp) / "a.json", {}),
            "--config-b", write_config(Path(tmp) / "b.json", {"angle_threshold_deg": 10.0, "buffer_size": 7}),
            *out,
        ]
        for noise_flag in ([], ["--no-noise-filter"]):
            for command in (["compress", *out], ["eval"], compare, [*tune, *out]):
                assert main([*command, "--input", path, *noise_flag]) in (0, 1, 2)
        assert_strict_json_files(tmp)


@pytest.mark.parametrize("header", [
    "mmsi,timestamp,lon,lat",
    "mmsi,timestamp,lon,lat,vessel_type",
    "mmsi,timestamp,lon,lat,vessel_type,extra",
    '\ufeff "MMSI" ,Timestamp, LON,"lat" ',
    '\ufeff "MMSI" ,Timestamp,LON,"lat"',
])
def test_an_mmsi_timestamp_lon_lat_header_gives_the_outputs_without_it(tmp_path, capsys, header):
    plain = tmp_path / "plain.csv"
    write_tracks_csv(plain, make_fleet(300, 3, seed=5))
    headed = tmp_path / "headed.csv"
    headed.write_text(header + "\n" + plain.read_text(encoding="utf-8"), encoding="utf-8")
    assert compress_outputs(headed, tmp_path / "a") == compress_outputs(plain, tmp_path / "b")
    capsys.readouterr()
    assert main(["eval", "--input", str(headed)]) == 0
    headed_eval = capsys.readouterr()
    assert headed_eval.err == ""  # the header is skipped, not read as a malformed row
    assert main(["eval", "--input", str(plain)]) == 0
    assert capsys.readouterr() == headed_eval


@pytest.mark.parametrize("first_line", [
    "sourcemmsi,navigationalstatus,rateofturn,speedoverground,courseoverground,trueheading,lon,lat,t",
    "\ufeffsourcemmsi,navigationalstatus,rateofturn,speedoverground,courseoverground,trueheading,lon,lat,t",
    "sourcemmsi,t,lon,lat",
    "\ufeffsourcemmsi,t,lon,lat",
    "timestamp,mmsi,lon,lat",
    "mmsi,timestamp,lon",
    '"MMSI",t',
    "not,a,valid,row",
])
def test_a_header_not_naming_mmsi_timestamp_lon_lat_first_is_a_usage_error(tmp_path, capsys, first_line):
    # A word leads line 1, so it is a header, and it names other columns.
    path = tmp_path / "other_header.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(first_line + "\n")
        write_records(make_straight_track().points, fh)
    out = tmp_path / "out"
    for command in (["compress", "--out", str(out)], ["eval"]):
        assert main([*command, "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err
        assert f"error: input {path}: line 1 is a header, so it must name the columns mmsi,timestamp,lon,lat first" in err
        assert f"found {first_line.lstrip(chr(0xFEFF)).replace(chr(34), '')!r}" in err
        for absent in ("malformed", "--header", "Traceback"):
            assert absent not in err
    assert not out.exists()


@pytest.mark.parametrize("first_line", ["1,100,999.0,48.0,cargo", "12x,100,1.0,48.0"])
def test_a_numeric_line_1_is_a_malformed_row_not_a_header(tmp_path, capsys, first_line):
    path = tmp_path / "bad_first.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(first_line + "\n")
        write_records(make_straight_track().points, fh)
        fh.write("mmsi,timestamp,lon,lat\n")  # a word, but not on line 1
    assert main(["eval", "--input", str(path)]) == 0
    err = capsys.readouterr().err
    assert "rejected 2 malformed input rows" in err
    assert "header" not in err


def test_noise_filter_flag_controls_spike_rejection(tmp_path, capsys):
    track = make_straight_track()
    spike = track.points[10]._replace(timestamp=track.points[9].timestamp + 5, lat=49.9)
    points = track.points[:10] + [spike] + track.points[10:]
    path = tmp_path / "spiky.csv"
    with open(path, "w", encoding="utf-8") as fh:
        write_records(points, fh)

    rc = main(["eval", "--input", str(path)])
    assert rc == 0
    filtered = json.loads(capsys.readouterr().out)
    rc = main(["eval", "--input", str(path), "--no-noise-filter"])
    assert rc == 0
    unfiltered = json.loads(capsys.readouterr().out)
    assert filtered["noiseless_count"] == 20
    assert unfiltered["noiseless_count"] == 21


# ---------------------------------------------------------------------------
# tune


@pytest.fixture()
def passenger_csv(tmp_path):
    path = tmp_path / "passengers.csv"
    write_tracks_csv(
        path,
        [
            make_mixed_voyage(120, mmsi=111, seed=3),
            make_mixed_voyage(130, mmsi=222, seed=4),
        ],
        vessel_type="passenger",
    )
    return str(path)


TUNE_FAST = ["--k", "2", "--seed", "3", "--population", "6", "--generations", "3", "--stagnation", "3"]


def test_tune_produces_manifest_folds_and_summary(tmp_path, passenger_csv, capsys):
    out = tmp_path / "tuned"
    rc = main(["tune", "--input", passenger_csv, "--type", "passenger", "--out", str(out)] + TUNE_FAST)
    assert rc == 0
    assert "fold" in capsys.readouterr().out

    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "tune"
    assert manifest["vessel_type"] == "passenger"
    assert manifest["preset"] == "passenger"
    assert manifest["r"] == 17.0 and manifest["n"] == 0.8
    assert manifest["k"] == 2 and manifest["seed"] == 3
    assert manifest["input"] == passenger_csv  # recorded as given

    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["chosen_fold"] in (0, 1)
    assert len(summary["folds"]) == 2

    seen_tests = set()
    for i in range(2):
        fold_dir = out / f"fold_{i}"
        config = json.loads((fold_dir / "best_config.json").read_text(encoding="utf-8"))
        SynopsisConfig.from_dict(config)  # must be a loadable config
        report = json.loads((fold_dir / "report.json").read_text(encoding="utf-8"))
        train, test = set(report["train_mmsis"]), set(report["test_mmsis"])
        assert train.isdisjoint(test)
        assert train | test == {111, 222}
        seen_tests |= test
        history = (fold_dir / "history.csv").read_text(encoding="utf-8").splitlines()
        assert history[0] == "generation,best_fitness,mean_fitness,best_rmse,best_ratio"
        assert len(history) >= 2
    assert seen_tests == {111, 222}

    chosen = summary["chosen_fold"]
    chosen_cfg = json.loads((out / f"fold_{chosen}" / "best_config.json").read_text(encoding="utf-8"))
    assert summary["config"] == chosen_cfg


def test_tune_with_explicit_scoring_knobs(tmp_path, passenger_csv):
    out = tmp_path / "explicit"
    rc = main(
        ["tune", "--input", passenger_csv, "--type", "passenger", "--r", "5", "--n", "1.1", "--out", str(out)]
        + TUNE_FAST
    )
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["preset"] is None
    assert manifest["r"] == 5.0 and manifest["n"] == 1.1


def test_tune_unknown_type_lists_available(tmp_path, passenger_csv, capsys):
    rc = main(
        ["tune", "--input", passenger_csv, "--type", "hovercraft", "--r", "10", "--n", "1", "--out", str(tmp_path / "x")]
        + TUNE_FAST
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "hovercraft" in err
    assert "passenger" in err  # the available types are named


def test_tune_without_a_preset_for_the_type_lists_known_presets(tmp_path, capsys):
    # Scoring is resolved before any input is read.
    missing = str(tmp_path / "missing.csv")
    rc = main(["tune", "--input", missing, "--type", "hovercraft", "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "hovercraft" in err and "cargo" in err
    assert "not found" not in err


def test_tune_rejects_half_of_the_scoring_pair(tmp_path, passenger_csv, capsys):
    rc = main(
        ["tune", "--input", passenger_csv, "--type", "passenger", "--r", "5", "--out", str(tmp_path / "x")]
        + TUNE_FAST
    )
    assert rc == 2
    assert "together" in capsys.readouterr().err


def test_tune_with_more_folds_than_tracks_fails_cleanly(tmp_path, passenger_csv, capsys):
    out = tmp_path / "x"
    rc = main(
        ["tune", "--input", passenger_csv, "--type", "passenger", "--k", "3",
         "--seed", "3", "--population", "6", "--generations", "2", "--stagnation", "2",
         "--out", str(out)]
    )
    assert rc == 2
    assert "error: --k: cannot split 2 passenger tracks into 3 folds" in capsys.readouterr().err
    assert not out.exists()


#: MMSIs of the fishing tracks and of the other-type tracks that
#: :func:`write_mixed_type_csv` writes; no other test uses them.
FISHING_MMSIS = (777_000_001, 777_000_002)
OTHER_TYPE_MMSIS = {777_000_011: "cargo", 777_000_012: "tug", 777_000_013: "passenger"}


def write_mixed_type_csv(path, with_other_types=True):
    """Two fishing tracks, with the other types' tracks written between them unless told not to."""
    fishing = [
        make_mixed_voyage(120 + 10 * i, mmsi=mmsi, seed=20 + i, vessel_type="fishing")
        for i, mmsi in enumerate(FISHING_MMSIS)
    ]
    others = [
        make_mixed_voyage(100, mmsi=mmsi, seed=30 + i, vessel_type=vessel_type)
        for i, (mmsi, vessel_type) in enumerate(OTHER_TYPE_MMSIS.items())
    ]
    write_tracks_csv(path, fishing[:1] + (others if with_other_types else []) + fishing[1:])


def test_tune_frees_the_other_types_tracks_before_the_ga(tmp_path, capsys, monkeypatch):
    data = tmp_path / "mixed.csv"
    write_mixed_type_csv(data)
    cross_validate = vesselsyn.cli.cross_validate

    def checked(selected, k, hp):
        alive = [o.mmsi for o in gc.get_objects() if isinstance(o, VesselTrack) and o.mmsi in OTHER_TYPE_MMSIS]
        assert not alive, f"{len(alive)} tracks of other types are alive while the GA runs"
        return cross_validate(selected, k, hp)

    monkeypatch.setattr("vesselsyn.cli.cross_validate", checked)
    out = tmp_path / "tuned"
    assert main(["tune", "--input", str(data), "--type", "fishing", "--out", str(out), *TUNE_FAST]) == 0
    assert (out / "summary.json").exists()
    capsys.readouterr()


def test_other_vessel_types_never_move_tunes_output(tmp_path, capsys, monkeypatch):
    trees = []
    for name, with_other_types in (("fishing-only", False), ("mixed", True)):
        run_dir = tmp_path / name
        run_dir.mkdir()
        write_mixed_type_csv(run_dir / "input.csv", with_other_types)
        monkeypatch.chdir(run_dir)
        assert main(["tune", "--input", "input.csv", "--type", "fishing", "--out", "tuned", *TUNE_FAST]) == 0
        out = run_dir / "tuned"
        trees.append({p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()})
    assert len(trees[0]) == 8
    assert trees[0] == trees[1]
    capsys.readouterr()


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--r", "1e308", "--n", "3"], "--r"),
        (["--r", "nan", "--n", "1"], "--r"),
        (["--r", "-50", "--n", "0.5"], "--r"),
        (["--population", "0"], "--population"),
        (["--generations", "-1"], "--generations"),
        (["--seed", "-1"], "--seed"),
    ],
)
def test_tune_rejects_out_of_range_flags(tmp_path, passenger_csv, capsys, flags, named):
    out = tmp_path / "x"
    rc = main(["tune", "--input", passenger_csv, "--type", "passenger", "--out", str(out)] + TUNE_FAST + flags)
    assert rc == 2
    assert f"error: {named}: " in capsys.readouterr().err
    assert not out.exists()


def test_tune_checks_its_flags_before_reading_the_input(tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    for flag, value in (("--population", "0"), ("--k", "1")):
        rc = main(["tune", "--input", missing, "--type", "fishing", flag, value, "--out", str(tmp_path / "x")])
        assert rc == 2
        assert f"error: {flag}: " in capsys.readouterr().err


def test_tune_type_is_case_insensitive(tmp_path):
    data = tmp_path / "fishing.csv"
    write_tracks_csv(
        data,
        [make_mixed_voyage(120, mmsi=111, seed=3), make_mixed_voyage(130, mmsi=222, seed=4)],
        vessel_type="fishing",
    )
    out = tmp_path / "tuned"

    def tune(vessel_type):
        assert main(["tune", "--input", str(data), "--type", vessel_type, "--out", str(out)] + TUNE_FAST) == 0
        files = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        shutil.rmtree(out)
        return files

    lower = tune("fishing")
    assert json.loads(lower[Path("manifest.json")])["preset"] == "fishing"
    assert tune("FISHING") == lower


def test_tune_flag_defaults_are_the_ga_defaults():
    args = build_parser().parse_args(["tune", "--input", "in.csv", "--type", "fishing", "--out", "out"])
    defaults = GaHyperParams()
    for field, flag in _TUNE_FLAGS.items():
        # --r and --n default to the --type preset's pair, not to GaHyperParams'.
        expected = None if field in ("r", "n") else getattr(defaults, field)
        assert getattr(args, flag[2:]) == expected, flag


# ---------------------------------------------------------------------------
# the cyclic garbage collector: off for a command, handed back as found


@pytest.fixture()
def restore_gc():
    """Give the collector back to pytest in the state the test found it."""
    was_enabled = gc.isenabled()
    yield
    (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("argv, failure, code", [
    (["eval", "--input", "in.csv"], None, 0),
    (["eval", "--input", "missing.csv"], None, 2),
    (["eval", "--input", "in.csv"], ValueError, 1),
    (["eval", "--bogus"], None, 2),
    (["eval", "--help"], None, 0),
    (["eval", "--input", "in.csv"], KeyboardInterrupt, None),
], ids=["ok", "usage-error", "runtime-error", "bad-flag", "help", "escaping-exception"])
def test_main_hands_the_collector_back_as_it_found_it(
    tmp_path, capsys, monkeypatch, restore_gc, enabled, argv, failure, code
):
    monkeypatch.chdir(tmp_path)
    write_tracks_csv(tmp_path / "in.csv", [make_straight_track()])
    seen = []

    def recording_parser():
        seen.append(gc.isenabled())
        return build_parser()

    def fail(*args):
        raise failure("injected")

    monkeypatch.setattr("vesselsyn.cli.build_parser", recording_parser)
    if failure is not None:
        monkeypatch.setattr("vesselsyn.cli.filter_dataset", fail)
    (gc.enable if enabled else gc.disable)()
    if code is None:
        with pytest.raises(failure):
            main(argv)
    else:
        assert main(argv) == code
    assert gc.isenabled() is enabled
    assert seen == [False], "the command ran with the collector on"
    capsys.readouterr()


def cyclic_garbage_after(argv):
    """The count of unreachable objects ``main(argv)`` leaves when run with the collector off."""
    gc.collect()
    gc.disable()
    assert main(argv) == 0
    return gc.collect()


def test_a_commands_cyclic_garbage_does_not_grow_with_its_input(tmp_path, capsys, restore_gc):
    # The garbage is the argument parser and its like, whose count varies
    # across Python versions, so two sizes are compared with each other.
    counts = []
    for n_reports in (400, 3_000):
        data = tmp_path / f"fleet{n_reports}.csv"
        write_tracks_csv(data, make_fleet(n_reports, 3, seed=1))
        counts.append(cyclic_garbage_after(["compress", "--input", str(data), "--out", str(tmp_path / "c")]))
    assert counts[0] == counts[1], f"compress on 400 and 3,000 reports left {counts}"

    data = tmp_path / "fishing.csv"
    write_tracks_csv(data, make_fleet(600, 3, seed=1), vessel_type="fishing")
    counts = []
    for population, generations in ((4, 2), (8, 4)):
        tune = ["tune", "--input", str(data), "--type", "fishing", "--k", "2", "--seed", "3"]
        budget = ["--population", str(population), "--generations", str(generations)]
        counts.append(cyclic_garbage_after([*tune, *budget, "--out", str(tmp_path / f"t{population}")]))
    assert counts[0] == counts[1], f"tune at 4x2 and 8x4 left {counts}"
    capsys.readouterr()


# ---------------------------------------------------------------------------
# numpy: no command needs it


def run_python(code, *args, input=None):
    """Run ``code`` in a fresh interpreter that imports this checkout's package, piping ``input`` to its stdin."""
    env = dict(os.environ, PYTHONPATH=str(Path(vesselsyn.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, input=input, capture_output=True, text=True
    )


def test_no_command_needs_numpy(tmp_path):
    """Every command runs with numpy blocked, and tune writes the same bytes as with numpy at hand.

    A tune run where numpy can be imported must not load it either.
    """
    data = tmp_path / "fleet.csv"
    write_tracks_csv(data, make_fleet(600, 3, seed=1), vessel_type="fishing")
    out = tmp_path / "t"
    tune = ["tune", "--input", str(data), "--type", "fishing", "--out", str(out), *TUNE_FAST]

    def tree():
        return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}

    numpy_at_hand = (
        "import sys\n"
        "from vesselsyn.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "sys.exit(code or (sys.modules.get('numpy') is not None and 'numpy was loaded'))\n"
    )
    with_numpy = run_python(numpy_at_hand, *tune)
    assert with_numpy.returncode == 0, with_numpy.stderr
    expected = tree()
    assert Path("manifest.json") in expected
    shutil.rmtree(out)

    numpy_blocked = "import sys\nsys.modules['numpy'] = None\n" + numpy_at_hand
    for args in (
        ["compress", "--input", str(data), "--out", str(tmp_path / "c")],
        ["eval", "--input", str(data)],
        tune,
    ):
        result = run_python(numpy_blocked, *args)
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr
    assert tree() == expected


# ---------------------------------------------------------------------------
# the GA: only tune compiles it


def test_only_tune_loads_the_ga(tmp_path):
    """compress, eval and compare leave :mod:`vesselsyn.ga` and its generator unimported; tune loads both.

    Every command but ``tune`` would pay for compiling them, so an eager
    import on any of their paths, in ``evaluation`` say, fails here.
    """
    data = tmp_path / "fleet.csv"
    write_tracks_csv(data, make_fleet(300, 2, seed=1), vessel_type="fishing")
    a = write_config(tmp_path / "a.json", {})
    b = write_config(tmp_path / "b.json", {"buffer_size": 7})
    script = (
        "import sys\n"
        "from vesselsyn.cli import main\n"
        "def run(*argv):\n"
        "    code = main(list(argv))\n"
        "    print('loaded:', *[m for m in ('vesselsyn.ga', 'vesselsyn.rng') if m in sys.modules], file=sys.stderr)\n"
        "    if code:\n"
        "        sys.exit(code)\n"
        "data, out = sys.argv[1], sys.argv[4]\n"
        "run('compress', '--input', data, '--out', out + '/c')\n"
        "run('eval', '--input', data)\n"
        "run('compare', '--input', data, '--config-a', sys.argv[2], '--config-b', sys.argv[3], '--out', out + '/cmp')\n"
        f"run('tune', '--input', data, '--type', 'fishing', '--out', out + '/t', *{TUNE_FAST!r})\n"
    )
    result = run_python(script, str(data), a, b, str(tmp_path))
    assert result.returncode == 0, result.stderr
    loaded = [line for line in result.stderr.splitlines() if line.startswith("loaded:")]
    assert loaded == ["loaded:", "loaded:", "loaded:", "loaded: vesselsyn.ga vesselsyn.rng"]
