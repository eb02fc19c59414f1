"""End-to-end tests of the command-line interface (in-process)."""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import vesselsyn
from vesselsyn.cli import _TUNE_FLAGS, build_parser, main
from vesselsyn.ga import GaHyperParams
from vesselsyn.ingest import write_records
from vesselsyn.synopses import SynopsisConfig
from vesselsyn.synthetic import make_fleet, make_mixed_voyage

from tracks import make_slow_motion_track, make_straight_track


def write_tracks_csv(path, tracks, vessel_type=None):
    with open(path, "w", encoding="utf-8") as fh:
        for track in tracks:
            points = track.points
            if vessel_type is not None:
                points = [replace(p, vessel_type=vessel_type) for p in points]
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


def test_compare_emits_both_configs_and_plot_rows(tmp_path, capsys):
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
    comparison = json.loads((out / "comparison.json").read_text(encoding="utf-8"))
    assert comparison["a"]["config"] == SynopsisConfig().to_dict()
    assert comparison["b"]["config"]["angle_threshold_deg"] == 18.99
    for side in ("a", "b"):
        assert 0.0 < comparison[side]["ratio"] <= 1.0
    plot_lines = (out / "plot.csv").read_text(encoding="utf-8").splitlines()
    assert plot_lines[0] == "config,metric,value"
    assert len(plot_lines) == 5  # two metrics for each of the two configs
    assert capsys.readouterr().out.startswith("a: rmse")


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
    assert f"input is not a regular file: {tmp_path}" in err
    assert "Errno" not in err


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


@pytest.mark.parametrize("command", [
    ["compress"],
    ["compare", "--config-a", "a.json", "--config-b", "b.json"],
    ["tune", "--type", "fishing"],
], ids=["compress", "compare", "tune"])
def test_an_out_that_is_not_a_directory_is_a_usage_error_before_any_work(tmp_path, capsys, command):
    # The input and the configs do not exist: the --out check comes before reading them.
    out = tmp_path / "out"
    out.write_text("kept\n", encoding="utf-8")
    for path in (out, out / "sub" / "dir"):
        assert main([*command, "--input", str(tmp_path / "missing.csv"), "--out", str(path)]) == 2
        assert f"error: --out {path}: {out} is not a directory" in capsys.readouterr().err
    assert out.read_text(encoding="utf-8") == "kept\n"


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
    rows.insert(repeat, replace(rows[original], lat=rows[original].lat / 2))
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
    assert main(["eval", "--input", str(plain)]) == 0
    assert capsys.readouterr() == headed_eval


@pytest.mark.parametrize("first_line", [
    "sourcemmsi,navigationalstatus,rateofturn,speedoverground,courseoverground,trueheading,lon,lat,t",
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
    assert main(["compress", "--input", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: input {path}: line 1 is a header, so it must name the columns mmsi,timestamp,lon,lat first" in err
    assert f"found {first_line.lstrip(chr(0xFEFF)).replace(chr(34), '')!r}" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("first_line", ["mmsi,timestamp,lon,lat,vessel_type", "\ufeffsourcemmsi,t,lon,lat", '"MMSI",t'])
def test_a_header_row_read_as_data_gets_a_hint(tmp_path, capsys, first_line):
    # No header row is read as data any more: it is skipped, or the run stops
    # with a message on line 1, never a count of rejected rows.
    path = tmp_path / "with_header.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(first_line + "\n")
        write_records(make_straight_track().points, fh)
    names_columns = first_line.startswith("mmsi,timestamp,lon,lat")
    assert main(["eval", "--input", str(path)]) == (0 if names_columns else 2)
    err = capsys.readouterr().err
    assert "malformed" not in err
    assert ("line 1 is a header" in err) is not names_columns


@pytest.mark.parametrize("first_line", ["mmsi,timestamp,lon,lat,vessel_type", '\ufeff "MMSI" ,Timestamp,LON,"lat"'])
def test_the_header_hint_advises_header_when_line_1_names_the_columns(tmp_path, capsys, first_line):
    # Such a line 1 is skipped without a flag, so there is nothing to advise.
    plain = tmp_path / "plain.csv"
    with open(plain, "w", encoding="utf-8") as fh:
        write_records(make_straight_track().points, fh)
    path = tmp_path / "with_header.csv"
    path.write_text(first_line + "\n" + plain.read_text(encoding="utf-8"), encoding="utf-8")
    assert main(["eval", "--input", str(path)]) == 0
    headed_eval = capsys.readouterr()
    assert headed_eval.err == ""
    assert main(["eval", "--input", str(plain)]) == 0
    assert capsys.readouterr() == headed_eval


@pytest.mark.parametrize("first_line", [
    "sourcemmsi,t,lon,lat",
    "\ufeffsourcemmsi,navigationalstatus,rateofturn,speedoverground,courseoverground,trueheading,lon,lat,t",
    '"MMSI",t',
])
def test_the_header_hint_names_the_columns_when_line_1_does_not(tmp_path, capsys, first_line):
    # The message names the wanted columns and advises no flag, since none skips such a line 1.
    path = tmp_path / "other_header.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(first_line + "\n")
        write_records(make_straight_track().points, fh)
    assert main(["eval", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must name the columns mmsi,timestamp,lon,lat first" in captured.err
    assert "--header" not in captured.err


@pytest.mark.parametrize("first_line", ["1,100,999.0,48.0,cargo", "12x,100,1.0,48.0"])
def test_a_malformed_first_row_of_numbers_gets_no_header_hint(tmp_path, capsys, first_line):
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
    spike = replace(track.points[10], timestamp=track.points[9].timestamp + 5, lat=49.9)
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
    rc = main(
        ["tune", "--input", passenger_csv, "--type", "passenger", "--k", "3",
         "--seed", "3", "--population", "6", "--generations", "2", "--stagnation", "2",
         "--out", str(tmp_path / "x")]
    )
    assert rc == 2
    assert "folds" in capsys.readouterr().err


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
# numpy: no command needs it


def run_python(code, *args):
    """Run ``code`` in a fresh interpreter that imports this checkout's package."""
    env = dict(os.environ, PYTHONPATH=str(Path(vesselsyn.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True
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
