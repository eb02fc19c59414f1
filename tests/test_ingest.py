"""Tests for parsing position reports and grouping them into tracks."""

import io
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vesselsyn.ingest import (
    AisRecord,
    HeaderError,
    ParseIssue,
    VesselTrack,
    parse_records,
    load_records,
    partition_tracks,
    split_k_folds,
    write_records,
)


def make_track(mmsi, n, t0=0):
    pts = [AisRecord(mmsi, t0 + 60 * i, -4.49, 48.39) for i in range(n)]
    return VesselTrack(mmsi, "unknown", pts)


def test_parse_single_plain_row():
    records, issues = parse_records(["227705102,1443650402,-4.4861,48.3904,passenger"])
    assert records == [AisRecord(227705102, 1443650402, -4.4861, 48.3904, "passenger")]
    assert issues == []


def test_parse_row_without_type_column_defaults_to_unknown():
    records, _ = parse_records(["1,100,0.5,50.25"])
    assert records[0].vessel_type == "unknown"


def test_parse_normalizes_type_case_and_whitespace():
    records, _ = parse_records([" 1 , 100 , 0.5 , 50.25 , Passenger "])
    assert records == [AisRecord(1, 100, 0.5, 50.25, "passenger")]
    # Spellings that differ only in case or surrounding spaces share one label.
    lines = ["1,100,0.5,50.25, Passenger", "1,160,0.5,50.25,PASSENGER", "2,100,0.5,50.25,passenger"]
    records, _ = parse_records(lines)
    assert [r.vessel_type for r in records] == ["passenger"] * 3
    assert len({id(r.vessel_type) for r in records}) == 1


def test_parse_empty_type_field_defaults_to_unknown():
    records, _ = parse_records(["1,100,0.5,50.25,"])
    assert records[0].vessel_type == "unknown"


def test_parse_rejects_malformed_rows_and_reports_line_numbers():
    lines = [
        "1,100,0.5,50.25,cargo",  # good
        "2,100,0.5,91.0",  # latitude out of range
        "3,100,-200.0,50.0",  # longitude out of range
        "4,100,0.5,nan",  # NaN never satisfies the range check
        "5,-7,0.5,50.0",  # negative timestamp
        f"5,{2**63},0.5,50.0",  # timestamp beyond int64
        "abc,100,0.5,50.0",  # non-numeric vessel id
        "6,100",  # too few columns
    ]
    records, issues = parse_records(lines)
    assert [r.mmsi for r in records] == [1]
    assert [issue.line_no for issue in issues] == [2, 3, 4, 5, 6, 7, 8]
    reasons = [
        "latitude 91.0 out of range",
        "longitude -200.0 out of range",
        "latitude nan out of range",
        "timestamp -7 outside [0, 2**63)",
        "timestamp 9223372036854775808 outside [0, 2**63)",
        "invalid literal for int() with base 10: 'abc'",
        "row has 2 fields, expected at least 4",
    ]
    assert [issue.reason for issue in issues] == reasons
    # Repeated rows meet MMSI fields parsed before and give the same issues.
    _, twice = parse_records(lines + lines)
    assert twice == issues + [ParseIssue(i.line_no + 8, i.reason) for i in issues]


def test_parse_skips_blank_lines_without_counting_them():
    records, issues = parse_records(["", "1,100,0.5,50.25", "   ", "2,160,0.5,50.25", "\n"])
    assert len(records) == 2
    assert issues == []


def test_parse_accepts_boundary_coordinates():
    records, issues = parse_records(["1,0,180.0,-90.0", "2,0,-180.0,90.0", f"3,{2**63 - 1},0.0,0.0"])
    assert len(records) == 3
    assert issues == []


def test_parse_header_row_skipped_with_index_mapping():
    lines = ["mmsi,timestamp,lon,lat,vessel_type", "7,100,0.5,50.25,tug"]
    records, issues = parse_records(lines)
    assert records == [AisRecord(7, 100, 0.5, 50.25, "tug")]
    assert issues == []


def test_write_then_parse_roundtrip_preserves_floats():
    original = [
        AisRecord(227705102, 100, -4.486123456789, 48.390456789012, "cargo"),
        AisRecord(2, 160, 0.1, -0.30000000000000004, "unknown"),
        AisRecord(227705102, 160, -4.486, 48.39, "cargo"),
    ]
    buf = io.StringIO()
    write_records(original, buf)
    parsed, issues = parse_records(buf.getvalue().splitlines())
    assert parsed == original
    assert issues == []
    # The rows of one vessel share one MMSI and one type object.
    assert parsed[0].mmsi is parsed[2].mmsi
    assert parsed[0].vessel_type is parsed[2].vessel_type


def test_load_records_reads_files(tmp_path):
    path = tmp_path / "reports.csv"
    path.write_text("1,100,0.5,50.25,cargo\n", encoding="utf-8")
    records, issues = load_records(str(path))
    assert records == [AisRecord(1, 100, 0.5, 50.25, "cargo")]
    assert issues == []


def test_load_records_skips_a_utf8_byte_order_mark(tmp_path):
    # The mark must not glue itself to the first MMSI field and reject that row.
    rows = "1,100,0.5,50.25,cargo\n2,160,0.6,50.5,cargo\n"
    plain = tmp_path / "plain.csv"
    plain.write_text(rows, encoding="utf-8")
    marked = tmp_path / "marked.csv"
    marked.write_text(rows, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    records, issues = load_records(str(marked))
    assert len(records) == 2 and issues == []
    assert (records, issues) == load_records(str(plain))


def test_partition_groups_by_vessel_and_sorts_by_time():
    records = [
        AisRecord(2, 300, 0.0, 0.0),
        AisRecord(1, 200, 0.0, 0.0),
        AisRecord(2, 100, 0.0, 0.0, "fishing"),
        AisRecord(1, 100, 0.0, 0.0),
    ]
    tracks = partition_tracks(records)
    assert [t.mmsi for t in tracks] == [1, 2]
    assert [p.timestamp for p in tracks[0].points] == [100, 200]
    assert [p.timestamp for p in tracks[1].points] == [100, 300]
    assert tracks[1].vessel_type == "fishing"


def test_partition_drops_duplicate_timestamps_keeping_first():
    records = [
        AisRecord(1, 100, 0.0, 0.0),
        AisRecord(1, 100, 9.0, 9.0),
        AisRecord(1, 160, 1.0, 1.0),
    ]
    (track,) = partition_tracks(records)
    assert [p.timestamp for p in track.points] == [100, 160]
    assert track.points[0].lon == 0.0  # first occurrence wins


def test_partition_type_is_first_labelled_report_in_time_order():
    records = [
        AisRecord(1, 300, 0.0, 0.0, "cargo"),
        AisRecord(1, 100, 0.0, 0.0),
        AisRecord(1, 200, 0.0, 0.0, "tug"),
    ]
    (track,) = partition_tracks(records)
    assert track.vessel_type == "tug"


def test_partition_is_idempotent():
    rng = random.Random(3)
    records = [
        AisRecord(rng.choice([1, 2, 3]), rng.randrange(0, 10_000), 0.1, 50.0)
        for _ in range(200)
    ]
    tracks = partition_tracks(records)
    again = partition_tracks([p for t in tracks for p in t.points])
    assert [(t.mmsi, t.points) for t in again] == [(t.mmsi, t.points) for t in tracks]


def test_partition_preserves_all_unique_timestamp_reports():
    rng = random.Random(5)
    records = [
        AisRecord(rng.choice([1, 2]), ts, 0.1, 50.0)
        for ts in rng.sample(range(100_000), 300)
    ]
    tracks = partition_tracks(records)
    flat = [p for t in tracks for p in t.points]
    key = lambda r: (r.mmsi, r.timestamp)
    assert sorted(flat, key=key) == sorted(records, key=key)


def test_split_k_folds_known_layout():
    tracks = [make_track(1, 10), make_track(2, 8), make_track(3, 3), make_track(4, 3)]
    folds = split_k_folds(tracks, 2)
    assert [[t.mmsi for t in fold] for fold in folds] == [[1, 4], [2, 3]]
    assert [sum(len(t) for t in fold) for fold in folds] == [13, 11]


def test_split_k_folds_equal_tracks_one_per_fold():
    tracks = [make_track(m, 50) for m in range(1, 7)]
    folds = split_k_folds(tracks, 6)
    assert sorted(t.mmsi for fold in folds for t in fold) == [1, 2, 3, 4, 5, 6]
    assert all(len(fold) == 1 for fold in folds)


def test_split_k_folds_keeps_tracks_whole_and_balanced():
    rng = random.Random(11)
    tracks = [make_track(m, rng.randrange(5, 120)) for m in range(1, 26)]
    k = 5
    folds = split_k_folds(tracks, k)
    seen = sorted(t.mmsi for fold in folds for t in fold)
    assert seen == [t.mmsi for t in tracks]
    sizes = [sum(len(t) for t in fold) for fold in folds]
    assert max(sizes) - min(sizes) <= max(len(t) for t in tracks)


def test_split_k_folds_rejects_bad_k():
    tracks = [make_track(1, 5), make_track(2, 5)]
    with pytest.raises(ValueError):
        split_k_folds(tracks, 1)
    with pytest.raises(ValueError):
        split_k_folds(tracks, 3)


# Fields that are often almost valid, so rows reach every check in the parser.
_FIELD = st.one_of(
    st.text(max_size=8),
    st.integers().map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(str),
)
_LINE = st.one_of(st.text(), st.lists(_FIELD, max_size=7).map(",".join))


def _line_1_kind(lines):
    """How line 1 reads: ``"row"``, ``"ours"`` (a header to skip) or ``"foreign"`` (a header to refuse)."""
    fields = [field.strip().strip('"').strip() for field in (lines[0] if lines else "").split(",")]
    if not fields[0].isidentifier():
        return "row"
    return "ours" if [f.lower() for f in fields[:4]] == ["mmsi", "timestamp", "lon", "lat"] else "foreign"


@settings(max_examples=300, deadline=None)
@given(st.lists(_LINE, max_size=8))
@example([' "MMSI" ,Timestamp,LON,lat,type', "1,100,0.5,50.25", "x"])
@example(["sourcemmsi,t,lon,lat", "1,100,0.5,50.25"])
@example(["", "mmsi,t"])
def test_parse_records_never_raises_and_accounts_for_every_row(lines):
    """It raises only on a foreign header; otherwise every non-blank line but a skipped header is a record or an issue."""
    kind = _line_1_kind(lines)
    if kind == "foreign":
        with pytest.raises(HeaderError):
            parse_records(lines)
        return
    records, issues = parse_records(lines)
    rows = [line_no for line_no, line in enumerate(lines, start=1) if line.strip()][kind == "ours":]
    assert len(records) + len(issues) == len(rows)
    assert set(issue.line_no for issue in issues) <= set(rows)
    for rec in records:
        assert -180.0 <= rec.lon <= 180.0 and -90.0 <= rec.lat <= 90.0
