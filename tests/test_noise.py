"""Tests for the physically-impossible-report filter."""

import math
import random
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from vesselsyn.geo import EARTH_RADIUS_M, KNOT_MS
from vesselsyn.ingest import AisRecord, VesselTrack
from vesselsyn.noise import MAX_SPEED_KNOTS, filter_dataset, filter_track
from vesselsyn.synthetic import make_fleet

from tracks import make_straight_track

DEG_PER_M = 1.0 / (EARTH_RADIUS_M * math.pi / 180.0)


def track_of(points):
    return VesselTrack(1, "unknown", list(points))


def implied_speed_knots(a, b):
    """Independent implied-speed oracle via the atan2 great-circle form."""
    p1, p2 = math.radians(a.lat), math.radians(b.lat)
    dl = math.radians(b.lon - a.lon)
    y = math.hypot(
        math.cos(p2) * math.sin(dl),
        math.cos(p1) * math.sin(p2) - math.sin(p1) * math.cos(p2) * math.cos(dl),
    )
    x = math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(dl)
    metres = EARTH_RADIUS_M * math.atan2(y, x)
    return metres / (b.timestamp - a.timestamp) / KNOT_MS


def test_clean_track_passes_untouched():
    track = make_straight_track()
    filtered, rejected = filter_track(track)
    assert rejected == 0
    assert filtered.points == track.points


def test_teleport_is_rejected_and_does_not_poison_the_rest():
    # One degree of latitude in ten seconds is far beyond any vessel;
    # the report after the glitch is judged against the last *accepted*
    # point and survives.
    a = AisRecord(1, 0, -4.49, 48.39)
    glitch = AisRecord(1, 10, -4.49, 49.39)
    c = AisRecord(1, 20, -4.49, 48.3901)
    assert implied_speed_knots(a, glitch) > 50.0  # oracle agrees it is impossible
    filtered, rejected = filter_track(track_of([a, glitch, c]))
    assert rejected == 1
    assert filtered.points == [a, c]


def test_a_bad_first_report_does_not_poison_the_rest():
    track = make_straight_track(20)
    bad = AisRecord(track.mmsi, track.points[0].timestamp - 60, 0.0, 0.0)
    filtered, rejected = filter_track(track_of([bad, *track.points]))
    assert filtered.points[-len(track.points):] == track.points
    assert rejected == 1


def test_the_first_report_is_dropped_only_when_the_next_two_agree_without_it():
    a = AisRecord(1, 0, -4.49, 48.39)
    b = AisRecord(1, 60, -4.4899, 48.39)
    c = AisRecord(1, 120, -4.4898, 48.39)
    far = AisRecord(1, 90, -4.49, 49.39)  # a degree of latitude from the others
    # Two reports cannot confirm or refute the first; it is kept.
    assert filter_track(track_of([far, b]))[0].points == [far]
    # The next two disagree with each other, so the first stays the anchor.
    assert filter_track(track_of([a, far, c]))[0].points == [a, c]
    # One of the next two agrees with the first: it stays.
    assert filter_track(track_of([a, b, replace(far, timestamp=120)]))[0].points == [a, b]
    # Both disagree with it and agree with each other: it goes.
    assert filter_track(track_of([replace(far, timestamp=0), b, c]))[0].points == [b, c]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000), vessel=st.integers(0, 2), dlon=st.floats(-180.0, 180.0), data=st.data())
def test_one_far_off_report_anywhere_leaves_every_other_report_accepted(seed, vessel, dlon, data):
    # Mirrored across the equator, the far-off report is at least 95 degrees
    # of latitude from any report of a make_fleet track near Brest, too far
    # for any time step of the track.
    track = make_fleet(300, 3, seed=seed)[vessel]
    points = track.points
    assert filter_track(track) == (track, 0)
    i = data.draw(st.integers(0, len(points)), label="index")
    if i == 0:
        t = points[0].timestamp - data.draw(st.integers(1, 3_000), label="lead")
    elif i == len(points):
        t = points[-1].timestamp + data.draw(st.integers(1, 3_000), label="lag")
    else:
        t = data.draw(st.integers(points[i - 1].timestamp + 1, points[i].timestamp - 1), label="time")
    near = points[min(i, len(points) - 1)]
    far = AisRecord(track.mmsi, t, _wrap_lon(near.lon + dlon), -near.lat)
    filtered, rejected = filter_track(track_of([*points[:i], far, *points[i:]]))
    assert filtered.points == points
    assert rejected == 1


def test_duplicate_and_regressing_timestamps_rejected():
    a = AisRecord(1, 100, 0.0, 50.0)
    same = AisRecord(1, 100, 0.0001, 50.0)
    earlier = AisRecord(1, 90, 0.0002, 50.0)
    b = AisRecord(1, 160, 0.0001, 50.0)
    filtered, rejected = filter_track(track_of([a, same, earlier, b]))
    assert filtered.points == [a, b]
    assert rejected == 2


def test_speed_ceiling_brackets():
    assert MAX_SPEED_KNOTS == 50.0
    a = AisRecord(1, 0, 0.0, 0.0)
    under = AisRecord(1, 100, 49.9 * KNOT_MS * 100 * DEG_PER_M, 0.0)
    over = AisRecord(1, 100, 50.1 * KNOT_MS * 100 * DEG_PER_M, 0.0)
    _, rejected = filter_track(track_of([a, under]))
    assert rejected == 0
    _, rejected = filter_track(track_of([a, over]))
    assert rejected == 1


@pytest.mark.parametrize(
    "a, b, knots",
    [
        # 22 m apart across the antimeridian, 5 s apart: the change in
        # longitude is 0.0002 deg the short way round.
        (AisRecord(1, 0, 179.9999, 0.0), AisRecord(1, 5, -179.9999, 0.0), 8.6),
        # At 89.95 N, 0.6 deg of longitude is 58 m: 22.6 kn over 5 s.
        (AisRecord(1, 0, 0.0, 89.95), AisRecord(1, 5, 0.6, 89.95), 22.6),
    ],
    ids=["antimeridian", "pole"],
)
def test_slow_moves_are_kept_where_degrees_mislead(a, b, knots):
    assert implied_speed_knots(a, b) == pytest.approx(knots, abs=0.05)
    filtered, rejected = filter_track(track_of([a, b]))
    assert rejected == 0 and filtered.points == [a, b]


def _wrap_lon(lon):
    return (lon + 180.0) % 360.0 - 180.0


@settings(max_examples=500, deadline=None)
@given(
    lon=st.floats(-180.0, 180.0),
    lat=st.floats(-89.7, 89.7),
    dlon=st.one_of(st.floats(-1.0, 1.0), st.floats(-180.0, 180.0)),
    dlat=st.floats(-1.0, 1.0),
    dt=st.integers(1, 9),
)
@example(lon=179.8, lat=0.0, dlon=0.51, dlat=0.0, dt=9)
@example(lon=-179.8, lat=0.0, dlon=-0.51, dlat=0.0, dt=9)
@example(lon=0.0, lat=89.7, dlon=0.51, dlat=0.0, dt=9)
@example(lon=0.0, lat=-89.7, dlon=-0.51, dlat=0.0, dt=9)
@example(lon=179.9, lat=89.7, dlon=0.51, dlat=0.0, dt=9)
@example(lon=0.0, lat=89.19, dlon=0.0, dlat=0.51, dt=9)
def test_a_half_degree_jump_within_seconds_is_over_the_ceiling(lon, lat, dlon, dlat, dt):
    # Away from the poles, more than 0.5 deg of latitude, or of longitude the
    # short way round, is at least 291 m; over at most 9 s that exceeds the
    # ceiling, so the speed rule alone rejects every such jump.
    lat2 = lat + dlat
    assume(abs(lat2) <= 89.7)
    a = AisRecord(1, 1000, lon, lat)
    b = AisRecord(1, 1000 + dt, _wrap_lon(lon + dlon), lat2)
    lon_change = abs(b.lon - a.lon)
    assume(abs(b.lat - a.lat) > 0.5 or min(lon_change, 360.0 - lon_change) > 0.5)
    filtered, rejected = filter_track(track_of([a, b]))
    assert rejected == 1 and filtered.points == [a]


def test_filter_decisions_are_prefix_stable():
    # Whether a report after the first survives depends only on what came
    # before it, so filtering a prefix must agree with filtering the whole
    # track.  The first report also depends on the next two, which accept
    # it here.
    rng = random.Random(41)
    points = []
    t, lon, lat = 0, -4.49, 48.39
    for i in range(120):
        t += rng.randrange(5, 120)
        if rng.random() < 0.15:  # inject a spike
            points.append(AisRecord(1, t, lon + rng.uniform(1.0, 3.0), lat))
        else:
            lon += rng.uniform(-0.0005, 0.0005)
            lat += rng.uniform(-0.0005, 0.0005)
            points.append(AisRecord(1, t, lon, lat))
    full, _ = filter_track(track_of(points))
    for cut in (1, 7, 30, 77, 120):
        prefix, _ = filter_track(track_of(points[:cut]))
        kept_ts = {p.timestamp for p in prefix.points}
        expected = [p for p in full.points if p.timestamp <= points[cut - 1].timestamp]
        assert prefix.points == expected, f"divergence at prefix {cut}"
        assert kept_ts <= {p.timestamp for p in points[:cut]}


def test_filter_dataset_drops_emptied_tracks():
    gone = VesselTrack(1, "unknown", [])
    kept = VesselTrack(2, "unknown", [AisRecord(2, 0, -4.49, 48.39), AisRecord(2, 5, -4.49, 49.39)])
    clean, rejected = filter_dataset([gone, kept])
    assert [t.mmsi for t in clean] == [2]
    assert rejected == 1
