"""Tests for the physically-impossible-report filter."""

import math
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from vesselsyn.geo import EARTH_RADIUS_M, KNOT_MS, haversine_m
from vesselsyn.ingest import AisRecord, VesselTrack
from vesselsyn.noise import MAX_SPEED_KNOTS, filter_dataset, filter_track
from vesselsyn.synopses import SynopsisConfig, VesselState, ingest_point
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
    assert filter_track(track_of([a, b, far._replace(timestamp=120)]))[0].points == [a, b]
    # Both disagree with it and agree with each other: it goes.
    assert filter_track(track_of([far._replace(timestamp=0), b, c]))[0].points == [b, c]


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


# ---------------------------------------------------------------------------
# The trig-free bound: the filter and the stop rule take haversine_m only when
# geo.ARC_M_PER_DEG's bound does not settle a test, and decide as before.


def exact_filter_track(track):
    """:func:`filter_track` with every speed test taken by :func:`haversine_m`, kept as an oracle."""

    def plausible(a, b):
        dt = b.timestamp - a.timestamp
        return dt > 0 and haversine_m(a.lon, a.lat, b.lon, b.lat) / dt / KNOT_MS <= MAX_SPEED_KNOTS

    points = track.points
    if (
        len(points) >= 3
        and plausible(points[1], points[2])
        and not plausible(points[0], points[1])
        and not plausible(points[0], points[2])
    ):
        points = points[1:]
    kept = []
    for rec in points:
        if not kept or plausible(kept[-1], rec):
            kept.append(rec)
    return VesselTrack(track.mmsi, track.vessel_type, kept), len(track.points) - len(kept)


def _flip(pred, lo, hi):
    """Adjacent floats ``a < b`` in ``[lo, hi]`` with ``pred(a)`` false and ``pred(b)`` true."""
    assert not pred(lo) and pred(hi)
    while math.nextafter(lo, hi) < hi:
        mid = (lo + hi) / 2.0
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


#: Time steps and stop radii to bisect at.  On the equator the bound exceeds
#: the distance only by its margin and rounding, so at some of these pairs
#: the stop rule decides wrongly if ``ARC_M_PER_DEG`` loses its margin or
#: turns it down, and the filter if either margin has the wrong sign or both
#: are dropped.  Each margin alone covers the filter's rounding.
_STEPS_S = [*range(1, 121), 300, 600, 1000, 3600]
_RADII_M = [0.5 + 7.25 * i for i in range(140)]


def test_the_last_float_under_the_ceiling_is_kept_and_the_next_dropped():
    a = AisRecord(1, 0, 0.0, 0.0)
    for dt in _STEPS_S:
        under_lon, over_lon = _flip(
            lambda dlon: haversine_m(0.0, 0.0, dlon, 0.0) / dt / KNOT_MS > MAX_SPEED_KNOTS, 0.0, 1.0
        )
        for sign in (1.0, -1.0):
            under = AisRecord(1, dt, sign * under_lon, 0.0)
            assert filter_track(track_of([a, under])) == (track_of([a, under]), 0), dt
            assert filter_track(track_of([a, AisRecord(1, dt, sign * over_lon, 0.0)])) == (track_of([a]), 1), dt


def test_the_last_float_inside_the_stop_radius_is_absorbed_and_the_next_ends_the_stop():
    # The anchor is still for 600 s, then the report moves at most 1010 m
    # in 600 s: 3.3 kn, under the stop speed, so only the radius decides.
    for radius in _RADII_M:
        cfg = SynopsisConfig(no_speed_threshold_kn=10.0, low_speed_threshold_kn=20.0, distance_threshold_m=radius)
        inside_lon, outside_lon = _flip(lambda dlon: haversine_m(0.0, 0.0, dlon, 0.0) >= radius, 0.0, 1.0)
        for sign in (1.0, -1.0):
            for dlon, ends in ((inside_lon, False), (outside_lon, True)):
                state = VesselState()
                ingest_point(state, AisRecord(1, 0, 0.0, 0.0), cfg)
                ingest_point(state, AisRecord(1, 600, 0.0, 0.0), cfg)
                anchor = state.stop_anchor
                assert anchor is not None
                point = AisRecord(1, 1200, sign * dlon, 0.0)
                ingest_point(state, point, cfg)
                # A report that ends the stop is slow enough to anchor the next.
                assert state.stop_anchor is (point if ends else anchor), radius


def _destination(lon, lat, bearing_deg, distance_m):
    """The point ``distance_m`` along the great circle from ``(lon, lat)`` at ``bearing_deg``."""
    phi1, lam1 = math.radians(lat), math.radians(lon)
    theta, delta = math.radians(bearing_deg), distance_m / EARTH_RADIUS_M
    sin_phi2 = math.sin(phi1) * math.cos(delta) + math.cos(phi1) * math.sin(delta) * math.cos(theta)
    phi2 = math.asin(max(-1.0, min(1.0, sin_phi2)))
    lam2 = lam1 + math.atan2(
        math.sin(theta) * math.sin(delta) * math.cos(phi1),
        math.cos(delta) - math.sin(phi1) * sin_phi2,
    )
    return _wrap_lon(math.degrees(lam2)), math.degrees(phi2)


def assert_filter_equals_the_oracle(points):
    track = track_of(points)
    assert filter_track(track) == exact_filter_track(track)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), vessel=st.integers(0, 2), data=st.data())
def test_filter_equals_the_exact_oracle_on_fleets_with_far_off_reports(seed, vessel, data):
    points = list(make_fleet(300, 3, seed=seed)[vessel].points)
    for _ in range(data.draw(st.integers(1, 6), label="reports")):
        # Index 0 puts the report before the first, up to a minute earlier.
        i = data.draw(st.one_of(st.just(0), st.integers(1, len(points) - 1)), label="index")
        earliest = points[i - 1].timestamp + 1 if i else points[0].timestamp - 60
        assume(earliest < points[i].timestamp)
        t = data.draw(st.integers(earliest, points[i].timestamp - 1), label="time")
        near = points[i]
        lon, lat = data.draw(
            st.one_of(
                st.tuples(st.floats(-180.0, 180.0), st.floats(-90.0, 90.0)),
                st.tuples(st.floats(-0.02, 0.02), st.floats(-0.02, 0.02)).map(
                    lambda d: (near.lon + d[0], near.lat + d[1])
                ),
            ),
            label="position",
        )
        points.insert(i, AisRecord(near.mmsi, t, lon, lat))
    assert_filter_equals_the_oracle(points)


@settings(max_examples=400, deadline=None)
@given(
    lon=st.floats(-180.0, 180.0),
    lat=st.one_of(st.floats(-89.0, 89.0), st.just(0.0)),
    bearing=st.one_of(st.sampled_from([0.0, 90.0, 180.0, 270.0]), st.floats(0.0, 360.0)),
    dt=st.integers(1, 3_600),
    rel=st.one_of(st.just(0.0), st.floats(-1e-9, 1e-9), st.floats(-1e-6, 1e-6)),
)
def test_filter_equals_the_exact_oracle_at_the_ceiling(lon, lat, bearing, dt, rel):
    # Three reports, each a step at the ceiling from the last: the first
    # report's confirmation and the per-report test both sit at the limit.
    step_m = MAX_SPEED_KNOTS * KNOT_MS * dt * (1.0 + rel)
    b_lon, b_lat = _destination(lon, lat, bearing, step_m)
    c_lon, c_lat = _destination(b_lon, b_lat, bearing, step_m)
    assert_filter_equals_the_oracle(
        [AisRecord(1, 0, lon, lat), AisRecord(1, dt, b_lon, b_lat), AisRecord(1, 2 * dt, c_lon, c_lat)]
    )


_EDGE_LATS = st.one_of(st.floats(89.0, 90.0), st.floats(-90.0, -89.0), st.floats(-90.0, 90.0))
_EDGE_LONS = st.one_of(st.floats(179.0, 180.0), st.floats(-180.0, -179.0), st.floats(-180.0, 180.0))
_NUDGE = st.floats(-0.01, 0.01)


@settings(max_examples=400, deadline=None)
@given(
    first=st.tuples(_EDGE_LONS, _EDGE_LATS),
    moves=st.lists(
        st.one_of(
            st.tuples(st.just("jump"), _EDGE_LONS, _EDGE_LATS),
            st.tuples(st.just("nudge"), _NUDGE, _NUDGE),
            st.just(("stay", 0.0, 0.0)),
        ),
        min_size=1,
        max_size=4,
    ),
    steps=st.lists(st.integers(1, 2**40), min_size=4, max_size=4),
)
def test_filter_equals_the_exact_oracle_near_the_poles_and_the_antimeridian(first, moves, steps):
    # A jump goes anywhere, a nudge moves the last position by at most
    # 0.01 deg each way, wrapped at the antimeridian and clamped at the
    # poles, and a stay repeats it: a coincident pair.
    points = [AisRecord(1, 0, *first)]
    for (kind, x, y), dt in zip(moves, steps):
        last = points[-1]
        if kind == "jump":
            lon, lat = x, y
        else:
            lon, lat = _wrap_lon(last.lon + x), max(-90.0, min(90.0, last.lat + y))
        points.append(AisRecord(1, last.timestamp + dt, lon, lat))
    assert_filter_equals_the_oracle(points)


@settings(max_examples=400, deadline=None)
@given(
    first=st.tuples(st.floats(-180.0, 180.0), st.floats(-90.0, 90.0)),
    moves=st.lists(
        st.tuples(
            st.one_of(
                st.tuples(st.just("jump"), st.floats(-180.0, 180.0), st.floats(-90.0, 90.0)),
                st.tuples(st.just("nudge"), st.floats(-0.05, 0.05), st.floats(-0.05, 0.05)),
            ),
            st.one_of(st.just(0), st.integers(1, 120), st.integers(3_600, 10**7)),
        ),
        max_size=4,
    ),
)
@example(first=(0.0, 0.0), moves=[(("nudge", 0.0, 0.0), 0), (("nudge", 0.001, 0.0), 60)])
@example(first=(90.0, 0.0), moves=[(("jump", 0.0, 0.0), 60), (("nudge", 0.001, 0.0), 60)])
def test_filter_equals_the_exact_oracle_on_short_tracks(first, moves):
    # Tracks of 1 to 5 reports, so the first report's rule decides often: a
    # jump goes anywhere, a nudge moves the last position by at most 0.05 deg
    # each way, and a step of 0 repeats the last timestamp.  The examples
    # keep a first report that only the third confirms, and drop one that
    # neither the second nor the third confirms.
    points = [AisRecord(1, 0, *first)]
    for (kind, x, y), dt in moves:
        last = points[-1]
        if kind == "jump":
            lon, lat = x, y
        else:
            lon, lat = _wrap_lon(last.lon + x), max(-90.0, min(90.0, last.lat + y))
        points.append(AisRecord(1, last.timestamp + dt, lon, lat))
    assert_filter_equals_the_oracle(points)
