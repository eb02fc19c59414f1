"""Tests for the physically-impossible-report filter."""

import math
import random

import pytest

from vesselsyn.geo import EARTH_RADIUS_M, KNOT_MS
from vesselsyn.ingest import AisRecord, VesselTrack
from vesselsyn.noise import (
    COORD_JUMP_MAX_DT_S,
    NoiseFilterConfig,
    filter_dataset,
    filter_track,
)
from vesselsyn.synthetic import make_straight_track

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


def test_duplicate_and_regressing_timestamps_rejected():
    a = AisRecord(1, 100, 0.0, 50.0)
    same = AisRecord(1, 100, 0.0001, 50.0)
    earlier = AisRecord(1, 90, 0.0002, 50.0)
    b = AisRecord(1, 160, 0.0001, 50.0)
    filtered, rejected = filter_track(track_of([a, same, earlier, b]))
    assert filtered.points == [a, b]
    assert rejected == 2


def test_coordinate_jump_rule_applies_only_to_fast_repeats():
    # Disable the speed ceiling so the jump rule is observed in isolation.
    cfg = NoiseFilterConfig(max_speed_knots=math.inf, max_coord_jump_deg=0.5)
    a = AisRecord(1, 0, 0.0, 50.0)
    fast_jump = AisRecord(1, 5, 0.6, 50.0)
    filtered, rejected = filter_track(track_of([a, fast_jump]), cfg)
    assert rejected == 1 and filtered.points == [a]

    slow_jump = AisRecord(1, 15, 0.6, 50.0)
    filtered, rejected = filter_track(track_of([a, slow_jump]), cfg)
    assert rejected == 0 and filtered.points == [a, slow_jump]

    at_boundary = AisRecord(1, int(COORD_JUMP_MAX_DT_S), 0.6, 50.0)
    filtered, rejected = filter_track(track_of([a, at_boundary]), cfg)
    assert rejected == 0  # the window is strict: dt == limit is not a repeat

    # 22 m apart across the antimeridian: the longitude change is 0.0002 deg.
    east = AisRecord(1, 0, 179.9999, 0.0)
    west = AisRecord(1, 5, -179.9999, 0.0)
    filtered, rejected = filter_track(track_of([east, west]), cfg)
    assert rejected == 0 and filtered.points == [east, west]


def test_speed_ceiling_brackets():
    cfg = NoiseFilterConfig(max_speed_knots=50.0)
    a = AisRecord(1, 0, 0.0, 0.0)
    under = AisRecord(1, 100, 49.9 * KNOT_MS * 100 * DEG_PER_M, 0.0)
    over = AisRecord(1, 100, 50.1 * KNOT_MS * 100 * DEG_PER_M, 0.0)
    _, rejected = filter_track(track_of([a, under]), cfg)
    assert rejected == 0
    _, rejected = filter_track(track_of([a, over]), cfg)
    assert rejected == 1


def test_disabled_config_keeps_any_plausible_ordering():
    cfg = NoiseFilterConfig.disabled()
    a = AisRecord(1, 0, 0.0, 0.0)
    teleport = AisRecord(1, 10, 10.0, 10.0)
    filtered, rejected = filter_track(track_of([a, teleport]), cfg)
    assert rejected == 0
    assert filtered.points == [a, teleport]


def test_disabled_config_still_requires_advancing_time():
    # Downstream processing relies on strictly increasing timestamps, so
    # even the permissive configuration drops non-advancing reports.
    cfg = NoiseFilterConfig.disabled()
    a = AisRecord(1, 100, 0.0, 0.0)
    b = AisRecord(1, 100, 0.1, 0.0)
    filtered, rejected = filter_track(track_of([a, b]), cfg)
    assert filtered.points == [a]
    assert rejected == 1


def test_filter_decisions_are_prefix_stable():
    # Whether a report survives depends only on what came before it, so
    # filtering a prefix must agree with filtering the whole track.
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


def test_config_validation():
    with pytest.raises(ValueError):
        NoiseFilterConfig(max_speed_knots=0.0)
    with pytest.raises(ValueError):
        NoiseFilterConfig(max_coord_jump_deg=-1.0)
