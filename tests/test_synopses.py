"""Tests for the single-pass critical-point detector.

Every fixture expectation below was derived by hand-simulating the event
rules on the constructed track before running the engine, then frozen.
"""

import hashlib
import io
import math
import random
from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vesselsyn import synopses
from vesselsyn.ga import GENE_SPEC, genes_to_config
from vesselsyn.geo import (
    ARC_FLOOR_M,
    ARC_M_PER_DEG,
    EARTH_RADIUS_M,
    KNOT_MS,
    Velocity,
    haversine_m,
    segment_velocity,
)
from vesselsyn.ingest import AisRecord, VesselTrack
from vesselsyn.synopses import (
    _LABELS,
    _MIN_HEADING_SPEED_KN,
    Annotation,
    CriticalPoint,
    SynopsisConfig,
    VesselState,
    compress_track,
    finalize_track,
    ingest_point,
    track_segments,
    write_synopsis_csv,
)
from vesselsyn.synthetic import (
    DEFAULT_LAT,
    DEFAULT_LON,
    DEFAULT_T0,
    make_fleet,
    make_mixed_voyage,
    offset_position,
)

from rules import heading_difference_deg, speed_bound_kn, speed_change_exceeds
from tracks import (
    make_circle_track,
    make_corner_track,
    make_gap_pair,
    make_gap_track,
    make_slow_motion_track,
    make_speed_steps_track,
    make_stop_track,
    make_straight_track,
)


def layout(track, cfg=None):
    """Map each critical point to its input index and annotation labels."""
    cfg = cfg or SynopsisConfig()
    index = {p.timestamp: i for i, p in enumerate(track.points)}
    return {
        index[cp.timestamp]: {a.value for a in cp.annotations}
        for cp in compress_track(track, cfg)
    }


def rec(mmsi, t, east_m, north_m=0.0):
    lon, lat = offset_position(DEFAULT_LON, DEFAULT_LAT, east_m, north_m)
    return AisRecord(mmsi, DEFAULT_T0 + t, lon, lat)


# ---------------------------------------------------------------------------
# canonical fixtures


def test_straight_track_keeps_only_endpoints():
    assert layout(make_straight_track()) == {
        0: {"trackStart"},
        19: {"trackEnd"},
    }


def test_stop_with_jitter_brackets_the_stationary_stretch():
    # Anchored at the first sub-threshold point; jitter inside the 50 m
    # radius is absorbed silently; the stop closes on the last point before
    # the departing displacement.
    assert layout(make_stop_track()) == {
        0: {"trackStart"},
        5: {"stopStart"},
        15: {"stopEnd"},
        19: {"trackEnd"},
    }


def test_right_angle_corner_emits_one_heading_change():
    assert layout(make_corner_track()) == {
        0: {"trackStart"},
        9: {"changeInHeading"},
        19: {"trackEnd"},
    }


def test_reporting_gap_brackets_the_silence():
    assert layout(make_gap_track()) == {
        0: {"trackStart"},
        2: {"gapStart"},
        3: {"gapEnd"},
        5: {"trackEnd"},
    }


def test_two_point_track_with_gap_merges_annotations():
    assert layout(make_gap_pair()) == {
        0: {"trackStart", "gapStart"},
        1: {"gapEnd", "trackEnd"},
    }


def test_speed_steps_bracket_both_transitions():
    assert layout(make_speed_steps_track()) == {
        0: {"trackStart"},
        6: {"speedChangeStart"},
        9: {"speedChangeEnd"},
        12: {"speedChangeStart"},
        16: {"speedChangeEnd"},
        17: {"trackEnd"},
    }


def test_slow_motion_brackets_the_low_speed_stretch():
    assert layout(make_slow_motion_track()) == {
        0: {"trackStart"},
        6: {"slowMotionStart", "speedChangeStart"},
        10: {"speedChangeEnd"},
        11: {"slowMotionEnd"},
        12: {"speedChangeStart"},
        15: {"speedChangeEnd"},
        17: {"trackEnd"},
    }


# ---------------------------------------------------------------------------
# edge-case micro fixtures


def test_stop_reanchors_after_slow_drag_beyond_radius():
    # A vessel can drift past the displacement radius without ever reaching
    # the speed threshold; the stop must close and a new one open there.
    pts = [
        rec(1, 0, 0.0),
        rec(1, 60, 1.0),
        rec(1, 120, 3.0),
        rec(1, 720, 61.0),
        rec(1, 780, 63.0),
    ]
    track = VesselTrack(1, "unknown", pts)
    assert layout(track) == {
        0: {"trackStart"},
        1: {"stopStart"},
        2: {"stopEnd"},
        3: {"stopStart"},
        4: {"stopEnd", "trackEnd"},
    }


def test_stop_exits_on_speed_spike_within_radius():
    # Exit by speed alone: the stop degenerates to a single point carrying
    # both stopStart and stopEnd, and the spike opens slow-motion and
    # speed-change intervals that the track end closes.
    pts = [rec(1, 0, 0.0), rec(1, 360, 1.0), rec(1, 390, 31.0)]
    track = VesselTrack(1, "unknown", pts)
    assert layout(track) == {
        0: {"trackStart"},
        1: {"stopStart", "stopEnd"},
        2: {
            "slowMotionStart",
            "slowMotionEnd",
            "speedChangeStart",
            "speedChangeEnd",
            "trackEnd",
        },
    }


def test_gap_closes_open_intervals_on_the_last_heard_point():
    step = 10.0 * KNOT_MS * 60
    pts = [rec(1, i * 60, i * step) for i in range(4)]
    slow_east = 3 * step + 2.5 * KNOT_MS * 60
    pts.append(rec(1, 240, slow_east))
    pts.append(rec(1, 2240, slow_east + 2.5 * KNOT_MS * 2000))
    track = VesselTrack(1, "unknown", pts)
    assert layout(track) == {
        0: {"trackStart"},
        4: {
            "slowMotionStart",
            "speedChangeStart",
            "gapStart",
            "slowMotionEnd",
            "speedChangeEnd",
        },
        5: {"gapEnd", "trackEnd"},
    }


def test_consecutive_gaps_share_the_middle_point():
    pts = [rec(1, 0, 0.0), rec(1, 2000, 200.0), rec(1, 4000, 400.0)]
    track = VesselTrack(1, "unknown", pts)
    assert layout(track) == {
        0: {"trackStart", "gapStart"},
        1: {"gapEnd", "gapStart"},
        2: {"gapEnd", "trackEnd"},
    }


def test_single_point_track_is_both_start_and_end():
    track = VesselTrack(1, "unknown", [rec(1, 0, 0.0)])
    assert layout(track) == {0: {"trackStart", "trackEnd"}}


def test_empty_track_produces_empty_synopsis():
    assert compress_track(VesselTrack(1, "unknown", []), SynopsisConfig()) == []


def test_non_increasing_timestamps_rejected():
    state = VesselState()
    cfg = SynopsisConfig()
    ingest_point(state, rec(1, 0, 0.0), cfg)
    with pytest.raises(ValueError):
        ingest_point(state, rec(1, 0, 5.0), cfg)
    with pytest.raises(ValueError):
        ingest_point(state, rec(1, -60, 5.0), cfg)


# ---------------------------------------------------------------------------
# streaming behaviour


def _gene_values(gene):
    if gene.integer:
        return st.integers(int(gene.lower), int(gene.upper))
    return st.floats(gene.lower, gene.upper)


_configs = st.one_of(
    st.just(SynopsisConfig()),
    st.tuples(*(_gene_values(g) for g in GENE_SPEC)).map(genes_to_config),
)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), cfg=_configs)
# Seed 13 at the default config has a point labelled by its own report and
# the next, and stops that absorb reports, so the buffer segment after them
# joins two reports that are not consecutive.
@example(seed=13, cfg=SynopsisConfig())
def test_streaming_and_batch_agree(seed, cfg):
    """Streaming emissions are the synopsis: each point once, in time order.

    Precomputed segment geometry gives the same synopsis as computing it
    per report.
    """
    shared = {}
    for track in make_fleet(500, 3, seed=seed):
        state = VesselState()
        emissions = [cp for p in track.points for cp in ingest_point(state, p, cfg)]
        emissions += finalize_track(state)
        times = [cp.timestamp for cp in emissions]
        assert all(a < b for a, b in zip(times, times[1:]))
        assert emissions == compress_track(track, cfg)
        assert emissions == compress_track(track, cfg, track_segments(track))
        # Slotted points; equal labels share one frozenset, across tracks too.
        for cp in emissions:
            assert not hasattr(cp, "__dict__")
            assert type(cp.annotations) is frozenset
            assert shared.setdefault(cp.annotations, cp.annotations) is cp.annotations


def test_emissions_depend_only_on_the_points_seen_so_far():
    track = make_slow_motion_track()
    cfg = SynopsisConfig()

    def emissions_after(n):
        state = VesselState()
        out = []
        for p in track.points[:n]:
            out.extend(ingest_point(state, p, cfg))
        return [(cp.timestamp, frozenset(cp.annotations)) for cp in out]

    full = emissions_after(len(track.points))
    for n in range(1, len(track.points)):
        partial = emissions_after(n)
        assert partial == full[: len(partial)]


def test_finalize_emits_track_end_only_for_plain_cruise():
    state = VesselState()
    cfg = SynopsisConfig()
    for p in make_straight_track().points:
        ingest_point(state, p, cfg)
    closing = finalize_track(state)
    assert [a.value for cp in closing for a in cp.annotations] == ["trackEnd"]
    assert closing[0].timestamp == make_straight_track().points[-1].timestamp


# At the default config the first track of seed 7 ends inside a speed
# change, of seed 23 inside slow motion, and of seed 48 inside a stop.
@pytest.mark.parametrize("seed", [1, 7, 23, 48])
def test_a_finalized_state_is_fresh_for_the_next_track(seed):
    """After finalize_track one state compresses a second track as a new VesselState would."""
    cfg = SynopsisConfig()
    a, b = make_fleet(400, 2, seed=seed)
    state = VesselState()
    emissions = []
    for track in (a, b):
        for p in track.points:
            emissions += ingest_point(state, p, cfg)
        emissions += finalize_track(state)
        assert state == VesselState()
    assert emissions == compress_track(a, cfg) + compress_track(b, cfg)


def test_finalize_track_twice_emits_nothing_the_second_time():
    state = VesselState()
    cfg = SynopsisConfig()
    track = make_straight_track()
    for p in track.points:
        ingest_point(state, p, cfg)
    assert [cp.timestamp for cp in finalize_track(state)] == [track.points[-1].timestamp]
    assert finalize_track(state) == ()
    # The same reports again open a new track rather than fail as going back in time.
    again = [cp for p in track.points for cp in ingest_point(state, p, cfg)]
    again += finalize_track(state)
    assert again == compress_track(track, cfg)


# ---------------------------------------------------------------------------
# structural properties


def test_synopsis_points_are_verbatim_inputs_in_order(fleet_tracks, default_config):
    for track in fleet_tracks:
        originals = {(p.timestamp, p.lon, p.lat) for p in track.points}
        synopsis = compress_track(track, default_config)
        timestamps = [cp.timestamp for cp in synopsis]
        assert timestamps == sorted(timestamps)
        assert len(set(timestamps)) == len(timestamps)
        for cp in synopsis:
            assert (cp.timestamp, cp.lon, cp.lat) in originals
            assert cp.annotations, "every retained point must be justified"
            assert cp.mmsi == track.mmsi


def test_intervals_are_properly_nested_and_closed(fleet_tracks, default_config):
    kinds = [
        (Annotation.STOP_START, Annotation.STOP_END),
        (Annotation.SLOW_MOTION_START, Annotation.SLOW_MOTION_END),
        (Annotation.SPEED_CHANGE_START, Annotation.SPEED_CHANGE_END),
        (Annotation.GAP_START, Annotation.GAP_END),
    ]
    for track in fleet_tracks:
        synopsis = compress_track(track, default_config)
        assert Annotation.TRACK_START in synopsis[0].annotations
        assert Annotation.TRACK_END in synopsis[-1].annotations
        for start, end in kinds:
            open_now = False
            for cp in synopsis:
                has_start = start in cp.annotations
                has_end = end in cp.annotations
                if has_start and has_end:
                    # Either a degenerate interval (closed state) or a
                    # close-then-reopen (open state); both leave the state
                    # unchanged.
                    continue
                if has_start:
                    assert not open_now, f"{start.value} while already open"
                    open_now = True
                elif has_end:
                    assert open_now, f"{end.value} without a matching start"
                    open_now = False
            assert not open_now, f"{start.value} left open at track end"


def test_gap_end_is_the_next_critical_point_after_gap_start(fleet_tracks, default_config):
    for track in fleet_tracks:
        synopsis = compress_track(track, default_config)
        for i, cp in enumerate(synopsis):
            if Annotation.GAP_START in cp.annotations:
                assert Annotation.GAP_END in synopsis[i + 1].annotations


def test_determinism_byte_identical_output(default_config):
    track = make_mixed_voyage(300, seed=21)
    out = []
    for _ in range(2):
        buf = io.StringIO()
        write_synopsis_csv(compress_track(track, default_config), buf)
        out.append(buf.getvalue())
    assert out[0] == out[1]


def test_heading_threshold_sweep_on_the_corner():
    # The 90 degree corner stays detected across the whole plausible
    # threshold range and disappears once the threshold exceeds the turn.
    track = make_corner_track()
    for threshold in (2.0, 4.0, 25.0, 45.0, 89.0):
        cfg = SynopsisConfig()._replace(angle_threshold_deg=threshold)
        headings = [
            cp
            for cp in compress_track(track, cfg)
            if Annotation.CHANGE_IN_HEADING in cp.annotations
        ]
        assert len(headings) == 1, f"threshold {threshold}"
        assert headings[0].timestamp == track.points[9].timestamp
    for threshold in (91.0, 120.0):
        cfg = SynopsisConfig()._replace(angle_threshold_deg=threshold)
        assert not [
            cp
            for cp in compress_track(track, cfg)
            if Annotation.CHANGE_IN_HEADING in cp.annotations
        ], f"threshold {threshold}"


_SLOW_TURN = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 11: the mean heading follows a turn this slow, so rule 4 never fires"
)


@pytest.mark.parametrize("turn_deg", [
    pytest.param(0.25, marks=_SLOW_TURN),
    pytest.param(0.5, marks=_SLOW_TURN),
    pytest.param(1.0, marks=_SLOW_TURN),
    pytest.param(1.5, marks=_SLOW_TURN),
    2.0,
    2.5,
    3.0,
])
def test_no_knot_interval_of_a_steady_turn_spans_much_course(turn_deg):
    # The course a knot interval spans is the turn summed over the segments
    # between its two knots; the turns at the knots themselves are kept.
    cfg = SynopsisConfig()
    for speed_knots in (3.0, 10.0, 20.0):
        track = make_circle_track(turn_deg, speed_knots)
        headings = [v[1] for v in track_segments(track)]
        index = {p.timestamp: i for i, p in enumerate(track.points)}
        knots = [index[cp.timestamp] for cp in compress_track(track, cfg)]
        for a, b in zip(knots, knots[1:]):
            spanned = sum(abs(heading_difference_deg(headings[j], headings[j - 1])) for j in range(a + 1, b))
            assert spanned <= 3 * cfg.angle_threshold_deg, f"{speed_knots} kn: reports {a}-{b} span {spanned:.1f} deg"


def test_low_speed_threshold_at_or_below_stop_threshold_disables_slow_motion():
    cfg = SynopsisConfig()._replace(no_speed_threshold_kn=0.88, low_speed_threshold_kn=0.45)
    for track in (make_slow_motion_track(), make_stop_track()):
        for cp in compress_track(track, cfg):
            assert Annotation.SLOW_MOTION_START not in cp.annotations
            assert Annotation.SLOW_MOTION_END not in cp.annotations


# ---------------------------------------------------------------------------
# speed-change predicate


def test_speed_change_predicate_cases():
    assert not speed_change_exceeds(0.0, 100.0, 0.25)  # motionless never triggers
    assert not speed_change_exceeds(10.0, 12.0, 0.25)  # deviation 0.2
    assert speed_change_exceeds(10.0, 13.0, 0.25)  # deviation 0.3
    assert not speed_change_exceeds(10.0, 12.5, 0.25)  # boundary is strict
    assert speed_change_exceeds(10.0, 7.0, 0.25)  # symmetric for drops
    assert speed_change_exceeds(2.0, 0.0, 0.25)  # acceleration from rest


def test_speed_change_predicate_matches_direct_formula():
    rng = random.Random(47)
    for _ in range(300):
        v_now = rng.choice([0.0, rng.uniform(0.01, 30.0)])
        v_mean = rng.uniform(0.0, 30.0)
        ratio = rng.uniform(0.01, 0.8)
        expected = v_now != 0.0 and abs((v_now - v_mean) / v_now) > ratio
        assert speed_change_exceeds(v_now, v_mean, ratio) == expected


# ---------------------------------------------------------------------------
# buffer mean: the detector's prefix sums against a from-scratch oracle


def mean_velocity(points, timespan_s, now_ts):
    """Vector mean of the segment velocities joining the points in the window.

    The from-scratch reference for the detector's buffer mean: points
    older than ``now_ts - timespan_s`` are dropped, and the velocities of the
    segments joining the rest are summed left to right as (east, north)
    vectors, so opposing headings cancel.  A ``(speed, heading, east,
    north)`` tuple, or ``None`` when fewer than two points remain.
    """
    recent = [p for p in points if p.timestamp >= now_ts - timespan_s]
    if len(recent) < 2:
        return None
    east = 0.0
    north = 0.0
    for prev, cur in zip(recent, recent[1:]):
        *_, segment_east, segment_north = segment_velocity(prev, cur)
        east += segment_east
        north += segment_north
    east /= len(recent) - 1
    north /= len(recent) - 1
    speed = math.hypot(east, north)
    heading = math.degrees(math.atan2(east, north)) % 360.0 if speed > 0.0 else 0.0
    return speed, heading, east, north


# Degrees of longitude at the equator covering exactly one metre of arc.
DEG_PER_M_EQUATOR = 1.0 / (EARTH_RADIUS_M * math.pi / 180.0)


def test_mean_velocity_opposing_legs_cancel():
    # Out and straight back: the average *vector* velocity is zero even
    # though the average scalar speed is not.
    step = 100.0 * DEG_PER_M_EQUATOR
    pts = [
        AisRecord(1, 0, 0.0, 0.0),
        AisRecord(1, 60, step, 0.0),
        AisRecord(1, 120, 0.0, 0.0),
    ]
    v = mean_velocity(pts, 3600.0, 120)
    assert v is not None
    assert v[0] == pytest.approx(0.0, abs=1e-9)


def test_mean_velocity_window_drops_old_points():
    step = 100.0 * DEG_PER_M_EQUATOR
    pts = [
        AisRecord(1, 0, 0.0, 0.0),
        AisRecord(1, 100, step, 0.0),
        AisRecord(1, 200, 2 * step, 0.0),
    ]
    # Only the last two points are inside the window, so the mean reduces
    # to the final segment's velocity.
    v = mean_velocity(pts, 150.0, 200)
    assert v == segment_velocity(pts[1], pts[2])


def test_mean_velocity_window_boundary_is_inclusive():
    pts = [AisRecord(1, 100, 0.0, 0.0), AisRecord(1, 200, 0.001, 0.0)]
    assert mean_velocity(pts, 100.0, 200) is not None


def test_mean_velocity_needs_two_points_in_window():
    pts = [AisRecord(1, 0, 0.0, 0.0), AisRecord(1, 200, 0.001, 0.0)]
    assert mean_velocity(pts, 100.0, 200) is None
    assert mean_velocity(pts[:1], 3600.0, 0) is None
    assert mean_velocity([], 3600.0, 0) is None


@settings(max_examples=100, deadline=None)
@given(
    cap=st.integers(2, 50),
    window=st.floats(30.0, 5000.0),
    steps=st.lists(
        st.tuples(st.integers(1, 900), st.floats(-400.0, 400.0), st.floats(-400.0, 400.0)),
        max_size=60,
    ),
)
def test_buffer_mean_velocity_matches_oracle(cap, window, steps):
    """After every report, the prefix-sum mean over the buffer equals a from-scratch mean.

    The detector is driven through its stop, turn and window rules, and the
    oracle sums the segments joining the records it left in the buffer.
    Only rounding may differ: a vector error of at most 1e-9 kn, which turns
    the heading by at most about 1e-9 / speed radians.
    """
    cfg = SynopsisConfig(buffer_size=cap, historical_timespan_s=window)
    state = VesselState()
    t, east, north = 0, 0.0, 0.0
    for dt, de, dn in steps:
        t += dt
        east += de
        north += dn
        ingest_point(state, rec(1, t, east, north), cfg)
        assert len(state.buffer) <= cap
        records = [record for record, _, _ in state.buffer]
        expected = mean_velocity(records, math.inf, t)
        n_segments = len(state.buffer) - 1
        if expected is None:
            assert n_segments < 1
            continue
        expected_speed, expected_heading, _, _ = expected
        mean_east, mean_north = prefix_mean(state)
        speed = math.hypot(mean_east, mean_north)
        assert math.isclose(speed, expected_speed, rel_tol=1e-9, abs_tol=1e-9)
        if expected_speed > 1e-6:
            heading = math.degrees(math.atan2(mean_east, mean_north)) % 360.0
            turn = abs(heading_difference_deg(heading, expected_heading))
            assert turn <= math.degrees(1e-9 / expected_speed) + 1e-9


def prefix_mean(state):
    """The detector's mean (east, north) knots: last minus first prefix sums, per segment."""
    _, first_east, first_north = state.buffer[0]
    _, last_east, last_north = state.buffer[-1]
    n_segments = len(state.buffer) - 1
    return (last_east - first_east) / n_segments, (last_north - first_north) / n_segments


def test_prefix_sums_far_from_a_restart_keep_the_mean():
    """Prefix sums past 1e6 kn still give the mean of the buffered segments within 1e-9 kn.

    A straight 30-kn run along the equator never gaps, turns or changes
    speed, so the buffer never restarts and the prefix sums grow by 30 kn per
    report.  The difference of two large sums loses the low bits of each, so
    this is where the prefix mean strays furthest from a fresh sum.
    """
    cfg = SynopsisConfig()
    step_deg = 30.0 * KNOT_MS * 10 * DEG_PER_M_EQUATOR
    state = VesselState()
    for i in range(35_000):
        t = 10 * i
        ingest_point(state, AisRecord(1, t, i * step_deg, 0.0), cfg)
        if len(state.buffer) < 2:
            continue
        records = [record for record, _, _ in state.buffer]
        *_, expected_east, expected_north = mean_velocity(records, math.inf, t)
        mean_east, mean_north = prefix_mean(state)
        assert abs(mean_east - expected_east) <= 1e-9
        assert abs(mean_north - expected_north) <= 1e-9
    assert len(state.buffer) == cfg.buffer_size
    assert state.buffer[0][1] > 1e6  # no restart since the first report


# ---------------------------------------------------------------------------
# oracle detector: the same rules with the buffer work in separate helpers
# over _BufferEntry objects, on a state that keeps running sums.  The buffer
# mean is a parameter: those running sums, or a mean summed afresh on every
# report.


class _OracleState(VesselState):
    """The detector state plus running sums over the oracle's buffer.

    ``east_sum``/``north_sum`` add the components of the segments that join
    buffered reports: a push adds the new segment, and removing the front
    entry subtracts the segment reaching the new front.  A clear, or a
    removal that leaves fewer than two entries, resets both to exactly 0.0.
    """

    __slots__ = ("east_sum", "north_sum")

    def __init__(self) -> None:
        super().__init__()
        self.east_sum = self.north_sum = 0.0


@dataclass(slots=True)
class _BufferEntry:
    """A buffered report plus the components of the segment reaching it.

    ``east``/``north`` are the knot components of the velocity from the
    previous buffer entry; they are meaningless for the first entry and are
    never read there.
    """

    record: AisRecord
    east: float = 0.0
    north: float = 0.0


def _buffer_clear(state: _OracleState) -> None:
    """Empty the buffer; the sums return to exactly 0.0."""
    state.buffer.clear()
    state.east_sum = state.north_sum = 0.0


def _buffer_push(state: _OracleState, rec: AisRecord, cap: int, v: Velocity | None = None) -> None:
    """Append ``rec`` to the buffer, with the velocity of the segment reaching it.

    ``v`` is the velocity from ``state.last_point`` to ``rec``.  It is reused
    when that report ends the buffer; after absorbed stop reports the buffer
    ends at an earlier report, and that segment's velocity is computed here.
    """
    buffer = state.buffer
    if buffer:
        last = buffer[-1].record
        if v is None or last is not state.last_point:
            v = segment_velocity(last, rec)
        *_, east, north = v
        buffer.append(_BufferEntry(rec, east, north))
        state.east_sum += east
        state.north_sum += north
    else:
        buffer.append(_BufferEntry(rec))
    while len(buffer) > cap:
        _buffer_pop_front(state)


def _buffer_pop_front(state: _OracleState) -> None:
    """Drop the oldest entry; the segment reaching the new front leaves the sums."""
    buffer = state.buffer
    buffer.popleft()
    if len(buffer) < 2:
        state.east_sum = state.north_sum = 0.0
    else:
        front = buffer[0]
        state.east_sum -= front.east
        state.north_sum -= front.north


def _buffer_mean_velocity(state: _OracleState, timespan_s: float, now_ts: int) -> Velocity | None:
    """Mean velocity over the buffered points still inside the time window.

    Entries older than ``now_ts - timespan_s`` are removed from the front of
    the buffer for good: the cutoff only grows within a track, so they could
    never count again.  The mean is then the running sums of
    :class:`_OracleState` over the remaining segments, O(1) amortized per
    report.  ``None`` when fewer than two entries remain.

    Running sums round differently from a left-to-right sum over the window,
    so the mean may differ from a from-scratch sum in the last bits.  A
    detection decision can therefore move only where one of its threshold
    comparisons lands within that rounding.
    """
    buffer = state.buffer
    cutoff = now_ts - timespan_s
    while buffer and buffer[0].record.timestamp < cutoff:
        _buffer_pop_front(state)
    n_segments = len(buffer) - 1
    if n_segments < 1:
        return None
    east = state.east_sum / n_segments
    north = state.north_sum / n_segments
    speed = math.hypot(east, north)
    heading = math.degrees(math.atan2(east, north)) % 360.0 if speed > 0.0 else 0.0
    return speed, heading, east, north


def _oracle_close_intervals(state: _OracleState) -> None:
    """End every open stop, slow-motion or speed-change interval at ``last_point``."""
    if state.stop_anchor is not None:
        state.labels.add(Annotation.STOP_END)
        state.stop_anchor = None
    if state.in_slow_motion:
        state.labels.add(Annotation.SLOW_MOTION_END)
        state.in_slow_motion = False
    if state.in_speed_change:
        state.labels.add(Annotation.SPEED_CHANGE_END)
        state.in_speed_change = False


def _oracle_advance(state: _OracleState, point: AisRecord, labels: set[Annotation]) -> list[CriticalPoint]:
    """Emit ``last_point`` if it has labels, now final; ``point`` takes its place with ``labels``."""
    emitted = []
    if state.labels:
        prev = state.last_point
        emitted.append(CriticalPoint(prev.mmsi, prev.timestamp, prev.lon, prev.lat, frozenset(state.labels)))
    state.labels = set(labels)
    state.last_point = point
    return emitted


def oracle_ingest_point(
    state: _OracleState,
    point: AisRecord,
    cfg: SynopsisConfig,
    v_now: Velocity | None = None,
    mean=_buffer_mean_velocity,
) -> list[CriticalPoint]:
    """Feed one clean report through the detector, mutating ``state``.

    Each critical point is emitted exactly once, in time order.  Several
    events are only recognizable one report late, so a report's labels are
    held in ``state.labels`` until the next report has added its own to
    them; this call therefore returns at most the previous report's critical
    point, and :func:`oracle_finalize_track` emits the last one.  Concatenating
    every call's result and ``oracle_finalize_track`` gives the synopsis; consumers
    need no merge.

    Args:
        v_now: the velocity of the segment from the previous report of this
            vessel to ``point``, as built by :func:`track_segments`; ignored
            for the first report.  Online callers leave it out and it is
            computed here, once.  A caller that passes it must pass the
            velocity of exactly these two reports, or the detector decides
            on wrong geometry.

    Raises:
        ValueError: if ``point`` does not advance the clock.
    """
    if state.last_point is None:
        _buffer_push(state, point, cfg.buffer_size)
        return _oracle_advance(state, point, {Annotation.TRACK_START})

    prev = state.last_point
    if point.timestamp <= prev.timestamp:
        raise ValueError(
            f"timestamps must increase within a track: {prev.timestamp} -> {point.timestamp}"
        )

    # Rule 1: communication gap.  A gap invalidates the buffered history and
    # closes any interval left open, because whatever happened during the
    # silence is unknown.
    if point.timestamp - prev.timestamp > cfg.gap_period_s:
        state.labels.add(Annotation.GAP_START)
        _oracle_close_intervals(state)
        _buffer_clear(state)
        _buffer_push(state, point, cfg.buffer_size)
        return _oracle_advance(state, point, {Annotation.GAP_END})

    if v_now is None:
        v_now = segment_velocity(prev, point)
    speed_now, heading_now, _, _ = v_now
    labels: set[Annotation] = set()

    # Rule 2: stop.  While anchored, sub-threshold jitter is absorbed whole:
    # the report is neither emitted nor buffered, and no further rule sees it.
    anchor = state.stop_anchor
    if anchor is not None:
        displaced = haversine_m(anchor.lon, anchor.lat, point.lon, point.lat) >= cfg.distance_threshold_m
        if displaced or speed_now >= cfg.no_speed_threshold_kn:
            state.labels.add(Annotation.STOP_END)
            state.stop_anchor = None
        else:
            return _oracle_advance(state, point, labels)

    anchored_here = speed_now < cfg.no_speed_threshold_kn
    if anchored_here:
        labels.add(Annotation.STOP_START)
        state.stop_anchor = point

    # Rules 3 to 5 are suppressed at the point that anchors a stop: around an
    # anchor, v_now's heading and speed are jitter, not motion.
    turn_fired = False
    if not anchored_here:
        v_mean = mean(state, cfg.historical_timespan_s, point.timestamp)

        # Rule 3: slow motion.
        if (
            not state.in_slow_motion
            and cfg.no_speed_threshold_kn <= speed_now < cfg.low_speed_threshold_kn
        ):
            labels.add(Annotation.SLOW_MOTION_START)
            state.in_slow_motion = True
        elif state.in_slow_motion and speed_now >= cfg.low_speed_threshold_kn:
            state.labels.add(Annotation.SLOW_MOTION_END)
            state.in_slow_motion = False

        # Rule 4: change in heading.  The deviation became visible with the
        # segment ending at `point`, so the vertex is the previous report.
        if (
            v_mean is not None
            and v_mean[0] > _MIN_HEADING_SPEED_KN
            and speed_now > _MIN_HEADING_SPEED_KN
            and abs(heading_difference_deg(heading_now, v_mean[1])) > cfg.angle_threshold_deg
        ):
            state.labels.add(Annotation.CHANGE_IN_HEADING)
            turn_fired = True

        # Rule 5: speed change.
        if v_mean is not None:
            exceeds = speed_change_exceeds(speed_now, v_mean[0], cfg.speed_ratio)
            if exceeds and not state.in_speed_change:
                labels.add(Annotation.SPEED_CHANGE_START)
                state.in_speed_change = True
            elif not exceeds and state.in_speed_change:
                labels.add(Annotation.SPEED_CHANGE_END)
                state.in_speed_change = False

    if turn_fired:
        # Re-reference the mean velocity at the turn: the retained vertex
        # starts a new course, and keeping pre-turn segments in the buffer
        # would re-detect the same turn for the next buffer_size reports.
        _buffer_clear(state)
        state.buffer.append(_BufferEntry(prev))

    _buffer_push(state, point, cfg.buffer_size, v_now)
    return _oracle_advance(state, point, labels)


def from_scratch_mean(state, timespan_s, now_ts):
    """The buffer mean summed afresh over the buffered records.

    Nothing is evicted here, so expired entries stay in the buffer for the
    window filter of :func:`mean_velocity` to skip.
    """
    return mean_velocity([e.record for e in state.buffer], timespan_s, now_ts)


def oracle_finalize_track(state: _OracleState) -> list[CriticalPoint]:
    """:func:`finalize_track` on the oracle's helpers."""
    if state.last_point is None:
        return []
    state.labels.add(Annotation.TRACK_END)
    _oracle_close_intervals(state)
    return _oracle_advance(state, state.last_point, set())


def oracle_compress_track(track, cfg, segments=None, mean=_buffer_mean_velocity):
    """:func:`compress_track` with :func:`oracle_ingest_point` as its detector."""
    incoming = [None] * len(track.points) if segments is None else [None, *segments]
    state = _OracleState()
    synopsis = []
    for point, v_now in zip(track.points, incoming):
        synopsis.extend(oracle_ingest_point(state, point, cfg, v_now, mean))
    synopsis.extend(oracle_finalize_track(state))
    return synopsis


def assert_detector_equals_the_oracle(track, cfg):
    for segments in (None, track_segments(track)):
        assert compress_track(track, cfg, segments) == oracle_compress_track(track, cfg, segments)
        state, oracle = VesselState(), _OracleState()
        incoming = [None] * len(track.points) if segments is None else [None, *segments]
        for point, v_now in zip(track.points, incoming):
            ingest_point(state, point, cfg, v_now)
            oracle_ingest_point(oracle, point, cfg, v_now)
            assert [record for record, _, _ in state.buffer] == [e.record for e in oracle.buffer]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), cfg=_configs)
# Seed 13 at the default config absorbs stop reports, so some pushed
# segments join reports that are not consecutive.
@example(seed=13, cfg=SynopsisConfig())
def test_detector_equals_the_oracle(seed, cfg):
    """The prefix-sum detector emits what the running-sum oracle emits, bit for bit.

    After every report both states also buffer the same records.
    """
    for track in make_fleet(1500, 3, seed=seed):
        assert_detector_equals_the_oracle(track, cfg)


@pytest.mark.parametrize("cfg, points", [
    # 0.1 m short of the antipode of the stop's anchor, haversine_m reads
    # pi * R: over a radius just under that.
    (
        SynopsisConfig(
            no_speed_threshold_kn=1e9, low_speed_threshold_kn=2e9, distance_threshold_m=20015086.75, gap_period_s=1e9
        ),
        [(179.9999, 0.0, 0), (180.0, 0.0, 100), (8.603021788591132e-07, 0.0, 10**7), (8.603021788591132e-07, 0.0, 2 * 10**7)],
    ),
    # 1e-159 degrees from the anchor, haversine_m's ``a`` is subnormal and it
    # reads 1% too far: over a radius that the exact distance is under.
    (
        SynopsisConfig(distance_threshold_m=1.02e-154),
        [(0.0, 0.0, 0), (0.0, 0.0, 600), (0.0, 9.086559045610901e-160, 1200), (0.0, 9.086559045610901e-160, 1800)],
    ),
], ids=["antipode", "subnormal"])
def test_detector_equals_the_oracle_where_haversine_overshoots(cfg, points):
    # The trig-free bound must not settle these stop-radius tests on its own.
    track = VesselTrack(1, "unknown", [AisRecord(1, t, lon, lat) for lon, lat, t in points])
    assert Annotation.STOP_END in {label for cp in oracle_compress_track(track, cfg) for label in cp.annotations}
    assert_detector_equals_the_oracle(track, cfg)


# ---------------------------------------------------------------------------
# Online, a report that an open stop absorbs on the trig-free bounds of its
# speed and of its distance to the anchor never calls segment_velocity.


def count_segment_velocity(monkeypatch):
    """Count the detector's ``segment_velocity`` calls; the oracle's go uncounted."""
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return segment_velocity(a, b)

    monkeypatch.setattr(synopses, "segment_velocity", counted)
    return calls


@pytest.mark.parametrize("case", ["bound-under", "bound-at", "radius-open"])
def test_a_stop_absorbs_a_report_on_its_bound_speed_without_segment_velocity(monkeypatch, case):
    # A still report anchors the stop; the next steps diagonally, so its
    # speed is well under its bound speed.  In the first two cases the step
    # lies well inside the radius, and the threshold is the largest float
    # over the bound speed (no call) or the bound speed itself (one call,
    # still absorbed).  In the third the radius lies between the step's
    # distance and its bound, so haversine_m settles the radius, and the
    # bound speed still settles the speed.
    anchor = AisRecord(1, 600, 0.0, 0.0)
    if case == "radius-open":
        step = AisRecord(1, 1200, 1e-4, 1e-4)
        distance = haversine_m(anchor.lon, anchor.lat, step.lon, step.lat)
        radius_bound = (step.lat + step.lon) * ARC_M_PER_DEG + ARC_FLOOR_M
        assert 15.7 < distance < 15.8 and 22.2 < radius_bound < 22.3
        cfg = SynopsisConfig(no_speed_threshold_kn=0.1, distance_threshold_m=(distance + radius_bound) / 2)
        assert speed_bound_kn(anchor, step) < 0.1
    else:
        step = AisRecord(1, 1200, 1e-5, 1e-5)
        bound = speed_bound_kn(anchor, step)
        assert segment_velocity(anchor, step)[0] < bound / 1.4
        cfg = SynopsisConfig(no_speed_threshold_kn=math.nextafter(bound, math.inf) if case == "bound-under" else bound)
    track = VesselTrack(1, "unknown", [AisRecord(1, 0, 0.0, 0.0), anchor, step])
    calls = count_segment_velocity(monkeypatch)
    state = VesselState()
    ingest_point(state, track.points[0], cfg)
    ingest_point(state, anchor, cfg)
    assert state.stop_anchor is anchor
    calls.clear()
    ingest_point(state, step, cfg)
    assert state.stop_anchor is anchor
    assert calls == ([(anchor, step)] if case == "bound-at" else [])
    assert layout(track, cfg) == {0: {"trackStart"}, 1: {"stopStart"}, 2: {"stopEnd", "trackEnd"}}
    assert_detector_equals_the_oracle(track, cfg)


def test_a_stop_threshold_inside_the_drift_absorbs_reports_with_and_without_segment_velocity(monkeypatch):
    # The fleet's stops drift at 0.01-0.05 kn, and at its latitude the bound
    # speed is up to about 1.8 times the speed, so at 0.04 kn some absorbed
    # reports are settled on their bound and some need their speed.
    cfg = SynopsisConfig(no_speed_threshold_kn=0.04)
    calls = count_segment_velocity(monkeypatch)
    settled = unsettled = 0
    for track in make_fleet(1500, 3, seed=1):
        state = VesselState()
        for point in track.points:
            anchor, before = state.stop_anchor, len(calls)
            ingest_point(state, point, cfg)
            if anchor is not None and state.stop_anchor is anchor:
                settled += len(calls) == before
                unsettled += len(calls) == before + 1
        assert_detector_equals_the_oracle(track, cfg)
    assert settled > 0 and unsettled > 0, (settled, unsettled)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), cfg=_configs)
@example(seed=13, cfg=SynopsisConfig())
def test_prefix_sum_mean_makes_the_oracle_decisions(seed, cfg):
    """The detector decides as the oracle does with a from-scratch buffer mean."""
    for track in make_fleet(1500, 3, seed=seed):
        assert compress_track(track, cfg) == oracle_compress_track(track, cfg, mean=from_scratch_mean)


# ---------------------------------------------------------------------------
# configuration


def test_config_roundtrip_through_dict():
    cfg = SynopsisConfig(angle_threshold_deg=7.5, buffer_size=9)
    assert SynopsisConfig.from_dict(cfg.to_dict()) == cfg


def test_config_from_dict_uses_defaults_for_missing_keys():
    cfg = SynopsisConfig.from_dict({"gap_period_s": 900})
    assert cfg.gap_period_s == 900.0
    assert cfg.buffer_size == SynopsisConfig().buffer_size


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        SynopsisConfig.from_dict({"angle_treshold_deg": 4})


def test_config_from_dict_coerces_buffer_size_to_int():
    cfg = SynopsisConfig.from_dict({"buffer_size": 7.0})
    assert cfg.buffer_size == 7
    assert isinstance(cfg.buffer_size, int)


def test_config_validation_rejects_degenerate_values():
    with pytest.raises(ValueError):
        SynopsisConfig(buffer_size=1)
    with pytest.raises(ValueError):
        SynopsisConfig(gap_period_s=0.0)
    with pytest.raises(ValueError):
        SynopsisConfig(speed_ratio=-0.1)


@pytest.mark.parametrize("field, value, message", [
    ("speed_ratio", math.nan, "speed_ratio must be a finite number"),
    ("historical_timespan_s", math.inf, "historical_timespan_s must be a finite number"),
    ("gap_period_s", 10**400, "gap_period_s must be a finite number"),
    ("angle_threshold_deg", True, "angle_threshold_deg must be a finite number"),
    ("distance_threshold_m", "50", "distance_threshold_m must be a finite number"),
    ("buffer_size", 7.0, "buffer_size must be an integer"),
], ids=["nan", "inf", "huge_int", "bool", "str", "float_buffer_size"])
def test_config_construction_rejects_unusable_values(field, value, message):
    with pytest.raises(ValueError, match=message):
        SynopsisConfig(**{field: value})


def test_config_stores_integer_thresholds_as_floats():
    cfg = SynopsisConfig(gap_period_s=900, buffer_size=7)
    assert isinstance(cfg.gap_period_s, float) and cfg.gap_period_s == 900.0
    assert isinstance(cfg.buffer_size, int)


# ---------------------------------------------------------------------------
# serialization and golden regression


def test_synopsis_csv_format():
    track = make_gap_pair()
    buf = io.StringIO()
    write_synopsis_csv(compress_track(track, SynopsisConfig()), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "mmsi,timestamp,lon,lat,annotations"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == str(track.mmsi)
    assert first[4] == "gapStart|trackStart"  # labels sorted, pipe-joined
    assert "." in first[2] and len(first[2].split(".")[1]) == 6  # fixed 6 decimals


def test_synopsis_csv_writes_a_set_of_labels_like_a_frozenset():
    # A hand-built point may hold a plain (unhashable) set of labels.
    rec = make_gap_pair().points[0]
    labels = {Annotation.TRACK_START, Annotation.GAP_START}
    points = [
        CriticalPoint(rec.mmsi, rec.timestamp, rec.lon, rec.lat, annotations)
        for annotations in (set(labels), frozenset(labels), set(labels))
    ]
    buf = io.StringIO()
    write_synopsis_csv(points, buf)
    rows = buf.getvalue().splitlines()[1:]
    assert len(rows) == 3 and rows[0] == rows[1] == rows[2]
    assert rows[0].endswith(",gapStart|trackStart")


def test_every_label_combination_is_one_shared_frozenset():
    # Bit 1 << i stands for the i-th annotation, and each rule's bit for its own.
    members = list(Annotation)
    for i, annotation in enumerate(members):
        assert getattr(synopses, f"_{annotation.name}") == 1 << i
    rec = make_gap_pair().points[0]
    for mask in range(2 ** len(members)):
        labels = _LABELS[mask]
        assert type(labels) is frozenset
        assert labels == {a for i, a in enumerate(members) if mask & (1 << i)}
        assert _LABELS[mask] is labels
        buf = io.StringIO()
        write_synopsis_csv([CriticalPoint(rec.mmsi, rec.timestamp, rec.lon, rec.lat, labels)], buf)
        field = buf.getvalue().splitlines()[1].split(",")[4]
        names = field.split("|") if field else []
        assert names == sorted(a.value for a in labels) and len(set(names)) == len(labels)


def test_golden_mixed_voyage_regression():
    # Frozen end-to-end detector output on a 1000-point seeded voyage; any
    # behavioural drift in the rules shows up here first.
    track = make_mixed_voyage(1000)
    synopsis = compress_track(track, SynopsisConfig())
    assert len(track.points) == 1000
    assert len(synopsis) == 262
    assert synopsis[0].timestamp == 1443650000
    assert synopsis[-1].timestamp == 1443745284
    buf = io.StringIO()
    write_synopsis_csv(synopsis, buf)
    digest = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
    assert digest == "5f7a94523834945c4281015b86828d53caef1c1caa7d3e9c6efe961610b8cd95"
