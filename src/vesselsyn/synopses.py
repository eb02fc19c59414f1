"""Online compression of vessel tracks into annotated critical points.

The engine consumes one clean position report at a time and decides, in a
single pass, whether the report (or its predecessor) marks a mobility event
worth keeping: a communication gap, a stop, slow motion, a change in heading
or a significant speed change.  Everything else is discarded.  The retained
points, called critical points, carry one or more annotations naming the
events they witness; together they form a synopsis from which the original
track can be approximately reconstructed by linear interpolation.  A
point's annotations are an immutable ``frozenset``, one object shared by
every point with the same labels; until it emits a point, the detector
holds its labels as an int with one bit per annotation.

Detection relies on two velocity estimates: ``v_now``, the instantaneous
velocity implied by the latest pair of reports, and ``v_mean``, the vector
mean over a short buffer of recent reports.  The buffer holds at most
``buffer_size`` points and ignores anything older than
``historical_timespan_s`` seconds, so the reference motion adapts to the
vessel while staying robust to single-report noise.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from itertools import chain, repeat
from math import atan2, hypot
from typing import Iterable, Sequence, TextIO

from .geo import _DEG, ARC_FLOOR_M, ARC_M_PER_DEG, KNOT_MS, Velocity, haversine_m, segment_velocity
from .ingest import AisRecord, VesselTrack, _FrozenRecord, _Record


#: Below this mean speed (knots) a heading is considered undefined and the
#: turn rule stays quiet rather than comparing against directionless noise.
_MIN_HEADING_SPEED_KN = 1e-9


class Annotation(str, enum.Enum):
    """Event labels a critical point can carry (serialized verbatim)."""

    STOP_START = "stopStart"
    STOP_END = "stopEnd"
    SLOW_MOTION_START = "slowMotionStart"
    SLOW_MOTION_END = "slowMotionEnd"
    CHANGE_IN_HEADING = "changeInHeading"
    SPEED_CHANGE_START = "speedChangeStart"
    SPEED_CHANGE_END = "speedChangeEnd"
    GAP_START = "gapStart"
    GAP_END = "gapEnd"
    TRACK_START = "trackStart"
    TRACK_END = "trackEnd"


(_STOP_START, _STOP_END, _SLOW_MOTION_START, _SLOW_MOTION_END, _CHANGE_IN_HEADING, _SPEED_CHANGE_START,
 _SPEED_CHANGE_END, _GAP_START, _GAP_END, _TRACK_START, _TRACK_END) = (1 << i for i in range(len(Annotation)))


class SynopsisConfig(_FrozenRecord):
    """The eight tunable detection parameters, frozen.

    Attributes:
        angle_threshold_deg: smallest heading deviation of ``v_now`` from the
            buffered mean heading that marks a change in heading.
        buffer_size: number of recent points kept for the mean velocity.
        gap_period_s: silence longer than this opens a communication gap.
        historical_timespan_s: buffered points older than this are ignored
            when estimating the mean velocity.
        no_speed_threshold_kn: speeds below this count as not moving (stop).
        low_speed_threshold_kn: speeds below this (but at or above the stop
            threshold) count as slow motion.
        speed_ratio: relative deviation of ``v_now`` from the mean speed that
            marks a speed change.
        distance_threshold_m: displacement from the stop anchor under which
            reports are absorbed as jitter.

    Note that a tuned configuration may legitimately place
    ``low_speed_threshold_kn`` at or below ``no_speed_threshold_kn``, which
    simply disables slow-motion detection.
    """

    __slots__ = _fields = ("angle_threshold_deg", "buffer_size", "gap_period_s", "historical_timespan_s",
                           "no_speed_threshold_kn", "low_speed_threshold_kn", "speed_ratio", "distance_threshold_m")

    def __init__(
        self,
        angle_threshold_deg: float = 4.0,
        buffer_size: int = 5,
        gap_period_s: float = 1800.0,
        historical_timespan_s: float = 3600.0,
        no_speed_threshold_kn: float = 0.5,
        low_speed_threshold_kn: float = 5.0,
        speed_ratio: float = 0.25,
        distance_threshold_m: float = 50.0,
    ) -> None:
        """Reject configurations the engine cannot run with.

        Every value must be a finite, positive int or float (booleans and
        numeric strings are not numbers here), and ``buffer_size`` an int of
        at least 2.  Integer values of the float fields are stored as floats.
        """
        values = (angle_threshold_deg, buffer_size, gap_period_s, historical_timespan_s,
                  no_speed_threshold_kn, low_speed_threshold_kn, speed_ratio, distance_threshold_m)
        for name, value in zip(self._fields, values):
            try:
                finite = (
                    isinstance(value, (int, float))
                    and not isinstance(value, bool)
                    and math.isfinite(value)
                )
            except OverflowError:  # ints beyond float range
                finite = False
            if not finite:
                raise ValueError(f"{name} must be a finite number, got {value!r}")
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value!r}")
            object.__setattr__(self, name, value if name == "buffer_size" else float(value))
        if not isinstance(buffer_size, int):
            raise ValueError(f"buffer_size must be an integer, got {buffer_size!r}")
        if buffer_size < 2:
            raise ValueError(f"buffer_size must be an integer >= 2, got {buffer_size!r}")

    def to_dict(self) -> dict[str, float | int]:
        return dict(zip(self._fields, self._values()))

    @classmethod
    def from_dict(cls, data: dict[str, float | int]) -> "SynopsisConfig":
        """Build a config from a flat mapping, rejecting unknown keys.

        Missing keys keep their defaults; unknown keys raise so that a typoed
        parameter name cannot silently fall back to the default.  An integral
        float ``buffer_size``, as JSON may spell it, becomes an int: 7.0
        becomes 7, while 7.9 raises.
        """
        known = set(cls._fields)
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}; expected a subset of {sorted(known)}")
        kwargs = dict(data)
        size = kwargs.get("buffer_size")
        if isinstance(size, float) and size.is_integer():
            kwargs["buffer_size"] = int(size)
        return cls(**kwargs)


class _LabelTable(dict):
    """The one frozenset of each label mask, made on its first lookup; bit ``1 << i`` is the ``i``-th annotation."""

    def __missing__(self, mask: int) -> frozenset[Annotation]:
        labels = self[mask] = frozenset(a for i, a in enumerate(Annotation) if mask >> i & 1)
        return labels


_LABELS = _LabelTable()


class CriticalPoint(_Record):
    """A retained report plus the event annotations that justified keeping it.

    ``annotations`` is immutable: the detector gives every point with equal
    labels the one ``frozenset`` that ``_LABELS`` holds for their bits.
    """

    __slots__ = _fields = ("mmsi", "timestamp", "lon", "lat", "annotations")

    def __init__(self, mmsi: int, timestamp: int, lon: float, lat: float, annotations: frozenset[Annotation]) -> None:
        self.mmsi = mmsi
        self.timestamp = timestamp
        self.lon = lon
        self.lat = lat
        self.annotations = annotations


class VesselState(_Record):
    """Mutable per-vessel detector state threaded between ingest calls.

    ``buffer`` holds the recent reports the mean velocity is taken over, each
    as a ``(record, east, north)`` tuple: ``east``/``north`` are prefix sums
    of the knot components of every segment pushed since the buffer last
    restarted, up to the segment reaching ``record``.  A restart (the track
    start, a gap, a turn, or a push into a buffer the time window emptied)
    leaves one entry holding 0.0, 0.0.  The sum over the buffered segments is
    the last entry's sums less the first entry's, so an entry leaves by a
    plain ``popleft``: when the buffer exceeds ``buffer_size`` or when it
    falls before the time window, whose cutoff only grows within a track, so
    that no entry is ever needed again.  The difference rounds differently
    from a fresh sum over the window, by an error that grows with the size
    of the sums since the last restart, so a detection decision can move
    only where a threshold comparison lands within that rounding.

    ``labels`` are the bits of the annotations ``last_point`` has gathered
    so far, 0 for none.  The next report or :func:`finalize_track` may
    still add to them, so the report is emitted, as a critical point, only
    when it is replaced as ``last_point`` (or the track is closed) with
    labels.  It is written only when it changes.
    ``stop_anchor`` is the report an open stop is anchored at, ``None``
    outside a stop.  A state built without ``buffer`` gets its own empty
    deque.
    """

    __slots__ = _fields = ("buffer", "last_point", "labels", "stop_anchor", "in_slow_motion", "in_speed_change")

    def __init__(
        self,
        buffer: deque[tuple[AisRecord, float, float]] | None = None,
        last_point: AisRecord | None = None,
        labels: int = 0,
        stop_anchor: AisRecord | None = None,
        in_slow_motion: bool = False,
        in_speed_change: bool = False,
    ) -> None:
        self.buffer = deque() if buffer is None else buffer
        self.last_point = last_point
        self.labels = labels
        self.stop_anchor = stop_anchor
        self.in_slow_motion = in_slow_motion
        self.in_speed_change = in_speed_change


def track_segments(track: VesselTrack) -> list[Velocity]:
    """The velocity of the segment reaching each report of ``track`` after the first.

    Entry ``i`` joins ``track.points[i]`` to ``track.points[i + 1]``.  The
    geometry of consecutive reports does not depend on the detection
    parameters, so a caller that compresses the same track many times (the
    GA) computes it once and hands it to :func:`compress_track`.  The values
    are the ones :func:`ingest_point` would compute itself, bit for bit.

    Raises:
        ValueError: if the timestamps do not increase.
    """
    points = track.points
    return [segment_velocity(a, b) for a, b in zip(points, points[1:])]


def _restart_buffer(state: VesselState, first: AisRecord) -> None:
    """Make ``first`` the only buffered report; the prefix sums start again at 0.0."""
    state.buffer.clear()
    state.buffer.append((first, 0.0, 0.0))


def ingest_point(
    state: VesselState, point: AisRecord, cfg: SynopsisConfig, v_now: Velocity | None = None
) -> tuple[CriticalPoint, ...]:
    """Feed one clean report through the detector, mutating ``state``.

    Each critical point is emitted exactly once, in time order.  Several
    events are only recognizable one report late, so a report's labels are
    held in ``state.labels`` until the next report has added its own to
    them; this call therefore returns at most the previous report's critical
    point, and :func:`finalize_track` emits the last one.  Concatenating
    every call's result and ``finalize_track`` gives the synopsis; consumers
    need no merge.

    The rules are one chain, one branch per situation: the track's first
    report, a clock that does not advance, a gap, a report an open stop
    absorbs, and any other report.  A rule sets its label's bit in
    ``pending`` (the previous report's) or ``labels`` (``point``'s).  Every
    report leaves through one tail: the previous report is emitted with the
    frozenset ``_LABELS`` holds for ``pending``, if that is not 0, and
    ``point`` takes its place as ``last_point`` with ``labels``, written
    only when they change.  That tail is the only emission here;
    :func:`finalize_track` holds the other.

    The buffer work is done here in O(1) amortized per report: reports that
    fell before ``now - historical_timespan_s`` leave the front of the
    buffer, ``v_mean`` is the last entry's prefix sums less the first's, per
    segment (undefined below two entries), and the report is pushed with the
    last entry's sums plus its segment's components, dropping the front
    entry beyond ``buffer_size``.  The mean heading is computed only where
    the turn rule reads it.  The rules are written out here rather than
    called, since a call costs more than their arithmetic.

    Args:
        v_now: the velocity of the segment from the previous report of this
            vessel to ``point``, a ``(speed, heading, east, north)`` tuple as
            built by :func:`track_segments`; ignored for the first report.
            Online callers leave it out.  The stop rule is one test for
            both: where ``v_now`` is left out, a trig-free bound on its
            speed decides first, and it is computed here, once, only where
            the bound leaves the test open or the stop does not absorb the
            report.  Each field is read by index where a rule needs it.  A
            caller that passes it must pass the velocity of exactly these
            two reports, or the detector decides on wrong geometry.

    Raises:
        ValueError: if ``point`` does not advance the clock.
    """
    prev = state.last_point
    pending = state.labels
    labels = 0
    no_speed_kn = cfg.no_speed_threshold_kn
    if prev is None:
        labels = _TRACK_START
        _restart_buffer(state, point)
    elif (now_ts := point.timestamp) <= (prev_ts := prev.timestamp):
        raise ValueError(f"timestamps must increase within a track: {prev_ts} -> {now_ts}")
    elif now_ts - prev_ts > cfg.gap_period_s:
        # Rule 1: communication gap.  A gap invalidates the buffered history
        # and closes any interval left open, because whatever happened during
        # the silence is unknown.
        pending |= _GAP_START | _close_intervals(state)
        _restart_buffer(state, point)
        labels = _GAP_END
    elif (anchor := state.stop_anchor) is not None and (
        v_now[0] < no_speed_kn
        if v_now is not None
        else ((abs(point.lat - prev.lat) + abs(point.lon - prev.lon)) * ARC_M_PER_DEG + ARC_FLOOR_M)
        / (now_ts - prev_ts) / KNOT_MS < no_speed_kn
        or (v_now := segment_velocity(prev, point))[0] < no_speed_kn
    ) and (
        (abs(point.lat - anchor.lat) + abs(point.lon - anchor.lon)) * ARC_M_PER_DEG + ARC_FLOOR_M
        < cfg.distance_threshold_m
        or haversine_m(anchor.lon, anchor.lat, point.lon, point.lat) < cfg.distance_threshold_m
    ):
        # Rule 2: stop.  While anchored, a report under the stop speed and
        # within the radius is jitter, absorbed whole: no label, no buffer,
        # no further rule.  A trig-free bound decides each test first.
        # Exact: the bound is never below haversine_m, which is
        # segment_velocity's distance bit for bit, and / dt / KNOT_MS is
        # monotone under round-to-nearest, so the speed is at most the bound's.
        pass
    else:
        # Rule 2, continued: a report the stop does not absorb ends it.
        if anchor is not None:
            pending |= _STOP_END
            state.stop_anchor = None
        if v_now is None:
            v_now = segment_velocity(prev, point)
        speed = v_now[0]
        buffer = state.buffer
        if speed < no_speed_kn:
            labels = _STOP_START
            state.stop_anchor = point
        else:
            # Rules 3 to 5 are suppressed at the point that anchors a stop:
            # around an anchor, v_now's heading and speed are jitter, not
            # motion.  Here the buffer forgets the reports that fell before
            # the time window.
            cutoff = now_ts - cfg.historical_timespan_s
            while buffer and buffer[0][0].timestamp < cutoff:
                buffer.popleft()

            # Rule 3: slow motion.
            low_speed_kn = cfg.low_speed_threshold_kn
            in_slow_motion = state.in_slow_motion
            if not in_slow_motion and no_speed_kn <= speed < low_speed_kn:
                labels = _SLOW_MOTION_START
                state.in_slow_motion = True
            elif in_slow_motion and speed >= low_speed_kn:
                pending |= _SLOW_MOTION_END
                state.in_slow_motion = False

            n_segments = len(buffer) - 1
            if n_segments > 0:
                _, first_east, first_north = buffer[0]
                _, last_east, last_north = buffer[-1]
                mean_east = (last_east - first_east) / n_segments
                mean_north = (last_north - first_north) / n_segments
                mean_speed = hypot(mean_east, mean_north)

                # Rule 4: change in heading.  The deviation became visible
                # with the segment ending at `point`, so the vertex is the
                # previous report.  The turn is the circular difference of
                # the two headings folded into [-180, 180), whose size is the
                # angle between them.
                if mean_speed > _MIN_HEADING_SPEED_KN and speed > _MIN_HEADING_SPEED_KN:
                    mean_heading = atan2(mean_east, mean_north) * _DEG % 360.0
                    turn = (v_now[1] - mean_heading + 180.0) % 360.0 - 180.0
                    if abs(turn) > cfg.angle_threshold_deg:
                        pending |= _CHANGE_IN_HEADING
                        # Re-reference the mean velocity at the turn: the
                        # retained vertex starts a new course, and keeping
                        # pre-turn segments in the buffer would re-detect the
                        # same turn for the next buffer_size reports.
                        _restart_buffer(state, prev)

                # Rule 5: speed change, relative to the instantaneous speed.
                # This branch runs only for speed >= no_speed_threshold_kn,
                # which SynopsisConfig requires to be positive, so the
                # divisor is never zero: motionless intervals are the stop
                # rule's business.
                exceeds = abs((speed - mean_speed) / speed) > cfg.speed_ratio
                in_speed_change = state.in_speed_change
                if exceeds and not in_speed_change:
                    labels |= _SPEED_CHANGE_START
                    state.in_speed_change = True
                elif not exceeds and in_speed_change:
                    labels |= _SPEED_CHANGE_END
                    state.in_speed_change = False

        # Push the report with the segment reaching it from the buffer's last
        # entry: v_now, unless absorbed stop reports left the buffer ending at
        # an earlier report.
        if buffer:
            last, east, north = buffer[-1]
            if last is not prev:
                v_now = segment_velocity(last, point)
            buffer.append((point, east + v_now[2], north + v_now[3]))
            while len(buffer) > cfg.buffer_size:
                buffer.popleft()
        else:
            _restart_buffer(state, point)

    state.last_point = point
    if pending:
        state.labels = labels
        return (CriticalPoint(prev.mmsi, prev.timestamp, prev.lon, prev.lat, _LABELS[pending]),)
    if labels:
        state.labels = labels
    return ()


def _close_intervals(state: VesselState) -> int:
    """End every open stop, slow-motion or speed-change interval; return the bits that end them."""
    closed = (
        (_STOP_END if state.stop_anchor is not None else 0)
        | (_SLOW_MOTION_END if state.in_slow_motion else 0)
        | (_SPEED_CHANGE_END if state.in_speed_change else 0)
    )
    state.stop_anchor = None
    state.in_slow_motion = state.in_speed_change = False
    return closed


def finalize_track(state: VesselState) -> tuple[CriticalPoint, ...]:
    """Close the stream: label the last report trackEnd, end any open interval, emit it.

    The state is left as a fresh :class:`VesselState` would be: a second call
    emits nothing, and the next report opens a new track labelled trackStart.
    """
    last = state.last_point
    if last is None:
        return ()
    labels = state.labels | _TRACK_END | _close_intervals(state)
    state.labels = 0
    state.buffer.clear()
    state.last_point = None
    return (CriticalPoint(last.mmsi, last.timestamp, last.lon, last.lat, _LABELS[labels]),)


def compress_track(
    track: VesselTrack, cfg: SynopsisConfig, segments: Sequence[Velocity] | None = None
) -> list[CriticalPoint]:
    """Compress a clean track into its synopsis of critical points.

    Feeds every report through :func:`ingest_point`, then closes the track
    with :func:`finalize_track`.  Each critical point is emitted once, in time
    order, so the emissions concatenated are the synopsis.

    ``segments`` is ``track_segments(track)``, for a caller that compresses
    the same track under many configurations; each report after the first
    gets its segment's velocity from there instead of computing it.  The
    synopsis is the same either way.  Single-pass callers leave it out, so no geometry is
    held beyond the report being ingested.
    """
    if segments is None:
        incoming: Iterable[Velocity | None] = repeat(None)
    elif len(segments) == max(len(track.points) - 1, 0):
        incoming = chain((None,), segments)
    else:
        raise ValueError(f"{len(segments)} segments for a track of {len(track.points)} reports")
    state = VesselState()
    synopsis: list[CriticalPoint] = []
    for point, v_now in zip(track.points, incoming):
        synopsis.extend(ingest_point(state, point, cfg, v_now))
    synopsis.extend(finalize_track(state))
    return synopsis


def write_synopsis_csv(points: Iterable[CriticalPoint], out: TextIO) -> None:
    """Serialize a synopsis as ``mmsi,timestamp,lon,lat,annotations`` rows.

    Annotations are joined with ``|`` in lexicographic order so output is
    byte-stable; coordinates use fixed 6-decimal formatting.
    """
    out.write("mmsi,timestamp,lon,lat,annotations\n")
    joined: dict[frozenset[Annotation], str] = {}
    for cp in points:
        # frozenset() hands a frozenset back as is; a hand-built point's set is copied.
        key = frozenset(cp.annotations)
        labels = joined.get(key)
        if labels is None:
            labels = joined[key] = "|".join(sorted(a.value for a in key))
        out.write(f"{cp.mmsi},{cp.timestamp},{cp.lon:.6f},{cp.lat:.6f},{labels}\n")
