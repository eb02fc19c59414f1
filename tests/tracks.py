"""Single-event track fixtures shared by the tests.

Each builder makes a small, fully reproducible track that exercises one
mobility event in isolation: a straight run, a stop with jitter, a sharp
corner, a silence gap, speed steps, slow motion or a steady turn.  The
tests freeze the synopsis of each by hand-simulating the event rules.  They
walk from the package's default start position with
:func:`vesselsyn.synthetic._walk`.
"""

from vesselsyn.geo import KNOT_MS
from vesselsyn.ingest import AisRecord, VesselTrack
from vesselsyn.synthetic import DEFAULT_LAT, DEFAULT_LON, DEFAULT_MMSI, DEFAULT_T0, _walk, offset_position


def make_straight_track(
    n_points: int = 20,
    *,
    mmsi: int = DEFAULT_MMSI,
    speed_knots: float = 10.0,
    dt_s: int = 60,
    vessel_type: str = "unknown",
) -> VesselTrack:
    """A constant-velocity run due east; nothing about it is eventful."""
    steps = [(dt_s, speed_knots, 90.0)] * (n_points - 1)
    return _walk(mmsi, vessel_type, DEFAULT_LON, DEFAULT_LAT, DEFAULT_T0, steps)


def make_stop_track(*, mmsi: int = DEFAULT_MMSI, vessel_type: str = "unknown") -> VesselTrack:
    """Cruise, a long anchored stop with metre-scale jitter, then departure.

    Layout (20 points): indices 0..4 cruise east at 10 kn every 60 s; index 5
    arrives 1 m from index 4 after 360 s and anchors a stop; indices 6..15
    jitter within 3 m of the anchor every 360 s; index 16 departs 400 m east
    just 60 s later; indices 17..19 resume the 10 kn cruise.  The stop spans
    more than an hour so the departure cannot be judged against pre-stop
    history.
    """
    track = _walk(
        mmsi, vessel_type, DEFAULT_LON, DEFAULT_LAT, DEFAULT_T0, [(60, 10.0, 90.0)] * 4
    )
    points = list(track.points)
    anchor_lon, anchor_lat = offset_position(points[-1].lon, points[-1].lat, 1.0, 0.0)
    t = points[-1].timestamp + 360
    points.append(AisRecord(mmsi, t, anchor_lon, anchor_lat, vessel_type))
    jitter_m = [(2, 0), (2, 2), (0, 2), (-2, 2), (-2, 0), (-2, -2), (0, -2), (2, -2), (2, 0), (0, 0)]
    for east, north in jitter_m:
        t += 360
        lon, lat = offset_position(anchor_lon, anchor_lat, east, north)
        points.append(AisRecord(mmsi, t, lon, lat, vessel_type))
    t += 60
    lon, lat = offset_position(anchor_lon, anchor_lat, 400.0, 0.0)
    points.append(AisRecord(mmsi, t, lon, lat, vessel_type))
    for _ in range(3):
        t += 60
        lon, lat = offset_position(lon, lat, 10.0 * KNOT_MS * 60, 0.0)
        points.append(AisRecord(mmsi, t, lon, lat, vessel_type))
    return VesselTrack(mmsi, vessel_type, points)


def make_corner_track(*, mmsi: int = DEFAULT_MMSI, vessel_type: str = "unknown") -> VesselTrack:
    """Ten points due east then ten due north at a constant 10 kn."""
    steps = [(60, 10.0, 90.0)] * 9 + [(60, 10.0, 0.0)] * 10
    return _walk(mmsi, vessel_type, DEFAULT_LON, DEFAULT_LAT, DEFAULT_T0, steps)


def make_gap_pair(*, mmsi: int = DEFAULT_MMSI, gap_s: int = 2000) -> VesselTrack:
    """The minimal gap case: two reports separated by a long silence."""
    steps = [(gap_s, 10.0, 90.0)]
    return _walk(mmsi, "unknown", DEFAULT_LON, DEFAULT_LAT, DEFAULT_T0, steps)


def make_gap_track(*, mmsi: int = DEFAULT_MMSI, vessel_type: str = "unknown") -> VesselTrack:
    """A cruise interrupted by one 2000 s silence (indices 2 and 3 bracket it)."""
    steps = [(60, 10.0, 90.0)] * 2 + [(2000, 10.0, 90.0)] + [(60, 10.0, 90.0)] * 2
    return _walk(mmsi, vessel_type, DEFAULT_LON, DEFAULT_LAT, DEFAULT_T0, steps)


def make_speed_steps_track(*, mmsi: int = DEFAULT_MMSI, vessel_type: str = "unknown") -> VesselTrack:
    """An eastbound run that steps 10 -> 22 -> 10 kn (6 reports per plateau)."""
    speeds = [10.0] * 5 + [22.0] * 6 + [10.0] * 6
    steps = [(60, s, 90.0) for s in speeds]
    return _walk(mmsi, vessel_type, DEFAULT_LON, DEFAULT_LAT, DEFAULT_T0, steps)


def make_slow_motion_track(*, mmsi: int = DEFAULT_MMSI, vessel_type: str = "unknown") -> VesselTrack:
    """An eastbound run that sinks to 2.5 kn for a stretch and recovers."""
    speeds = [10.0] * 5 + [2.5] * 6 + [10.0] * 6
    steps = [(60, s, 90.0) for s in speeds]
    return _walk(mmsi, vessel_type, DEFAULT_LON, DEFAULT_LAT, DEFAULT_T0, steps)


def make_circle_track(turn_deg: float, speed_knots: float) -> VesselTrack:
    """One full circle at a constant speed, reports 60 s apart, the course turning ``turn_deg`` per report."""
    steps = [(60, speed_knots, (90.0 + turn_deg * i) % 360.0) for i in range(round(360.0 / turn_deg))]
    return _walk(DEFAULT_MMSI, "unknown", DEFAULT_LON, DEFAULT_LAT, DEFAULT_T0, steps)
