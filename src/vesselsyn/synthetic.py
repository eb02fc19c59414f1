"""Deterministic builders for synthetic vessel tracks.

These generators produce small, fully reproducible tracks that exercise each
mobility event in isolation (straight runs, stops with jitter, sharp corners,
silence gaps, speed steps) plus longer mixed voyages for end-to-end runs.
Positions are stepped in metres and converted to lon/lat with a local
flat-earth approximation, which is plenty accurate at the few-kilometre scale
of these fixtures.
"""

from __future__ import annotations

import math
import random

from .geo import EARTH_RADIUS_M, KNOT_MS
from .ingest import AisRecord, VesselTrack


_M_PER_DEG_LAT = EARTH_RADIUS_M * math.pi / 180.0

DEFAULT_MMSI = 227705102
DEFAULT_LON = -4.49
DEFAULT_LAT = 48.39
DEFAULT_T0 = 1_443_650_000


def offset_position(lon: float, lat: float, east_m: float, north_m: float) -> tuple[float, float]:
    """Shift a lon/lat position by metre offsets (local tangent plane).

    A longitude pushed past the antimeridian is wrapped back into [-180, 180].
    """
    new_lat = lat + north_m / _M_PER_DEG_LAT
    new_lon = lon + east_m / (_M_PER_DEG_LAT * math.cos(math.radians(lat)))
    if new_lon > 180.0:
        new_lon -= 360.0
    elif new_lon < -180.0:
        new_lon += 360.0
    return new_lon, new_lat


def _walk(
    mmsi: int,
    vessel_type: str,
    lon: float,
    lat: float,
    t: int,
    steps: list[tuple[int, float, float]],
) -> VesselTrack:
    """Integrate (dt_s, speed_knots, heading_deg) steps into a track."""
    points = [AisRecord(mmsi, t, lon, lat, vessel_type)]
    for dt, speed_kn, heading in steps:
        dist = speed_kn * KNOT_MS * dt
        h = math.radians(heading)
        lon, lat = offset_position(lon, lat, dist * math.sin(h), dist * math.cos(h))
        t += dt
        points.append(AisRecord(mmsi, t, lon, lat, vessel_type))
    return VesselTrack(mmsi, vessel_type, points)


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


def make_curve_track(
    n_points: int = 40,
    *,
    mmsi: int = DEFAULT_MMSI,
    turn_rate_deg: float = 3.0,
    vessel_type: str = "unknown",
) -> VesselTrack:
    """A smooth constant-rate turn at 10 kn, heading drifting every report."""
    steps = [(60, 10.0, (90.0 + turn_rate_deg * i) % 360.0) for i in range(n_points - 1)]
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


def make_mixed_voyage(
    n_points: int,
    *,
    mmsi: int = DEFAULT_MMSI,
    seed: int = 7,
    vessel_type: str = "unknown",
    start_lon: float = DEFAULT_LON,
    start_lat: float = DEFAULT_LAT,
) -> VesselTrack:
    """A voyage cycling through every event type, with seeded variation.

    Phases rotate cruise / gentle turn / slow motion / anchored stop /
    fast departure, and every few cycles a reporting gap is inserted, so a
    long enough voyage exhibits all five mobility events several times.
    """
    rng = random.Random(seed)
    steps: list[tuple[int, float, float]] = []
    heading = rng.uniform(0.0, 360.0)
    cycle = 0
    while len(steps) < n_points - 1:
        cycle += 1
        cruise_speed = rng.uniform(9.0, 14.0)
        for _ in range(rng.randint(10, 16)):
            heading += rng.uniform(-0.5, 0.5)
            steps.append((60, cruise_speed + rng.uniform(-0.2, 0.2), heading % 360.0))
        for _ in range(rng.randint(6, 10)):
            heading += rng.uniform(2.5, 5.0)
            steps.append((60, cruise_speed + rng.uniform(-0.2, 0.2), heading % 360.0))
        for _ in range(rng.randint(6, 10)):
            steps.append((60, rng.uniform(2.0, 3.5), heading % 360.0))
        for _ in range(rng.randint(8, 12)):
            steps.append((120, rng.uniform(0.01, 0.05), rng.uniform(0.0, 360.0)))
        for _ in range(rng.randint(8, 14)):
            heading += rng.uniform(-0.5, 0.5)
            steps.append((60, rng.uniform(15.0, 18.0), heading % 360.0))
        if cycle % 2 == 0:
            steps.append((rng.randint(2000, 3000), cruise_speed, heading % 360.0))
    steps = steps[: n_points - 1]
    return _walk(mmsi, vessel_type, start_lon, start_lat, DEFAULT_T0, steps)


def make_fleet(total_points: int = 500, n_vessels: int = 3, *, seed: int = 11) -> list[VesselTrack]:
    """Several mixed voyages adding up to exactly ``total_points`` reports."""
    base = total_points // n_vessels
    counts = [base + (1 if i < total_points % n_vessels else 0) for i in range(n_vessels)]
    types = ["passenger", "cargo", "fishing", "tug", "military", "unknown"]
    fleet = []
    for i, count in enumerate(counts):
        fleet.append(
            make_mixed_voyage(
                count,
                mmsi=DEFAULT_MMSI + i,
                seed=seed + i,
                vessel_type=types[i % len(types)],
                start_lon=DEFAULT_LON + 0.2 * i,
                start_lat=DEFAULT_LAT - 0.1 * i,
            )
        )
    return fleet
