"""Deterministic builders for synthetic vessel tracks.

These generators produce fully reproducible tracks for the demos, the
benchmark and the tests: a smooth turn, and mixed voyages and fleets that
cycle through every mobility event for end-to-end runs.  Positions are
stepped in metres and converted to lon/lat with a local flat-earth
approximation, which is plenty accurate at the few-kilometre scale of each
step.
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


def make_curve_track() -> VesselTrack:
    """A smooth turn of 40 reports a minute apart at 10 kn, the heading drifting 3 degrees per report."""
    steps = [(60, 10.0, (90.0 + 3.0 * i) % 360.0) for i in range(39)]
    return _walk(DEFAULT_MMSI, "unknown", DEFAULT_LON, DEFAULT_LAT, DEFAULT_T0, steps)


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
