"""Deterministic builders for synthetic vessel tracks.

These generators produce fully reproducible tracks for the demos, the
benchmark and the tests: a smooth turn, and mixed voyages and fleets that
cycle through every mobility event for end-to-end runs.  Positions are
stepped in metres and converted to lon/lat with a local flat-earth
approximation, which is plenty accurate at the few-kilometre scale of each
step.

A voyage's traffic is one data row, walked by one loop: ``MIXED_VOYAGE``
holds a cruise speed range in knots, the phases of a cycle as
``(reports lo, hi, seconds apart, speed, heading)``, and the range in
seconds of the reporting gap that ends every second cycle.  Each cycle draws
its cruise speed, then walks the phases in order, drawing each phase's
report count from ``lo..hi``.  Per report:

* speed is a ``(lo, hi)`` range in knots, or ``None`` for the cycle's cruise
  speed +/- 0.2 kn;
* heading is a ``(lo, hi)`` drift added to the kept heading and drawn
  *before* the speed, ``None`` to keep the heading, or ``"random"`` for a
  direction drawn *after* the speed and not kept (an anchored stop's jitter).

The order of draws is part of the output: the same seed gives the same
bytes only while every draw comes in the same order.
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


# make_mixed_voyage's row; the module docstring gives its layout and draw order.
MIXED_VOYAGE = (
    (9.0, 14.0),
    (
        (10, 16, 60, None, (-0.5, 0.5)),  # cruise
        (6, 10, 60, None, (2.5, 5.0)),  # gentle turn
        (6, 10, 60, (2.0, 3.5), None),  # slow motion
        (8, 12, 120, (0.01, 0.05), "random"),  # anchored stop
        (8, 14, 60, (15.0, 18.0), (-0.5, 0.5)),  # fast departure
    ),
    (2000, 3000),
)


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
    if n_points < 1:
        raise ValueError(f"n_points must be >= 1, got {n_points!r}")
    rng = random.Random(seed)
    cruise, phases, gap = MIXED_VOYAGE
    steps: list[tuple[int, float, float]] = []
    heading = rng.uniform(0.0, 360.0)
    cycle = 0
    while len(steps) < n_points - 1:
        cycle += 1
        cruise_speed = rng.uniform(*cruise)
        for lo, hi, dt, speed, turn in phases:
            for _ in range(rng.randint(lo, hi)):
                if isinstance(turn, tuple):
                    heading += rng.uniform(*turn)
                speed_kn = rng.uniform(*speed) if speed else cruise_speed + rng.uniform(-0.2, 0.2)
                steps.append((dt, speed_kn, rng.uniform(0.0, 360.0) if turn == "random" else heading % 360.0))
        if cycle % 2 == 0:
            steps.append((rng.randint(*gap), cruise_speed, heading % 360.0))
    return _walk(mmsi, vessel_type, start_lon, start_lat, DEFAULT_T0, steps[: n_points - 1])


def make_fleet(total_points: int = 500, n_vessels: int = 3, *, seed: int = 11) -> list[VesselTrack]:
    """Several mixed voyages adding up to exactly ``total_points`` reports."""
    if not 1 <= n_vessels <= total_points:
        raise ValueError(f"n_vessels must be between 1 and total_points ({total_points!r}), got {n_vessels!r}")
    base, extra = divmod(total_points, n_vessels)
    types = ["passenger", "cargo", "fishing", "tug", "military", "unknown"]
    return [
        make_mixed_voyage(
            base + (i < extra),
            mmsi=DEFAULT_MMSI + i,
            seed=seed + i,
            vessel_type=types[i % len(types)],
            start_lon=DEFAULT_LON + 0.2 * i,
            start_lat=DEFAULT_LAT - 0.1 * i,
        )
        for i in range(n_vessels)
    ]
