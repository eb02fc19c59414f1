"""Spherical-earth geodesy and velocity estimation for AIS position streams.

All distances are computed with the haversine formula on a sphere of radius
6,371,000 m.  Speeds are expressed in knots, headings in compass degrees
(0 = north, 90 = east, normalized to [0, 360)).

:func:`segment_velocity` runs for every report but those an open stop
absorbs on the trig-free bound of their speed, so both functions convert
degrees by multiplying with :data:`_RAD` and :data:`_DEG` and call the
``math`` functions bound at import.  CPython's ``math.radians(x)`` is exactly ``x * (pi / 180.0)`` and
``math.degrees(x)`` exactly ``x * (180.0 / pi)``, so every value is the same
bit for bit as with those calls.  For the same reason a segment's velocity
is a plain tuple, not an object: a 4-tuple is built without the Python
``__init__`` that even a ``__slots__`` class runs, at about a quarter of its cost.
"""

from __future__ import annotations

import math
from math import atan2, cos, sin, sqrt

from .ingest import AisRecord

EARTH_RADIUS_M = 6_371_000.0

#: Radians per degree and degrees per radian, the factors of
#: ``math.radians`` and ``math.degrees``.
_RAD = math.pi / 180.0
_DEG = 180.0 / math.pi

#: Metres per second in one knot.
KNOT_MS = 0.514444

#: Metres of arc per degree, raised by a relative margin of 1e-7, and a
#: floor in metres: with them, the trig-free bound
#: ``(abs(lat2 - lat1) + abs(lon2 - lon1)) * ARC_M_PER_DEG + ARC_FLOOR_M`` is
#: never below what :func:`haversine_m` returns for the same points.  On a
#: sphere the great-circle distance is at most the length of a path along a
#: meridian and then a parallel, at most ``EARTH_RADIUS_M * (|dlat| +
#: |dlon|)`` in radians; the raw longitude difference is never less than the
#: short way round, so a pair across the antimeridian only loosens the bound.
#: The margin and the floor cover the haversine's own overshoot.  Mostly it
#: is a few units in the last place.  Near the antipode ``1 - a`` cancels: a
#: pair ``d`` metres short of antipodal has ``1 - a`` near ``(d / 2R)**2``,
#: and once that is under the error of ``a``, ``c`` units of 2**-53, the
#: haversine reads pi * R, over by up to ``6.7e-9 * sqrt(c)`` of it.  1e-7
#: covers ``c`` up to about 200; sampling found 1.  Near zero, an ``a`` under
#: 2**-1022 is subnormal and the haversine can be tens of per cent over, but
#: it is then under ``2R * 2**-511``, 1.9e-147 m, which the floor covers.  A
#: threshold test on a distance therefore needs :func:`haversine_m` only when
#: this bound does not settle it, and then decides as before.
ARC_M_PER_DEG = EARTH_RADIUS_M * _RAD * (1.0 + 1e-7)
ARC_FLOOR_M = 1e-140


#: A segment's velocity: ``(speed_knots, heading_deg, east_knots,
#: north_knots)``.  The last two are the (east, north) components of the
#: same motion, the form a vector mean sums.
Velocity = tuple[float, float, float, float]

#: The velocity of a segment whose two ends coincide.
_STILL: Velocity = (0.0, 0.0, 0.0, 0.0)


def haversine_m(lon1: float, lat1: float, lon2: float, lat2: float) -> float:
    """Great-circle distance in metres between two lon/lat points.

    Args:
        lon1, lat1: first point in decimal degrees.
        lon2, lat2: second point in decimal degrees.

    Returns:
        Distance in metres along the sphere surface.
    """
    dphi = (lat2 - lat1) * _RAD
    dlam = (lon2 - lon1) * _RAD
    a = sin(dphi / 2.0) ** 2 + cos(lat1 * _RAD) * cos(lat2 * _RAD) * sin(dlam / 2.0) ** 2
    if a > 1.0:  # rounding overshoot on near-antipodal pairs
        a = 1.0
    return 2.0 * EARTH_RADIUS_M * atan2(sqrt(a), sqrt(1.0 - a))


def segment_velocity(a: AisRecord, b: AisRecord) -> Velocity:
    """Instantaneous velocity implied by two consecutive reports, as a :data:`Velocity` tuple.

    Speed is the haversine distance over the elapsed time, converted to
    knots; the heading is the initial great-circle bearing from ``a`` to
    ``b`` in compass degrees; the components decompose that speed along that
    heading.  For coincident positions the speed, the heading and both
    components are 0.0; consumers that need a heading must treat a
    zero-speed velocity as directionless.

    Distance and bearing come from one pass over their shared terms.  The
    distance keeps :func:`haversine_m`'s operation order, so it is the same
    value bit for bit.

    Raises:
        ValueError: if ``b`` does not strictly follow ``a`` in time.
    """
    dt = b.timestamp - a.timestamp
    if dt <= 0:
        raise ValueError(f"non-increasing timestamps: {a.timestamp} -> {b.timestamp}")
    lat1 = a.lat
    lat2 = b.lat
    phi1 = lat1 * _RAD
    phi2 = lat2 * _RAD
    dlam = (b.lon - a.lon) * _RAD
    cos_phi1 = cos(phi1)
    cos_phi2 = cos(phi2)
    h = sin((lat2 - lat1) * _RAD / 2.0) ** 2 + cos_phi1 * cos_phi2 * sin(dlam / 2.0) ** 2
    if h > 1.0:  # rounding overshoot on near-antipodal pairs
        h = 1.0
    dist_m = 2.0 * EARTH_RADIUS_M * atan2(sqrt(h), sqrt(1.0 - h))
    if dist_m == 0.0:
        return _STILL
    y = sin(dlam) * cos_phi2
    x = cos_phi1 * sin(phi2) - sin(phi1) * cos_phi2 * cos(dlam)
    speed = dist_m / dt / KNOT_MS
    heading = atan2(y, x) * _DEG % 360.0
    h = heading * _RAD
    return speed, heading, speed * sin(h), speed * cos(h)
