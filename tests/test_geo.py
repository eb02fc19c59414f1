"""Tests for the spherical geometry and velocity helpers."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vesselsyn.geo import (
    ARC_FLOOR_M,
    ARC_M_PER_DEG,
    EARTH_RADIUS_M,
    KNOT_MS,
    haversine_m,
    segment_velocity,
)
from vesselsyn.ingest import AisRecord

from rules import heading_difference_deg

# Degrees of longitude at the equator covering exactly one metre of arc.
DEG_PER_M_EQUATOR = 1.0 / (EARTH_RADIUS_M * math.pi / 180.0)


def great_circle_atan2_m(lon1, lat1, lon2, lat2):
    """Independent great-circle distance via the atan2 form.

    Used as an oracle: mathematically identical to the haversine on a
    sphere and well conditioned at every separation.
    """
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dl = math.radians(lon2 - lon1)
    y = math.hypot(
        math.cos(p2) * math.sin(dl),
        math.cos(p1) * math.sin(p2) - math.sin(p1) * math.cos(p2) * math.cos(dl),
    )
    x = math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(dl)
    return EARTH_RADIUS_M * math.atan2(y, x)


def bearing_deg(lon1, lat1, lon2, lat2):
    """Initial great-circle bearing from the first point to the second.

    Used as an oracle for the heading of ``segment_velocity``, which computes
    it in one pass with the distance.  Compass degrees in [0, 360): 0 points
    north, 90 east; undefined for coincident points.
    """
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    dlam = math.radians(lon2 - lon1)
    y = math.sin(dlam) * math.cos(phi2)
    x = math.cos(phi1) * math.sin(phi2) - math.sin(phi1) * math.cos(phi2) * math.cos(dlam)
    return math.degrees(math.atan2(y, x)) % 360.0


def radians_haversine_m(lon1, lat1, lon2, lat2):
    """:func:`haversine_m` written with ``math.radians`` and the ``math.`` calls.

    The reference that holds the constant-factor form to the same bits.
    """
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    if a > 1.0:
        a = 1.0
    return 2.0 * EARTH_RADIUS_M * math.atan2(math.sqrt(a), math.sqrt(1.0 - a))


def radians_segment_velocity(a, b):
    """:func:`segment_velocity` written with ``math.radians``/``math.degrees`` and the ``math.`` calls."""
    dt = b.timestamp - a.timestamp
    phi1 = math.radians(a.lat)
    phi2 = math.radians(b.lat)
    dlam = math.radians(b.lon - a.lon)
    cos_phi1 = math.cos(phi1)
    cos_phi2 = math.cos(phi2)
    h = math.sin(math.radians(b.lat - a.lat) / 2.0) ** 2 + cos_phi1 * cos_phi2 * math.sin(dlam / 2.0) ** 2
    if h > 1.0:
        h = 1.0
    dist_m = 2.0 * EARTH_RADIUS_M * math.atan2(math.sqrt(h), math.sqrt(1.0 - h))
    if dist_m == 0.0:
        return 0.0, 0.0, 0.0, 0.0
    y = math.sin(dlam) * cos_phi2
    x = cos_phi1 * math.sin(phi2) - math.sin(phi1) * cos_phi2 * math.cos(dlam)
    speed = dist_m / dt / KNOT_MS
    heading = math.degrees(math.atan2(y, x)) % 360.0
    h = math.radians(heading)
    return speed, heading, speed * math.sin(h), speed * math.cos(h)


def heading_deg(lon1, lat1, lon2, lat2):
    """The heading ``segment_velocity`` gives the segment between two points."""
    return segment_velocity(AisRecord(1, 0, lon1, lat1), AisRecord(1, 60, lon2, lat2))[1]


def test_haversine_zero_distance_is_exactly_zero():
    assert haversine_m(12.5, 45.0, 12.5, 45.0) == 0.0


def test_haversine_one_degree_equatorial_arc():
    # One degree of arc on a 6371 km sphere is 2*pi*R/360 = 111194.93 m.
    assert haversine_m(0.0, 0.0, 1.0, 0.0) == pytest.approx(111194.93, abs=0.01)


def test_haversine_half_circumference():
    assert haversine_m(0.0, 0.0, 180.0, 0.0) == pytest.approx(math.pi * EARTH_RADIUS_M, rel=1e-12)


def test_haversine_matches_independent_formula():
    rng = random.Random(31)
    for _ in range(500):
        lon1, lat1 = rng.uniform(-180, 180), rng.uniform(-84, 84)
        lon2, lat2 = lon1 + rng.uniform(-1, 1), lat1 + rng.uniform(-1, 1)
        expected = great_circle_atan2_m(lon1, lat1, lon2, lat2)
        assert haversine_m(lon1, lat1, lon2, lat2) == pytest.approx(expected, rel=1e-9, abs=1e-9)


LONS = st.floats(-180.0, 180.0)
LATS = st.floats(-90.0, 90.0)


@settings(max_examples=1000, deadline=None)
@given(LONS, LATS, LONS, LATS)
def test_haversine_symmetry(lon1, lat1, lon2, lat2):
    d_ab = haversine_m(lon1, lat1, lon2, lat2)
    d_ba = haversine_m(lon2, lat2, lon1, lat1)
    assert math.isfinite(d_ab)
    assert 0.0 <= d_ab <= math.pi * EARTH_RADIUS_M
    assert d_ab == pytest.approx(d_ba, rel=1e-6, abs=1e-9)


def test_haversine_triangle_inequality():
    rng = random.Random(17)
    for _ in range(1000):
        a = (rng.uniform(-180, 180), rng.uniform(-90, 90))
        b = (rng.uniform(-180, 180), rng.uniform(-90, 90))
        c = (rng.uniform(-180, 180), rng.uniform(-90, 90))
        d_ac = haversine_m(*a, *c)
        d_via_b = haversine_m(*a, *b) + haversine_m(*b, *c)
        assert d_ac <= d_via_b * (1 + 1e-6) + 1e-9


def test_haversine_antipodal_pair_is_finite_and_symmetric():
    # Rounding puts the haversine term a hair above 1 for this exact pair.
    pair = (-88.6, 69.3, 91.4, -69.3)
    half_circumference = math.pi * EARTH_RADIUS_M
    d_ab = haversine_m(*pair)
    d_ba = haversine_m(*pair[2:], *pair[:2])
    assert d_ab == d_ba == pytest.approx(half_circumference, rel=1e-12)


def test_bearing_cardinal_directions():
    assert heading_deg(0.0, 0.0, 1.0, 0.0) == pytest.approx(90.0, abs=1e-9)
    assert heading_deg(0.0, 0.0, 0.0, 1.0) == pytest.approx(0.0, abs=1e-9)
    assert heading_deg(0.0, 1.0, 0.0, 0.0) == pytest.approx(180.0, abs=1e-9)
    assert heading_deg(1.0, 0.0, 0.0, 0.0) == pytest.approx(270.0, abs=1e-9)


def test_bearing_always_in_compass_range():
    rng = random.Random(23)
    for _ in range(500):
        b = heading_deg(
            rng.uniform(-180, 180), rng.uniform(-89, 89),
            rng.uniform(-180, 180), rng.uniform(-89, 89),
        )
        assert 0.0 <= b < 360.0


@settings(max_examples=1000, deadline=None)
@given(LONS, LATS, LONS, LATS, st.integers(1, 10**6))
@example(-88.6, 69.3, 91.4, -69.3, 60)  # antipodal: the haversine term rounds above 1
@example(0.0, 0.0, 180.0, 0.0, 60)  # antipodal on the equator
@example(179.9, 10.0, -179.9, 10.0, 60)  # across the antimeridian
@example(180.0, 10.0, -180.0, 10.0, 60)  # the same point named by both longitudes
@example(-180.0, -45.0, 180.0, 45.0, 3600)  # between the two ends of the longitude range
@example(0.0, 90.0, 90.0, 90.0, 60)  # both points on the north pole
@example(0.0, -90.0, 45.0, 89.0, 60)  # from the south pole
@example(12.5, 45.0, 12.5, 45.0, 60)  # coincident
def test_segment_velocity_is_haversine_and_bearing_bit_for_bit(lon1, lat1, lon2, lat2, dt):
    """The one-pass geometry gives exactly the two-function values.

    The components are held to the decomposition of speed and heading, so a
    coincident pair has components (0.0, 0.0).
    """
    speed, heading, east, north = segment_velocity(AisRecord(1, 0, lon1, lat1), AisRecord(1, dt, lon2, lat2))
    dist_m = haversine_m(lon1, lat1, lon2, lat2)
    assert speed == dist_m / dt / KNOT_MS
    assert heading == (bearing_deg(lon1, lat1, lon2, lat2) if dist_m else 0.0)
    assert east == speed * math.sin(math.radians(heading))
    assert north == speed * math.cos(math.radians(heading))


@settings(max_examples=1000, deadline=None)
@given(LONS, LATS, LONS, LATS, st.integers(1, 10**6))
@example(-88.6, 69.3, 91.4, -69.3, 60)  # antipodal: the haversine term rounds above 1
@example(0.0, 0.0, 180.0, 0.0, 60)  # antipodal on the equator
@example(-45.0, 30.0, 135.0, -30.0, 60)  # antipodal off the equator
@example(179.9, 10.0, -179.9, 10.0, 60)  # across the antimeridian
@example(-179.999, -5.0, 179.999, 5.0, 60)  # across it westward
@example(180.0, 10.0, -180.0, 10.0, 60)  # the same point named by both longitudes
@example(0.0, 90.0, 90.0, 90.0, 60)  # both points on the north pole
@example(0.0, -90.0, 45.0, 89.0, 60)  # from the south pole
@example(10.0, 89.9, -170.0, 89.9, 60)  # over the north pole
@example(12.5, 45.0, 12.5, 45.0, 60)  # coincident
@example(-180.0, -90.0, -180.0, -90.0, 1)  # coincident at a corner of the range
def test_geodesy_equals_the_radians_forms_bit_for_bit(lon1, lat1, lon2, lat2, dt):
    """The constant-factor geodesy gives exactly the ``math.radians``/``math.degrees`` values."""
    expected = radians_haversine_m(lon1, lat1, lon2, lat2)
    assert haversine_m(lon1, lat1, lon2, lat2).hex() == expected.hex()
    a, b = AisRecord(1, 0, lon1, lat1), AisRecord(1, dt, lon2, lat2)
    got, want = segment_velocity(a, b), radians_segment_velocity(a, b)
    assert len(got) == len(want) == 4
    assert [x.hex() for x in got] == [x.hex() for x in want]


@pytest.mark.parametrize(
    "a, b, expected",
    [
        (0.0, 90.0, -90.0),
        (90.0, 0.0, 90.0),
        (350.0, 10.0, -20.0),
        (10.0, 350.0, 20.0),
        (180.0, 0.0, 180.0),
        (0.0, 180.0, 180.0),  # the ambiguous half-turn maps to +180
        (45.0, 45.0, 0.0),
    ],
)
def test_heading_difference_cases(a, b, expected):
    assert heading_difference_deg(a, b) == pytest.approx(expected, abs=1e-9)


def test_heading_difference_is_minimal_signed_angle():
    rng = random.Random(29)
    for _ in range(500):
        a, b = rng.uniform(0, 360), rng.uniform(0, 360)
        d = heading_difference_deg(a, b)
        assert -180.0 < d <= 180.0
        assert (b + d) % 360.0 == pytest.approx(a % 360.0, abs=1e-9) or abs(abs(d) - 180.0) < 1e-9


def test_segment_velocity_one_nautical_mile_per_hour_is_one_knot():
    a = AisRecord(1, 0, 0.0, 0.0)
    b = AisRecord(1, 3600, 1852.0 * DEG_PER_M_EQUATOR, 0.0)
    speed, heading, _, _ = segment_velocity(a, b)
    assert speed == pytest.approx(1.0, abs=1e-6)
    assert heading == pytest.approx(90.0, abs=1e-9)


def test_segment_velocity_metres_per_second_conversion():
    # 514.444 m in 1000 s is 0.514444 m/s, i.e. exactly one knot.
    a = AisRecord(1, 0, 0.0, 0.0)
    b = AisRecord(1, 1000, 514.444 * DEG_PER_M_EQUATOR, 0.0)
    assert segment_velocity(a, b)[0] == pytest.approx(1.0, abs=1e-6)


def test_segment_velocity_coincident_points_have_zero_speed():
    a = AisRecord(1, 0, 5.0, 50.0)
    b = AisRecord(1, 60, 5.0, 50.0)
    assert segment_velocity(a, b)[0] == 0.0


@pytest.mark.parametrize("lon2, lat2", [(5.01, 50.02), (5.0, 50.0)], ids=["moving", "coincident"])
def test_segment_velocity_is_a_plain_tuple_of_four_floats(lon2, lat2):
    v = segment_velocity(AisRecord(1, 0, 5.0, 50.0), AisRecord(1, 60, lon2, lat2))
    assert type(v) is tuple
    assert len(v) == 4
    assert all(type(x) is float for x in v)


def test_segment_velocity_rejects_non_advancing_time():
    a = AisRecord(1, 100, 0.0, 0.0)
    with pytest.raises(ValueError):
        segment_velocity(a, AisRecord(1, 100, 0.1, 0.0))
    with pytest.raises(ValueError):
        segment_velocity(a, AisRecord(1, 99, 0.1, 0.0))


def test_velocity_components_cardinal():
    # One nautical mile in an hour, due east along the equator and due north.
    origin, mile = AisRecord(1, 0, 0.0, 0.0), 1852.0 * DEG_PER_M_EQUATOR
    *_, east, north = segment_velocity(origin, AisRecord(1, 3600, mile, 0.0))
    assert east == pytest.approx(1.0, abs=1e-6)
    assert north == pytest.approx(0.0, abs=1e-9)
    *_, east, north = segment_velocity(origin, AisRecord(1, 3600, 0.0, mile))
    assert east == pytest.approx(0.0, abs=1e-9)
    assert north == pytest.approx(1.0, abs=1e-6)


def test_knot_constant_matches_nautical_mile():
    assert KNOT_MS == pytest.approx(1852.0 / 3600.0, rel=1e-6)



def _arc_bound_m(lon1, lat1, lon2, lat2):
    return (abs(lat2 - lat1) + abs(lon2 - lon1)) * ARC_M_PER_DEG + ARC_FLOOR_M


@settings(max_examples=1000, deadline=None)
@given(LONS, LATS, LONS, LATS, st.floats(-1e-3, 1e-3), st.floats(-1e-3, 1e-3))
@example(0.0, 0.0, 180.0, 0.0, 1e-3, 0.0)  # antipodal, and a step along the equator
@example(-88.6, 69.3, 91.4, -69.3, 0.0, 1e-3)  # antipodal, and a step along a meridian
@example(179.9, 10.0, -179.9, 10.0, 0.0, 0.0)  # across the antimeridian
@example(10.0, 89.9, -170.0, 89.9, 1e-3, 1e-3)  # over the north pole
@example(0.0, 90.0, 90.0, 90.0, 1e-3, -1e-3)  # both points on the north pole
@example(180.0, 0.0, 8.603021788591132e-07, 0.0, 0.0, 0.0)  # 0.1 m short of antipodal: haversine reads pi * R
@example(0.0, 0.0, 0.0, 9.086559045610901e-160, 0.0, 0.0)  # a subnormal haversine a, 1% too far
def test_the_arc_bound_is_never_below_haversine(lon1, lat1, lon2, lat2, dlon, dlat):
    """``ARC_M_PER_DEG`` times the summed degree changes, plus ``ARC_FLOOR_M``, is at least :func:`haversine_m`.

    Along a meridian or the equator the two agree but for the margin, so
    the short steps test the margin and the far points the geometry; the
    near-antipodal and the nearly coincident examples test the haversine's
    own overshoot, which the margin and the floor cover.
    """
    assert _arc_bound_m(lon1, lat1, lon2, lat2) >= haversine_m(lon1, lat1, lon2, lat2)
    lon3, lat3 = min(180.0, max(-180.0, lon1 + dlon)), min(90.0, max(-90.0, lat1 + dlat))
    assert _arc_bound_m(lon1, lat1, lon3, lat3) >= haversine_m(lon1, lat1, lon3, lat3)
