"""Tests for the synthetic track builders."""

import hashlib
import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vesselsyn.ingest import write_records
from vesselsyn.synthetic import make_fleet, make_mixed_voyage, offset_position


@settings(max_examples=300, deadline=None)
@given(
    st.floats(-180.0, 180.0),
    st.floats(-85.0, 85.0),
    st.floats(-100_000.0, 100_000.0),
    st.floats(-100_000.0, 100_000.0),
)
@example(179.99, 0.0, 5000.0, 0.0)  # 5 km east of 179.99 is about -179.965
@example(-179.99, 0.0, -5000.0, 0.0)
def test_offset_position_stays_in_range(lon, lat, east_m, north_m):
    new_lon, _ = offset_position(lon, lat, east_m, north_m)
    assert -180.0 <= new_lon <= 180.0


def _sha256(points):
    buf = io.StringIO()
    write_records(points, buf)
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


# The benchmark's three seed-1 fleets: its pinned output digests rest on these inputs.
@pytest.mark.parametrize(("total_points", "n_vessels", "digest"), [
    (40_000, 8, "b7d85a8ea6edf654cb3f9cbddea3c3df5f2f08a701eacc6fc399e47934a4894f"),
    (3_000, 36, "f7e6cb0ec692422aaedbe5ef2b6d5d26ff5d29df7520ba960a26466c6666b906"),
    (40_000, 80, "5cb4f81b06e9f6c4e839c3b731e890849f607fe67a1343684d890c928796e9b0"),
])
def test_make_fleet_writes_the_pinned_bytes(total_points, n_vessels, digest):
    fleet = make_fleet(total_points, n_vessels, seed=1)
    assert sum(len(t.points) for t in fleet) == total_points
    assert _sha256(p for t in fleet for p in t.points) == digest


@pytest.mark.parametrize(("n_points", "kwargs", "digest"), [
    (1, {"seed": 4}, "1534b5a093c72e13a60adad5f919bb033b67d1af26a9b72bb476eacfaf6089cf"),
    (2, {"seed": 9}, "ad986191e73659434d3c4c71572bc8f37c0f0618d282f987df7c3e5441737546"),
    (40, {"seed": 1}, "8fe556bb24a59a81022e2dcbda1cb2b9c637f32fef7ad0063a20470ba6eceb4e"),
    (401, {"seed": 7}, "d0b30f2a5691ea935dc1e7a0c00b3f00db567c2bb9e01c89e334f21ac9bb6f31"),
    (5000, {"seed": 3}, "64aa26ae6aed1aa99834af54bac99aa5c7db64c0f213a990908106b27d911770"),
    # Crosses the antimeridian, so the wrap in offset_position is in the bytes.
    (400, {"seed": 2, "start_lon": 179.99}, "fc94b8108e596fffaa3a4871f77f3278f13dd57e80af70aa42e2d529ac6d93d7"),
])
def test_make_mixed_voyage_writes_the_pinned_bytes(n_points, kwargs, digest):
    track = make_mixed_voyage(n_points, **kwargs)
    assert len(track.points) == n_points
    assert _sha256(track.points) == digest


@pytest.mark.parametrize("n_points", [0, -3])
def test_a_voyage_of_no_reports_is_refused(n_points):
    with pytest.raises(ValueError, match=rf"n_points must be >= 1, got {n_points}"):
        make_mixed_voyage(n_points)


@pytest.mark.parametrize(("total_points", "n_vessels"), [
    (10, 0),  # no vessel to share the reports among
    (10, -1),
    (2, 3),  # a vessel would get no report
    (0, 1),
])
def test_a_fleet_that_cannot_give_each_vessel_a_report_is_refused(total_points, n_vessels):
    match = rf"n_vessels must be between 1 and total_points \({total_points}\), got {n_vessels}"
    with pytest.raises(ValueError, match=match):
        make_fleet(total_points, n_vessels)


def test_a_fleet_of_one_report_per_vessel_has_exactly_total_points():
    fleet = make_fleet(3, 3)
    assert [len(t.points) for t in fleet] == [1, 1, 1]
