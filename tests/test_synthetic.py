"""Tests for the synthetic track builders."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from vesselsyn.synthetic import offset_position


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
