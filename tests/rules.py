"""Reference forms of the detector's turn and speed-change rules, and of its stop speed bound.

``vesselsyn.synopses.ingest_point`` computes all three inline; the tests
hold it to the rules through the oracle detector in ``test_synopses.py``,
and the bound to ``segment_velocity``'s speed in ``test_geo.py``.
"""

from vesselsyn.geo import ARC_FLOOR_M, ARC_M_PER_DEG, KNOT_MS


def heading_difference_deg(a: float, b: float) -> float:
    """Signed circular difference a - b mapped into (-180, 180]."""
    d = (a - b + 180.0) % 360.0 - 180.0
    if d == -180.0:
        return 180.0
    return d


def speed_change_exceeds(v_now_knots: float, v_mean_knots: float, ratio: float) -> bool:
    """Whether the instantaneous speed deviates too much from the mean speed.

    The deviation is relative to the instantaneous speed:
    ``|(v_now - v_mean) / v_now| > ratio``.  A zero ``v_now`` never triggers;
    motionless intervals are the stop rule's business.
    """
    if v_now_knots == 0.0:
        return False
    return abs((v_now_knots - v_mean_knots) / v_now_knots) > ratio


def speed_bound_kn(a, b) -> float:
    """The stop rule's trig-free bound on the speed from report ``a`` to ``b``, in knots.

    It is written in the detector's operation order, so it is the value the
    detector compares with ``no_speed_threshold_kn``.
    """
    bound_m = (abs(b.lat - a.lat) + abs(b.lon - a.lon)) * ARC_M_PER_DEG + ARC_FLOOR_M
    return bound_m / (b.timestamp - a.timestamp) / KNOT_MS
