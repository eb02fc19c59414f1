"""Reference forms of the detector's turn and speed-change rules.

``vesselsyn.synopses.ingest_point`` computes both inline; the tests hold it
to these functions through the oracle detector in ``test_synopses.py``.
"""


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
