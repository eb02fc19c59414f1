"""Single-pass rejection of physically impossible position reports.

The filter walks each track once and drops reports that a real vessel could
not have produced, by two rules: timestamps that do not advance, and implied
speeds beyond :data:`MAX_SPEED_KNOTS`.  Decisions are made against the last
*accepted* point, so one bad report after the first cannot poison the points
after it.

The first report has no predecessor to be judged against, so the next two
reports confirm it: it is dropped when it is implausible against each of
them and they are plausible against each other.  The lookahead is fixed at
two reports; an online filter therefore holds a track's first report until
its third arrives.  Mid-track the filter does not re-anchor: a run of
reports that agree with each other but not with the last accepted one is
rejected whole, so a burst of consistent false positions (two transmitters
sharing an MMSI, say) cannot take the track over.
"""

from __future__ import annotations

from .geo import ARC_FLOOR_M, ARC_M_PER_DEG, KNOT_MS, haversine_m
from .ingest import AisRecord, VesselTrack

#: Ceiling on the speed implied between the last accepted point and the next.
MAX_SPEED_KNOTS = 50.0

#: The ceiling in metres per second, lowered by a relative margin of 1e-9:
#: a move whose :data:`~vesselsyn.geo.ARC_M_PER_DEG` bound is at most
#: ``dt * _CEILING_MS`` is under the ceiling as the exact test rounds it, so
#: only the moves above that need :func:`haversine_m`.
_CEILING_MS = MAX_SPEED_KNOTS * KNOT_MS * (1.0 - 1e-9)


def _kept(points: list[AisRecord]) -> list[AisRecord]:
    """The reports that advance the clock and stay under the ceiling against the last report kept."""
    kept: list[AisRecord] = []
    for rec in points:
        if kept:
            prev = kept[-1]
            dt = rec.timestamp - prev.timestamp
            if dt <= 0 or (
                (abs(rec.lat - prev.lat) + abs(rec.lon - prev.lon)) * ARC_M_PER_DEG + ARC_FLOOR_M > dt * _CEILING_MS
                and haversine_m(prev.lon, prev.lat, rec.lon, rec.lat) / dt / KNOT_MS > MAX_SPEED_KNOTS
            ):
                continue
        kept.append(rec)
    return kept


def filter_track(track: VesselTrack) -> tuple[VesselTrack, int]:
    """Drop implausible reports from one track.

    Returns a new track whose points are a subsequence of the input, plus the
    number of rejected reports.  The first point is kept unless the next two
    points reject it (see the module docstring); every later point is judged
    against the last kept one.
    """
    points = track.points
    # The first report keeps neither of the next two, and they keep each other.
    if len(_kept(points[:3])) == 1 and len(_kept(points[1:3])) == 2:
        points = points[1:]
    kept = _kept(points)
    return VesselTrack(track.mmsi, track.vessel_type, kept), len(track.points) - len(kept)


def filter_dataset(tracks: list[VesselTrack]) -> tuple[list[VesselTrack], int]:
    """Apply :func:`filter_track` to every track, dropping empty ones."""
    clean: list[VesselTrack] = []
    total_rejected = 0
    for track in tracks:
        filtered, rejected = filter_track(track)
        total_rejected += rejected
        if filtered.points:
            clean.append(filtered)
    return clean, total_rejected
