"""Single-pass rejection of physically impossible position reports.

The filter walks each track once and drops reports that a real vessel could
not have produced, by two rules: timestamps that do not advance, and implied
speeds beyond :data:`MAX_SPEED_KNOTS`.  Decisions are made against the last
*accepted* point, so one bad report after the first cannot poison the points
after it.  A bad *first* report does: it is always accepted, and every later
report is judged against it, so a first report far from the rest of the
track rejects them all.
"""

from __future__ import annotations

from .geo import KNOT_MS, haversine_m
from .ingest import AisRecord, VesselTrack

#: Ceiling on the speed implied between the last accepted point and the next.
MAX_SPEED_KNOTS = 50.0


def filter_track(track: VesselTrack) -> tuple[VesselTrack, int]:
    """Drop implausible reports from one track.

    Returns a new track whose points are a subsequence of the input, plus the
    number of rejected reports.  The first point is always accepted since
    there is no predecessor to test against.
    """
    kept: list[AisRecord] = []
    for rec in track.points:
        if kept:
            prev = kept[-1]
            dt = rec.timestamp - prev.timestamp
            if dt <= 0:
                continue
            if haversine_m(prev.lon, prev.lat, rec.lon, rec.lat) / dt / KNOT_MS > MAX_SPEED_KNOTS:
                continue
        kept.append(rec)
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
