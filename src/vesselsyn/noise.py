"""Single-pass rejection of physically impossible position reports.

The filter walks each track once and drops reports that a real vessel could
not have produced, by three rules: timestamps that do not advance, sudden
coordinate jumps within seconds, and implied speeds beyond a ceiling.
Decisions are made against the last *accepted* point, so one bad report
cannot poison the points after it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geo import KNOT_MS, haversine_m
from .ingest import AisRecord, VesselTrack

#: A coordinate jump is only treated as a glitch when it happens this fast;
#: slower jumps are already caught by the speed ceiling.
COORD_JUMP_MAX_DT_S = 10.0


@dataclass(frozen=True)
class NoiseFilterConfig:
    """Thresholds for the report-rejection rules.

    Attributes:
        max_speed_knots: ceiling on the speed implied between the last
            accepted point and the candidate; ``math.inf`` disables the rule.
        max_coord_jump_deg: largest allowed per-message change in lat, or in
            lon measured the short way round (so 179.9 to -179.9 is 0.2),
            when the reports are less than :data:`COORD_JUMP_MAX_DT_S` apart.
    """

    max_speed_knots: float = 50.0
    max_coord_jump_deg: float = 0.5

    def __post_init__(self) -> None:
        if not self.max_speed_knots > 0.0:
            raise ValueError("max_speed_knots must be positive")
        if not self.max_coord_jump_deg > 0.0:
            raise ValueError("max_coord_jump_deg must be positive")

    @classmethod
    def disabled(cls) -> "NoiseFilterConfig":
        """A configuration that accepts everything (for controlled experiments)."""
        return cls(max_speed_knots=math.inf, max_coord_jump_deg=math.inf)


def filter_track(track: VesselTrack, cfg: NoiseFilterConfig | None = None) -> tuple[VesselTrack, int]:
    """Drop implausible reports from one track.

    Returns a new track whose points are a subsequence of the input, plus the
    number of rejected reports.  The first point is always accepted since
    there is no predecessor to test against.
    """
    cfg = cfg or NoiseFilterConfig()
    kept: list[AisRecord] = []
    for rec in track.points:
        if kept:
            prev = kept[-1]
            dt = rec.timestamp - prev.timestamp
            if dt <= 0:
                continue
            if dt < COORD_JUMP_MAX_DT_S:
                dlon = abs(rec.lon - prev.lon)
                if (
                    min(dlon, 360.0 - dlon) > cfg.max_coord_jump_deg
                    or abs(rec.lat - prev.lat) > cfg.max_coord_jump_deg
                ):
                    continue
            speed_knots = haversine_m(prev.lon, prev.lat, rec.lon, rec.lat) / dt / KNOT_MS
            if speed_knots > cfg.max_speed_knots:
                continue
        kept.append(rec)
    rejected = len(track.points) - len(kept)
    return VesselTrack(track.mmsi, track.vessel_type, kept), rejected


def filter_dataset(
    tracks: list[VesselTrack], cfg: NoiseFilterConfig | None = None
) -> tuple[list[VesselTrack], int]:
    """Apply :func:`filter_track` to every track, dropping empty ones."""
    clean: list[VesselTrack] = []
    total_rejected = 0
    for track in tracks:
        filtered, rejected = filter_track(track, cfg)
        total_rejected += rejected
        if filtered.points:
            clean.append(filtered)
    return clean, total_rejected
