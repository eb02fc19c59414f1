"""Quality metrics for compressed tracks.

Two numbers summarize a compression run over a cleaned dataset:

* ``ratio``: retained critical points over all clean points, aggregated
  globally (not averaged per vessel, so long tracks weigh more).
* ``rmse_m``: root mean squared haversine distance, in metres, between every
  clean point and its time-synchronized reconstruction from the synopsis.
  Points that were retained reconstruct to themselves and contribute zero.

Reconstruction interpolates linearly in lon/lat between the two critical
points bracketing the query time, taking the shorter way round in longitude
(across the antimeridian when the knots straddle it); queries outside the
synopsis time range clamp to the nearest end, which only matters for
degenerate synopses since a complete one always retains a track's first and
last report.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import repeat
from typing import Mapping, Sequence

import numpy as np

from .geo import haversine_m_vec
from .ingest import VesselTrack
from .synopses import CriticalPoint, Segment, SynopsisConfig, compress_track


@dataclass(frozen=True)
class Metrics:
    """Compression quality over one cleaned dataset."""

    rmse_m: float
    ratio: float
    noiseless_count: int
    critical_count: int

    def to_dict(self) -> dict[str, float | int]:
        return asdict(self)


def synchronized_position(synopsis: Sequence[CriticalPoint], tau: int) -> tuple[float, float]:
    """Reconstructed lon/lat of the vessel at time ``tau``.

    Exact critical timestamps return the stored coordinates verbatim; times
    between two critical points interpolate linearly; times outside the
    synopsis range clamp to the first or last retained position.

    Raises:
        ValueError: for an empty synopsis.
    """
    if not synopsis:
        raise ValueError("cannot reconstruct from an empty synopsis")
    lon, lat = _reconstruct_track(synopsis, np.array([tau]))
    return float(lon[0]), float(lat[0])


def _reconstruct_track(
    synopsis: Sequence[CriticalPoint], times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Reconstruction of lon/lat arrays at the given times.

    The one interpolation path, behind both :func:`synchronized_position`
    and :func:`compute_metrics`.  Retained timestamps are copied bit-for-bit
    so that a full-retention synopsis reconstructs with exactly zero error.
    """
    knot_t = np.array([cp.timestamp for cp in synopsis], dtype=np.int64)
    knot_lon = np.array([cp.lon for cp in synopsis])
    knot_lat = np.array([cp.lat for cp in synopsis])

    idx = np.searchsorted(knot_t, times, side="left")
    idx_clipped = np.minimum(idx, len(knot_t) - 1)
    exact = knot_t[idx_clipped] == times

    lo = np.clip(idx - 1, 0, len(knot_t) - 1)
    hi = np.clip(idx, 0, len(knot_t) - 1)
    t_lo = knot_t[lo]
    t_hi = knot_t[hi]
    span = np.where(t_hi > t_lo, t_hi - t_lo, 1)
    f = np.clip((times - t_lo) / span, 0.0, 1.0)
    # Longitude goes the short way round, across the antimeridian when that is
    # shorter.  Only out-of-range values are touched, so a track that never
    # crosses it gets plain linear interpolation, bit for bit.
    dlon = knot_lon[hi] - knot_lon[lo]
    dlon = np.where(dlon > 180.0, dlon - 360.0, np.where(dlon < -180.0, dlon + 360.0, dlon))
    lon = knot_lon[lo] + f * dlon
    lon = np.where(lon > 180.0, lon - 360.0, np.where(lon < -180.0, lon + 360.0, lon))
    lat = knot_lat[lo] + f * (knot_lat[hi] - knot_lat[lo])

    lon = np.where(exact, knot_lon[idx_clipped], lon)
    lat = np.where(exact, knot_lat[idx_clipped], lat)
    return lon, lat


def compute_metrics(
    clean_tracks: Sequence[VesselTrack],
    synopses: Mapping[int, Sequence[CriticalPoint]],
) -> Metrics:
    """Aggregate ratio and RMSE of a set of synopses over their clean tracks.

    Every clean point of every track enters the error sum, including the
    retained ones (at zero error), and the denominator of the ratio.  The
    per-track square sums come from numpy's pairwise summation and are folded
    with exact ``math.fsum``, so results do not depend on track order.

    Synopses are keyed by MMSI, so each track must have its own.

    Raises:
        ValueError: empty dataset, two tracks with the same MMSI, a track
            without a synopsis, or an empty synopsis for a nonempty track.
    """
    if not clean_tracks:
        raise ValueError("empty dataset: no clean tracks to evaluate")
    total_points = 0
    total_critical = 0
    square_sums: list[float] = []
    seen: set[int] = set()
    for track in clean_tracks:
        if track.mmsi in seen:
            raise ValueError(f"two tracks share vessel {track.mmsi}; each needs its own synopsis")
        seen.add(track.mmsi)
        if not track.points:
            continue
        synopsis = synopses.get(track.mmsi)
        if synopsis is None:
            raise ValueError(f"no synopsis for vessel {track.mmsi}")
        if not synopsis:
            raise ValueError(f"empty synopsis for vessel {track.mmsi}")
        times = np.array([p.timestamp for p in track.points], dtype=np.int64)
        lon = np.array([p.lon for p in track.points])
        lat = np.array([p.lat for p in track.points])
        rec_lon, rec_lat = _reconstruct_track(synopsis, times)
        d = haversine_m_vec(lon, lat, rec_lon, rec_lat)
        square_sums.append(float(np.sum(d * d)))
        total_points += len(track.points)
        total_critical += len(synopsis)
    if total_points == 0:
        raise ValueError("empty dataset: tracks contain no points")
    rmse = math.sqrt(math.fsum(square_sums) / total_points)
    return Metrics(
        rmse_m=rmse,
        ratio=total_critical / total_points,
        noiseless_count=total_points,
        critical_count=total_critical,
    )


def evaluate_config(
    clean_tracks: Sequence[VesselTrack],
    cfg: SynopsisConfig,
    segments: Sequence[Sequence[Segment]] | None = None,
) -> Metrics:
    """Compress every clean track with ``cfg`` and measure the result.

    ``segments`` holds ``track_segments(track)`` for each track, in order;
    callers that evaluate many configurations on the same tracks pass it so
    that each track's geometry is computed once (see
    :func:`vesselsyn.synopses.compress_track`).
    """
    per_track = repeat(None) if segments is None else segments
    synopses = {
        track.mmsi: compress_track(track, cfg, geometry)
        for track, geometry in zip(clean_tracks, per_track)
    }
    return compute_metrics(clean_tracks, synopses)
