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

Summation rule: each track's squared distances are summed with
``math.fsum``, and the per-track sums are folded with ``math.fsum``, so the
result does not depend on track order.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import asdict, dataclass
from itertools import repeat
from typing import Mapping, Sequence

from .geo import haversine_m
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
    return _position(synopsis, bisect_left(synopsis, tau, key=lambda cp: cp.timestamp), tau)


def _position(synopsis: Sequence[CriticalPoint], i: int, tau: int) -> tuple[float, float]:
    """Reconstructed lon/lat at ``tau``; ``synopsis[i]`` is the first knot not earlier than it.

    The one reconstruction rule, behind :func:`synchronized_position` and
    :func:`compute_metrics`.  Longitude is wrapped only where it leaves
    [-180, 180], so a track that never crosses the antimeridian gets plain
    linear interpolation, bit for bit.
    """
    if i == len(synopsis):
        return synopsis[-1].lon, synopsis[-1].lat
    b = synopsis[i]
    if i == 0 or b.timestamp == tau:
        return b.lon, b.lat
    a = synopsis[i - 1]
    f = (tau - a.timestamp) / (b.timestamp - a.timestamp)
    dlon = b.lon - a.lon
    if dlon > 180.0:
        dlon -= 360.0
    elif dlon < -180.0:
        dlon += 360.0
    lon = a.lon + f * dlon
    if lon > 180.0:
        lon -= 360.0
    elif lon < -180.0:
        lon += 360.0
    return lon, a.lat + f * (b.lat - a.lat)


def _square_sum(track: VesselTrack, synopsis: Sequence[CriticalPoint]) -> float:
    """``math.fsum`` of each report's squared distance to its reconstruction, in one merge pass."""
    squares = []
    n = len(synopsis)
    i = 0  # the first knot not earlier than the current report
    for p in track.points:
        tau = p.timestamp
        while i < n and synopsis[i].timestamp < tau:
            i += 1
        lon, lat = _position(synopsis, i, tau)
        d = haversine_m(p.lon, p.lat, lon, lat)
        squares.append(d * d)
    return math.fsum(squares)


def compute_metrics(
    clean_tracks: Sequence[VesselTrack],
    synopses: Mapping[int, Sequence[CriticalPoint]],
) -> Metrics:
    """Aggregate ratio and RMSE of a set of synopses over their clean tracks.

    Every clean point of every track enters the error sum, including the
    retained ones (at zero error), and the denominator of the ratio.  The
    sums follow the module's summation rule.

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
        square_sums.append(_square_sum(track, synopsis))
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
