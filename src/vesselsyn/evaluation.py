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
last report.  A query at a critical point's timestamp returns that point.

Scoring walks each track knot interval by knot interval: the reports
strictly between two consecutive critical points are measured against the
line between them (:func:`_interval_squares`), and the report at a critical
point's timestamp against that point.  A report whose coordinates equal that
point's contributes exactly 0.0, so it is not measured at all.  Each
interval's squares go to a memo keyed by the two knots' timestamps, which
lives for one track unless the caller keeps a :data:`TuningCache`.  The memo
is exact only for synopses whose knots are the track's own reports, whose
unique timestamps fix the knots and the reports between.  The walk finds
each knot's report by bisecting the track, except after a memo hit: the
stored interval holds one square per report between the knots, so the next
knot's report lies that many reports further on.

Summation rule: each track's squared distances are summed with
``math.fsum``, and the per-track sums are folded with ``math.fsum``, so the
result does not depend on track order.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import asdict, dataclass
from itertools import pairwise
from typing import Iterable, Iterator, Mapping, Sequence

from .geo import Velocity, haversine_m
from .ingest import AisRecord, VesselTrack, _timestamp
from .synopses import CriticalPoint, SynopsisConfig, compress_track, track_segments


#: One tuning's cache: each vessel's MMSI maps to its track, the track's
#: ``track_segments`` and its interval memo (two consecutive knots'
#: timestamps to the squared distances of the reports strictly between).
TuningCache = dict[int, tuple[VesselTrack, list[Velocity], dict[tuple[int, int], list[float]]]]


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

    Exact critical timestamps return the stored coordinates verbatim (the
    first of several sharing one); times between two critical points
    interpolate linearly; times outside the synopsis range clamp to the first
    or last retained position.

    Raises:
        ValueError: for an empty synopsis, or one that goes back in time.
    """
    if not synopsis:
        raise ValueError("cannot reconstruct from an empty synopsis")
    for a, b in pairwise(synopsis):
        if b.timestamp < a.timestamp:
            raise ValueError(f"synopsis of vessel {b.mmsi} goes back in time at {b.timestamp}")
    i = bisect_left(synopsis, tau, key=_timestamp)
    if i == len(synopsis):
        return synopsis[-1].lon, synopsis[-1].lat
    b = synopsis[i]
    if i == 0 or b.timestamp == tau:
        return b.lon, b.lat
    return next(_interpolated(synopsis[i - 1], b, (tau,)))


def _interpolated(a: CriticalPoint, b: CriticalPoint, times: Iterable[int]) -> Iterator[tuple[float, float]]:
    """Reconstructed lon/lat at each of ``times``, all strictly between knots ``a`` and ``b``.

    The one interpolation rule, behind :func:`synchronized_position` and
    :func:`_interval_squares`.  The pair's constants are computed once.
    Longitude is wrapped only where it leaves [-180, 180], so a track that
    never crosses the antimeridian gets plain linear interpolation, bit for
    bit.
    """
    t0 = a.timestamp
    span = b.timestamp - t0
    lon0 = a.lon
    lat0 = a.lat
    dlon = b.lon - lon0
    if dlon > 180.0:
        dlon -= 360.0
    elif dlon < -180.0:
        dlon += 360.0
    dlat = b.lat - lat0
    for tau in times:
        f = (tau - t0) / span
        lon = lon0 + f * dlon
        if lon > 180.0:
            lon -= 360.0
        elif lon < -180.0:
            lon += 360.0
        yield lon, lat0 + f * dlat


def _interval_squares(
    a: CriticalPoint, b: CriticalPoint, inside: Sequence[AisRecord], squares: list[float]
) -> None:
    """Append the squared distance of each report in ``inside``, all strictly between ``a`` and ``b``.

    Scores one knot interval; a caller that emits ``b`` may call it as soon
    as it does.
    """
    for p, (lon, lat) in zip(inside, _interpolated(a, b, map(_timestamp, inside))):
        d = haversine_m(p.lon, p.lat, lon, lat)
        squares.append(d * d)


def _square_sum(track: VesselTrack, synopsis: Sequence[CriticalPoint], intervals: dict) -> float:
    """``math.fsum`` of each report's squared distance to its reconstruction, interval by interval.

    ``intervals`` is this track's interval memo (see :data:`TuningCache`).

    Raises:
        ValueError: the synopsis goes back in time.
    """
    points = track.points
    squares: list[float] = []
    a = synopsis[0]
    j = bisect_left(points, a.timestamp, key=_timestamp)
    for p in points[:j]:  # before the synopsis: clamped to its first knot
        d = haversine_m(p.lon, p.lat, a.lon, a.lat)
        squares.append(d * d)
    for b in synopsis:
        if b.timestamp < a.timestamp:
            raise ValueError(f"synopsis of vessel {track.mmsi} goes back in time at {b.timestamp}")
        inside = intervals.get((a.timestamp, b.timestamp))
        if inside is not None:
            k = j + len(inside)
            squares.extend(inside)
        else:
            k = bisect_left(points, b.timestamp, j, key=_timestamp)
            if k > j:  # adjacent knots store nothing
                inside = intervals[a.timestamp, b.timestamp] = []
                _interval_squares(a, b, points[j:k], inside)
                squares.extend(inside)
        if k < len(points) and points[k].timestamp == b.timestamp:
            p = points[k]
            k += 1
            if p.lon != b.lon or p.lat != b.lat:
                d = haversine_m(p.lon, p.lat, b.lon, b.lat)
                squares.append(d * d)
        j = k
        a = b
    for p in points[j:]:  # after the synopsis: clamped to its last knot
        d = haversine_m(p.lon, p.lat, a.lon, a.lat)
        squares.append(d * d)
    return math.fsum(squares)


def _cached(cache: TuningCache, track: VesselTrack) -> tuple[VesselTrack, list[Velocity], dict]:
    """``cache``'s entry for ``track``, filled on first sight; another track under its MMSI raises ValueError."""
    entry = cache.get(track.mmsi)
    if entry is None:
        entry = cache[track.mmsi] = (track, track_segments(track), {})
    elif entry[0] is not track:
        raise ValueError(f"the tuning cache holds a different track of vessel {track.mmsi}")
    return entry


def compute_metrics(
    clean_tracks: Sequence[VesselTrack],
    synopses: Mapping[int, Sequence[CriticalPoint]],
    cache: TuningCache | None = None,
) -> Metrics:
    """Aggregate ratio and RMSE of a set of synopses over their clean tracks.

    Every clean point of every track enters the error sum, including the
    retained ones (at zero error), and the denominator of the ratio.  The
    sums follow the module's summation rule.

    Synopses are keyed by MMSI, so each track must have its own.
    ``cache`` is the optional :data:`TuningCache` of :func:`evaluate_config`.

    Raises:
        ValueError: empty dataset, two tracks with the same MMSI, a track
            without a synopsis, an empty synopsis for a nonempty track, a
            synopsis that goes back in time, or a ``cache`` that holds a
            different track under one of the MMSIs.
    """
    if not clean_tracks:
        raise ValueError("empty dataset: no clean tracks to evaluate")
    total_points = 0
    total_critical = 0
    track_sums: list[float] = []
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
        memo = {} if cache is None else _cached(cache, track)[2]
        track_sums.append(_square_sum(track, synopsis, memo))
        total_points += len(track.points)
        total_critical += len(synopsis)
    if total_points == 0:
        raise ValueError("empty dataset: tracks contain no points")
    rmse = math.sqrt(math.fsum(track_sums) / total_points)
    return Metrics(
        rmse_m=rmse,
        ratio=total_critical / total_points,
        noiseless_count=total_points,
        critical_count=total_critical,
    )


def evaluate_config(
    clean_tracks: Sequence[VesselTrack], cfg: SynopsisConfig, cache: TuningCache | None = None
) -> Metrics:
    """Compress every clean track with ``cfg`` and measure the result.

    A caller that evaluates many configurations on the same tracks keeps
    one :data:`TuningCache` and passes it to every call.  The first call
    that sees a track fills its entry; later calls reuse the track's segment
    velocities (see :func:`vesselsyn.synopses.compress_track`) and measure
    only the knot intervals its memo lacks.  The metrics are the same bit
    for bit: every knot :func:`compress_track` emits is one of the track's
    own reports.  Calls on different subsets of one set of tracks, such as
    the folds of :func:`vesselsyn.ga.cross_validate`, may share the cache,
    as long as each MMSI always comes with the same track object.

    Raises:
        ValueError: ``cache`` holds a different track under a track's MMSI,
            or :func:`compute_metrics` rejects the synopses.
    """
    synopses = {
        track.mmsi: compress_track(track, cfg, None if cache is None else _cached(cache, track)[1])
        for track in clean_tracks
    }
    return compute_metrics(clean_tracks, synopses, cache)
