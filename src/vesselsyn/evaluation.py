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
point's contributes exactly 0.0, so it is not measured at all.  Without a
:data:`TuningCache` scoring stores nothing.  With one, a copy of each
interval's squares goes to the cache's memo, keyed by the two knots'
timestamps.  An interval is looked up and stored only where both knots are
the track's reports at their timestamps, coordinates and all, as every
knot :func:`compress_track` emits is: the track's unique timestamps then
fix the knots and the reports between, so the memo is exact for any
synopsis.  The walk finds each knot's report by bisecting the track, except
after a memo hit: the stored interval holds one square per report between
the knots, so the next knot's report lies that many reports further on.

Summation rule: each track's squared distances are summed with
``math.fsum``, and the per-track sums are folded with ``math.fsum``, so the
result does not depend on track order.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import pairwise
from typing import Mapping, NamedTuple, Sequence

from .geo import Velocity, haversine_m
from .ingest import AisRecord, VesselTrack, _timestamp
from .synopses import CriticalPoint, SynopsisConfig, compress_track, track_segments


#: One tuning's cache: each vessel's MMSI maps to its track, the track's
#: ``track_segments`` and its interval memo (two consecutive knots'
#: timestamps to the squared distances of the reports strictly between),
#: which holds only intervals whose two knots are the track's reports.
TuningCache = dict[int, tuple[VesselTrack, list[Velocity], dict[tuple[int, int], list[float]]]]


class Metrics(NamedTuple):
    """Compression quality over one cleaned dataset, as an immutable tuple."""

    rmse_m: float
    ratio: float
    noiseless_count: int
    critical_count: int

    def to_dict(self) -> dict[str, float | int]:
        return self._asdict()


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
    return _interpolated(synopsis[i - 1], b, tau)


def _interpolated(a: CriticalPoint, b: CriticalPoint, tau: int) -> tuple[float, float]:
    """Reconstructed lon/lat at ``tau``, strictly between knots ``a`` and ``b``.

    The one interpolation rule, behind :func:`synchronized_position` and
    :func:`_interval_squares`.  Longitude is wrapped only where it leaves
    [-180, 180], so a track that never crosses the antimeridian gets plain
    linear interpolation, bit for bit.
    """
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


def _interval_squares(
    a: CriticalPoint, b: CriticalPoint, inside: Sequence[AisRecord], squares: list[float]
) -> None:
    """Append the squared distance of each report in ``inside``, all strictly between ``a`` and ``b``.

    Scores one knot interval; a caller that emits ``b`` may call it as soon
    as it does.
    """
    for p in inside:
        lon, lat = _interpolated(a, b, p.timestamp)
        d = haversine_m(p.lon, p.lat, lon, lat)
        squares.append(d * d)


def _square_sum(track: VesselTrack, synopsis: Sequence[CriticalPoint], intervals: dict | None) -> float:
    """``math.fsum`` of each report's squared distance to its reconstruction, interval by interval.

    ``intervals`` is this track's interval memo (see :data:`TuningCache`),
    or None to store nothing.

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
    memo = None  # ``intervals`` while knot ``a`` is the report at its timestamp, coordinates and all
    for b in synopsis:
        if b.timestamp < a.timestamp:
            raise ValueError(f"synopsis of vessel {track.mmsi} goes back in time at {b.timestamp}")
        inside = None if memo is None else memo.get((a.timestamp, b.timestamp))
        k = bisect_left(points, b.timestamp, j, key=_timestamp) if inside is None else j + len(inside)
        p = points[k] if k < len(points) and points[k].timestamp == b.timestamp else None
        own = p is not None and p.lon == b.lon and p.lat == b.lat
        if inside is not None and own:
            squares.extend(inside)
        elif k > j:  # adjacent knots store nothing
            _interval_squares(a, b, points[j:k], squares)
            if memo is not None and own:
                memo[a.timestamp, b.timestamp] = squares[j - k:]  # the interval's k - j squares
        if p is not None:
            k += 1
            if not own:
                d = haversine_m(p.lon, p.lat, b.lon, b.lat)
                squares.append(d * d)
        memo = intervals if own else None
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
        memo = None if cache is None else _cached(cache, track)[2]
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
    for bit, as they are for any synopses :func:`compute_metrics` scores
    with the cache.  Calls on different subsets of one set of tracks, such
    as the folds of :func:`vesselsyn.ga.cross_validate`, may share the
    cache, as long as each MMSI always comes with the same track object.

    Raises:
        ValueError: ``cache`` holds a different track under a track's MMSI,
            or :func:`compute_metrics` rejects the synopses.
    """
    synopses = {
        track.mmsi: compress_track(track, cfg, None if cache is None else _cached(cache, track)[1])
        for track in clean_tracks
    }
    return compute_metrics(clean_tracks, synopses, cache)
