"""Tests for synopsis quality metrics: reconstruction error and ratio."""

import bisect
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import vesselsyn
from vesselsyn import evaluation
from vesselsyn.evaluation import (
    Metrics,
    compute_metrics,
    evaluate_config,
    synchronized_position,
)
from vesselsyn.ga import GENE_SPEC, genes_to_config
from vesselsyn.geo import EARTH_RADIUS_M, KNOT_MS, haversine_m
from vesselsyn.ingest import AisRecord, VesselTrack
from vesselsyn.noise import filter_dataset
from vesselsyn.synopses import Annotation, CriticalPoint, SynopsisConfig, compress_track, track_segments
from vesselsyn.synthetic import make_curve_track, make_fleet

from tracks import make_corner_track, make_gap_track, make_slow_motion_track, make_stop_track, make_straight_track


def full_retention(track):
    """A synopsis that keeps every single report."""
    return [CriticalPoint.from_record(p, (Annotation.TRACK_START,)) for p in track.points]


def distance_oracle_m(lon1, lat1, lon2, lat2):
    """Great-circle distance via the atan2 form, independent of the library."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dl = math.radians(lon2 - lon1)
    y = math.hypot(
        math.cos(p2) * math.sin(dl),
        math.cos(p1) * math.sin(p2) - math.sin(p1) * math.cos(p2) * math.cos(dl),
    )
    x = math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(dl)
    return EARTH_RADIUS_M * math.atan2(y, x)


def rmse_oracle_m(track, synopsis):
    """Brute-force reconstruction error, reimplemented from scratch."""
    times = [cp.timestamp for cp in synopsis]
    total = 0.0
    for p in track.points:
        i = bisect.bisect_left(times, p.timestamp)
        if i < len(times) and times[i] == p.timestamp:
            lon, lat = synopsis[i].lon, synopsis[i].lat
        elif i == 0:
            lon, lat = synopsis[0].lon, synopsis[0].lat
        elif i == len(times):
            lon, lat = synopsis[-1].lon, synopsis[-1].lat
        else:
            a, b = synopsis[i - 1], synopsis[i]
            w = (p.timestamp - a.timestamp) / (b.timestamp - a.timestamp)
            lon = a.lon + w * (b.lon - a.lon)
            lat = a.lat + w * (b.lat - a.lat)
        total += distance_oracle_m(p.lon, p.lat, lon, lat) ** 2
    return math.sqrt(total / len(track.points))


def position_oracle(synopsis, i, tau):
    """The library's former per-report reconstruction; ``synopsis[i]`` is the first knot not earlier than ``tau``."""
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


def square_sum_oracle(track, synopsis):
    """The library's former merge walk: every report reconstructed and measured, knots included."""
    squares = []
    n = len(synopsis)
    i = 0  # the first knot not earlier than the current report
    for p in track.points:
        tau = p.timestamp
        while i < n and synopsis[i].timestamp < tau:
            i += 1
        lon, lat = position_oracle(synopsis, i, tau)
        d = haversine_m(p.lon, p.lat, lon, lat)
        squares.append(d * d)
    return math.fsum(squares)


def haversine_m_vec(lon1, lat1, lon2, lat2):
    """The library's former vectorized haversine, kept as an oracle."""
    phi1 = np.radians(lat1)
    phi2 = np.radians(lat2)
    dphi = np.radians(lat2 - lat1)
    dlam = np.radians(lon2 - lon1)
    a = np.sin(dphi / 2.0) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(dlam / 2.0) ** 2
    a = np.minimum(a, 1.0)  # rounding overshoot on near-antipodal pairs
    return 2.0 * EARTH_RADIUS_M * np.arctan2(np.sqrt(a), np.sqrt(1.0 - a))


def reconstruct_track_vec(synopsis, times):
    """The library's former numpy reconstruction of lon/lat at ``times``, kept as an oracle."""
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
    dlon = knot_lon[hi] - knot_lon[lo]
    dlon = np.where(dlon > 180.0, dlon - 360.0, np.where(dlon < -180.0, dlon + 360.0, dlon))
    lon = knot_lon[lo] + f * dlon
    lon = np.where(lon > 180.0, lon - 360.0, np.where(lon < -180.0, lon + 360.0, lon))
    lat = knot_lat[lo] + f * (knot_lat[hi] - knot_lat[lo])

    lon = np.where(exact, knot_lon[idx_clipped], lon)
    lat = np.where(exact, knot_lat[idx_clipped], lat)
    return lon, lat


def metrics_vec_oracle(tracks, synopses):
    """``(rmse_m, ratio)`` as the former numpy ``compute_metrics`` gave them."""
    square_sums = []
    for track in tracks:
        times = np.array([p.timestamp for p in track.points], dtype=np.int64)
        lon = np.array([p.lon for p in track.points])
        lat = np.array([p.lat for p in track.points])
        rec_lon, rec_lat = reconstruct_track_vec(synopses[track.mmsi], times)
        d = haversine_m_vec(lon, lat, rec_lon, rec_lat)
        square_sums.append(float(np.sum(d * d)))
    total = sum(len(t.points) for t in tracks)
    critical = sum(len(synopses[t.mmsi]) for t in tracks)
    return math.sqrt(math.fsum(square_sums) / total), critical / total


ALL_FIXTURES = (
    make_straight_track,
    make_stop_track,
    make_corner_track,
    make_curve_track,
    make_slow_motion_track,
)


@pytest.mark.parametrize("factory", ALL_FIXTURES)
def test_full_retention_gives_exact_identity_metrics(factory):
    track = factory()
    metrics = compute_metrics([track], {track.mmsi: full_retention(track)})
    assert metrics.rmse_m == 0.0
    assert metrics.ratio == 1.0
    assert metrics.noiseless_count == len(track.points)
    assert metrics.critical_count == len(track.points)


def test_synchronized_position_at_knots_is_verbatim():
    track = make_corner_track()
    synopsis = compress_track(track, SynopsisConfig())
    for cp in synopsis:
        assert synchronized_position(synopsis, cp.timestamp) == (cp.lon, cp.lat)


def test_synchronized_position_midpoint():
    synopsis = [
        CriticalPoint(1, 0, 0.0, 0.0, {Annotation.TRACK_START}),
        CriticalPoint(1, 100, 0.2, 0.1, {Annotation.TRACK_END}),
    ]
    lon, lat = synchronized_position(synopsis, 50)
    assert lon == pytest.approx(0.1, rel=1e-12)
    assert lat == pytest.approx(0.05, rel=1e-12)


def test_synchronized_position_clamps_outside_the_synopsis():
    synopsis = [
        CriticalPoint(1, 100, 1.0, 2.0, {Annotation.TRACK_START}),
        CriticalPoint(1, 200, 3.0, 4.0, {Annotation.TRACK_END}),
    ]
    assert synchronized_position(synopsis, 50) == (1.0, 2.0)
    assert synchronized_position(synopsis, 250) == (3.0, 4.0)


def test_rmse_scores_a_report_against_the_knot_at_its_timestamp():
    """A knot need not sit where the report at its timestamp does; the gap counts."""
    points = [AisRecord(1, 60 * i, 0.001 * i, 0.0) for i in range(3)]
    synopsis = [
        CriticalPoint(1, 0, 0.0, 0.0, {Annotation.TRACK_START}),
        CriticalPoint(1, 60, 0.001, 0.01, {Annotation.CHANGE_IN_HEADING}),
        CriticalPoint(1, 120, 0.002, 0.0, {Annotation.TRACK_END}),
    ]
    assert synchronized_position(synopsis, 60) == (0.001, 0.01)
    metrics = compute_metrics([VesselTrack(1, "unknown", points)], {1: synopsis})
    gap = distance_oracle_m(0.001, 0.0, 0.001, 0.01)
    assert gap > 1000.0
    assert metrics.rmse_m == pytest.approx(math.sqrt(gap**2 / 3), rel=1e-9)


def test_importing_the_package_does_not_load_numpy():
    """Neither the package's names nor the command-line interface, which every
    command imports, may pull numpy in; the GA draws from :mod:`vesselsyn.rng`.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(vesselsyn.__file__).resolve().parents[1]))
    code = "import sys, vesselsyn, vesselsyn.cli; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_synchronized_position_rejects_empty_synopsis():
    with pytest.raises(ValueError):
        synchronized_position([], 100)


def test_synchronized_position_rejects_a_synopsis_that_goes_back_in_time():
    """Bisecting these knots would interpolate 0 -> 120 at t=60 and miss the knot there."""
    synopsis = [
        CriticalPoint(7, 0, 0.0, 0.0, {Annotation.TRACK_START}),
        CriticalPoint(7, 120, 2.0, 0.0, {Annotation.CHANGE_IN_HEADING}),
        CriticalPoint(7, 60, 1.0, 1.0, {Annotation.TRACK_END}),
    ]
    with pytest.raises(ValueError, match="vessel 7 goes back in time at 60"):
        synchronized_position(synopsis, 60)


def equatorial_run_across_antimeridian(n_points=20, start_lon=179.97):
    """A 10-kn due-east run along the equator that crosses 180 deg midway."""
    step_deg = 10.0 * KNOT_MS * 60 / (EARTH_RADIUS_M * math.pi / 180.0)
    points = []
    for i in range(n_points):
        lon = start_lon + i * step_deg
        points.append(AisRecord(1, 1_000_000 + 60 * i, lon - 360.0 if lon > 180.0 else lon, 0.0))
    assert points[0].lon > 0.0 > points[-1].lon
    return VesselTrack(1, "unknown", points)


def test_straight_track_reconstructs_essentially_exactly(default_config):
    for track in (make_straight_track(), equatorial_run_across_antimeridian()):
        metrics = evaluate_config([track], default_config)
        assert metrics.critical_count == 2
        assert metrics.ratio == pytest.approx(0.1)
        assert metrics.rmse_m < 0.5
        assert metrics.rmse_m == pytest.approx(0.0, abs=1e-6)


def test_rmse_matches_brute_force_oracle(default_config):
    for factory in (make_corner_track, make_stop_track, make_slow_motion_track):
        track = factory()
        synopsis = compress_track(track, default_config)
        metrics = compute_metrics([track], {track.mmsi: synopsis})
        expected = rmse_oracle_m(track, synopsis)
        assert metrics.rmse_m == pytest.approx(expected, rel=1e-9, abs=1e-9)


def test_ratio_is_critical_over_noiseless(fleet_tracks, default_config):
    synopses = {t.mmsi: compress_track(t, default_config) for t in fleet_tracks}
    metrics = compute_metrics(fleet_tracks, synopses)
    noiseless = sum(len(t.points) for t in fleet_tracks)
    critical = sum(len(s) for s in synopses.values())
    assert metrics.noiseless_count == noiseless == 500
    assert metrics.critical_count == critical
    assert metrics.ratio == critical / noiseless
    assert 0.0 < metrics.ratio <= 1.0


def test_metrics_invariant_under_vessel_relabelling(fleet_tracks, default_config):
    relabelled = [
        VesselTrack(t.mmsi + 1000, t.vessel_type, [replace(p, mmsi=p.mmsi + 1000) for p in t.points])
        for t in fleet_tracks
    ]
    original = evaluate_config(fleet_tracks, default_config)
    shifted = evaluate_config(relabelled, default_config)
    assert shifted.rmse_m == original.rmse_m
    assert shifted.ratio == original.ratio


def test_stricter_heading_threshold_never_compresses_more():
    track = make_curve_track()
    strict = evaluate_config([track], replace(SynopsisConfig(), angle_threshold_deg=2.0))
    loose = evaluate_config([track], replace(SynopsisConfig(), angle_threshold_deg=25.0))
    assert strict.ratio >= loose.ratio
    assert loose.ratio < 0.5  # the smooth curve compresses well at 25 degrees


def test_evaluate_config_equals_compress_then_measure(default_config):
    track = make_slow_motion_track()
    direct = evaluate_config([track], default_config)
    synopsis = compress_track(track, default_config)
    manual = compute_metrics([track], {track.mmsi: synopsis})
    assert direct == manual


def test_evaluate_config_scores_through_compute_metrics(monkeypatch, default_config):
    # One scoring entry: every evaluate_config call, with or without the
    # tuning cache, goes through the module-level compute_metrics once.
    calls = []
    real = evaluation.compute_metrics

    def counting(*args, **kwargs):
        calls.append(args[2] if len(args) > 2 else kwargs.get("cache"))
        return real(*args, **kwargs)

    monkeypatch.setattr(evaluation, "compute_metrics", counting)
    tracks = [make_corner_track(mmsi=1), make_stop_track(mmsi=2)]
    cache = {}
    plain = evaluate_config(tracks, default_config)
    memoized = evaluate_config(tracks, default_config, cache)
    assert plain == memoized
    assert len(calls) == 2 and calls[0] is None and calls[1] is cache
    assert {mmsi: entry[:2] for mmsi, entry in cache.items()} == {t.mmsi: (t, track_segments(t)) for t in tracks}


def test_a_tuning_cache_rejects_another_track_of_a_cached_vessel(default_config):
    # The cache keeps the track it was filled from; any other track object
    # under that MMSI, even an equal copy, would be scored with the first
    # track's geometry and interval memo.
    track = make_corner_track(mmsi=1)
    cache = {}
    cached = evaluate_config([track], default_config, cache)
    copy = VesselTrack(track.mmsi, track.vessel_type, list(track.points))
    for other in (make_stop_track(mmsi=1), copy):
        with pytest.raises(ValueError, match="different track of vessel 1"):
            evaluate_config([other], default_config, cache)
        with pytest.raises(ValueError, match="different track of vessel 1"):
            compute_metrics([other], {1: compress_track(other, default_config)}, cache)
    assert list(cache) == [1] and cache[1][0] is track
    assert evaluate_config([track], default_config, cache) == cached


def test_compute_metrics_rejects_bad_inputs(default_config):
    track = make_straight_track()
    with pytest.raises(ValueError):
        compute_metrics([], {})
    with pytest.raises(ValueError):
        compute_metrics([track], {})  # synopsis missing for the vessel
    with pytest.raises(ValueError):
        compute_metrics([track], {track.mmsi: []})  # empty synopsis
    twin = make_stop_track(mmsi=track.mmsi)
    with pytest.raises(ValueError, match=f"share vessel {track.mmsi}"):
        evaluate_config([track, twin], default_config)  # one MMSI, two synopses


def test_metrics_to_dict():
    metrics = Metrics(12.5, 0.25, 400, 100)
    assert metrics.to_dict() == {
        "rmse_m": 12.5,
        "ratio": 0.25,
        "noiseless_count": 400,
        "critical_count": 100,
    }


# ---------------------------------------------------------------------------
# whole-globe invariance


def _run_pipeline(tracks, cfg):
    """Noise filter, compress and measure: each synopsis as (timestamp, labels), and the metrics."""
    clean, _ = filter_dataset(tracks)
    synopses = {t.mmsi: compress_track(t, cfg) for t in clean}
    layout = {mmsi: [(cp.timestamp, cp.annotations) for cp in cps] for mmsi, cps in synopses.items()}
    return layout, compute_metrics(clean, synopses)


def _moved(tracks, move):
    """``tracks`` with every report's position passed through ``move(lon, lat)``."""
    moved = []
    for t in tracks:
        points = []
        for p in t.points:
            lon, lat = move(p.lon, p.lat)
            points.append(replace(p, lon=lon, lat=lat))
        moved.append(VesselTrack(t.mmsi, t.vessel_type, points))
    return moved


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
@example(seed=11)
def test_mirroring_across_the_equator_keeps_the_synopsis(seed):
    """Mirrored headings come from other trig calls, so only the RMSE may round differently."""
    fleet = make_fleet(500, 3, seed=seed)
    layout, metrics = _run_pipeline(fleet, SynopsisConfig())
    mirrored_layout, mirrored = _run_pipeline(_moved(fleet, lambda lon, lat: (lon, -lat)), SynopsisConfig())
    assert mirrored_layout == layout
    assert mirrored.ratio == metrics.ratio
    assert mirrored.rmse_m == pytest.approx(metrics.rmse_m, rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), offset=st.floats(-180.0, 180.0))
@example(seed=11, offset=-175.5)  # the fleet straddles the antimeridian
@example(seed=11, offset=180.0)
def test_rotating_in_longitude_keeps_the_ratio(seed, offset):
    """Wrapped longitudes round differently, so the RMSE holds to 1e-6 relative."""
    fleet = make_fleet(500, 3, seed=seed)
    _, metrics = _run_pipeline(fleet, SynopsisConfig())
    rotated = _moved(fleet, lambda lon, lat: ((lon + offset + 180.0) % 360.0 - 180.0, lat))
    _, turned = _run_pipeline(rotated, SynopsisConfig())
    assert turned.ratio == metrics.ratio
    assert turned.rmse_m == pytest.approx(metrics.rmse_m, rel=1e-6)


gene_vectors = st.tuples(
    *(
        st.integers(int(g.lower), int(g.upper)).map(float) if g.integer else st.floats(g.lower, g.upper)
        for g in GENE_SPEC
    )
)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), genes=gene_vectors, offset=st.floats(-180.0, 180.0))
@example(seed=11, genes=tuple((g.lower + g.upper) / 2 for g in GENE_SPEC), offset=-175.5)
@example(seed=11, genes=tuple((g.lower + g.upper) / 2 for g in GENE_SPEC), offset=0.0)
def test_compute_metrics_matches_the_numpy_oracle(seed, genes, offset):
    """The scalar merge pass gives the former numpy path's ratio, and its RMSE to 1e-12.

    Trimming each synopsis to its interior also scores reports outside it,
    which clamp to its ends.
    """
    fleet = make_fleet(500, 3, seed=seed)
    rotated = _moved(fleet, lambda lon, lat: ((lon + offset + 180.0) % 360.0 - 180.0, lat))
    clean, _ = filter_dataset(rotated)
    cfg = genes_to_config(genes)
    synopses = {t.mmsi: compress_track(t, cfg) for t in clean}
    trimmed = {mmsi: cps[1:-1] or cps for mmsi, cps in synopses.items()}
    for scored in (synopses, trimmed):
        metrics = compute_metrics(clean, scored)
        rmse, ratio = metrics_vec_oracle(clean, scored)
        assert metrics.ratio == ratio
        assert metrics.rmse_m == pytest.approx(rmse, rel=1e-12)


def _odd_synopses(track, synopsis, pick):
    """``synopsis`` and the odd variants the interval walk must score like the merge walk.

    ``pick`` chooses the knot and the report gap each variant alters.  Every
    variant keeps its knots in time order.
    """

    def moved(cp, dlon, dlat):
        lon = (cp.lon + dlon + 180.0) % 360.0 - 180.0
        return CriticalPoint(cp.mmsi, cp.timestamp, lon, min(max(cp.lat + dlat, -90.0), 90.0), set())

    k = pick % len(synopsis)
    displaced = list(synopsis)
    displaced[k] = moved(synopsis[k], 0.0, -0.02)
    shared = list(synopsis)
    shared.insert(k + 1, moved(synopsis[k], -0.03, 0.01))
    variants = [synopsis, synopsis[1:-1] or synopsis, displaced, shared]
    points = track.points
    gaps = [m for m in range(len(points) - 1) if points[m + 1].timestamp - points[m].timestamp > 1]
    if gaps:
        p = points[gaps[pick % len(gaps)]]
        extra = moved(CriticalPoint(p.mmsi, p.timestamp + 1, p.lon, p.lat, set()), 0.005, 0.005)
        i = bisect.bisect_left([cp.timestamp for cp in synopsis], extra.timestamp)
        variants.append(list(synopsis[:i]) + [extra] + list(synopsis[i:]))
    return variants


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), genes=gene_vectors, offset=st.floats(-180.0, 180.0), pick=st.integers(0, 10_000))
@example(seed=11, genes=tuple((g.lower + g.upper) / 2 for g in GENE_SPEC), offset=-175.5, pick=3)
@example(seed=11, genes=tuple((g.lower + g.upper) / 2 for g in GENE_SPEC), offset=0.0, pick=0)
def test_compute_metrics_equals_the_merge_walk_oracle(seed, genes, offset, pick):
    """The interval walk gives the former merge walk's RMSE bit for bit, on odd synopses too."""
    fleet = make_fleet(500, 3, seed=seed)
    rotated = _moved(fleet, lambda lon, lat: ((lon + offset + 180.0) % 360.0 - 180.0, lat))
    clean, _ = filter_dataset(rotated)
    cfg = genes_to_config(genes)
    per_track = [_odd_synopses(t, compress_track(t, cfg), pick) for t in clean]
    total = sum(len(t.points) for t in clean)
    for v in range(min(len(variants) for variants in per_track)):
        scored = {t.mmsi: variants[v] for t, variants in zip(clean, per_track)}
        expected = math.sqrt(math.fsum(square_sum_oracle(t, scored[t.mmsi]) for t in clean) / total)
        assert compute_metrics(clean, scored).rmse_m == expected


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), genes=gene_vectors, offset=st.floats(-180.0, 180.0), pick=st.integers(0, 10_000))
@example(seed=11, genes=tuple((g.lower + g.upper) / 2 for g in GENE_SPEC), offset=-175.5, pick=3)
def test_synchronized_position_equals_the_oracle(seed, genes, offset, pick):
    """At in-range, knot and clamped times, on odd synopses too."""
    track = _moved(make_fleet(300, 1, seed=seed), lambda lon, lat: ((lon + offset + 180.0) % 360.0 - 180.0, lat))[0]
    for synopsis in _odd_synopses(track, compress_track(track, genes_to_config(genes)), pick):
        times = [cp.timestamp for cp in synopsis]
        queries = [p.timestamp for p in track.points] + times + [times[0] - 7, times[-1] + 7]
        for tau in queries:
            assert synchronized_position(synopsis, tau) == position_oracle(synopsis, bisect.bisect_left(times, tau), tau)


def test_compute_metrics_rejects_a_synopsis_that_goes_back_in_time():
    points = [AisRecord(7, 60 * i, 0.001 * i, 0.001 * (i % 2)) for i in range(4)]
    track = VesselTrack(7, "unknown", points)
    knots = [CriticalPoint.from_record(points[i], ()) for i in (0, 2, 1, 3)]
    with pytest.raises(ValueError, match="vessel 7"):
        compute_metrics([track], {7: knots})
    shared = [CriticalPoint.from_record(points[i], ()) for i in (0, 2, 2, 3)]
    assert compute_metrics([track], {7: shared}).rmse_m > 0.0  # equal timestamps stay allowed


def _knot_intervals(track, synopsis):
    """(t_a, t_b) of each pair of consecutive knots with reports strictly between them."""
    times = [p.timestamp for p in track.points]
    return [
        (a.timestamp, b.timestamp)
        for a, b in zip(synopsis, synopsis[1:])
        if bisect.bisect_left(times, b.timestamp) > bisect.bisect_right(times, a.timestamp)
    ]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), genomes=st.lists(gene_vectors, min_size=2, max_size=4))
@example(seed=7, genomes=[tuple((g.lower + g.upper) / 2 for g in GENE_SPEC), tuple(g.lower for g in GENE_SPEC)])
def test_a_shared_interval_memo_changes_no_metrics(seed, genomes):
    """Calls sharing one memo match memo-free calls, and each knot interval is measured once.

    The memo is keyed by vessel as well as by knot timestamps: the twin
    track has the first one's knot timestamps under the default
    configuration, but one report between two knots moved.  The first
    configuration is scored again at the end, so the memo always hits.
    There the gap track's knots (reports 0, 2, 3 and 5) hit an interval,
    meet adjacent knots, which store nothing, at the very next report, and
    hit the last interval.
    """
    clean, _ = filter_dataset(make_fleet(900, 3, seed=seed))
    base = SynopsisConfig()
    first = clean[0]
    kept = {cp.timestamp for cp in compress_track(first, base)}
    m = next(i for i, p in enumerate(first.points) if p.timestamp not in kept)
    moved = [replace(p, mmsi=p.mmsi + 1000) for p in first.points]
    moved[m] = replace(moved[m], lat=moved[m].lat + 1e-6)
    twin = VesselTrack(first.mmsi + 1000, first.vessel_type, moved)
    assume({cp.timestamp for cp in compress_track(twin, base)} == kept)
    tracks = clean + [twin, make_gap_track(mmsi=1)]
    cfgs = [base] + [genes_to_config(genes) for genes in genomes] + [base]
    cache = {}
    for cfg in cfgs:
        assert evaluate_config(tracks, cfg, cache) == evaluate_config(tracks, cfg)
    scored = [
        (t.mmsi, pair) for cfg in cfgs for t in tracks for pair in _knot_intervals(t, compress_track(t, cfg))
    ]
    stored = [(mmsi, pair) for mmsi, (_, _, memo) in cache.items() for pair in memo]
    assert sorted(stored) == sorted(set(scored))
    assert len(stored) < len(scored)
