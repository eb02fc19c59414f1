"""Acceptance checklist: one test per shipped guarantee.

Each test prints a single ``ACCEPTANCE nn <label>: PASS|FAIL`` line (visible
with ``pytest -s`` or on failure), so a console run reads as a checklist.
Run just this file with ``pytest tests/test_acceptance.py -v``.
"""

import hashlib
import math
import os
import random
import time
from contextlib import contextmanager
from dataclasses import replace

import pytest

from vesselsyn.cli import main
from vesselsyn.evaluation import Metrics, compute_metrics, evaluate_config
from vesselsyn.ga import GaHyperParams, cross_validate, fitness, run_ga
from vesselsyn.geo import haversine_m
from vesselsyn.ingest import partition_tracks, split_k_folds, write_records
from vesselsyn.noise import filter_dataset
from vesselsyn.synopses import (
    Annotation,
    CriticalPoint,
    SynopsisConfig,
    VesselState,
    compress_track,
    finalize_track,
    ingest_point,
)
from vesselsyn.synthetic import make_curve_track, make_fleet, make_mixed_voyage

from rules import speed_change_exceeds
from tracks import (
    make_corner_track,
    make_gap_track,
    make_slow_motion_track,
    make_speed_steps_track,
    make_stop_track,
    make_straight_track,
)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {label}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {label}: PASS")


@contextmanager
def time_budget(seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"took {elapsed:.2f}s, budget {seconds}s"


def layout(track, cfg):
    index = {p.timestamp: i for i, p in enumerate(track.points)}
    return {
        index[cp.timestamp]: {a.value for a in cp.annotations}
        for cp in compress_track(track, cfg)
    }


def test_01_metric_identities_under_full_retention():
    with criterion(1, "full retention gives rmse 0 and ratio 1 exactly"), time_budget(1.0):
        fixtures = [
            make_straight_track(),
            make_stop_track(),
            make_corner_track(),
            make_gap_track(),
            make_speed_steps_track(),
            make_slow_motion_track(),
            make_curve_track(),
            *make_fleet(300, 2, seed=4),
        ]
        for track in fixtures:
            synopsis = [
                CriticalPoint.from_record(p, (Annotation.TRACK_START,)) for p in track.points
            ]
            metrics = compute_metrics([track], {track.mmsi: synopsis})
            assert metrics.rmse_m == 0.0
            assert metrics.ratio == 1.0


def test_02_great_circle_distance_oracle():
    with criterion(2, "distance arc value, symmetry and triangle inequality"), time_budget(5.0):
        assert haversine_m(0.0, 0.0, 1.0, 0.0) == pytest.approx(111194.93, abs=0.01)

        rng = random.Random(101)
        for _ in range(10_000):
            lon1, lat1 = rng.uniform(-180, 180), rng.uniform(-90, 90)
            lon2, lat2 = rng.uniform(-180, 180), rng.uniform(-90, 90)
            d_ab = haversine_m(lon1, lat1, lon2, lat2)
            d_ba = haversine_m(lon2, lat2, lon1, lat1)
            assert d_ab == pytest.approx(d_ba, rel=1e-6, abs=1e-9)

        for _ in range(10_000):
            a = (rng.uniform(-180, 180), rng.uniform(-90, 90))
            b = (rng.uniform(-180, 180), rng.uniform(-90, 90))
            c = (rng.uniform(-180, 180), rng.uniform(-90, 90))
            direct = haversine_m(*a, *c)
            detour = haversine_m(*a, *b) + haversine_m(*b, *c)
            assert direct <= detour * (1 + 1e-6) + 1e-9


def test_03_event_detection_fixtures_match_hand_oracles():
    with criterion(3, "hand-simulated event fixtures reproduced exactly"), time_budget(1.0):
        cfg = SynopsisConfig()
        assert layout(make_straight_track(), cfg) == {
            0: {"trackStart"},
            19: {"trackEnd"},
        }
        assert layout(make_stop_track(), cfg) == {
            0: {"trackStart"},
            5: {"stopStart"},
            15: {"stopEnd"},
            19: {"trackEnd"},
        }
        assert layout(make_corner_track(), cfg) == {
            0: {"trackStart"},
            9: {"changeInHeading"},
            19: {"trackEnd"},
        }
        assert layout(make_gap_track(), cfg) == {
            0: {"trackStart"},
            2: {"gapStart"},
            3: {"gapEnd"},
            5: {"trackEnd"},
        }


def test_04_speed_change_rule_matches_independent_formula():
    with criterion(4, "speed deviation rule agrees with direct arithmetic"), time_budget(1.0):
        rng = random.Random(202)
        triples = [(0.0, rng.uniform(0, 30), rng.uniform(0.01, 0.8)) for _ in range(10)]
        triples += [
            (rng.uniform(0.01, 30), rng.uniform(0, 30), rng.uniform(0.01, 0.8))
            for _ in range(90)
        ]
        for v_now, v_mean, ratio in triples:
            if v_now == 0.0:
                expected = False  # motionless reports never signal a speed change
            else:
                expected = abs((v_now - v_mean) / v_now) > ratio
            assert speed_change_exceeds(v_now, v_mean, ratio) == expected


def test_05_fitness_arithmetic():
    with criterion(5, "scoring formula spot value and degenerate identities"):
        spot = fitness(Metrics(13.0, 0.1, 1000, 100), r=17.0, n=0.8)
        assert spot == pytest.approx(1.5204, abs=1e-3)
        metrics = Metrics(57.3, 0.42, 1000, 420)
        assert fitness(metrics, r=99.0, n=0.0) == 0.42
        assert fitness(metrics, r=0.0, n=1.7) == math.pow(57.3, 1.7) * 0.42


def test_06_ga_desk_scale_sanity():
    with criterion(6, "seeded tuning run improves on the default config"), time_budget(120.0):
        fleet = make_fleet(500, 3, seed=11)
        hp = GaHyperParams(
            r=10.0,
            n=1.0,
            population_size=30,
            max_generations=15,
            stagnation_limit=15,
            rng_seed=42,
        )
        _, history = run_ga(fleet, hp)
        best_so_far = [row.best_fitness for row in history]
        assert all(b <= a + 1e-12 for a, b in zip(best_so_far, best_so_far[1:]))
        default_score = fitness(evaluate_config(fleet, SynopsisConfig()), hp.r, hp.n)
        assert best_so_far[-1] <= default_score


def test_07_redundant_motion_compresses_to_a_few_points():
    with criterion(7, "straight cruise keeps at most five percent of points"), time_budget(1.0):
        track = make_straight_track(n_points=100)
        metrics = evaluate_config([track], SynopsisConfig())
        assert metrics.ratio <= 0.05
        assert metrics.rmse_m < 0.5


def test_08_tune_is_byte_deterministic(tmp_path, monkeypatch):
    with criterion(8, "repeated tuning runs produce byte-identical trees"):
        voyages = [
            make_mixed_voyage(120, mmsi=111, seed=3),
            make_mixed_voyage(130, mmsi=222, seed=4),
        ]
        args = [
            "tune",
            "--input", "input.csv",
            "--type", "cargo",
            "--k", "2",
            "--seed", "7",
            "--population", "6",
            "--generations", "3",
            "--stagnation", "3",
            "--out", "tuned",
        ]
        trees = []
        for name in ("first", "second"):
            workdir = tmp_path / name
            workdir.mkdir()
            with open(workdir / "input.csv", "w", encoding="utf-8") as fh:
                for voyage in voyages:
                    write_records(
                        [replace(p, vessel_type="cargo") for p in voyage.points], fh
                    )
            monkeypatch.chdir(workdir)
            assert main(args) == 0
            tree = {}
            for root, _, files in os.walk(workdir / "tuned"):
                for fname in files:
                    full = os.path.join(root, fname)
                    rel = os.path.relpath(full, workdir / "tuned")
                    with open(full, "rb") as fh:
                        tree[rel] = hashlib.sha256(fh.read()).hexdigest()
            trees.append(tree)
        assert trees[0] == trees[1]
        assert "manifest.json" in trees[0]
        assert any(rel.startswith("fold_0") for rel in trees[0])


def test_09_cross_validation_fold_hygiene():
    with criterion(9, "folds are disjoint, whole-track and balanced"):
        rng = random.Random(5)
        tracks = make_fleet(600, 4, seed=9)
        tracks += [make_mixed_voyage(rng.randrange(40, 90), mmsi=900 + i, seed=i) for i in range(4)]
        k = 4
        folds = split_k_folds(tracks, k)
        mmsis = [sorted(t.mmsi for t in fold) for fold in folds]
        flat = [m for fold in mmsis for m in fold]
        assert len(flat) == len(set(flat)), "a vessel appears in two folds"
        assert sorted(flat) == sorted(t.mmsi for t in tracks)
        sizes = [sum(len(t) for t in fold) for fold in folds]
        assert max(sizes) - min(sizes) <= max(len(t) for t in tracks)


def test_10_pipeline_never_mutates_its_input_records():
    with criterion(10, "no stage writes to the reports it is given"), time_budget(30.0):
        records = [p for t in make_fleet(600, 4, seed=9) for p in t.points]
        records.append(replace(records[10], lon=records[10].lon + 1.0))  # repeated timestamp
        records.append(replace(records[20], timestamp=records[20].timestamp + 1, lat=records[20].lat + 0.5))
        random.Random(3).shuffle(records)

        def snapshot():
            return [(r.mmsi, r.timestamp, r.lon, r.lat, r.vessel_type) for r in records]

        before = snapshot()

        clean, rejected = filter_dataset(partition_tracks(records))
        assert rejected >= 1
        cfg = SynopsisConfig()
        compute_metrics(clean, {t.mmsi: compress_track(t, cfg) for t in clean})
        states = {t.mmsi: VesselState() for t in clean}
        for p in sorted((p for t in clean for p in t.points), key=lambda p: (p.timestamp, p.mmsi)):
            ingest_point(states[p.mmsi], p, cfg)
        for state in states.values():
            finalize_track(state)
        cross_validate(clean, 2, GaHyperParams(population_size=4, max_generations=2, rng_seed=1))

        assert snapshot() == before


BREST_ENV = "VESSELSYN_BREST_CSV"


@pytest.mark.skipif(
    not os.environ.get(BREST_ENV),
    reason=f"integration run against real AIS data: set {BREST_ENV} to a CSV of "
    "mmsi,timestamp,lon,lat[,vessel_type] rows (integer Unix seconds, decimal degrees), "
    "with or without a line 1 naming those columns, to enable; the Brest nari_dynamic.csv "
    "(sourcemmsi,...,lon,lat,t) is not in this layout, and its header exits 2 until the "
    "reader learns it",
)
def test_full_dataset_integration_smoke():
    """Optional end-to-end run against a real AIS extract (ignored by default)."""
    from vesselsyn.ingest import load_records, partition_tracks
    from vesselsyn.noise import filter_dataset

    records, _ = load_records(os.environ[BREST_ENV])
    assert records, "dataset parsed to nothing"
    tracks, _ = filter_dataset(partition_tracks(records))
    metrics = evaluate_config(tracks, SynopsisConfig())
    # Real traffic is highly redundant; defaults should compress it well.
    assert metrics.ratio < 0.5
    assert metrics.rmse_m < 1000.0
