"""Tests for the evolutionary parameter tuner and its operators."""

import math
from dataclasses import replace

import numpy as np
import pytest

from vesselsyn import ga
from vesselsyn.evaluation import Metrics, evaluate_config
from vesselsyn.geo import EARTH_RADIUS_M
from vesselsyn.ga import (
    GENE_SPEC,
    CrossValidationResult,
    GaHyperParams,
    cross_validate,
    fitness,
    gaussian_mutate,
    genes_to_config,
    run_ga,
    single_point_crossover,
    tournament_select,
    uniform_genome,
)
from vesselsyn.ingest import split_k_folds
from vesselsyn.rng import Pcg64
from vesselsyn.synopses import SynopsisConfig, track_segments
from vesselsyn.synthetic import make_fleet

from tracks import make_corner_track, make_slow_motion_track, make_speed_steps_track, make_stop_track

TINY_HP = GaHyperParams(
    population_size=8,
    max_generations=4,
    stagnation_limit=4,
    rng_seed=5,
)


def tiny_dataset():
    return [
        make_corner_track(mmsi=101),
        make_speed_steps_track(mmsi=102),
        make_slow_motion_track(mmsi=103),
        make_stop_track(mmsi=104),
    ]


# ---------------------------------------------------------------------------
# fitness arithmetic


def test_fitness_spot_value():
    # (13 + 17)^0.8 * 0.1, computed independently.
    metrics = Metrics(13.0, 0.1, 1000, 100)
    expected = math.pow(30.0, 0.8) * 0.1
    assert fitness(metrics, r=17.0, n=0.8) == pytest.approx(expected, rel=1e-12)
    assert fitness(metrics, r=17.0, n=0.8) == pytest.approx(1.5204, abs=1e-3)


def test_fitness_degenerate_identities():
    metrics = Metrics(42.0, 0.37, 1000, 370)
    # n = 0 collapses the error term entirely.
    assert fitness(metrics, r=13.0, n=0.0) == 0.37
    # r = 0 scores the raw error.
    assert fitness(metrics, r=0.0, n=1.3) == math.pow(42.0, 1.3) * 0.37


def test_fitness_is_monotone_in_both_metrics():
    base = fitness(Metrics(20.0, 0.2, 100, 20), r=10.0, n=1.0)
    assert fitness(Metrics(25.0, 0.2, 100, 20), r=10.0, n=1.0) > base
    assert fitness(Metrics(20.0, 0.3, 100, 30), r=10.0, n=1.0) > base


@pytest.mark.parametrize(
    "name, value",
    [
        ("r", -1.0),
        ("r", math.inf),
        ("n", 0.0),
        ("n", math.nan),
        ("population_size", 0),
        ("max_generations", -1),
        ("stagnation_limit", 0),
        ("rng_seed", -1),
    ],
)
def test_hyper_params_reject_out_of_range_values(name, value):
    with pytest.raises(ValueError, match=f"^{name} "):
        GaHyperParams(**{name: value})


def test_hyper_params_keep_the_worst_score_finite():
    worst = Metrics(math.pi * EARTH_RADIUS_M, 1.0, 10, 10)
    assert math.isfinite(fitness(worst, r=0.0, n=GaHyperParams(r=0.0, n=42.0).n))
    with pytest.raises(ValueError, match="overflow"):
        GaHyperParams(r=0.0, n=43.0)


# ---------------------------------------------------------------------------
# gene vector mapping


def test_gene_spec_matches_config_fields():
    spec = GENE_SPEC
    assert [g.name for g in spec] == [
        "angle_threshold_deg",
        "buffer_size",
        "gap_period_s",
        "historical_timespan_s",
        "no_speed_threshold_kn",
        "low_speed_threshold_kn",
        "speed_ratio",
        "distance_threshold_m",
    ]
    buffer_gene = spec[1]
    assert buffer_gene.integer
    assert all(g.lower < g.upper for g in spec)


def test_genes_config_roundtrip():
    genes = [7.25, 11.0, 1800.0, 3600.0, 0.5, 5.0, 0.25, 50.0]
    cfg = genes_to_config(genes)
    assert cfg == SynopsisConfig(angle_threshold_deg=7.25, buffer_size=11)
    assert [float(getattr(cfg, gene.name)) for gene in GENE_SPEC] == genes


def test_genes_to_config_rounds_integer_genes():
    genes = [4.0, 5.0, 1800.0, 3600.0, 0.5, 5.0, 0.25, 50.0]
    genes[1] = 5.4
    assert genes_to_config(genes).buffer_size == 5
    genes[1] = 5.6
    assert genes_to_config(genes).buffer_size == 6


def test_genes_to_config_rejects_wrong_length():
    with pytest.raises(ValueError):
        genes_to_config([1.0, 2.0])


def test_uniform_individual_respects_bounds():
    rng = np.random.default_rng(7)
    for _ in range(200):
        genome = uniform_genome(rng)
        assert isinstance(genome, tuple)
        for gene, value in zip(GENE_SPEC, genome):
            assert gene.lower <= value <= gene.upper
            if gene.integer:
                assert value == int(value)


# ---------------------------------------------------------------------------
# selection


def _first_gene(genome):
    return genome[0]


def test_tournament_prefers_low_fitness_at_known_rate():
    # With 3 distinct contestants drawn without replacement from 10, the
    # single best genome wins 3/10 of all tournaments in expectation.
    population = [(float(i),) for i in range(1, 11)]
    rng = np.random.default_rng(123)
    wins = sum(
        1 for _ in range(10_000) if tournament_select(population, _first_gene, rng) == (1.0,)
    )
    assert wins / 10_000 == pytest.approx(0.3, abs=0.02)


def test_tournament_of_whole_population_always_returns_best():
    population = [(9.0, 1.0), (3.0, 2.0), (7.0, 3.0)]
    rng = np.random.default_rng(11)
    for _ in range(100):
        assert tournament_select(population, _first_gene, rng) == (3.0, 2.0)


def test_tournament_rejects_bad_populations():
    with pytest.raises(ValueError):
        tournament_select([], _first_gene, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# crossover


def test_crossover_splices_at_one_interior_point():
    a = (0.0,) * 8
    b = (1.0,) * 8
    rng = np.random.default_rng(17)
    for _ in range(100):
        c1, c2 = single_point_crossover(a, b, rng)
        assert len(c1) == len(c2) == 8
        assert c1[0] == 0.0 and c2[0] == 1.0  # cut is never 0
        assert c1[-1] == 1.0 and c2[-1] == 0.0  # nor past the end
        for g1, g2 in zip(c1, c2):
            assert {g1, g2} == {0.0, 1.0}
        flips = sum(1 for x, y in zip(c1, c1[1:]) if x != y)
        assert flips == 1


def test_crossover_requires_matching_lengths():
    with pytest.raises(ValueError):
        single_point_crossover((1.0,) * 8, (1.0,) * 7, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# mutation


def test_mutation_clamps_to_bounds_and_keeps_integers_integral():
    rng = np.random.default_rng(29)
    at_upper = tuple(float(g.upper) for g in GENE_SPEC)
    for _ in range(500):
        mutated = gaussian_mutate(at_upper, rng)
        assert isinstance(mutated, tuple)
        for gene, value in zip(GENE_SPEC, mutated):
            assert gene.lower <= value <= gene.upper
            if gene.integer:
                assert value == int(value)


def test_mutation_noise_is_centred():
    # Mutations of mid-range genes should average out to zero within the
    # usual three-standard-error band, and touch half the genes.  A gene is
    # perturbed with probability 1/2 by noise of scale 10% of its range, so
    # its change has standard deviation sigma / sqrt(2).
    centres = [(g.lower + g.upper) / 2.0 for g in GENE_SPEC]
    rng = np.random.default_rng(77)
    genome = tuple(centres)
    n = 20_000
    changes = np.array([gaussian_mutate(genome, rng) for _ in range(n)]) - centres
    assert np.mean(changes != 0.0) == pytest.approx(0.5, abs=0.01)
    for gene, column in zip(GENE_SPEC, changes.T):
        sigma = 0.1 * (gene.upper - gene.lower)
        assert abs(column.mean()) < 3 * sigma / math.sqrt(2 * n)


# ---------------------------------------------------------------------------
# the GA's generator: each operator gives what numpy's generator gives


def _both(seed):
    return Pcg64(seed), np.random.default_rng(seed)


@pytest.mark.parametrize("seed", [0, 3, 2**40])
def test_uniform_genome_equals_numpy_draws(seed):
    ours, theirs = _both(seed)
    for _ in range(200):
        assert uniform_genome(ours) == uniform_genome(theirs)


@pytest.mark.parametrize("seed", [0, 3, 2**40])
def test_tournament_select_equals_numpy_draws(seed):
    ours, theirs = _both(seed)
    for size in (1, 2, 3, 7, 50):
        population = [(float((i * 7) % size),) for i in range(size)]
        for _ in range(100):
            picked = tournament_select(population, _first_gene, ours)
            assert picked == tournament_select(population, _first_gene, theirs)


@pytest.mark.parametrize("seed", [0, 3, 2**40])
def test_single_point_crossover_equals_numpy_draws(seed):
    ours, theirs = _both(seed)
    for n_genes in (2, 3, 8):
        a, b = (0.0,) * n_genes, tuple(range(1, n_genes + 1))
        for _ in range(100):
            assert single_point_crossover(a, b, ours) == single_point_crossover(a, b, theirs)


@pytest.mark.parametrize("seed", [0, 3, 2**40])
def test_gaussian_mutate_equals_numpy_draws(seed):
    ours, theirs = _both(seed)
    mine = numpys = tuple(float(g.upper) for g in GENE_SPEC)
    for _ in range(300):
        mine, numpys = gaussian_mutate(mine, ours), gaussian_mutate(numpys, theirs)
        assert mine == numpys


# ---------------------------------------------------------------------------
# whole runs


def test_run_ga_is_deterministic_for_a_seed(monkeypatch):
    data = tiny_dataset()
    config1, history1 = run_ga(data, TINY_HP)
    config2, history2 = run_ga(data, TINY_HP)
    assert config1 == config2
    assert history1 == history2

    # The tuning cache run_ga keeps per run scores every genome exactly as
    # plain evaluation does.
    fleet = make_fleet(600, 3, seed=7)
    reused = run_ga(fleet, TINY_HP)
    monkeypatch.setattr(ga, "evaluate_config", lambda tracks, cfg, _cache: evaluate_config(tracks, cfg))
    plain = run_ga(fleet, TINY_HP)
    assert plain == reused


def test_run_ga_equals_a_run_on_numpys_generator(monkeypatch):
    fleet = make_fleet(600, 3, seed=7)
    ours = run_ga(fleet, TINY_HP)
    monkeypatch.setattr("vesselsyn.rng.Pcg64", np.random.default_rng)
    assert run_ga(fleet, TINY_HP) == ours


def test_run_ga_best_is_monotone_and_evaluated():
    config, history = run_ga(tiny_dataset(), TINY_HP)
    assert isinstance(config, SynopsisConfig)
    fits = [row.best_fitness for row in history]
    assert all(b <= a + 1e-12 for a, b in zip(fits, fits[1:]))
    assert history[0].generation == 0
    assert [row.generation for row in history] == list(range(len(history)))


def test_run_ga_config_rescores_to_the_last_best():
    # The returned config, scored afresh on the training tracks without the
    # run's memos, gives exactly the history's final best score.
    fleet = make_fleet(600, 3, seed=7)
    config, history = run_ga(fleet, TINY_HP)
    rescored = fitness(evaluate_config(fleet, config), TINY_HP.r, TINY_HP.n)
    assert rescored == history[-1].best_fitness


def test_run_ga_population_stays_within_bounds(monkeypatch):
    # Every gene vector the run scores passes through genes_to_config.
    seen = []

    def recording(genes):
        seen.append(list(genes))
        return genes_to_config(genes)

    monkeypatch.setattr(ga, "genes_to_config", recording)
    run_ga(tiny_dataset(), TINY_HP)
    assert len(seen) > TINY_HP.population_size, "offspring were never scored"
    for genes in seen:
        for gene, value in zip(GENE_SPEC, genes):
            assert gene.lower <= value <= gene.upper
            if gene.integer:
                assert value == int(value)


def test_run_ga_stops_on_stagnation():
    # With a patience of one the run ends at the first generation whose best
    # does not improve: every earlier generation improved strictly, and the
    # elite carries the best unchanged into the last one.
    hp = GaHyperParams(population_size=6, max_generations=50, stagnation_limit=1, rng_seed=7)
    _, history = run_ga(tiny_dataset(), hp)
    fits = [row.best_fitness for row in history]
    assert 3 <= len(fits) <= hp.max_generations
    assert all(b < a for a, b in zip(fits[:-1], fits[1:-1]))
    assert fits[-1] == fits[-2]


def test_run_ga_rejects_empty_dataset():
    with pytest.raises(ValueError):
        run_ga([], TINY_HP)


# ---------------------------------------------------------------------------
# cross validation


def test_cross_validate_fold_hygiene_and_determinism():
    data = tiny_dataset()
    hp = GaHyperParams(population_size=6, max_generations=2, stagnation_limit=2, rng_seed=9)
    result = cross_validate(data, 2, hp)
    assert isinstance(result, CrossValidationResult)
    assert len(result.folds) == 2
    all_mmsis = {t.mmsi for t in data}
    for fold in result.folds:
        train, test = set(fold.train_mmsis), set(fold.test_mmsis)
        assert train and test
        assert train.isdisjoint(test)
        assert train | test == all_mmsis
    assert {m for fold in result.folds for m in fold.test_mmsis} == all_mmsis
    scores = [fold.test_score for fold in result.folds]
    assert result.chosen_index == scores.index(min(scores))
    assert result.chosen.config == result.folds[result.chosen_index].config

    again = cross_validate(data, 2, hp)
    assert [f.config for f in again.folds] == [f.config for f in result.folds]
    assert again.chosen_index == result.chosen_index


def test_cross_validate_propagates_split_errors():
    data = tiny_dataset()
    with pytest.raises(ValueError):
        cross_validate(data, len(data) + 1, TINY_HP)


def test_cross_validate_folds_share_caches_as_fresh_runs_would_score(monkeypatch):
    # Every fold's training and held-out scoring get the one tuning cache,
    # and each fold returns what a stand-alone run and a plain evaluation
    # with a fresh cache return.
    data = make_fleet(900, 4, seed=3)
    hp = GaHyperParams(population_size=6, max_generations=3, stagnation_limit=3, rng_seed=2)
    caches = []

    def recording(tracks, cfg, cache):
        caches.append(cache)
        return evaluate_config(tracks, cfg, cache)

    monkeypatch.setattr(ga, "evaluate_config", recording)
    result = cross_validate(data, 3, hp)
    monkeypatch.undo()
    cache = caches[0]
    assert all(c is cache for c in caches)
    assert {mmsi: entry[:2] for mmsi, entry in cache.items()} == {t.mmsi: (t, track_segments(t)) for t in data}
    assert all(cache[t.mmsi][0] is t for t in data)
    folds = split_k_folds(data, 3)
    for i, fold in enumerate(result.folds):
        train = [t for j, f in enumerate(folds) if j != i for t in f]
        config, history = run_ga(train, replace(hp, rng_seed=hp.rng_seed + i))
        assert (fold.config, fold.history) == (config, tuple(history))
        assert fold.test_metrics == evaluate_config(folds[i], config)


def test_cross_validate_rejects_two_tracks_of_one_vessel():
    # Each fold's caches are keyed by MMSI; two tracks of one vessel in
    # different folds would share them.
    data = tiny_dataset() + [make_corner_track(mmsi=999), make_stop_track(mmsi=999)]
    with pytest.raises(ValueError, match="share a vessel"):
        cross_validate(data, 2, TINY_HP)
