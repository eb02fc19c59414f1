"""Evolutionary search for detection parameters that compress well.

A configuration is scored on a cleaned dataset by compressing it, measuring
reconstruction error and retention, and combining the two into a single
minimization target::

    score = (rmse_m + r) ** n * ratio

The offset ``r`` (metres) keeps worthless "keep everything" solutions from
winning on error alone, and the exponent ``n`` trades error against
compression: more aggressive compression needs a larger ``n`` to stay
attractive.  The caller picks ``(r, n)``; ``vesselsyn tune`` takes the
vessel type's pair from :data:`vesselsyn.presets.FITNESS_PRESETS` unless
``--r``/``--n`` are given.

The search itself is a plain generational GA: tournament selection,
single-point crossover, per-gene Gaussian mutation, one elite survivor, and
early stopping when the best score stops improving.  All randomness flows
from one seeded :class:`vesselsyn.rng.Pcg64`, which draws the PCG64 stream
that ``numpy.random.default_rng(seed)`` would draw, so runs are exactly
reproducible and no command loads numpy.  The operators take the generator
as an argument and use only numpy's call forms, so a numpy ``Generator``
seeded alike gives them the same results.
:func:`cross_validate` runs one GA per held-out fold and keeps the
configuration that tested best.

A run's settings, :class:`GaHyperParams`, live in :mod:`vesselsyn.presets`
and are imported here under the same name.  The command-line interface
imports this module only when ``tune`` runs, so no other command compiles it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .evaluation import Metrics, TuningCache, evaluate_config
from .ingest import VesselTrack, split_k_folds
from .presets import GaHyperParams
from .synopses import SynopsisConfig

if TYPE_CHECKING:
    from .rng import Pcg64


class Gene(NamedTuple):
    """Bounds and kind of one tunable parameter, as an immutable tuple."""

    name: str
    lower: float
    upper: float
    integer: bool = False


#: The search space: the eight detection parameters with their bounds.
GENE_SPEC: tuple[Gene, ...] = (
    Gene("angle_threshold_deg", 2.0, 25.0),
    Gene("buffer_size", 3, 50, integer=True),
    Gene("gap_period_s", 200.0, 5000.0),
    Gene("historical_timespan_s", 300.0, 5000.0),
    Gene("no_speed_threshold_kn", 0.05, 2.0),
    Gene("low_speed_threshold_kn", 0.05, 8.0),
    Gene("speed_ratio", 0.01, 0.8),
    Gene("distance_threshold_m", 2.0, 100.0),
)

#: Operator settings, fixed for every run: contestants per tournament, the
#: chances that a parent pair is crossed and that a child is mutated, the
#: chance that mutation perturbs each gene, and the mutation noise scale as a
#: fraction of the gene's range.
TOURNAMENT_SIZE = 3
CROSSOVER_PROB = 0.4
MUTATION_PROB = 0.8
PER_GENE_PROB = 0.5
SIGMA_FRACTION = 0.1


#: A candidate parameter vector, genes in :data:`GENE_SPEC` order.  Tuples are
#: immutable, so one genome may sit in several population slots; the
#: operators build new genomes.  Scores live in :func:`run_ga`'s memo.
Genome = tuple[float, ...]


class GenerationStats(NamedTuple):
    """One history row, an immutable tuple: the state of the population after a generation."""

    generation: int
    best_fitness: float
    mean_fitness: float
    best_rmse: float
    best_ratio: float


def fitness(metrics: Metrics, r: float, n: float) -> float:
    """Score a measured compression result; lower is better."""
    return math.pow(metrics.rmse_m + r, n) * metrics.ratio


def genes_to_config(genes: Sequence[float]) -> SynopsisConfig:
    """Interpret a gene vector as a detection configuration."""
    if len(genes) != len(GENE_SPEC):
        raise ValueError(f"expected {len(GENE_SPEC)} genes, got {len(genes)}")
    kwargs = {}
    for gene, value in zip(GENE_SPEC, genes):
        kwargs[gene.name] = int(round(value)) if gene.integer else float(value)
    return SynopsisConfig(**kwargs)


def uniform_genome(rng: Pcg64) -> Genome:
    """Sample one genome uniformly within the :data:`GENE_SPEC` bounds."""
    return tuple(
        float(rng.integers(int(gene.lower), int(gene.upper) + 1))
        if gene.integer
        else float(rng.uniform(gene.lower, gene.upper))
        for gene in GENE_SPEC
    )


def tournament_select(
    population: Sequence[Genome], score: Callable[[Genome], float], rng: Pcg64
) -> Genome:
    """Pick the lowest-scoring of :data:`TOURNAMENT_SIZE` distinct uniformly drawn genomes.

    Contestants are drawn without replacement within one tournament (capped
    at the population size); separate tournaments draw independently.  The
    first drawn of several equal scores wins.

    Raises:
        ValueError: empty population.
    """
    if not population:
        raise ValueError("cannot select from an empty population")
    k = min(TOURNAMENT_SIZE, len(population))
    picks = rng.choice(len(population), size=k, replace=False)
    return min((population[int(i)] for i in picks), key=score)


def single_point_crossover(a: Genome, b: Genome, rng: Pcg64) -> tuple[Genome, Genome]:
    """Swap gene tails at one uniformly chosen interior cut point."""
    n_genes = len(a)
    if len(b) != n_genes:
        raise ValueError("parents must have the same gene count")
    if n_genes < 2:
        raise ValueError("crossover needs at least 2 genes")
    cut = int(rng.integers(1, n_genes))
    return a[:cut] + b[cut:], b[:cut] + a[cut:]


def gaussian_mutate(genome: Genome, rng: Pcg64) -> Genome:
    """Perturb each gene with probability :data:`PER_GENE_PROB` by bounded Gaussian noise.

    The noise scale is :data:`SIGMA_FRACTION` of the gene's range.  Results
    are clamped to the :data:`GENE_SPEC` bounds; integer genes are rounded
    after clamping, so they stay both integral and in range.
    """
    genes = list(genome)
    for i, gene in enumerate(GENE_SPEC):
        if rng.random() >= PER_GENE_PROB:
            continue
        sigma = SIGMA_FRACTION * (gene.upper - gene.lower)
        value = genes[i] + rng.normal(0.0, sigma)
        value = min(max(value, gene.lower), gene.upper)
        if gene.integer:
            value = float(round(value))
        genes[i] = value
    return tuple(genes)


def run_ga(
    clean_tracks: Sequence[VesselTrack],
    hp: GaHyperParams,
    cache: TuningCache | None = None,
) -> tuple[SynopsisConfig, list[GenerationStats]]:
    """Evolve detection parameters against a cleaned training dataset.

    Generation 0 is sampled uniformly within the :data:`GENE_SPEC` bounds.
    Each later generation selects parents by tournament, pairs them, applies
    crossover with probability :data:`CROSSOVER_PROB` (copies otherwise) and
    mutation with probability :data:`MUTATION_PROB`, then re-inserts the
    previous best unchanged (elitism of one).  The run stops after
    ``hp.max_generations`` generations or once the best score has not
    improved for ``hp.stagnation_limit`` consecutive generations.

    Identical inputs, hyper-parameters and seed reproduce the run exactly.
    Each genome's score and metrics are held once, in a memo kept for the
    run.  Every evaluation shares one :data:`vesselsyn.evaluation.TuningCache`,
    so each track's segment velocities and each knot interval's squared
    distances are computed once; the metrics are the same bit for bit.

    Args:
        clean_tracks: the training dataset, already noise-filtered.
        hp: hyper-parameters, including the scoring ``r`` and ``n``.
        cache: the tuning cache; a fresh one when left out.  Runs over
            tracks of one set may share it.

    Returns:
        The best configuration found and the per-generation history.  The
        elite carries the best genome into every generation, so its score is
        ``history[-1].best_fitness``.
    """
    if not clean_tracks:
        raise ValueError("empty training set")
    # Imported here: a caller that only maps genes or scores configs needs
    # none of the generator's code and tables compiled.
    from .rng import Pcg64

    rng = Pcg64(hp.rng_seed)
    memo: dict[Genome, tuple[float, Metrics]] = {}
    cache = {} if cache is None else cache

    def score(genome: Genome) -> float:
        hit = memo.get(genome)
        if hit is None:
            metrics = evaluate_config(clean_tracks, genes_to_config(genome), cache)
            hit = memo[genome] = (fitness(metrics, hp.r, hp.n), metrics)
        return hit[0]

    population = [uniform_genome(rng) for _ in range(hp.population_size)]
    history: list[GenerationStats] = []

    def record(generation: int) -> Genome:
        """Score the population in order and log it; return its first best genome."""
        scores = [score(genome) for genome in population]
        best_score = min(scores)
        best = population[scores.index(best_score)]
        metrics = memo[best][1]
        history.append(
            GenerationStats(
                generation=generation,
                best_fitness=best_score,
                mean_fitness=sum(scores) / len(scores),
                best_rmse=metrics.rmse_m,
                best_ratio=metrics.ratio,
            )
        )
        return best

    elite = record(0)
    stagnant = 0

    for generation in range(1, hp.max_generations + 1):
        parents = [tournament_select(population, score, rng) for _ in range(hp.population_size)]
        offspring: list[Genome] = []
        for i in range(0, len(parents) - 1, 2):
            a, b = parents[i], parents[i + 1]
            if rng.random() < CROSSOVER_PROB:
                a, b = single_point_crossover(a, b, rng)
            offspring.extend((a, b))
        if len(parents) % 2 == 1:
            offspring.append(parents[-1])
        for i, child in enumerate(offspring):
            if rng.random() < MUTATION_PROB:
                offspring[i] = gaussian_mutate(child, rng)
        population = [elite] + offspring[: hp.population_size - 1]

        # The elite comes first, so it stays the best unless a child beats it.
        elite = record(generation)
        if history[-1].best_fitness < history[-2].best_fitness:
            stagnant = 0
        else:
            stagnant += 1
            if stagnant >= hp.stagnation_limit:
                break

    return genes_to_config(elite), history


class FoldResult(NamedTuple):
    """Outcome of tuning on all-but-one fold and testing on the held-out one.

    An immutable tuple; its ``index`` field shadows ``tuple.index``.
    """

    index: int
    train_mmsis: tuple[int, ...]
    test_mmsis: tuple[int, ...]
    config: SynopsisConfig
    test_metrics: Metrics
    test_score: float
    history: tuple[GenerationStats, ...]

    @property
    def train_fitness(self) -> float:
        """The config's score on the training folds: the last generation's best."""
        return self.history[-1].best_fitness


class CrossValidationResult(NamedTuple):
    """The folds' results and the chosen fold's index, as an immutable tuple."""

    folds: tuple[FoldResult, ...]
    chosen_index: int

    @property
    def chosen(self) -> FoldResult:
        return self.folds[self.chosen_index]


def cross_validate(tracks: Sequence[VesselTrack], k: int, hp: GaHyperParams) -> CrossValidationResult:
    """k-fold tuning: train a GA per held-out fold, keep the best tester.

    Folds hold whole tracks (see :func:`vesselsyn.ingest.split_k_folds`).
    Fold ``i`` trains with seed ``hp.rng_seed + i`` so folds are independent
    yet the whole procedure stays reproducible.  The winner is the fold
    configuration with the lowest score on its own held-out data (lowest
    fold index on ties).  Each fold keeps the configuration :func:`run_ga`
    returned, its GA history (whose last best score is the fold's
    ``train_fitness``) and its held-out metrics and score.

    Every track trains in k - 1 folds and is tested in one, so one tuning
    cache, keyed by MMSI, serves every fold's :func:`run_ga` and held-out
    scoring; each fold's result is the one a run with a fresh cache gives.

    Raises:
        ValueError: the split fails (see :func:`split_k_folds`), or two
            tracks share an MMSI.
    """
    folds = split_k_folds(tracks, k)
    if len({track.mmsi for track in tracks}) != len(tracks):
        raise ValueError("two tracks share a vessel; each track needs its own MMSI")
    cache: TuningCache = {}
    results: list[FoldResult] = []
    for i, test_fold in enumerate(folds):
        train = [t for j, fold in enumerate(folds) if j != i for t in fold]
        cfg, history = run_ga(train, hp._replace(rng_seed=hp.rng_seed + i), cache)
        test_metrics = evaluate_config(test_fold, cfg, cache)
        results.append(
            FoldResult(
                index=i,
                train_mmsis=tuple(t.mmsi for t in train),
                test_mmsis=tuple(t.mmsi for t in test_fold),
                config=cfg,
                test_metrics=test_metrics,
                test_score=fitness(test_metrics, hp.r, hp.n),
                history=tuple(history),
            )
        )
    chosen = min(range(k), key=lambda i: (results[i].test_score, i))
    return CrossValidationResult(folds=tuple(results), chosen_index=chosen)
