"""Evolve detection parameters for a small synthetic fleet.

A seeded genetic algorithm searches the eight-dimensional parameter space
for a configuration that beats the defaults on the combined score
``(rmse + r)^n * ratio``.  The run's history gives the population's best and
mean score after each generation; at the end we compare the evolved
configuration against the defaults on the same data.

Run:  python demos/03_tune_fleet.py          (takes a few seconds)
"""

from vesselsyn.evaluation import evaluate_config
from vesselsyn.ga import GaHyperParams, fitness, run_ga
from vesselsyn.synopses import SynopsisConfig
from vesselsyn.synthetic import make_fleet


def main() -> None:
    fleet = make_fleet(500, 3, seed=11)
    hp = GaHyperParams(
        r=10.0,
        n=1.0,
        population_size=30,
        max_generations=15,
        stagnation_limit=15,
        rng_seed=42,
    )
    print(f"tuning on {sum(len(t) for t in fleet)} reports from {len(fleet)} vessels")
    print(f"score = (rmse + {hp.r})^{hp.n} * ratio, lower is better\n")

    evolved, history = run_ga(fleet, hp)
    for row in history:
        print(f"  generation {row.generation:2d}: best {row.best_fitness:8.4f}   mean {row.mean_fitness:9.4f}")

    default_metrics = evaluate_config(fleet, SynopsisConfig())
    evolved_metrics = evaluate_config(fleet, evolved)
    default_score = fitness(default_metrics, hp.r, hp.n)

    print(f"\nstopped after {len(history)} generations")
    print(f"defaults: score {default_score:8.4f}  "
          f"(rmse {default_metrics.rmse_m:7.2f} m, ratio {default_metrics.ratio:.3f})")
    print(f"evolved:  score {history[-1].best_fitness:8.4f}  "
          f"(rmse {evolved_metrics.rmse_m:7.2f} m, ratio {evolved_metrics.ratio:.3f})")
    print("\nevolved configuration:")
    for key, value in evolved.to_dict().items():
        print(f"  {key:>24} = {value}")


if __name__ == "__main__":
    main()
