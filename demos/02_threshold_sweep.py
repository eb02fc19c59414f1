"""Sweep detection thresholds to see the compression / fidelity trade-off.

Two one-dimensional sweeps on synthetic fixtures:

* the heading threshold against a smoothly curving track — small thresholds
  keep nearly every point of the curve, large ones let it go;
* the speed-deviation ratio against a voyage with bursts of acceleration —
  the stricter the ratio, the more speed events are bracketed.

Run:  python demos/02_threshold_sweep.py
"""

from vesselsyn.evaluation import evaluate_config
from vesselsyn.synopses import SynopsisConfig
from vesselsyn.synthetic import make_curve_track, make_mixed_voyage


def sweep(track, field, values):
    print(f"{field:>22}    ratio    rmse_m")
    for value in values:
        cfg = SynopsisConfig()._replace(**{field: value})
        metrics = evaluate_config([track], cfg)
        print(f"{value:>22}    {metrics.ratio:.3f}    {metrics.rmse_m:8.2f}")
    print()


def main() -> None:
    curve = make_curve_track()
    print(f"heading threshold on a smooth {len(curve.points)}-point curve "
          "(3 degrees of turn per report):")
    sweep(curve, "angle_threshold_deg", [2.0, 4.0, 10.0, 25.0])

    voyage = make_mixed_voyage(400, seed=23)
    print(f"speed-deviation ratio on a {len(voyage.points)}-point mixed voyage:")
    sweep(voyage, "speed_ratio", [0.05, 0.15, 0.25, 0.5, 0.8])

    print("reading the tables: a lower ratio means a smaller synopsis; the "
          "error that buys is the rmse column.")


if __name__ == "__main__":
    main()
