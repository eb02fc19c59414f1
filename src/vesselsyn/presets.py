"""Ready-made scoring presets and tuned configurations per vessel category.

Different vessel categories tolerate different trade-offs: a ferry running a
fixed line compresses hard with little error, while a fishing vessel's
meandering needs more retained points.  :data:`FITNESS_PRESETS` captures, per
category, the scoring knobs ``(r, n)`` together with the quality thresholds
the tuned result is expected to meet.  :data:`TUNED_CONFIGS` ships
cross-validated detection configurations per category as a starting point
when no training data is at hand.
"""

from __future__ import annotations

from dataclasses import dataclass

from .synopses import SynopsisConfig


@dataclass(frozen=True)
class FitnessPreset:
    """Scoring knobs and acceptance thresholds for one vessel category."""

    name: str
    r: float
    n: float
    rmse_threshold_m: float
    ratio_threshold: float


FITNESS_PRESETS: dict[str, FitnessPreset] = {
    p.name: p
    for p in (
        FitnessPreset("passenger", r=17.0, n=0.8, rmse_threshold_m=30.0, ratio_threshold=0.10),
        FitnessPreset("unknown", r=10.0, n=1.0, rmse_threshold_m=15.0, ratio_threshold=0.15),
        FitnessPreset("fishing", r=17.0, n=0.7, rmse_threshold_m=30.0, ratio_threshold=0.30),
        FitnessPreset("tug", r=2.0, n=1.6, rmse_threshold_m=15.0, ratio_threshold=0.15),
        FitnessPreset("cargo", r=13.0, n=0.8, rmse_threshold_m=30.0, ratio_threshold=0.10),
        FitnessPreset("military", r=10.0, n=1.4, rmse_threshold_m=15.0, ratio_threshold=0.15),
    )
}

#: Cross-validated per-category detection parameters.  "default" is the
#: untuned baseline configuration.
TUNED_CONFIGS: dict[str, SynopsisConfig] = {
    "default": SynopsisConfig(),
    "passenger": SynopsisConfig(
        angle_threshold_deg=10.71,
        buffer_size=50,
        gap_period_s=200.0,
        historical_timespan_s=2750.0,
        no_speed_threshold_kn=2.0,
        low_speed_threshold_kn=4.58,
        speed_ratio=0.63,
        distance_threshold_m=76.51,
    ),
    "unknown": SynopsisConfig(
        angle_threshold_deg=17.58,
        buffer_size=21,
        gap_period_s=400.0,
        historical_timespan_s=1500.0,
        no_speed_threshold_kn=1.52,
        low_speed_threshold_kn=1.02,
        speed_ratio=0.01,
        distance_threshold_m=44.45,
    ),
    "fishing": SynopsisConfig(
        angle_threshold_deg=18.99,
        buffer_size=3,
        gap_period_s=200.0,
        historical_timespan_s=3550.0,
        no_speed_threshold_kn=0.41,
        low_speed_threshold_kn=0.61,
        speed_ratio=0.01,
        distance_threshold_m=23.97,
    ),
    "tug": SynopsisConfig(
        angle_threshold_deg=4.96,
        buffer_size=29,
        gap_period_s=450.0,
        historical_timespan_s=2300.0,
        no_speed_threshold_kn=0.84,
        low_speed_threshold_kn=6.06,
        speed_ratio=0.01,
        distance_threshold_m=2.0,
    ),
    "cargo": SynopsisConfig(
        angle_threshold_deg=17.5,
        buffer_size=3,
        gap_period_s=2500.0,
        historical_timespan_s=1750.0,
        no_speed_threshold_kn=0.81,
        low_speed_threshold_kn=0.82,
        speed_ratio=0.01,
        distance_threshold_m=15.12,
    ),
    "military": SynopsisConfig(
        angle_threshold_deg=11.68,
        buffer_size=3,
        gap_period_s=2600.0,
        historical_timespan_s=4800.0,
        no_speed_threshold_kn=0.88,
        low_speed_threshold_kn=0.45,
        speed_ratio=0.01,
        distance_threshold_m=22.96,
    ),
}
