"""Regression tests for the bundled scoring presets and tuned configurations."""

from vesselsyn.presets import FITNESS_PRESETS, TUNED_CONFIGS
from vesselsyn.synopses import Annotation, SynopsisConfig, compress_track
from vesselsyn.synthetic import make_straight_track


def test_fitness_presets_frozen_values():
    expected = {
        "passenger": (17.0, 0.8, 30.0, 0.10),
        "unknown": (10.0, 1.0, 15.0, 0.15),
        "fishing": (17.0, 0.7, 30.0, 0.30),
        "tug": (2.0, 1.6, 15.0, 0.15),
        "cargo": (13.0, 0.8, 30.0, 0.10),
        "military": (10.0, 1.4, 15.0, 0.15),
    }
    assert set(FITNESS_PRESETS) == set(expected)
    for name, (r, n, rmse_thr, ratio_thr) in expected.items():
        preset = FITNESS_PRESETS[name]
        assert preset.name == name
        assert preset.r == r
        assert preset.n == n
        assert preset.rmse_threshold_m == rmse_thr
        assert preset.ratio_threshold == ratio_thr


def test_tuned_configs_frozen_values():
    # (angle, buffer, gap, timespan, no_speed, low_speed, ratio, distance)
    expected = {
        "default": (4.0, 5, 1800.0, 3600.0, 0.5, 5.0, 0.25, 50.0),
        "passenger": (10.71, 50, 200.0, 2750.0, 2.0, 4.58, 0.63, 76.51),
        "unknown": (17.58, 21, 400.0, 1500.0, 1.52, 1.02, 0.01, 44.45),
        "fishing": (18.99, 3, 200.0, 3550.0, 0.41, 0.61, 0.01, 23.97),
        "tug": (4.96, 29, 450.0, 2300.0, 0.84, 6.06, 0.01, 2.0),
        "cargo": (17.5, 3, 2500.0, 1750.0, 0.81, 0.82, 0.01, 15.12),
        "military": (11.68, 3, 2600.0, 4800.0, 0.88, 0.45, 0.01, 22.96),
    }
    assert set(TUNED_CONFIGS) == set(expected)
    for name, values in expected.items():
        cfg = TUNED_CONFIGS[name]
        assert (
            cfg.angle_threshold_deg,
            cfg.buffer_size,
            cfg.gap_period_s,
            cfg.historical_timespan_s,
            cfg.no_speed_threshold_kn,
            cfg.low_speed_threshold_kn,
            cfg.speed_ratio,
            cfg.distance_threshold_m,
        ) == values, name


def test_tuned_configs_are_valid_and_serializable():
    for name, cfg in TUNED_CONFIGS.items():
        assert SynopsisConfig.from_dict(cfg.to_dict()) == cfg, name


def test_military_config_disables_slow_motion_by_threshold_order():
    cfg = TUNED_CONFIGS["military"]
    assert cfg.low_speed_threshold_kn <= cfg.no_speed_threshold_kn


def test_every_tuned_config_compresses_a_simple_track():
    track = make_straight_track()
    for name, cfg in TUNED_CONFIGS.items():
        synopsis = compress_track(track, cfg)
        assert synopsis, name
        assert Annotation.TRACK_START in synopsis[0].annotations
        assert Annotation.TRACK_END in synopsis[-1].annotations


def test_preset_names_align_with_tuned_configs():
    assert set(FITNESS_PRESETS) == set(TUNED_CONFIGS) - {"default"}
