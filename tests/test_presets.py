"""Regression tests for the bundled scoring presets."""

from vesselsyn.presets import FITNESS_PRESETS


def test_fitness_presets_frozen_values():
    expected = {
        "passenger": (17.0, 0.8),
        "unknown": (10.0, 1.0),
        "fishing": (17.0, 0.7),
        "tug": (2.0, 1.6),
        "cargo": (13.0, 0.8),
        "military": (10.0, 1.4),
    }
    assert {name: (p.r, p.n) for name, p in FITNESS_PRESETS.items()} == expected
