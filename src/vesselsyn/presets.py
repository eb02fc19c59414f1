"""Scoring presets per vessel category.

Different vessel categories tolerate different trade-offs: a ferry running a
fixed line compresses hard with little error, while a fishing vessel's
meandering needs more retained points.  :data:`FITNESS_PRESETS` holds, per
category, the scoring knobs ``(r, n)`` that ``vesselsyn tune --type`` uses
unless ``--r``/``--n`` are given.
"""

from __future__ import annotations

from typing import NamedTuple


class FitnessPreset(NamedTuple):
    """Scoring knobs for one vessel category, an immutable tuple; see ``fitness`` in :mod:`vesselsyn.ga`."""

    r: float
    n: float


FITNESS_PRESETS: dict[str, FitnessPreset] = {
    "passenger": FitnessPreset(r=17.0, n=0.8),
    "unknown": FitnessPreset(r=10.0, n=1.0),
    "fishing": FitnessPreset(r=17.0, n=0.7),
    "tug": FitnessPreset(r=2.0, n=1.6),
    "cargo": FitnessPreset(r=13.0, n=0.8),
    "military": FitnessPreset(r=10.0, n=1.4),
}
