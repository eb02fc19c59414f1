"""Scoring presets per vessel category, and the settings of one tuning run.

Different vessel categories tolerate different trade-offs: a ferry running a
fixed line compresses hard with little error, while a fishing vessel's
meandering needs more retained points.  :data:`FITNESS_PRESETS` holds, per
category, the scoring knobs ``(r, n)`` that ``vesselsyn tune --type`` uses
unless ``--r``/``--n`` are given.  :class:`GaHyperParams` holds a tuning
run's settings, the chosen ``(r, n)`` among them; the command-line interface
builds and checks it without loading :mod:`vesselsyn.ga`, which only ``tune``
imports.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .geo import EARTH_RADIUS_M
from .ingest import _FrozenRecord


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


def _finite(value: float) -> bool:
    """``math.isfinite``, false rather than ``OverflowError`` for an int beyond float range."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


class GaHyperParams(_FrozenRecord):
    """Everything that shapes one tuning run, including the scoring knobs; frozen.

    :mod:`vesselsyn.ga` imports it from here, so ``from vesselsyn.ga import
    GaHyperParams`` works too.
    """

    __slots__ = _fields = ("r", "n", "population_size", "max_generations", "stagnation_limit", "rng_seed")

    def __init__(
        self,
        r: float = 10.0,
        n: float = 1.0,
        population_size: int = 50,
        max_generations: int = 30,
        stagnation_limit: int = 10,
        rng_seed: int = 0,
    ) -> None:
        """Reject values the search cannot run with; each message starts with the field.

        ``r`` and ``n`` must be ints or floats and the four counts ints
        (booleans and numeric strings are neither here).  ``r`` and ``n``
        must keep every score finite, so an int beyond float range is
        refused.  No RMSE exceeds half the Earth's circumference (no two
        points lie farther apart) and the ratio is at most 1, so
        ``(r + pi * EARTH_RADIUS_M) ** n`` bounds the score.
        """
        for name, value in zip(self._fields, (r, n, population_size, max_generations, stagnation_limit, rng_seed)):
            numeric = name in ("r", "n")
            if isinstance(value, bool) or not isinstance(value, (int, float) if numeric else int):
                raise ValueError(f"{name} must be {'a number' if numeric else 'an integer'}, got {value!r}")
            object.__setattr__(self, name, value)
        if not (_finite(self.r) and self.r >= 0):
            raise ValueError(f"r must be finite and >= 0, got {self.r!r}")
        if not (_finite(self.n) and self.n > 0):
            raise ValueError(f"n must be finite and > 0, got {self.n!r}")
        try:
            math.pow(self.r + math.pi * EARTH_RADIUS_M, self.n)
        except OverflowError:
            raise ValueError(f"r and n let the score overflow, got r={self.r!r}, n={self.n!r}") from None
        for name, lowest in (
            ("population_size", 1),
            ("max_generations", 0),
            ("stagnation_limit", 1),
            ("rng_seed", 0),
        ):
            if not getattr(self, name) >= lowest:
                raise ValueError(f"{name} must be >= {lowest}, got {getattr(self, name)!r}")
