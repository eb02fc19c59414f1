"""The pure-Python PCG64 against ``numpy.random.default_rng``, bit for bit."""

import random

import numpy as np
import pytest

from vesselsyn.rng import _KI, Pcg64

SEEDS = [0, 1, 2, 3, 5, 7, 42, 2**32 + 5, 2**64 + 3, 2**100 + 1]


class Recording(Pcg64):
    """A :class:`Pcg64` that logs its raw 64-bit and 32-bit draws."""

    __slots__ = ("raw64", "raw32")

    def __init__(self, seed):
        super().__init__(seed)
        self.raw64 = []
        self.raw32 = []

    def _next64(self):
        value = super()._next64()
        self.raw64.append(value)
        return value

    def _next32(self):
        value = super()._next32()
        self.raw32.append(value)
        return value


@pytest.mark.parametrize("seed", SEEDS)
def test_raw_stream_matches_pcg64(seed):
    ours = Recording(seed)
    theirs = np.random.PCG64(seed)
    for _ in range(50):
        ours._next64()
    assert ours.raw64 == [int(v) for v in theirs.random_raw(50)]


def _script(seed, n):
    """``n`` calls of the five kinds, with arguments drawn by a separate stream."""
    plan = random.Random(seed)
    calls = []
    for _ in range(n):
        kind = plan.randrange(8)
        if kind == 0:
            calls.append(("random", (), {}))
        elif kind == 1:
            low = plan.uniform(-1e3, 1e3)
            calls.append(("uniform", (low, low + plan.uniform(0.0, 1e4)), {}))
        elif kind == 2:
            low = plan.randrange(-100, 100)
            width = plan.choice([1, 2, 3, 7, 48, 1000, 2**31 + 1, 2**32])
            calls.append(("integers", (low, low + width), {}))
        elif kind == 3:
            a = plan.randrange(1, 60)
            calls.append(("choice", (a,), {"size": plan.randrange(0, a + 1), "replace": False}))
        else:
            calls.append(("normal", (plan.uniform(-50.0, 50.0), plan.choice([0.0, 0.1, 1.0, 480.0])), {}))
    return calls


def _plain(value):
    if isinstance(value, np.ndarray):
        return [int(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    return float(value).hex() if isinstance(value, float) else value


@pytest.mark.parametrize("seed", SEEDS)
def test_interleaved_calls_match_numpy(seed):
    ours = Pcg64(seed)
    theirs = np.random.default_rng(seed)
    for i, (name, args, kwargs) in enumerate(_script(seed, 3000)):
        got = _plain(getattr(ours, name)(*args, **kwargs))
        want = _plain(getattr(theirs, name)(*args, **kwargs))
        assert got == want, f"call {i}: {name}{args} {kwargs}"


def test_normals_hit_every_layer_the_wedges_and_the_tail():
    # Each normal's first 64-bit draw picks a layer (its low 8 bits) and a
    # magnitude; above the layer's ki bound it goes to the wedge test, or in
    # layer 0 to the tail.  Layer 1's bound is 0, so it always takes the wedge.
    n = 100_000
    ours = Recording(11)
    theirs = np.random.default_rng(11)
    layers = set()
    wedges = wedge_rejections = tails = 0
    for _ in range(n):
        ours.raw64.clear()
        got = ours.normal(0.0, 1.0)
        assert got.hex() == float(theirs.normal(0.0, 1.0)).hex()
        first = ours.raw64[0]
        idx, rabs = first & 0xFF, first >> 9 & 0x000FFFFFFFFFFFFF
        layers.add(idx)
        if rabs >= _KI[idx]:
            if idx == 0:
                tails += 1
            else:
                wedges += 1
                wedge_rejections += len(ours.raw64) > 2
    assert layers == set(range(256))
    assert wedges > 1000 and wedge_rejections > 200
    assert tails > 10


def test_bounded_integers_run_lemire_rejection():
    # For 2**31 + 1 values the rejection threshold is 2**31 - 1, so about
    # half of the 32-bit draws are rejected and drawn again.
    ours = Recording(4)
    theirs = np.random.default_rng(4)
    n = 2000
    for _ in range(n):
        assert ours.integers(0, 2**31 + 1) == int(theirs.integers(0, 2**31 + 1))
    assert len(ours.raw32) > n * 1.8
    # The 32-bit draws take both halves of each 64-bit output, low half first.
    assert len(ours.raw64) == (len(ours.raw32) + 1) // 2
    assert ours.raw32[:2] == [ours.raw64[0] & 0xFFFFFFFF, ours.raw64[0] >> 32]


def test_a_single_value_range_draws_nothing():
    ours = Recording(8)
    assert [ours.integers(4, 5) for _ in range(10)] == [4] * 10
    assert ours.raw64 == []


def test_large_population_choice_matches_numpy_floyd_draws():
    # Beyond 10,000 items numpy samples by Floyd's method up to a fiftieth.
    ours = Pcg64(9)
    theirs = np.random.default_rng(9)
    for size in (3, 400):
        want = _plain(theirs.choice(20_000, size=size, replace=False))
        assert ours.choice(20_000, size=size, replace=False) == want


@pytest.mark.parametrize(
    "call",
    [
        lambda rng: rng.integers(5, 5),
        lambda rng: rng.integers(0, 2**32 + 1),
        lambda rng: rng.choice(3, size=4, replace=False),
        lambda rng: rng.choice(3, size=2, replace=True),
        lambda rng: rng.choice(20_000, size=401, replace=False),
        lambda rng: rng.normal(0.0, -1.0),
        lambda rng: Pcg64(-1),
    ],
    ids=[
        "empty_range",
        "range_past_32_bits",
        "oversized_sample",
        "with_replacement",
        "tail_shuffle",
        "negative_scale",
        "negative_seed",
    ],
)
def test_unsupported_calls_raise(call):
    with pytest.raises(ValueError):
        call(Pcg64(0))
