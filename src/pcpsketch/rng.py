"""Seeded randomness.

Every random draw in the package flows through Philox, a counter-based
64-bit generator, so identical seeds reproduce identical bits within a
build (cross-language bit-exactness is not a goal).  Independent streams
are split off a master seed with SeedSequence spawn keys: the stream for
an operation is (seed, stream_id, *extra), where stream_id comes from the
registry below.  Keeping the registry package-wide guarantees that two
different operations called with the same seed never share a stream; in
particular a synthetic matrix and a sketch of it drawn with equal seeds
stay statistically independent.

A batch of like random objects (the JL trials) takes one stream, not one
per element: its elements are drawn from it in order, so element i of a
batch is the same in any longer batch with the same seed.  Philox is
counter-based (Salmon et al., SC 2011), which makes each element's place
in the stream its reproducible identity, without a ``SeedSequence`` per
element.
"""

from __future__ import annotations

import enum

import numpy as np

_MASK64 = (1 << 64) - 1


class Stream(enum.IntEnum):
    """Registry of stream ids; append only, never renumber.  Ids 1 and
    12-14 (the retired random subspaces and probe families) are never
    reused."""

    GAUSSIAN_SKETCH = 2
    ORTHOGONAL_SKETCH = 3
    NON_OBLIVIOUS = 4
    LEVERAGE_SAMPLE = 5
    RIDGE_SAMPLE = 6
    JL_TRIAL = 7
    LLOYD = 8
    GEN_LOWRANK = 9
    GEN_CLUSTERED = 10
    GEN_POWERLAW = 11
    BENCH_TRIAL = 15
    HARNESS = 16


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """Generator for the stream (seed, *key).  Same arguments, same bits."""
    ss = np.random.SeedSequence(int(seed) & _MASK64, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def derive_seed(seed: int, *key: int) -> int:
    """64-bit child seed for (seed, *key), for interfaces that take a plain seed."""
    ss = np.random.SeedSequence(int(seed) & _MASK64, spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])
