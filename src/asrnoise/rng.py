"""Seed derivation and counter-based draws.

A plan's draws are pure functions of (seed, position) (:func:`uniforms_at`),
so plans stay bit-identical when the sequence grows and shards can be
sampled in any order.  A sampled span draws instead from its own numpy
generator, seeded by :func:`derive_seed` of its sentence's seed and its
position, one uniform per token in order.  No global RNG state leaks between
pipeline stages.
"""
from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(x: int) -> int:
    """SplitMix64 finalizer over a 64-bit integer."""
    x &= _MASK
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK
    return x ^ (x >> 31)


def derive_seed(seed: int, *parts: int) -> int:
    """Fold integer salts into a seed, one mixing round per part."""
    s = mix64(seed ^ _GOLDEN)
    for p in parts:
        s = mix64(s ^ mix64(p & _MASK))
    return s


def uniforms_at(seed: int, positions) -> np.ndarray:
    """Uniform [0, 1) draws indexed by position, vectorized.

    The draw at a given position depends only on (seed, position), never on
    neighbouring positions or on how many draws are requested.
    """
    pos = np.asarray(positions, dtype=np.uint64)
    base = np.uint64(mix64(seed ^ _GOLDEN))
    with np.errstate(over="ignore"):
        x = base + (pos + np.uint64(1)) * np.uint64(_GOLDEN)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(_MIX1)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(_MIX2)
        x = x ^ (x >> np.uint64(31))
    return (x >> np.uint64(11)).astype(np.float64) * (2.0**-53)

