"""Seed derivation and counter-based draws.

Every draw of corruption is one uniform of :func:`uniforms_at`: a pure
function of the sentence's seed (:func:`derive_seed` of the run seed and the
sentence's index) and a counter.  A plan's draw at position k takes counter
k; a sampled span's draw at step t of the span replacing position k takes
counter ``(k + 1) * 2**32 + t``, so no span reuses a plan's draw.  Draws thus
never depend on call order, on neighbouring positions or on how many are
requested: plans stay bit-identical when the sequence grows, and shards can
be sampled in any order.  No global RNG state leaks between pipeline stages.
Both the seed derivation and the draws mix through one SplitMix64 finalizer,
:func:`mix64`.
"""
from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def check_seed(seed: int) -> None:
    """Reject a seed that is not an integer in [0, 2**64): :func:`derive_seed`
    keeps only 64 bits, so a larger seed would repeat a smaller one.  A
    ``bool`` is an ``int`` to ``isinstance`` but not a seed: ``True`` would
    repeat seed 1."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= seed <= _MASK:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")


def mix64(x):
    """SplitMix64 finalizer over a 64-bit integer, or elementwise over an
    array of them (``uint64``, whose products wrap as the mask does)."""
    x = x & _MASK
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK
    return x ^ (x >> 31)


def derive_seed(seed: int, part: int) -> int:
    """Fold an integer salt into a seed in one mixing round."""
    return mix64(mix64(seed ^ _GOLDEN) ^ mix64(part & _MASK))


def uniforms_at(seed, positions) -> np.ndarray:
    """Uniform [0, 1) draws indexed by position, vectorized.

    ``seed`` is one seed or a ``uint64`` array of them that broadcasts
    against ``positions``, so draws under many seeds take one call; each
    equals the draw under its seed alone.  The draw at a given position
    depends only on (seed, position), never on neighbouring positions or on
    how many draws are requested.
    """
    pos = np.asarray(positions, dtype=np.uint64)
    base = np.uint64(mix64(seed ^ _GOLDEN))
    with np.errstate(over="ignore"):
        x = mix64(base + (pos + np.uint64(1)) * np.uint64(_GOLDEN))
    return (x >> np.uint64(11)).astype(np.float64) * (2.0**-53)

