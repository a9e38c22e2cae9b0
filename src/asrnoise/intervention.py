"""Corruption-plan samplers.

The interventional sampler corrupts every position with one constant prior:
a uniform draw in [0, 1) per position corrupts it when strictly below the
prior (so a prior of 0 never corrupts and 1 always does), and the draw
depends only on (seed, position), never on the token.  The conditional
sampler is the ablation arm: its threshold comes from a per-token empirical
corruption frequency table, reintroducing the dependence the intervention
removes.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .corpus import MATCH, AlignmentEntry
from .errors import EmptyCorpusError, PriorOutOfRangeError
from .rng import check_seed, uniforms_at


@dataclass(frozen=True)
class CorruptionPlan:
    """Per-token corruption indicators; the corrupted positions and their
    count are computed once, on first use."""

    z: tuple[bool, ...]

    def __len__(self) -> int:
        return len(self.z)

    @cached_property
    def corrupted_positions(self) -> tuple[int, ...]:
        return tuple(i for i, flag in enumerate(self.z) if flag)

    @cached_property
    def corruption_count(self) -> int:
        return len(self.corrupted_positions)


def check_prior(p: float, what: str) -> None:
    """Raise PriorOutOfRangeError unless ``p`` lies in [0, 1] (NaN does not)."""
    if not 0.0 <= p <= 1.0:
        raise PriorOutOfRangeError(f"{what} must be in [0, 1], got {p}")


def sample_plan_interventional(tokens: Sequence, p_z: float, seed: int) -> CorruptionPlan:
    """Sample z for every position with constant prior ``p_z``.

    The uniform draw at position k is a pure function of (seed, k), so the
    plan is reproducible and token-independent by construction.  The seed
    must be an integer in [0, 2**64) (:func:`rng.check_seed`).
    """
    check_prior(p_z, "corruption prior")
    check_seed(seed)
    draws = uniforms_at(seed, np.arange(len(tokens)))
    return CorruptionPlan(z=tuple((draws < p_z).tolist()))


class ConditionalPriorTable:
    """Empirical per-token corruption frequencies with a fallback default."""

    def __init__(self, frequencies: Mapping[str, float], default: float):
        for token, freq in frequencies.items():
            check_prior(freq, f"frequency for {token!r}")
        check_prior(default, "default frequency")
        self.frequencies = dict(frequencies)
        self.default = default

    def __getitem__(self, token: str) -> float:
        return self.frequencies.get(token.lower(), self.default)

    def __len__(self) -> int:
        return len(self.frequencies)


def estimate_conditional_prior(alignments: Sequence[Sequence[AlignmentEntry]]) -> ConditionalPriorTable:
    """Per-word corruption frequency observed in aligned pairs, one alignment per pair.

    Unseen words fall back to the corpus-wide mean rate.
    """
    corrupted: dict[str, int] = {}
    total: dict[str, int] = {}
    n_corrupted = 0
    n_total = 0
    for entries in alignments:
        for entry in entries:
            word = entry.gt_word.lower()
            total[word] = total.get(word, 0) + 1
            n_total += 1
            if entry.label != MATCH:
                corrupted[word] = corrupted.get(word, 0) + 1
                n_corrupted += 1
    if n_total == 0:
        raise EmptyCorpusError("cannot estimate corruption frequencies from empty alignments")
    frequencies = {w: corrupted.get(w, 0) / total[w] for w in total}
    return ConditionalPriorTable(frequencies, default=n_corrupted / n_total)


def sample_plan_conditional(
    tokens: Sequence[str],
    table: ConditionalPriorTable,
    seed: int,
) -> CorruptionPlan:
    """Sample z with per-token thresholds from the frequency table, under a
    seed in [0, 2**64)."""
    check_seed(seed)
    draws = uniforms_at(seed, np.arange(len(tokens)))
    z = tuple(bool(a < table[tok]) for a, tok in zip(draws, tokens))
    return CorruptionPlan(z=z)
