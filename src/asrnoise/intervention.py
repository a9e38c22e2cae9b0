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

from collections import Counter
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
    """Empirical per-token corruption frequencies with a fallback default;
    tokens are case-insensitive, and two keys equal up to case raise ValueError."""

    def __init__(self, frequencies: Mapping[str, float], default: float):
        self.frequencies: dict[str, float] = {}
        first: dict[str, str] = {}
        for token, freq in frequencies.items():
            check_prior(freq, f"frequency for {token!r}")
            other = first.setdefault(token.lower(), token)
            if other != token:
                raise ValueError(f"token {token!r} repeats {other!r} up to case")
            self.frequencies[token.lower()] = freq
        check_prior(default, "default frequency")
        self.default = default

    def __getitem__(self, token: str) -> float:
        return self.frequencies.get(token.lower(), self.default)


def estimate_conditional_prior(alignments: Sequence[Sequence[AlignmentEntry]]) -> ConditionalPriorTable:
    """Per-word corruption frequency observed in aligned pairs, one alignment per pair.

    Unseen words fall back to the corpus-wide mean rate.
    """
    entries = [entry for pair in alignments for entry in pair]
    if not entries:
        raise EmptyCorpusError("cannot estimate corruption frequencies from empty alignments")
    total = Counter(entry.gt_word for entry in entries)
    corrupted = Counter(entry.gt_word for entry in entries if entry.label != MATCH)
    frequencies = {word: corrupted[word] / n for word, n in total.items()}
    return ConditionalPriorTable(frequencies, default=corrupted.total() / len(entries))


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
