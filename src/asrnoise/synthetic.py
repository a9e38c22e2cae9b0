"""Synthetic parallel corpus with phonetically plausible corruption.

Sentences are drawn from the lexicon word pool; the transcript side corrupts
words into phonetic neighbours (substitution), drops them (deletion) or
inserts a neighbour after them (insertion).  This stands in for real paired
recordings at desk scale: the noise is phonetically plausible by
construction, which is exactly the signal the phoneme head is meant to
learn.
"""
from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .corpus import ParallelPair
from .phonetics import PronouncingLexicon, default_lexicon, g2p, phoneme_edit_distance
from .rng import check_seed

#: :func:`split_word_pool` holds out every this-many-th word.
HOLDOUT_EVERY = 4

#: Phonetic neighbours kept per word, the confusions a corrupted word draws from.
NEIGHBOURS = 3


def split_word_pool(lexicon: Optional[PronouncingLexicon] = None) -> tuple[list[str], list[str]]:
    """Deterministic (train, heldout) split of the lexicon word pool.

    Every ``HOLDOUT_EVERY``-th word (alphabetically) is held out; sentences
    built from the heldout pool contain corruption targets the generator
    never saw noised during training, which is the regime where phonetic
    generalization can be measured.
    """
    lexicon = lexicon if lexicon is not None else default_lexicon()
    words = sorted(lexicon.words())
    heldout = [w for i, w in enumerate(words) if i % HOLDOUT_EVERY == 0]
    train = [w for i, w in enumerate(words) if i % HOLDOUT_EVERY != 0]
    return train, heldout


def confusion_candidates(
    lexicon: PronouncingLexicon,
    pool: Optional[Sequence[str]] = None,
) -> dict[str, list[str]]:
    """The ``NEIGHBOURS`` phonetically nearest neighbours of every pool word.

    Homophones come first (distance zero), then close minimal pairs.
    """
    words = sorted(pool) if pool is not None else sorted(lexicon.words())
    codes = {w: g2p(w, lexicon) for w in words}
    out: dict[str, list[str]] = {}
    for w in words:
        cw = codes[w]
        scored = []
        for v in words:
            if v == w:
                continue
            # length gap lower-bounds the distance; skip hopeless pairs
            if abs(len(codes[v]) - len(cw)) > 2:
                continue
            scored.append((phoneme_edit_distance(cw, codes[v]), v))
        scored.sort()
        out[w] = [v for _, v in scored[:NEIGHBOURS]]
    return out


def make_parallel_corpus(
    n_pairs: int,
    seed: int,
    lexicon: Optional[PronouncingLexicon] = None,
    corruption_rate: float = 0.35,
    min_words: int = 4,
    max_words: int = 8,
    type_weights: tuple[float, float, float] = (0.6, 0.2, 0.2),
    pool: Optional[Sequence[str]] = None,
) -> list[ParallelPair]:
    """Deterministic (clean, noisy) sentence pairs.

    ``type_weights`` orders (substitution, deletion, insertion) probabilities
    for a corrupted word.  The seed must be an integer in [0, 2**64).
    """
    check_seed(seed)
    lexicon = lexicon if lexicon is not None else default_lexicon()
    rng = np.random.default_rng(seed)
    words = sorted(pool) if pool is not None else sorted(lexicon.words())
    candidates = confusion_candidates(lexicon, pool=words)
    weights = np.asarray(type_weights, dtype=np.float64)
    weights = weights / weights.sum()

    pairs: list[ParallelPair] = []
    for idx in range(n_pairs):
        length = int(rng.integers(min_words, max_words + 1))
        gt_words = [words[int(rng.integers(len(words)))] for _ in range(length)]
        asr_words: list[str] = []
        for w in gt_words:
            near = candidates.get(w) or [w]
            if rng.random() >= corruption_rate:
                asr_words.append(w)
                continue
            kind = int(rng.choice(3, p=weights))
            if kind == 0:
                asr_words.append(near[int(rng.integers(len(near)))])
            elif kind == 1:
                continue
            else:
                asr_words.append(w)
                asr_words.append(near[int(rng.integers(len(near)))])
        pairs.append(ParallelPair(gt=" ".join(gt_words), asr=" ".join(asr_words), id=str(idx)))
    return pairs
