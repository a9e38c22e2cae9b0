"""Corpus metrics: WER/CER, error-type mix, phoneme distance, independence.

Texts are normalized (lowercase, punctuation stripped) before scoring.
Scoring runs the same alignment dynamic program that builds training data,
``corpus.align_sequences``, but with unit costs instead of phonetic ones; a
diagonal step between two different symbols counts as a substitution.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import stats

from .corpus import align_sequences, normalize, unit_costs
from .errors import InsufficientDataError, LengthMismatchError
from .intervention import CorruptionPlan
from .phonetics import PronouncingLexicon, g2p, phoneme_edit_distance

# External reference measurements, used only as directional targets when
# reading reports: word error rates of a commercial ASR system versus two
# text-corruption generators, their error-type mixes (insertion, deletion,
# substitution), and summed phoneme distances with and without a phoneme
# generation head.
REFERENCE_WER = {
    "asr_system": 0.46,
    "phoneme_aware_generator": 0.66,
    "autoregressive_baseline": 0.76,
}
REFERENCE_ERROR_MIX = {
    "asr_system": (0.20, 0.29, 0.51),
    "phoneme_aware_generator": (0.25, 0.16, 0.59),
}
REFERENCE_PHONEME_DISTANCE = {
    "phoneme_aware_generator": 62.02,
    "no_phoneme_head": 72.52,
}


def _check_lengths(references: Sequence[str], hypotheses: Sequence[str]) -> None:
    if len(references) != len(hypotheses):
        raise LengthMismatchError(
            f"{len(references)} references vs {len(hypotheses)} hypotheses"
        )


def _corpus_counts(references, hypotheses, unit: str):
    subs = ins = dels = ref_len = 0
    for ref_text, hyp_text in zip(references, hypotheses):
        if unit == "word":
            ref = normalize(ref_text).split()
            hyp = normalize(hyp_text).split()
        else:
            ref = list(normalize(ref_text))
            hyp = list(normalize(hyp_text))
        ref_len += len(ref)
        for i, j in align_sequences(unit_costs(ref, hyp), len(hyp)):
            if i is None:
                ins += 1
            elif j is None:
                dels += 1
            elif ref[i] != hyp[j]:
                subs += 1
    return subs, ins, dels, ref_len


def word_error_rate(references: Sequence[str], hypotheses: Sequence[str]) -> float:
    """(substitutions + deletions + insertions) / reference word count."""
    _check_lengths(references, hypotheses)
    subs, ins, dels, ref_len = _corpus_counts(references, hypotheses, "word")
    if ref_len == 0:
        return 0.0
    return (subs + ins + dels) / ref_len


def char_error_rate(references: Sequence[str], hypotheses: Sequence[str]) -> float:
    """Same ratio at character level (spaces included after normalization)."""
    _check_lengths(references, hypotheses)
    subs, ins, dels, ref_len = _corpus_counts(references, hypotheses, "char")
    if ref_len == 0:
        return 0.0
    return (subs + ins + dels) / ref_len


@dataclass(frozen=True)
class ErrorBreakdown:
    """Error-operation proportions in (insertion, deletion, substitution) order."""

    insertion: float
    deletion: float
    substitution: float
    total_errors: int

    @property
    def has_errors(self) -> bool:
        return self.total_errors > 0

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.insertion, self.deletion, self.substitution)


def error_type_breakdown(references: Sequence[str], hypotheses: Sequence[str]) -> ErrorBreakdown:
    """Proportion of each error type among all error operations."""
    _check_lengths(references, hypotheses)
    subs, ins, dels, _ = _corpus_counts(references, hypotheses, "word")
    total = subs + ins + dels
    if total == 0:
        return ErrorBreakdown(0.0, 0.0, 0.0, 0)
    return ErrorBreakdown(ins / total, dels / total, subs / total, total)


def mean_phoneme_distance(
    references: Sequence[str],
    hypotheses: Sequence[str],
    lexicon: PronouncingLexicon,
) -> float:
    """Mean phoneme edit distance over substituted word pairs.

    Zero when the corpora align without substitutions.
    """
    _check_lengths(references, hypotheses)
    total = 0.0
    count = 0
    for ref_text, hyp_text in zip(references, hypotheses):
        ref = normalize(ref_text).split()
        hyp = normalize(hyp_text).split()
        for i, j in align_sequences(unit_costs(ref, hyp), len(hyp)):
            if i is not None and j is not None and ref[i] != hyp[j]:
                total += phoneme_edit_distance(g2p(ref[i], lexicon), g2p(hyp[j], lexicon))
                count += 1
    return total / count if count else 0.0


@dataclass(frozen=True)
class TokenIndependenceRow:
    token: str
    observations: int
    corrupted: int
    corruption_rate: float
    chi_square_contribution: float


@dataclass(frozen=True)
class IndependenceReport:
    statistic: float
    dof: int
    p_value: float
    alpha: float
    verdict: str  # "independent", "dependent" or "degenerate"
    rows: tuple[TokenIndependenceRow, ...]

    @property
    def independent(self) -> bool:
        return self.verdict == "independent"


def independence_report(
    plans: Sequence[CorruptionPlan],
    token_lists: Sequence[Sequence[str]],
    alpha: float = 0.01,
    min_observations: int = 100,
) -> IndependenceReport:
    """Chi-square test of corruption indicator vs token identity.

    Builds the (token id) x (corrupted?) contingency table over all plans.
    A constant indicator (all corrupted or none) makes the test degenerate
    and is reported as such.
    """
    if len(plans) != len(token_lists):
        raise LengthMismatchError(f"{len(plans)} plans vs {len(token_lists)} token lists")
    counts: dict[str, np.ndarray] = {}
    for plan, tokens in zip(plans, token_lists):
        if len(plan) != len(tokens):
            raise LengthMismatchError("plan length differs from its token list")
        for flag, token in zip(plan.z, tokens):
            row = counts.setdefault(str(token), np.zeros(2))
            row[1 if flag else 0] += 1
    if not counts:
        raise InsufficientDataError("no observations at all")
    for token, row in counts.items():
        if row.sum() < min_observations:
            raise InsufficientDataError(
                f"token {token!r} has {int(row.sum())} observations, need {min_observations}"
            )
    tokens_sorted = sorted(counts)
    table = np.asarray([counts[t] for t in tokens_sorted])
    col_sums = table.sum(axis=0)
    if (col_sums == 0).any() or len(tokens_sorted) < 2:
        rows = tuple(
            TokenIndependenceRow(t, int(counts[t].sum()), int(counts[t][1]),
                                 counts[t][1] / counts[t].sum(), 0.0)
            for t in tokens_sorted
        )
        return IndependenceReport(0.0, 0, 1.0, alpha, "degenerate", rows)
    expected = np.outer(table.sum(axis=1), col_sums) / table.sum()
    contributions = (table - expected) ** 2 / expected
    statistic = float(contributions.sum())
    dof = (table.shape[0] - 1) * (table.shape[1] - 1)
    p_value = float(stats.chi2.sf(statistic, dof))
    verdict = "dependent" if p_value < alpha else "independent"
    rows = tuple(
        TokenIndependenceRow(
            token=t,
            observations=int(counts[t].sum()),
            corrupted=int(counts[t][1]),
            corruption_rate=counts[t][1] / counts[t].sum(),
            chi_square_contribution=float(contributions[i].sum()),
        )
        for i, t in enumerate(tokens_sorted)
    )
    return IndependenceReport(statistic, dof, p_value, alpha, verdict, rows)


def write_metrics_report(path_txt, path_csv, metrics: dict[str, float], header: str = "") -> None:
    """Write named metrics as aligned text plus a CSV twin."""
    with open(path_txt, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
        width = max(len(k) for k in metrics) if metrics else 0
        for name, value in metrics.items():
            fh.write(f"{name.ljust(width)}  {value}\n")
    with open(path_csv, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
        fh.write("metric,value\n")
        for name, value in metrics.items():
            fh.write(f"{name},{value}\n")
