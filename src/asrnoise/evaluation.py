"""Corpus metrics: WER/CER, error-type mix, phoneme distance, independence.

Texts are normalized (lowercase, punctuation stripped) before scoring.
WER and CER need only each pair's unit-cost edit distance, which
``corpus.edit_distance`` computes bit-parallel without a backtrace (it is
importable from here too, as ``evaluation.edit_distance``).  The error-type
breakdown and the mean phoneme distance need the path itself, so they run the
same alignment dynamic program that builds training data,
``corpus.align_sequences``, with unit costs instead of phonetic ones; a
diagonal step between two different symbols counts as a substitution.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import align_sequences, edit_distance, normalize, unit_costs
from .errors import InsufficientDataError, LengthMismatchError
from .intervention import CorruptionPlan
from .phonetics import PronouncingLexicon, g2p, phoneme_edit_distance
from .textio import write_lines

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


def _units(references: Sequence[str], hypotheses: Sequence[str], split):
    """Each pair's normalized units: ``str.split`` gives words, ``str`` characters."""
    if len(references) != len(hypotheses):
        raise LengthMismatchError(f"{len(references)} references vs {len(hypotheses)} hypotheses")
    for ref_text, hyp_text in zip(references, hypotheses):
        yield split(normalize(ref_text)), split(normalize(hyp_text))


def _aligned(references: Sequence[str], hypotheses: Sequence[str]):
    """Each pair's normalized words with their unit-cost alignment steps."""
    for ref, hyp in _units(references, hypotheses, str.split):
        yield ref, hyp, align_sequences(unit_costs(ref, hyp), len(hyp))


def _corpus_counts(references, hypotheses) -> tuple[int, int, int]:
    """Word substitutions, insertions and deletions along the alignments."""
    subs = ins = dels = 0
    for ref, hyp, steps in _aligned(references, hypotheses):
        for i, j in steps:
            if i is None:
                ins += 1
            elif j is None:
                dels += 1
            elif ref[i] != hyp[j]:
                subs += 1
    return subs, ins, dels


def _error_rate(references: Sequence[str], hypotheses: Sequence[str], split) -> float:
    errors = ref_len = 0
    for ref, hyp in _units(references, hypotheses, split):
        errors += edit_distance(ref, hyp)
        ref_len += len(ref)
    if ref_len == 0:
        # no reference units: any error is an infinite rate, not none
        return math.inf if errors else 0.0
    return errors / ref_len


def word_error_rate(references: Sequence[str], hypotheses: Sequence[str]) -> float:
    """(substitutions + deletions + insertions) / reference word count;
    ``math.inf`` if the references hold no words but the hypotheses do."""
    return _error_rate(references, hypotheses, str.split)


def char_error_rate(references: Sequence[str], hypotheses: Sequence[str]) -> float:
    """Same ratio at character level (spaces included after normalization)."""
    return _error_rate(references, hypotheses, str)


@dataclass(frozen=True)
class ErrorBreakdown:
    """Error-operation proportions in (insertion, deletion, substitution) order."""

    insertion: float
    deletion: float
    substitution: float
    total_errors: int

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.insertion, self.deletion, self.substitution)


def error_type_breakdown(references: Sequence[str], hypotheses: Sequence[str]) -> ErrorBreakdown:
    """Proportion of each error type among all error operations."""
    subs, ins, dels = _corpus_counts(references, hypotheses)
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
    total = 0.0
    count = 0
    for ref, hyp, steps in _aligned(references, hypotheses):
        for i, j in steps:
            if i is not None and j is not None and ref[i] != hyp[j]:
                total += phoneme_edit_distance(g2p(ref[i], lexicon), g2p(hyp[j], lexicon))
                count += 1
    return total / count if count else 0.0


#: Significance level of :func:`independence_report`'s verdict.
INDEPENDENCE_ALPHA = 0.01

#: Observations :func:`independence_report` needs of every token.
MIN_OBSERVATIONS = 100


@dataclass(frozen=True)
class TokenIndependenceRow:
    token: str
    observations: int
    corrupted: int
    chi_square_contribution: float

    @property
    def corruption_rate(self) -> float:
        return self.corrupted / self.observations


@dataclass(frozen=True)
class IndependenceReport:
    statistic: float
    dof: int
    p_value: float
    verdict: str  # "independent", "dependent" or "degenerate"
    rows: tuple[TokenIndependenceRow, ...]


def _chi2_sf(x: float, dof: int) -> float:
    """Upper tail P(X > x) of a chi-square variable with integer ``dof`` >= 1.

    With h = x/2 the tail is the Poisson sum exp(-h) sum_{i<dof/2} h^i/i!
    for even ``dof``, and erfc(sqrt(h)) + exp(-h) sum_{i<(dof-1)/2}
    h^(i+1/2)/Gamma(i+3/2) for odd ``dof``.  The sum runs in log space,
    shifted by its largest term, so no term overflows or underflows on its
    own for any ``dof`` or ``x``.
    """
    if x <= 0.0:
        return 1.0
    h = x / 2.0
    log_h = math.log(h)
    if dof % 2 == 0:
        head, offset, n_terms = 0.0, 1.0, dof // 2
    else:
        head, offset, n_terms = math.erfc(math.sqrt(h)), 1.5, (dof - 1) // 2
    if n_terms == 0:
        return head
    logs = [(i + offset - 1.0) * log_h - math.lgamma(i + offset) for i in range(n_terms)]
    top = max(logs)
    return head + math.exp(top - h + math.log(math.fsum(math.exp(v - top) for v in logs)))


def independence_report(
    plans: Sequence[CorruptionPlan],
    token_lists: Sequence[Sequence[str]],
) -> IndependenceReport:
    """Chi-square test of corruption indicator vs token identity.

    Builds the (token id) x (corrupted?) contingency table over all plans;
    every token needs ``MIN_OBSERVATIONS`` positions, and the verdict is
    "dependent" at a p-value below ``INDEPENDENCE_ALPHA``.  A constant
    indicator (all corrupted or none) makes the test degenerate and is
    reported as such.
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
        if row.sum() < MIN_OBSERVATIONS:
            raise InsufficientDataError(
                f"token {token!r} has {int(row.sum())} observations, need {MIN_OBSERVATIONS}"
            )
    tokens_sorted = sorted(counts)
    table = np.asarray([counts[t] for t in tokens_sorted])
    col_sums = table.sum(axis=0)
    degenerate = bool((col_sums == 0).any()) or len(tokens_sorted) < 2
    if degenerate:
        contributions = np.zeros_like(table)
    else:
        expected = np.outer(table.sum(axis=1), col_sums) / table.sum()
        contributions = (table - expected) ** 2 / expected
    rows = tuple(
        TokenIndependenceRow(t, int(row.sum()), int(row[1]), float(c.sum()))
        for t, row, c in zip(tokens_sorted, table, contributions)
    )
    if degenerate:
        return IndependenceReport(0.0, 0, 1.0, "degenerate", rows)
    statistic = float(contributions.sum())
    dof = (table.shape[0] - 1) * (table.shape[1] - 1)
    p_value = _chi2_sf(statistic, dof)
    verdict = "dependent" if p_value < INDEPENDENCE_ALPHA else "independent"
    return IndependenceReport(statistic, dof, p_value, verdict, rows)


def write_metrics_report(path_txt, path_csv, metrics: dict[str, float], header: str = "") -> None:
    """Write named metrics as aligned text plus a CSV twin."""
    width = max(len(k) for k in metrics) if metrics else 0
    write_lines(path_txt, (f"{name.ljust(width)}  {value}" for name, value in metrics.items()), header)
    write_lines(path_csv, ["metric,value", *(f"{name},{value}" for name, value in metrics.items())], header)
