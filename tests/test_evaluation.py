import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asrnoise import evaluation as E
from asrnoise.corpus import align_sequences, normalize, unit_costs
from asrnoise.errors import InsufficientDataError, LengthMismatchError
from asrnoise.intervention import sample_plan_interventional
from asrnoise.phonetics import g2p, phoneme_edit_distance

from oracles import alignment_cost_recursive

# normalized sentences: lowercase words of a small alphabet, so symbols repeat
_words = st.lists(st.text(alphabet="abc", min_size=1, max_size=3), max_size=6)

# symbol sequences for the distance kernel: up to 100 symbols, so past one
# 64-bit word, as characters (ASCII and not) or as whole words
_chars = st.text(alphabet="ab\u00e9\u00df\u4e2d", max_size=100)
_word_list = st.lists(st.sampled_from(["the", "cue", "queue", "\u00e9t\u00e9"]), max_size=100)


def _unit_cost(ref, hyp) -> int:
    return alignment_cost_recursive(len(ref), len(hyp), lambda i, j: int(ref[i] != hyp[j]))


class TestEditDistance:
    @settings(max_examples=150)
    @example("", "")
    @example("", "abc")
    @example("a" * 65, "b" + "a" * 64)
    @example("a\u00e9" * 40, "\u00e9a" * 40)
    # shared ends, which the distance drops before its bit-parallel loop:
    # 70 on each side, so they straddle the 64-bit boundary
    @example("a" * 70 + "b" + "a" * 70, "a" * 70 + "c" + "a" * 70)
    @example("ab\u00e9" * 30, "ab\u00e9" * 30)
    @example("ab\u00e9" * 30, "ab\u00e9" * 25)
    @example("ab\u00e9" * 30, "\u00e9" + "ab\u00e9" * 20)
    @example("abab", "b")
    @given(_chars, _chars)
    def test_characters_equal_unit_cost_oracle(self, ref, hyp):
        assert E.edit_distance(ref, hyp) == _unit_cost(ref, hyp)
        assert E.edit_distance(hyp, ref) == _unit_cost(ref, hyp)

    @settings(max_examples=100)
    @example(["the", "cue"], [])
    @example(["cue"] * 70, ["queue"] + ["cue"] * 70)
    @example(["the", "cue"] * 40, ["the", "cue"] * 40)
    @example(["the", "cue", "the"], ["the"])
    @example(["the"] * 66 + ["cue"], ["cue"])
    @given(_word_list, _word_list)
    def test_words_equal_unit_cost_oracle(self, ref, hyp):
        assert E.edit_distance(ref, hyp) == _unit_cost(ref, hyp)


class TestRatesFromAlignmentCounts:
    @settings(max_examples=100)
    # errors against references with no units: an infinite rate, not 0
    @example([("", "a b")])
    @example([("", ""), (" ", "")])
    @given(st.lists(st.tuples(st.text(alphabet="ab \u00e9", max_size=30),
                              st.text(alphabet="ab \u00e9", max_size=30)), max_size=4))
    def test_rates_equal_alignment_error_counts(self, pairs):
        refs = [r for r, _ in pairs]
        hyps = [h for _, h in pairs]
        for rate, split in ((E.word_error_rate, str.split), (E.char_error_rate, list)):
            errors = ref_len = 0
            for ref_text, hyp_text in pairs:
                ref, hyp = split(normalize(ref_text)), split(normalize(hyp_text))
                steps = align_sequences(unit_costs(ref, hyp), len(hyp))
                errors += sum(i is None or j is None or ref[i] != hyp[j] for i, j in steps)
                ref_len += len(ref)
            expected = errors / ref_len if ref_len else (math.inf if errors else 0.0)
            assert rate(refs, hyps) == expected
            if split is str.split:
                assert sum(E._corpus_counts(refs, hyps)) == errors


class TestWordErrorRate:
    @settings(max_examples=100)
    @example([["the", "cue", "is", "good"], ["only", "labored"]])
    @given(st.lists(_words, min_size=1, max_size=3))
    def test_identical_corpora(self, sentences):
        texts = [" ".join(words) for words in sentences]
        assert E.word_error_rate(texts, texts) == 0.0

    def test_empty_hypothesis_is_all_deletions(self):
        refs = ["the cue is good", "only labored"]
        assert E.word_error_rate(refs, ["", ""]) == 1.0

    def test_counts_substitutions_insertions_deletions(self):
        refs = ["a b c d"]
        hyps = ["a x c d e"]  # one substitution, one insertion
        assert E.word_error_rate(refs, hyps) == pytest.approx(2 / 4)

    def test_normalization_before_scoring(self):
        assert E.word_error_rate(["The Cue!"], ["the cue"]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            E.word_error_rate(["a"], ["a", "b"])

    @settings(max_examples=150)
    @given(_words, _words)
    def test_error_count_is_unit_edit_distance(self, ref, hyp):
        expected = alignment_cost_recursive(len(ref), len(hyp), lambda i, j: int(ref[i] != hyp[j]))
        assert E.error_type_breakdown([" ".join(ref)], [" ".join(hyp)]).total_errors == expected

    def test_paper_reference_values_recorded(self):
        assert E.REFERENCE_WER["asr_system"] == 0.46
        assert E.REFERENCE_WER["phoneme_aware_generator"] == 0.66
        assert E.REFERENCE_WER["autoregressive_baseline"] == 0.76


class TestCharErrorRate:
    def test_identical(self):
        assert E.char_error_rate(["abc"], ["abc"]) == 0.0

    def test_single_character_edit(self):
        assert E.char_error_rate(["abcd"], ["abxd"]) == pytest.approx(1 / 4)


class TestErrorBreakdown:
    def test_identical_corpora_flagged_errorless(self):
        b = E.error_type_breakdown(["a b"], ["a b"])
        assert b.as_tuple() == (0.0, 0.0, 0.0)
        assert b.total_errors == 0

    def test_pure_deletion(self):
        b = E.error_type_breakdown(["a b c"], [""])
        assert b.as_tuple() == (0.0, 1.0, 0.0)
        assert b.total_errors > 0

    def test_mixed_operations_sum_to_one(self):
        b = E.error_type_breakdown(["a b c d"], ["a x c d e"])
        assert b.total_errors == 2
        assert sum(b.as_tuple()) == pytest.approx(1.0)
        assert b.substitution == pytest.approx(0.5)
        assert b.insertion == pytest.approx(0.5)

    def test_paper_reference_mix_recorded(self):
        assert E.REFERENCE_ERROR_MIX["asr_system"] == (0.20, 0.29, 0.51)
        assert E.REFERENCE_ERROR_MIX["phoneme_aware_generator"] == (0.25, 0.16, 0.59)


class TestMeanPhonemeDistance:
    def test_identical_corpora(self, lexicon):
        texts = ["the cue is good"]
        assert E.mean_phoneme_distance(texts, texts, lexicon) == 0.0

    def test_substitution_pairs_average(self, lexicon):
        refs = ["cue the"]
        hyps = ["queue thee"]
        d1 = phoneme_edit_distance(g2p("cue", lexicon), g2p("queue", lexicon))
        d2 = phoneme_edit_distance(g2p("the", lexicon), g2p("thee", lexicon))
        got = E.mean_phoneme_distance(refs, hyps, lexicon)
        assert got == pytest.approx((d1 + d2) / 2)

    def test_insertions_and_deletions_not_counted(self, lexicon):
        refs = ["cue the gag"]
        hyps = ["cue the"]
        assert E.mean_phoneme_distance(refs, hyps, lexicon) == 0.0

    def test_paper_reference_distances_recorded(self):
        assert E.REFERENCE_PHONEME_DISTANCE["phoneme_aware_generator"] == 62.02
        assert E.REFERENCE_PHONEME_DISTANCE["no_phoneme_head"] == 72.52


class TestIndependenceReport:
    def _tokens(self, n, k=10):
        ids = [f"tok{i}" for i in range(k)]
        return [ids[i % k] for i in range(n)]

    def test_constant_indicator_is_degenerate(self):
        tokens = self._tokens(2000)
        plan = sample_plan_interventional(tokens, 1.0, seed=0)
        report = E.independence_report([plan], [tokens])
        assert report.verdict == "degenerate"

    def test_insufficient_data(self):
        tokens = self._tokens(500)
        plan = sample_plan_interventional(tokens, 0.5, seed=0)
        with pytest.raises(InsufficientDataError):
            E.independence_report([plan], [tokens])

    def test_length_mismatch(self):
        tokens = self._tokens(200)
        plan = sample_plan_interventional(tokens, 0.5, seed=0)
        with pytest.raises(LengthMismatchError):
            E.independence_report([plan], [tokens[:-1]])

    def test_degenerate_rows_have_zero_contributions(self):
        tokens = self._tokens(2000)
        plan = sample_plan_interventional(tokens, 1.0, seed=0)
        report = E.independence_report([plan], [tokens])
        assert [row.observations for row in report.rows] == [200] * 10
        assert all(row.corruption_rate == 1.0 for row in report.rows)
        assert all(row.chi_square_contribution == 0.0 for row in report.rows)

    def test_the_report_runs_with_scipy_blocked(self):
        env = dict(os.environ)
        src = str(Path(E.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        # a None entry makes every import of scipy, or of a submodule, fail
        code = """
import sys
sys.modules["scipy"] = None
import asrnoise.cli
from asrnoise.evaluation import independence_report
from asrnoise.intervention import ConditionalPriorTable, sample_plan_conditional, sample_plan_interventional
ids = [f"tok{i}" for i in range(10)]
tokens = [ids[i % 10] for i in range(20_000)]
biased = ConditionalPriorTable({t: (0.6 if i % 2 else 0.2) for i, t in enumerate(ids)}, default=0.4)
for plan in (sample_plan_interventional(tokens, 0.3, seed=13), sample_plan_conditional(tokens, biased, seed=13)):
    print(independence_report([plan], [tokens]).verdict)
"""
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120
        )
        assert out.stdout.split() == ["independent", "dependent"]

    def test_per_token_rows_cover_all_ids(self):
        tokens = self._tokens(5000, k=5)
        plan = sample_plan_interventional(tokens, 0.4, seed=3)
        report = E.independence_report([plan], [tokens])
        assert {row.token for row in report.rows} == set(self._tokens(5, k=5))
        total = sum(row.observations for row in report.rows)
        assert total == 5000


class TestChiSquareTail:
    @pytest.mark.parametrize("dof", [*range(1, 40), 99, 383, 1000, 2000])
    def test_matches_arbitrary_precision(self, dof):
        points = 0
        with mpmath.workdps(50):
            for x in [*np.geomspace(1e-6, 5 * dof + 100, 40), *np.linspace(0.5, 5 * dof + 100, 40)]:
                x = float(x)
                exact = mpmath.gammainc(mpmath.mpf(dof) / 2, mpmath.mpf(x) / 2, mpmath.inf, regularized=True)
                if exact < mpmath.mpf("1e-300"):
                    continue
                points += 1
                assert float(abs(E._chi2_sf(x, dof) - exact) / exact) <= 1e-12, (dof, x)
        assert points >= 40

    def test_zero_statistic_has_tail_one(self):
        assert E._chi2_sf(0.0, 1) == 1.0
        assert E._chi2_sf(0.0, 383) == 1.0


class TestMetricsReport:
    def test_text_and_csv_twins(self, tmp_path):
        metrics = {"wer": 0.25, "cer": 0.125}
        txt = tmp_path / "report.txt"
        csv = tmp_path / "report.csv"
        E.write_metrics_report(txt, csv, metrics, header="test run")
        text = txt.read_text()
        assert "wer" in text and "0.25" in text
        lines = csv.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "metric,value"
        assert "wer,0.25" in lines
