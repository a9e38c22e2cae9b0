import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asrnoise import evaluation as E
from asrnoise.errors import InsufficientDataError, LengthMismatchError
from asrnoise.intervention import sample_plan_interventional
from asrnoise.phonetics import g2p, phoneme_edit_distance

from oracles import alignment_cost_recursive

# normalized sentences: lowercase words of a small alphabet, so symbols repeat
_words = st.lists(st.text(alphabet="abc", min_size=1, max_size=3), max_size=6)


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
        assert not b.has_errors

    def test_pure_deletion(self):
        b = E.error_type_breakdown(["a b c"], [""])
        assert b.as_tuple() == (0.0, 1.0, 0.0)
        assert b.has_errors

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
            E.independence_report([plan], [tokens], min_observations=100)

    def test_length_mismatch(self):
        tokens = self._tokens(200)
        plan = sample_plan_interventional(tokens, 0.5, seed=0)
        with pytest.raises(LengthMismatchError):
            E.independence_report([plan], [tokens[:-1]])

    def test_per_token_rows_cover_all_ids(self):
        tokens = self._tokens(5000, k=5)
        plan = sample_plan_interventional(tokens, 0.4, seed=3)
        report = E.independence_report([plan], [tokens])
        assert {row.token for row in report.rows} == set(self._tokens(5, k=5))
        total = sum(row.observations for row in report.rows)
        assert total == 5000


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
