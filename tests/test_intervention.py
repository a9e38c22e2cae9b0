import numpy as np
import pytest

from asrnoise import intervention
from asrnoise.corpus import MATCH, SUBSTITUTION, AlignmentEntry
from asrnoise.errors import EmptyCorpusError, PriorOutOfRangeError
from asrnoise.evaluation import independence_report
from asrnoise.intervention import (
    ConditionalPriorTable,
    estimate_conditional_prior,
    sample_plan_conditional,
    sample_plan_interventional,
)


def _tokens(n, ids=("alpha", "bravo", "carry", "delta", "echo")):
    return [ids[i % len(ids)] for i in range(n)]


class TestInterventionalSampler:
    def test_zero_prior_corrupts_nothing(self):
        plan = sample_plan_interventional(_tokens(64), 0.0, seed=1)
        assert not any(plan.z)

    def test_unit_prior_corrupts_everything(self):
        plan = sample_plan_interventional(_tokens(64), 1.0, seed=1)
        assert all(plan.z)

    def test_prior_out_of_range(self):
        with pytest.raises(PriorOutOfRangeError):
            sample_plan_interventional(_tokens(4), 1.5, seed=0)
        with pytest.raises(PriorOutOfRangeError):
            sample_plan_interventional(_tokens(4), -0.1, seed=0)

    @pytest.mark.parametrize(
        "seed",
        [-1, 2**64, 2**64 + 7, 1.0, "1", True],
        ids=["minus-one", "2**64", "above-2**64", "float", "str", "bool"],
    )
    def test_seed_outside_64_bits_rejected(self, seed):
        # 2**64 would repeat seed 0's plan and -1 the plan of 2**64 - 1;
        # True is an int to isinstance and would repeat seed 1's plan
        table = ConditionalPriorTable({}, 0.5)
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            sample_plan_interventional(_tokens(4), 0.5, seed)
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            sample_plan_conditional(_tokens(4), table, seed)
        assert len(sample_plan_interventional(_tokens(4), 0.5, 2**64 - 1)) == 4

    def test_bitwise_reproducible(self):
        a = sample_plan_interventional(_tokens(500), 0.3, seed=99)
        b = sample_plan_interventional(_tokens(500), 0.3, seed=99)
        assert a == b
        c = sample_plan_interventional(_tokens(500), 0.3, seed=100)
        assert a != c

    def test_draws_ignore_token_identity(self):
        tokens_a = _tokens(200)
        tokens_b = list(reversed(tokens_a))
        pa = sample_plan_interventional(tokens_a, 0.4, seed=5)
        pb = sample_plan_interventional(tokens_b, 0.4, seed=5)
        assert pa.z == pb.z

    def test_plan_extension_keeps_earlier_draws(self):
        short = sample_plan_interventional(_tokens(100), 0.5, seed=3)
        long = sample_plan_interventional(_tokens(250), 0.5, seed=3)
        assert long.z[:100] == short.z

    def test_empirical_rate_at_paper_prior(self):
        n = 100_000
        plan = sample_plan_interventional(_tokens(n), 0.45, seed=7)
        rate = plan.corruption_count / n
        assert abs(rate - 0.45) <= 0.005

    def test_count_within_four_sigma(self):
        n = 10_000
        p = 0.15
        plan = sample_plan_interventional(_tokens(n), p, seed=11)
        sigma = np.sqrt(n * p * (1 - p))
        assert abs(plan.corruption_count - n * p) <= 4 * sigma


def _alignment(words_and_labels):
    return [
        AlignmentEntry(w, (w,) if lab == MATCH else (w + "x",), lab)
        for w, lab in words_and_labels
    ]


class TestConditionalPrior:
    def test_always_and_never_corrupted(self):
        alignment = _alignment(
            [("always", SUBSTITUTION), ("always", SUBSTITUTION), ("never", MATCH), ("never", MATCH)]
        )
        table = estimate_conditional_prior([alignment])
        assert table["always"] == 1.0
        assert table["never"] == 0.0
        assert table.default == 0.5

    def test_biased_corpus_concentrates_on_c_initial(self):
        rng = np.random.default_rng(0)
        words = ["carry", "cold", "cue", "labor", "the", "gag"]
        alignments = []
        for _ in range(200):
            entries = []
            for w in words:
                corrupted = w.startswith("c") and rng.random() < 0.9
                entries.append(
                    AlignmentEntry(w, (w + "x",) if corrupted else (w,), SUBSTITUTION if corrupted else MATCH)
                )
            alignments.append(entries)
        table = estimate_conditional_prior(alignments)
        for w in words:
            if w.startswith("c"):
                assert table[w] > 0.8
            else:
                assert table[w] == 0.0

    def test_unseen_token_gets_default(self):
        table = ConditionalPriorTable({"cue": 1.0}, default=0.25)
        assert table["never-seen"] == 0.25

    def test_keys_are_case_insensitive(self):
        table = ConditionalPriorTable({"Cue": 1.0}, default=0.0)
        assert table["Cue"] == table["cue"] == table["CUE"] == 1.0
        assert all(sample_plan_conditional(["Cue", "cue"], table, seed=0).z)

    def test_key_repeated_up_to_case_rejected(self):
        with pytest.raises(ValueError, match=r"'CUE' repeats 'cue'"):
            ConditionalPriorTable({"cue": 1.0, "CUE": 0.0}, default=0.5)

    def test_empty_alignments_rejected(self):
        with pytest.raises(EmptyCorpusError):
            estimate_conditional_prior([])


class TestConditionalSampler:
    def test_all_zero_table_is_identity(self):
        table = ConditionalPriorTable({}, default=0.0)
        plan = sample_plan_conditional(_tokens(64), table, seed=2)
        assert not any(plan.z)

    def test_all_one_table_corrupts_everything(self):
        table = ConditionalPriorTable({}, default=1.0)
        plan = sample_plan_conditional(_tokens(64), table, seed=2)
        assert all(plan.z)

    def test_threshold_depends_on_token(self):
        tokens = ["hot"] * 1000 + ["cold"] * 1000
        table = ConditionalPriorTable({"hot": 0.9, "cold": 0.1}, default=0.5)
        plan = sample_plan_conditional(tokens, table, seed=4)
        hot_rate = sum(plan.z[:1000]) / 1000
        cold_rate = sum(plan.z[1000:]) / 1000
        assert hot_rate > 0.8
        assert cold_rate < 0.2


class TestStrictThreshold:
    """A position is corrupted exactly when its draw is below the prior, so
    p = 0 never corrupts and p = 1 corrupts every draw in [0, 1)."""

    @pytest.mark.parametrize(
        "p, expected",
        [(0.0, (False, False, False)), (0.45, (True, False, True)), (1.0, (True, False, True))],
    )
    def test_draw_equal_to_prior_is_kept(self, monkeypatch, p, expected):
        # a draw of exactly 1.0 never occurs; at p = 1 the largest real draw
        # is nextafter(1, 0), which is corrupted
        draws = np.array([0.0, p, np.nextafter(p, 0.0)])
        monkeypatch.setattr(intervention, "uniforms_at", lambda seed, positions: draws)
        tokens = _tokens(3)
        assert sample_plan_interventional(tokens, p, seed=0).z == expected
        table = ConditionalPriorTable({}, default=p)
        assert sample_plan_conditional(tokens, table, seed=0).z == expected


class TestIndependence:
    def test_interventional_plan_passes_chi_square(self):
        ids = [f"tok{i}" for i in range(10)]
        tokens = [ids[i % 10] for i in range(20_000)]
        plan = sample_plan_interventional(tokens, 0.3, seed=13)
        report = independence_report([plan], [tokens])
        assert report.verdict == "independent"

    def test_biased_conditional_plan_fails_chi_square(self):
        ids = [f"tok{i}" for i in range(10)]
        tokens = [ids[i % 10] for i in range(20_000)]
        table = ConditionalPriorTable(
            {t: (0.6 if i % 2 else 0.2) for i, t in enumerate(ids)}, default=0.4
        )
        plan = sample_plan_conditional(tokens, table, seed=13)
        report = independence_report([plan], [tokens])
        assert report.verdict == "dependent"
