"""Acceptance suite: one test per criterion, each printing a PASS line.

The desk-scale fixtures train two generators through the command-line
pipeline (full model and no-phoneme-head ablation) on a synthetic parallel
corpus whose noise is phonetically plausible by construction; a quarter of
the word pool is held out of training so generalization to unseen
corruption targets is measurable.
"""
import time

import numpy as np
import pytest

from asrnoise import autodiff as ad
from asrnoise import cli
from asrnoise import corpus as C
from asrnoise import evaluation as E
from asrnoise import generation as G
from asrnoise import model as M
from asrnoise import synthetic
from asrnoise import training as T
from asrnoise.intervention import (
    ConditionalPriorTable,
    sample_plan_conditional,
    sample_plan_interventional,
)
from asrnoise.phonetics import g2p, phoneme_edit_distance, supervision_distribution

from conftest import make_token_seq
from oracles import backward_and_check, edit_distance_recursive, one_span_hidden


def _report(number, name):
    print(f"\nACCEPTANCE {number} {name}: PASS")


DESK_SEED = 20260810
DESK_CONFIG = (
    "d_model = 32\n"
    "n_heads = 4\n"
    "vocab_size = 384\n"
    "epochs = 40\n"
    "learning_rate = 0.001\n"
    "batch_size = 32\n"
    "seed = 1\n"
    "max_gen_len = 5\n"
)


@pytest.fixture(scope="module")
def desk(tmp_path_factory, lexicon):
    """CLI-driven desk pipeline: vocab, two training runs, corruption."""
    root = tmp_path_factory.mktemp("desk")
    train_pool, heldout_pool = synthetic.split_word_pool(lexicon)
    train_pairs = synthetic.make_parallel_corpus(500, seed=DESK_SEED, pool=train_pool)
    heldout_texts = [p.gt for p in synthetic.make_parallel_corpus(300, seed=777, pool=heldout_pool)]
    train_texts = [p.gt for p in train_pairs[:300]]

    train_tsv = root / "train.tsv"
    C.write_pairs_tsv(train_tsv, train_pairs)
    # tokenizer coverage corpus: training pairs plus the held-out sentences
    vocab_tsv = root / "vocab_corpus.tsv"
    C.write_pairs_tsv(
        vocab_tsv, train_pairs + [C.ParallelPair(gt=t, asr="") for t in heldout_texts]
    )

    full_cfg = root / "full.cfg"
    full_cfg.write_text(DESK_CONFIG)
    abl_cfg = root / "abl.cfg"
    abl_cfg.write_text(DESK_CONFIG + "phoneme_head = false\n")

    vocab_path = root / "vocab.txt"
    assert cli.main(["vocab", str(vocab_tsv), "--out", str(vocab_path), "--config", str(full_cfg)]) == 0

    checkpoints = {}
    train_seconds = {}
    for tag, cfg in (("full", full_cfg), ("abl", abl_cfg)):
        ckpt = root / f"{tag}.ckpt"
        loss_log = root / f"{tag}_loss.csv"
        started = time.monotonic()
        rc = cli.main(
            ["train", str(train_tsv), "--vocab", str(vocab_path),
             "--checkpoint", str(ckpt), "--out", str(loss_log), "--config", str(cfg)]
        )
        train_seconds[tag] = time.monotonic() - started
        assert rc == 0
        checkpoints[tag] = ckpt

    return {
        "root": root,
        "config": full_cfg,
        "vocab": vocab_path,
        "checkpoints": checkpoints,
        "train_seconds": train_seconds,
        "loss_logs": {tag: root / f"{tag}_loss.csv" for tag in ("full", "abl")},
        "train_texts": train_texts,
        "heldout_texts": heldout_texts,
    }


class TestCriterion1OracleEquivalence:
    def test_edit_distance_matches_recursive_oracle_on_200_words(self, lexicon):
        started = time.monotonic()
        words = sorted(lexicon.words())[:200]
        codes = [g2p(w, lexicon) for w in words]
        mismatches = 0
        for cp in codes:
            for cq in codes:
                if phoneme_edit_distance(cp, cq) != edit_distance_recursive(cp, cq):
                    mismatches += 1
        elapsed = time.monotonic() - started
        assert mismatches == 0
        assert elapsed < 30.0
        _report(1, f"oracle equivalence on {len(words)}^2 ordered pairs ({elapsed:.1f}s)")


class TestCriterion2GradientFidelity:
    def test_gradients_match_central_differences(self, lexicon, small_setup, small_model):
        _, _, items = small_setup
        assert small_model.config.d_model == 16
        started = time.monotonic()
        _, max_rel = backward_and_check(
            small_model, items[:4], lexicon, check_coords=50, check_seed=2024
        )
        elapsed = time.monotonic() - started
        assert max_rel <= 1e-4
        assert elapsed < 60.0
        _report(2, f"gradient max rel error {max_rel:.2e} over 50 coordinates ({elapsed:.1f}s)")


class TestCriterion3NormalizationSuite:
    def test_all_distributions_normalized_over_1000_passes(self, lexicon, small_model):
        rng = np.random.default_rng(31)
        model = small_model
        params = M._wrap_params(model.params)
        rows_map = model.code_index.token_rows
        tables = M.head_tables(params, model.config, rows_map)
        vocab_size = len(model.vocab)
        content_ids = [i for i, p in enumerate(model.vocab.pieces) if p not in C.SPECIALS]
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(2, 8))
            ids = rng.integers(0, vocab_size, size=n)
            e_in = M.embed_sequence([ids], params, model.config, rows_map)
            e_enc = M.encode(e_in, params, model.config)
            k = int(rng.integers(0, n))
            prefix_len = int(rng.integers(0, model.config.max_gen_len - 1))
            prefix = [int(rng.choice(content_ids)) for _ in range(prefix_len)]
            e_rows = ad.rows(e_enc, 0)  # the sentence's packed rows [n, d]
            start = M.decoder_start(ad.rows(e_rows, [k]), params)
            memory = M.decoder_memory(e_rows, params)
            hidden = one_span_hidden(start, prefix, memory, params, model.config, rows_map)
            last = ad.rows(hidden, [prefix_len])
            p_n, p_ph, p_gen = M.step_distributions(last, tables, model.special_mask)
            for p in (p_n, p_ph, p_gen):
                worst = max(worst, abs(float(p.sum()) - 1.0))
                assert (p >= 0).all()
        assert worst <= 1e-9
        # supervision vectors over the full vocabulary
        support = model.r_support()
        for piece in content_ids[:50]:
            r = supervision_distribution(model.vocab.pieces[piece], support, lexicon)
            worst = max(worst, abs(float(r.sum()) - 1.0))
            assert (r >= 0).all()
        assert worst <= 1e-9
        _report(3, f"P_n/P_ph/P_gen/R normalized within {worst:.1e} over 1000 passes")


class TestCriterion4DoCalculusIndependence:
    def test_interventional_independence_and_rate(self):
        ids = [f"tok{i}" for i in range(10)]
        tokens = [ids[i % 10] for i in range(100_000)]
        plan = sample_plan_interventional(tokens, 0.45, seed=2024)
        report = E.independence_report([plan], [tokens])
        assert report.verdict == "independent"
        rate = plan.corruption_count / len(tokens)
        assert abs(rate - 0.45) <= 0.005
        biased = ConditionalPriorTable(
            {t: (0.6 if i % 2 else 0.2) for i, t in enumerate(ids)}, default=0.4
        )
        cond = sample_plan_conditional(tokens, biased, seed=2024)
        cond_report = E.independence_report([cond], [tokens])
        assert cond_report.verdict == "dependent"
        _report(
            4,
            f"interventional chi2 p={report.p_value:.3f} (independent), rate {rate:.4f}; "
            f"3:1-biased table rejected (p={cond_report.p_value:.2e})",
        )


class TestCriterion5ErrorTaxonomy:
    def test_classification_matches_length_table(self):
        max_gen_len = 5
        expected = {1: G.ErrorType.DELETION, 2: G.ErrorType.SUBSTITUTION}
        for m in range(1, max_gen_len + 1):
            want = expected.get(m, G.ErrorType.INSERTION)
            span = G.GeneratedSpan(position=0, original="w", token_ids=(7,) * m, surfaces=("x",) * m)
            assert span.error_type is want
        _report(5, f"m-table exact for m in [1, {max_gen_len}]")


class TestCriterion6FixtureReplay:
    def test_both_published_examples_reassemble_exactly(self, fixture_vocab):
        def span(position, original, surfaces):
            ids = tuple(fixture_vocab.piece_to_id[s] for s in surfaces)
            return G.GeneratedSpan(
                position=position, original=original, token_ids=ids,
                surfaces=tuple(surfaces),
            )

        tokens1 = make_token_seq(fixture_vocab, ["as", "best", "##ial"])
        from asrnoise.intervention import CorruptionPlan

        plan1 = CorruptionPlan(z=(False, False, True))
        out1 = G.assemble(tokens1, plan1, [span(2, "##ial", ["at", "##ial", "[EOS]"])])
        assert out1 == "as best atial"

        tokens2 = make_token_seq(fixture_vocab, ["only", "labor", "##ed", "the", "gag", "##s"])
        plan2 = CorruptionPlan(z=(False, False, True, True, False, True))
        out2 = G.assemble(
            tokens2,
            plan2,
            [
                span(2, "##ed", ["##ed", "labor", "[EOS]"]),
                span(3, "the", ["the", "##s", "[EOS]"]),
                span(5, "##s", ["[EOS]"]),
            ],
        )
        assert out2 == "only labored labor thes gag"
        _report(6, f"fixture transcripts reproduced: {out1!r}, {out2!r}")


class TestCriterion7DirectionalAblation:
    def test_phoneme_head_lowers_mean_phoneme_distance(self, desk, lexicon):
        total_train = sum(desk["train_seconds"].values())
        assert total_train < 600.0, "the two training runs must fit the 10-minute budget"
        full = T.load_checkpoint(desk["checkpoints"]["full"])
        abl = T.load_checkpoint(desk["checkpoints"]["abl"])
        texts = desk["heldout_texts"]
        distances = {}
        for tag, model in (("full", full), ("abl", abl)):
            outputs, _ = G.corrupt_corpus(texts, model, p_z=0.45, seed=9, mode=G.SAMPLE)
            distances[tag] = E.mean_phoneme_distance(texts, outputs, lexicon)
        gap = (distances["abl"] - distances["full"]) / distances["abl"]
        assert gap >= 0.05, f"relative gap {gap:.2%} below 5% (full {distances['full']:.4f}, ablation {distances['abl']:.4f})"
        # the desk training run also satisfies the documented loss band
        log_lines = [l for l in desk["loss_logs"]["full"].read_text().splitlines() if l and l[0].isdigit()]
        first_loss = float(log_lines[0].split(",")[1])
        last_loss = float(log_lines[-1].split(",")[1])
        assert last_loss < 0.5 * first_loss
        _report(
            7,
            f"mean phoneme distance full {distances['full']:.4f} vs ablation {distances['abl']:.4f} "
            f"(gap {gap:.1%}, trained in {total_train:.0f}s)",
        )


class TestCriterion8IdentityComposition:
    def test_zero_prior_identity(self, desk, lexicon):
        full = T.load_checkpoint(desk["checkpoints"]["full"])
        texts = desk["train_texts"]
        outputs, records = G.corrupt_corpus(texts, full, p_z=0.0, seed=9)
        assert E.word_error_rate(texts, outputs) == 0.0
        assert records == []

    def test_desk_prior_error_rate_and_mix(self, desk, lexicon):
        full = T.load_checkpoint(desk["checkpoints"]["full"])
        texts = desk["train_texts"]
        outputs, records = G.corrupt_corpus(texts, full, p_z=0.45, seed=9, mode=G.SAMPLE)
        wer = E.word_error_rate(texts, outputs)
        assert wer >= 0.9 * 0.45
        span_types = {rec.span.error_type for rec in records}
        assert span_types == {
            G.ErrorType.DELETION,
            G.ErrorType.SUBSTITUTION,
            G.ErrorType.INSERTION,
        }
        _report(8, f"WER 0 at p_z=0; WER {wer:.3f} >= 0.405 at p_z=0.45 with all three error types")


class TestCriterion9Determinism:
    def test_end_to_end_runs_are_bit_identical(self, tmp_path, lexicon):
        root = tmp_path
        pairs = synthetic.make_parallel_corpus(30, seed=77, min_words=3, max_words=5)
        corpus_tsv = root / "corpus.tsv"
        C.write_pairs_tsv(corpus_tsv, pairs)
        texts = root / "texts.txt"
        texts.write_text("\n".join(p.gt for p in pairs[:10]) + "\n")
        cfg = root / "run.cfg"
        cfg.write_text(
            "d_model = 16\nn_heads = 2\nvocab_size = 160\nepochs = 3\n"
            "learning_rate = 0.001\nbatch_size = 16\nseed = 12\np_z = 0.45\n"
        )
        artifacts = []
        for run in ("a", "b"):
            vocab_path = root / f"vocab_{run}.txt"
            ckpt = root / f"model_{run}.ckpt"
            noised = root / f"noised_{run}.txt"
            report = root / f"spans_{run}.tsv"
            metrics = root / f"metrics_{run}"
            assert cli.main(["vocab", str(corpus_tsv), "--out", str(vocab_path), "--config", str(cfg)]) == 0
            assert cli.main(
                ["train", str(corpus_tsv), "--vocab", str(vocab_path),
                 "--checkpoint", str(ckpt), "--config", str(cfg)]
            ) == 0
            assert cli.main(
                ["corrupt", str(texts), "--checkpoint", str(ckpt), "--out", str(noised),
                 "--report", str(report), "--config", str(cfg)]
            ) == 0
            assert cli.main(
                ["eval", "--ref", str(texts), "--hyp", str(noised), "--out", str(metrics),
                 "--config", str(cfg)]
            ) == 0
            artifacts.append(
                (
                    vocab_path.read_bytes(),
                    ckpt.read_bytes(),
                    noised.read_bytes(),
                    report.read_bytes(),
                    (root / f"metrics_{run}.csv").read_bytes(),
                )
            )
        names = ("vocab", "checkpoint", "pseudo transcripts", "span report", "metrics")
        for name, a, b in zip(names, artifacts[0], artifacts[1]):
            assert a == b, f"{name} differ between identical runs"
        _report(9, "repeated end-to-end runs produced bit-identical artifacts")
