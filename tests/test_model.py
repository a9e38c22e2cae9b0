import numpy as np
import pytest

from asrnoise import autodiff as ad
from asrnoise import corpus as C
from asrnoise import model as M
from asrnoise.autodiff import Tensor
from asrnoise.errors import (
    NonFiniteGradientError,
    PrefixTooLongError,
    SequenceTooLongError,
)

from conftest import make_token_seq
from oracles import block_forward_mp, loss_reference


def _fixture_weights(d, seed=2024):
    rng = np.random.default_rng(seed)
    w = {}
    for name in ("wq", "wk", "wv", "wo"):
        w[name] = rng.normal(0, 0.5, size=(d, d))
    for name in ("bq", "bk", "bv", "bo"):
        w[name] = rng.normal(0, 0.1, size=d)
    w["ln1_g"] = rng.normal(1.0, 0.1, size=d)
    w["ln1_b"] = rng.normal(0, 0.05, size=d)
    w["w1"] = rng.normal(0, 0.5, size=(d, 4 * d))
    w["b1"] = rng.normal(0, 0.1, size=4 * d)
    w["w2"] = rng.normal(0, 0.5, size=(4 * d, d))
    w["b2"] = rng.normal(0, 0.1, size=d)
    w["ln2_g"] = rng.normal(1.0, 0.1, size=d)
    w["ln2_b"] = rng.normal(0, 0.05, size=d)
    return w, rng


def _as_params(weights, prefix):
    return {prefix + name: Tensor(a) for name, a in weights.items()}


class TestEmbedSequence:
    def test_half_mix_hand_computed(self):
        # 2-dim toy: 0.5*[1,2] + 0.5*[3,-1] + [0.5,0.5] = [2.5, 1.0]
        params = {
            "m_word": Tensor(np.array([[1.0, 2.0]])),
            "m_ph": Tensor(np.array([[3.0, -1.0]])),
            "m_pos": Tensor(np.array([[0.5, 0.5]])),
        }
        config = M.ModelConfig(d_model=2, n_heads=1, lambda_w=0.5, max_len=1)
        out = M.embed_sequence([0], params, config, np.array([0]))
        np.testing.assert_allclose(out.data, [[2.5, 1.0]])

    def test_lambda_w_one_ignores_phoneme_table(self):
        rng = np.random.default_rng(0)
        m_word = rng.normal(size=(3, 4))
        m_pos = rng.normal(size=(8, 4))
        config = M.ModelConfig(d_model=4, n_heads=1, lambda_w=1.0, max_len=8)
        rows = np.array([0, 0, 0])
        a = M.embed_sequence([0, 2], {"m_word": Tensor(m_word), "m_ph": Tensor(rng.normal(size=(1, 4))), "m_pos": Tensor(m_pos)}, config, rows)
        b = M.embed_sequence([0, 2], {"m_word": Tensor(m_word), "m_ph": Tensor(rng.normal(size=(1, 4)) * 100), "m_pos": Tensor(m_pos)}, config, rows)
        np.testing.assert_allclose(a.data, b.data)

    def test_shared_code_rows_at_lambda_zero(self):
        rng = np.random.default_rng(1)
        params = {
            "m_word": Tensor(rng.normal(size=(4, 4))),
            "m_ph": Tensor(rng.normal(size=(2, 4))),
            "m_pos": Tensor(rng.normal(size=(8, 4))),
        }
        config = M.ModelConfig(d_model=4, n_heads=1, lambda_w=0.0, max_len=8)
        rows = np.array([1, 1, 0, 0])  # tokens 0 and 1 share a code row
        out = M.embed_sequence([0, 1], params, config, rows)
        delta = out.data - params["m_pos"].data[:2]
        np.testing.assert_allclose(delta[0], delta[1])

    def test_sequence_too_long(self):
        params = {
            "m_word": Tensor(np.zeros((2, 2))),
            "m_ph": Tensor(np.zeros((1, 2))),
            "m_pos": Tensor(np.zeros((2, 2))),
        }
        config = M.ModelConfig(d_model=2, n_heads=1, max_len=2)
        with pytest.raises(SequenceTooLongError):
            M.embed_sequence([0, 1, 0], params, config, np.array([0, 0]))


class TestEncode:
    def test_zeroed_output_paths_reduce_to_layer_norm(self):
        d = 6
        w, rng = _fixture_weights(d)
        w["wo"] = np.zeros((d, d))
        w["bo"] = np.zeros(d)
        w["w2"] = np.zeros((4 * d, d))
        w["b2"] = np.zeros(d)
        for name in ("ln1_g", "ln2_g"):
            w[name] = np.ones(d)
        for name in ("ln1_b", "ln2_b"):
            w[name] = np.zeros(d)
        x = rng.normal(size=(4, d))
        out = M.encode(Tensor(x), _as_params(w, "enc_"), M.ModelConfig(d_model=d, n_heads=2))
        expected = ad.layer_norm(Tensor(x), Tensor(np.ones(d)), Tensor(np.zeros(d))).data
        np.testing.assert_allclose(out.data, expected, atol=1e-9)

    def test_permutation_equivariance(self):
        d = 8
        w, rng = _fixture_weights(d)
        x = rng.normal(size=(5, d))
        perm = np.array([3, 0, 4, 1, 2])
        config = M.ModelConfig(d_model=d, n_heads=4)
        params = _as_params(w, "enc_")
        out = M.encode(Tensor(x), params, config)
        out_perm = M.encode(Tensor(x[perm]), params, config)
        np.testing.assert_allclose(out_perm.data, out.data[perm], atol=1e-12)

    def test_golden_output_matches_high_precision_oracle(self):
        d = 4
        w, rng = _fixture_weights(d)
        x = rng.normal(0, 1.0, size=(3, d))
        out = M.encode(Tensor(x), _as_params(w, "enc_"), M.ModelConfig(d_model=d, n_heads=2))
        golden = np.array(
            [
                [1.2404028980717592, -1.2472004152215632, 0.2026861463406532, 0.00898030586093113],
                [-1.0386718025702184, 0.7380171167913011, -0.8459560058732389, 1.1523845900549428],
                [-1.0639859165779848, 0.9958689851018828, -0.7606364146717879, 0.7726427611373836],
            ]
        )
        np.testing.assert_allclose(out.data, golden, atol=1e-12)
        np.testing.assert_allclose(out.data, block_forward_mp(x, x, w, n_heads=2), atol=1e-12)


class TestDecoder:
    def _setup(self, d=4, n_heads=1, seed=2024):
        w, rng = _fixture_weights(d, seed)
        params = _as_params(w, "dec_")
        params.update(
            {
                "m_word": Tensor(rng.normal(size=(6, d))),
                "m_ph": Tensor(rng.normal(size=(3, d))),
                "m_pos": Tensor(rng.normal(size=(8, d))),
                "bos_emb": Tensor(rng.normal(size=(1, d))),
                "dec_h": Tensor(rng.normal(size=(2 * d, d))),
            }
        )
        config = M.ModelConfig(d_model=d, n_heads=n_heads, max_gen_len=5, max_len=8)
        rows = np.array([0, 1, 2, 0, 1, 2])
        e_enc = Tensor(rng.normal(size=(3, d)))
        return params, config, rows, e_enc, w

    def test_cross_attention_matches_oracle(self):
        d = 4
        w, rng = _fixture_weights(d)
        x = rng.normal(0, 1.0, size=(3, d))
        q = rng.normal(0, 1.0, size=(1, d))
        out = M._attention_ffn_block(Tensor(q), Tensor(x), _as_params(w, "dec_"), "dec_", M.ModelConfig(d_model=d, n_heads=1))
        golden = np.array(
            [[1.0750241669051352, 0.08450862301079234, 0.28788132328196664, -1.5593474421508309]]
        )
        np.testing.assert_allclose(out.data, golden, atol=1e-12)
        np.testing.assert_allclose(out.data, block_forward_mp(q, x, w, n_heads=1), atol=1e-12)

    def test_identity_weight_attention_average(self):
        # single head, identity projections, zeroed feed-forward: the hidden
        # state is the layer-normed sum of the query and its attention average
        d = 4
        w, rng = _fixture_weights(d)
        for name in ("wq", "wk", "wv", "wo"):
            w[name] = np.eye(d)
        for name in ("bq", "bk", "bv", "bo", "ln1_b", "ln2_b", "b2"):
            w[name] = np.zeros_like(w[name])
        for name in ("ln1_g", "ln2_g"):
            w[name] = np.ones(d)
        w["w2"] = np.zeros((4 * d, d))
        kv = rng.normal(size=(3, d))
        q = rng.normal(size=(1, d))
        out = M._attention_ffn_block(Tensor(q), Tensor(kv), _as_params(w, "dec_"), "dec_", M.ModelConfig(d_model=d, n_heads=1))
        scores = (q @ kv.T) / np.sqrt(d)
        att = np.exp(scores - scores.max())
        att /= att.sum()
        mixed = q + att @ kv
        mu = mixed.mean()
        sigma = np.sqrt(((mixed - mu) ** 2).mean() + 1e-12)
        np.testing.assert_allclose(out.data, (mixed - mu) / sigma, atol=1e-9)

    def test_prefix_order_changes_hidden_state(self):
        params, config, rows, e_enc, _ = self._setup()
        e_k = ad.row_slice(e_enc, 0, 1)
        a = M.decoder_hidden(e_k, [1, 2], e_enc, params, config, rows)
        b = M.decoder_hidden(e_k, [2, 1], e_enc, params, config, rows)
        assert not np.allclose(a.data[-1], b.data[-1])

    def test_deterministic(self):
        params, config, rows, e_enc, _ = self._setup()
        e_k = ad.row_slice(e_enc, 1, 2)
        a = M.decoder_hidden(e_k, [3], e_enc, params, config, rows)
        b = M.decoder_hidden(e_k, [3], e_enc, params, config, rows)
        np.testing.assert_array_equal(a.data, b.data)

    def test_step_equals_full_pass_row(self):
        params, config, rows, e_enc, _ = self._setup(n_heads=2)
        e_k = ad.row_slice(e_enc, 2, 3)
        target = [3, 1, 4]
        full = M.decoder_hidden(e_k, target[:-1], e_enc, params, config, rows)
        for l in range(len(target)):
            step = M.decoder_hidden(e_k, target[:l], e_enc, params, config, rows)
            assert step.data.shape == (1 + l, config.d_model)
            np.testing.assert_allclose(step.data[-1], full.data[l], atol=1e-12)

    def test_prefix_too_long(self):
        params, config, rows, e_enc, _ = self._setup()
        e_k = ad.row_slice(e_enc, 0, 1)
        # max_gen_len positions are allowed; one more is not
        M.decoder_hidden(e_k, [1, 2, 3, 4], e_enc, params, config, rows)
        with pytest.raises(PrefixTooLongError):
            M.decoder_hidden(e_k, [1, 2, 3, 4, 1], e_enc, params, config, rows)


def _toy_model(lexicon, phoneme_head=True, lambda_w=0.5, seed=5):
    vocab = C.SubwordVocab(
        ["[BOS]", "[EOS]", "[UNK]", "meat", "meet", "cue", "queue", "sue", "the", "gag"]
    )
    config = M.ModelConfig(
        d_model=8, n_heads=2, max_gen_len=5, max_len=16,
        lambda_w=lambda_w, phoneme_head=phoneme_head,
    )
    return M.Model.build(vocab, lexicon, config, seed=seed)


def _toy_batch(model, lexicon):
    alignment = C.align_pair("the cue gag", "the queue", lexicon)
    return C.build_training_items([alignment], model.vocab, ["s0"])


def _item(model, sid, pieces, position, target_pieces):
    vocab = model.vocab
    surfaces = tuple(target_pieces) + ("[EOS]",)
    return C.AlignedExample(
        sentence_id=sid,
        sentence=make_token_seq(vocab, pieces),
        position=position,
        gt_piece=pieces[position],
        target_ids=tuple(vocab.piece_to_id[p] for p in surfaces),
        target_surfaces=surfaces,
        error_label="",
    )


def _mixed_batch(model):
    """Sentences of 2, 3 and 6 pieces, several items per sentence, and
    targets of every length from a bare [EOS] to max_gen_len."""
    short = ["meat", "sue"]
    mid = ["the", "cue", "gag"]
    long = ["the", "meet", "cue", "queue", "gag", "sue"]
    return [
        _item(model, "mid", mid, 1, []),
        _item(model, "long", long, 4, ["sue", "meat", "the", "queue"]),
        _item(model, "short", short, 0, ["meet"]),
        _item(model, "mid", mid, 2, ["the", "gag", "cue"]),
        _item(model, "long", long, 0, ["queue"]),
        _item(model, "short", short, 1, ["sue", "the"]),
        _item(model, "long", long, 5, []),
    ]


class TestBatchedLossGraph:
    def test_batch_has_every_target_length_and_shared_sentences(self, lexicon):
        model = _toy_model(lexicon)
        batch = _mixed_batch(model)
        assert {len(x.target_ids) for x in batch} == set(range(1, model.config.max_gen_len + 1))
        assert len({x.sentence_id for x in batch}) < len(batch)
        assert len({len(x.sentence) for x in batch}) == 3

    def test_loss_equals_sum_of_item_references(self, lexicon):
        model = _toy_model(lexicon)
        batch = _mixed_batch(model)
        l_tot, l_n, l_ph = M.loss_total(batch, model, lexicon)
        refs = np.array([loss_reference(model, x, lexicon) for x in batch]).sum(axis=0)
        assert float(l_n.data) == pytest.approx(refs[0], rel=1e-10)
        assert float(l_ph.data) == pytest.approx(refs[1], rel=1e-10)
        assert float(l_tot.data) == pytest.approx(refs[2], rel=1e-10)

    def test_gradients_equal_sum_of_single_item_gradients(self, lexicon):
        model = _toy_model(lexicon)
        batch = _mixed_batch(model)
        batched, _ = M.backward_and_check(model, batch, lexicon)
        for name in batched:
            summed = sum(M.backward_and_check(model, [x], lexicon)[0][name] for x in batch)
            np.testing.assert_allclose(batched[name], summed, rtol=0, atol=1e-12)

    def test_longer_sentence_leaves_other_items_unchanged(self, lexicon):
        model = _toy_model(lexicon)
        batch = _mixed_batch(model)
        longest = ["gag", "the", "queue", "meet", "sue", "cue", "the", "meat", "gag"]
        extra = _item(model, "longest", longest, 7, ["cue", "sue", "gag", "the"])
        assert len(longest) > max(len(x.sentence) for x in batch)
        alone = M._loss_graph(batch, model, lexicon)
        grown = M._loss_graph(batch + [extra], model, lexicon)
        steps = len(alone.targets)
        np.testing.assert_allclose(grown.logits_n.data[:steps], alone.logits_n.data, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grown.logits_ph.data[:steps], alone.logits_ph.data, rtol=0, atol=1e-12)
        extra_tot = float(M.loss_total([extra], model, lexicon)[0].data)
        assert float(grown.l_tot.data) == pytest.approx(float(alone.l_tot.data) + extra_tot, rel=1e-12)

    def test_ablated_model_matches_item_references(self, lexicon):
        model = _toy_model(lexicon, phoneme_head=False)
        batch = _mixed_batch(model)
        l_tot, l_n, l_ph = M.loss_total(batch, model, lexicon)
        refs = np.array([loss_reference(model, x, lexicon) for x in batch]).sum(axis=0)
        assert float(l_n.data) == pytest.approx(refs[0], rel=1e-10)
        assert float(l_ph.data) == 0.0
        assert float(l_tot.data) == pytest.approx(refs[2], rel=1e-10)

    def test_batched_decoder_matches_single_span_rows(self, lexicon):
        model = _toy_model(lexicon)
        params = M._wrap_params(model.params)
        config, rows_map = model.config, model.code_index.token_rows
        sentences = [[3, 5, 8, 9], [6, 4]]
        positions = [2, 1]
        prefixes = [[5, 6, 7], []]
        ids = M._pad(sentences)
        real = np.array([[True, True, True, True], [True, True, False, False]])
        e_enc = M.encode(M.embed_sequence(ids, params, config, rows_map), params, config, real)
        e_k = ad.select(e_enc, np.array([[0], [1]]), np.array(positions)[:, None])
        hidden = M.decoder_hidden(e_k, prefixes, e_enc, params, config, rows_map, real)
        for b, (sentence, k, prefix) in enumerate(zip(sentences, positions, prefixes)):
            single_enc = M.encode(M.embed_sequence(sentence, params, config, rows_map), params, config)
            np.testing.assert_allclose(e_enc.data[b, : len(sentence)], single_enc.data, rtol=0, atol=1e-12)
            single = M.decoder_hidden(
                ad.row_slice(single_enc, k, k + 1), prefix, single_enc, params, config, rows_map
            )
            np.testing.assert_allclose(hidden.data[b, : 1 + len(prefix)], single.data, rtol=0, atol=1e-12)

    def test_empty_batch_rejected(self, lexicon):
        model = _toy_model(lexicon)
        with pytest.raises(ValueError):
            M.loss_total([], model, lexicon)


class TestStepDistributions:
    def _dists(self, model, seed=0):
        rng = np.random.default_rng(seed)
        params = M._wrap_params(model.params)
        d_k = Tensor(rng.normal(size=(1, model.config.d_model)))
        return M.step_distributions(d_k, params, model.config, model.code_index.token_rows, model.special_mask)

    def test_distributions_sum_to_one(self, lexicon):
        model = _toy_model(lexicon)
        for seed in range(5):
            p_n, p_ph, p_gen = self._dists(model, seed)
            for p in (p_n, p_ph, p_gen):
                assert abs(p.data.sum() - 1.0) <= 1e-9
                assert (p.data >= 0).all()

    def test_shared_phonetic_code_shares_phoneme_logits(self, lexicon):
        model = _toy_model(lexicon)
        idx_meat = model.vocab.piece_to_id["meat"]
        idx_meet = model.vocab.piece_to_id["meet"]
        idx_cue = model.vocab.piece_to_id["cue"]
        idx_queue = model.vocab.piece_to_id["queue"]
        _, p_ph, _ = self._dists(model)
        assert p_ph.data[0, idx_meat] == p_ph.data[0, idx_meet]
        assert p_ph.data[0, idx_cue] == p_ph.data[0, idx_queue]

    def test_uniform_phoneme_head_leaves_word_head(self, lexicon):
        model = _toy_model(lexicon)
        # one shared code row for every token makes the phoneme head uniform
        n = len(model.vocab)
        model.code_index.token_rows = np.zeros(n, dtype=np.intp)
        p_n, p_ph, p_gen = self._dists(model)
        np.testing.assert_allclose(p_ph.data, np.full((1, n), 1.0 / n), atol=1e-12)
        np.testing.assert_allclose(p_gen.data, p_n.data, atol=1e-12)

    def test_specials_keep_word_head_probability(self, lexicon):
        model = _toy_model(lexicon)
        p_n, _, p_gen = self._dists(model)
        for piece in ("[BOS]", "[EOS]", "[UNK]"):
            idx = model.vocab.piece_to_id[piece]
            assert p_gen.data[0, idx] == pytest.approx(p_n.data[0, idx], abs=1e-12)

    def test_product_rule_hand_arithmetic(self, lexicon):
        model = _toy_model(lexicon)
        p_n, p_ph, p_gen = self._dists(model)
        pn, pph = p_n.data[0], p_ph.data[0]
        special = model.special_mask.astype(bool)
        content = ~special
        factor = (pn[content] * pph[content]).sum() / pn[content].sum()
        expected = np.where(special, pn * factor, pn * pph)
        expected /= expected.sum()
        np.testing.assert_allclose(p_gen.data[0], expected, atol=1e-12)

    def test_ablated_model_returns_word_head(self, lexicon):
        model = _toy_model(lexicon, phoneme_head=False)
        p_n, p_ph, p_gen = self._dists(model)
        assert p_ph is None
        np.testing.assert_array_equal(p_gen.data, p_n.data)


class TestLoss:
    def test_zero_weight_reduces_to_word_loss(self, lexicon):
        model = _toy_model(lexicon)
        batch = _toy_batch(model, lexicon)
        l_tot, l_n, l_ph = M.loss_total(batch, model, lexicon, lambda_ph=0.0)
        assert float(l_tot.data) == float(l_n.data)

    def test_matches_independent_recomputation(self, lexicon):
        model = _toy_model(lexicon)
        batch = _toy_batch(model, lexicon)
        assert batch
        for example in batch:
            l_tot, l_n, l_ph = M.loss_total([example], model, lexicon)
            ref_n, ref_ph, ref_tot = loss_reference(model, example, lexicon)
            assert float(l_n.data) == pytest.approx(ref_n, rel=1e-10)
            assert float(l_ph.data) == pytest.approx(ref_ph, rel=1e-10)
            assert float(l_tot.data) == pytest.approx(ref_tot, rel=1e-10)

    def test_duplicated_example_doubles_gradient(self, lexicon):
        model = _toy_model(lexicon)
        batch = _toy_batch(model, lexicon)
        g1, _ = M.backward_and_check(model, batch[:1], lexicon)
        g2, _ = M.backward_and_check(model, batch[:1] + batch[:1], lexicon)
        for name in g1:
            np.testing.assert_allclose(g2[name], 2.0 * g1[name], atol=1e-12)

    def test_unused_phoneme_bias_gets_zero_gradient(self, lexicon):
        model = _toy_model(lexicon)
        batch = _toy_batch(model, lexicon)
        grads, _ = M.backward_and_check(model, batch, lexicon, lambda_ph=0.0)
        np.testing.assert_array_equal(grads["b_ph"], np.zeros_like(grads["b_ph"]))

    def test_phoneme_table_unused_at_lambda_w_one(self, lexicon):
        model = _toy_model(lexicon, lambda_w=1.0)
        batch = _toy_batch(model, lexicon)
        grads, _ = M.backward_and_check(model, batch, lexicon, lambda_ph=0.0)
        np.testing.assert_array_equal(grads["m_ph"], np.zeros_like(grads["m_ph"]))

    def test_gradient_check_small_model(self, lexicon):
        model = _toy_model(lexicon)
        batch = _toy_batch(model, lexicon)
        _, report = M.backward_and_check(model, batch, lexicon, check_coords=25, check_seed=3)
        assert report.max_rel_error <= 1e-4

    def test_non_finite_gradient_detected(self, lexicon):
        model = _toy_model(lexicon)
        batch = _toy_batch(model, lexicon)
        model.params["m_word"][0, 0] = np.nan
        with pytest.raises(NonFiniteGradientError):
            M.backward_and_check(model, batch, lexicon)


class TestCodeIndex:
    def test_homophones_share_rows(self, lexicon):
        model = _toy_model(lexicon)
        rows = model.code_index.token_rows
        v = model.vocab.piece_to_id
        assert rows[v["meat"]] == rows[v["meet"]]
        assert rows[v["cue"]] == rows[v["queue"]]
        assert rows[v["cue"]] != rows[v["sue"]]

    def test_specials_have_private_rows(self, lexicon):
        model = _toy_model(lexicon)
        rows = model.code_index.token_rows
        v = model.vocab.piece_to_id
        special_rows = {int(rows[v[p]]) for p in ("[BOS]", "[EOS]", "[UNK]")}
        assert len(special_rows) == 3
        content_rows = {int(rows[v[p]]) for p in ("meat", "cue", "sue", "the", "gag")}
        assert special_rows.isdisjoint(content_rows)

    def test_config_sizes_match_artifacts(self, lexicon):
        model = _toy_model(lexicon)
        assert model.config.vocab_size == len(model.vocab)
        assert model.config.code_vocab_size == len(model.code_index)
        model.params.validate(model.config)
