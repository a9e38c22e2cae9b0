from dataclasses import replace

import numpy as np
import pytest

from asrnoise import autodiff as ad
from asrnoise import corpus as C
from asrnoise import model as M
from asrnoise.autodiff import Tensor
from asrnoise.errors import DegenerateSupportError, PrefixTooLongError, SequenceTooLongError
from asrnoise.phonetics import PronouncingLexicon

from oracles import (
    backward_and_check,
    block_forward_mp,
    loss_reference,
    loss_terms,
    matmul,
    one_span_hidden,
    sum_,
)
from test_autodiff import composed_attention, composed_kl, composed_nll


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
        config = M.ModelConfig(d_model=2, n_heads=1, max_gen_len=1, lambda_w=0.5, max_len=1)
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
        config = M.ModelConfig(d_model=2, n_heads=1, max_gen_len=2, max_len=2)
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
        out = M.encode(Tensor(x[None]), _as_params(w, "enc_"), M.ModelConfig(d_model=d, n_heads=2))
        expected = ad.layer_norm(Tensor(x), Tensor(np.ones(d)), Tensor(np.zeros(d))).data
        np.testing.assert_allclose(out.data[0], expected, atol=1e-9)

    def test_permutation_equivariance(self):
        d = 8
        w, rng = _fixture_weights(d)
        x = rng.normal(size=(5, d))
        perm = np.array([3, 0, 4, 1, 2])
        config = M.ModelConfig(d_model=d, n_heads=4)
        params = _as_params(w, "enc_")
        out = M.encode(Tensor(x[None]), params, config)
        out_perm = M.encode(Tensor(x[perm][None]), params, config)
        np.testing.assert_allclose(out_perm.data[0], out.data[0][perm], atol=1e-12)

    def test_golden_output_matches_high_precision_oracle(self):
        d = 4
        w, rng = _fixture_weights(d)
        x = rng.normal(0, 1.0, size=(3, d))
        out = M.encode(Tensor(x[None]), _as_params(w, "enc_"), M.ModelConfig(d_model=d, n_heads=2))
        golden = np.array(
            [
                [1.2404028980717592, -1.2472004152215632, 0.2026861463406532, 0.00898030586093113],
                [-1.0386718025702184, 0.7380171167913011, -0.8459560058732389, 1.1523845900549428],
                [-1.0639859165779848, 0.9958689851018828, -0.7606364146717879, 0.7726427611373836],
            ]
        )
        np.testing.assert_allclose(out.data[0], golden, atol=1e-12)
        np.testing.assert_allclose(out.data[0], block_forward_mp(x, x, w, n_heads=2), atol=1e-12)


def _composed_block(q_in, kv_in, params, prefix, n_heads, grids=None):
    """The attention and feed-forward block from the engine's elementary ops."""

    def dense(x, name):
        return ad.add(matmul(x, params[prefix + "w" + name]), params[prefix + "b" + name])

    q, k, v = dense(q_in, "q"), dense(kv_in, "k"), dense(kv_in, "v")
    attn = dense(composed_attention(q, k, v, n_heads, grids), "o")
    h1 = ad.layer_norm(ad.add(q_in, attn), params[prefix + "ln1_g"], params[prefix + "ln1_b"])
    ffn = dense(ad.gelu(dense(h1, "1")), "2")
    return ad.layer_norm(ad.add(h1, ffn), params[prefix + "ln2_g"], params[prefix + "ln2_b"])


class TestFusedBlock:
    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    def test_block_equals_composed_ops_bit_for_bit(self, n_heads):
        d = 8
        w, rng = _fixture_weights(d, seed=n_heads)
        config = M.ModelConfig(d_model=d, n_heads=n_heads)
        # packed: 3 queries over 4 keys and 2 queries over 5 keys
        packed = (ad.Grid([0, 0, 0, 1, 1], 2), ad.Grid(np.repeat([0, 1], [4, 5]), 2))
        for grids in (None, packed):
            if grids is None:
                q, kv = rng.normal(size=(2, 3, d)), rng.normal(size=(2, 5, d))
            else:
                q, kv = rng.normal(size=(5, d)), rng.normal(size=(9, d))
            g = Tensor(rng.normal(size=q.shape), needs_grad=False)
            runs = []
            for block in (
                lambda q_in, kv_in, p: M._attention_ffn_block(q_in, M.decoder_memory(kv_in, p), p, "dec_", config, grids),
                lambda *a: _composed_block(*a, "dec_", n_heads, grids),
            ):
                inputs = [Tensor(q), Tensor(kv), _as_params(w, "dec_")]
                out = block(*inputs)
                ad.backward(sum_(ad.mul(out, g)))
                runs.append((out, inputs))
            (fused, (fq, fkv, fp)), (composed, (cq, ckv, cp)) = runs
            assert np.array_equal(fused.data, composed.data)
            assert np.array_equal(fq.grad, cq.grad) and np.array_equal(fkv.grad, ckv.grad)
            for name in fp:
                assert np.array_equal(fp[name].grad, cp[name].grad), name


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

    @staticmethod
    def _span(params, e_enc, k):
        """The first query row ``[1, d]`` of the span of encoder row ``k`` of
        one sentence's packed rows, and the decoder's keys and values of them."""
        return M.decoder_start(ad.rows(e_enc, [k]), params), M.decoder_memory(e_enc, params)

    def test_cross_attention_matches_oracle(self):
        d = 4
        w, rng = _fixture_weights(d)
        x = rng.normal(0, 1.0, size=(3, d))
        q = rng.normal(0, 1.0, size=(1, d))
        params = _as_params(w, "dec_")
        out = M._attention_ffn_block(Tensor(q[None]), M.decoder_memory(Tensor(x[None]), params), params, "dec_", M.ModelConfig(d_model=d, n_heads=1))
        golden = np.array(
            [[1.0750241669051352, 0.08450862301079234, 0.28788132328196664, -1.5593474421508309]]
        )
        np.testing.assert_allclose(out.data[0], golden, atol=1e-12)
        np.testing.assert_allclose(out.data[0], block_forward_mp(q, x, w, n_heads=1), atol=1e-12)

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
        params = _as_params(w, "dec_")
        out = M._attention_ffn_block(Tensor(q[None]), M.decoder_memory(Tensor(kv[None]), params), params, "dec_", M.ModelConfig(d_model=d, n_heads=1))
        scores = (q @ kv.T) / np.sqrt(d)
        att = np.exp(scores - scores.max())
        att /= att.sum()
        mixed = q + att @ kv
        mu = mixed.mean()
        sigma = np.sqrt(((mixed - mu) ** 2).mean() + 1e-12)
        np.testing.assert_allclose(out.data[0], (mixed - mu) / sigma, atol=1e-9)

    def test_prefix_order_changes_hidden_state(self):
        params, config, rows, e_enc, _ = self._setup()
        start, memory = self._span(params, e_enc, 0)
        a = one_span_hidden(start, [1, 2], memory, params, config, rows)
        b = one_span_hidden(start, [2, 1], memory, params, config, rows)
        assert not np.allclose(a.data[-1], b.data[-1])

    def test_deterministic(self):
        params, config, rows, e_enc, _ = self._setup()
        start, memory = self._span(params, e_enc, 1)
        a = one_span_hidden(start, [3], memory, params, config, rows)
        b = one_span_hidden(start, [3], memory, params, config, rows)
        np.testing.assert_array_equal(a.data, b.data)

    def test_step_equals_full_pass_row(self):
        params, config, rows, e_enc, _ = self._setup(n_heads=2)
        start, memory = self._span(params, e_enc, 2)
        target = [3, 1, 4]
        full = one_span_hidden(start, target[:-1], memory, params, config, rows)
        for l in range(len(target)):
            step = one_span_hidden(start, target[:l], memory, params, config, rows)
            assert step.data.shape == (1 + l, config.d_model)
            np.testing.assert_allclose(step.data[-1], full.data[l], atol=1e-12)

    def test_prefix_too_long(self):
        params, config, rows, e_enc, _ = self._setup()
        start, memory = self._span(params, e_enc, 0)
        # max_gen_len positions are allowed; one more is not
        one_span_hidden(start, [1, 2, 3, 4], memory, params, config, rows)
        with pytest.raises(PrefixTooLongError):
            one_span_hidden(start, [1, 2, 3, 4, 1], memory, params, config, rows)

    def test_prefix_without_grids_is_rejected(self):
        # prefix rows exist only in training's packed form; decoding's
        # grid-less form takes the live rows [s, 1, d] with empty prefixes
        params, config, rows, e_enc, _ = self._setup()
        start = M.decoder_start(Tensor(e_enc.data[None, :1]), params)
        memory = M.decoder_memory(Tensor(e_enc.data[None]), params)
        assert M.decoder_hidden(start, [()], memory, params, config, rows).data.shape == (1, 1, config.d_model)
        with pytest.raises(ValueError):
            M.decoder_hidden(start, [[1, 2]], memory, params, config, rows)


def _toy_model(lexicon, phoneme_head=True, lambda_w=0.5, seed=5):
    vocab = C.SubwordVocab(
        ["[BOS]", "[EOS]", "[UNK]", "meat", "meet", "cue", "queue", "sue", "the", "gag"]
    )
    config = M.ModelConfig(
        d_model=8, n_heads=2, max_gen_len=5, max_len=16,
        lambda_w=lambda_w, phoneme_head=phoneme_head,
    )
    return M.Model.build(vocab, lexicon, config, seed=seed)


def _without_phoneme_loss(model):
    """The same parameters under the config with lambda_ph = 0."""
    return M.Model(model.params, replace(model.config, lambda_ph=0.0), model.vocab, model.code_index)


def _toy_batch(model, lexicon):
    alignment = C.align_pair("the cue gag", "the queue", lexicon)
    return C.build_training_items([alignment], model.vocab, ["s0"], max_target_len=model.config.max_gen_len)


def _item(model, sid, pieces, position, target_pieces):
    vocab = model.vocab
    surfaces = tuple(target_pieces) + ("[EOS]",)
    return C.AlignedExample(
        sentence_id=sid,
        sentence=tuple(vocab.piece_to_id[p] for p in pieces),
        position=position,
        target_ids=tuple(vocab.piece_to_id[p] for p in surfaces),
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
        l_tot, l_n, l_ph = loss_terms(batch, model, lexicon)
        refs = np.array([loss_reference(model, x, lexicon) for x in batch]).sum(axis=0)
        assert float(l_n.data) == pytest.approx(refs[0], rel=1e-10)
        assert float(l_ph.data) == pytest.approx(refs[1], rel=1e-10)
        assert float(l_tot.data) == pytest.approx(refs[2], rel=1e-10)

    def test_gradients_equal_sum_of_single_item_gradients(self, lexicon):
        model = _toy_model(lexicon)
        batch = _mixed_batch(model)
        batched, _ = backward_and_check(model, batch, lexicon)
        for name in batched:
            summed = sum(backward_and_check(model, [x], lexicon)[0][name] for x in batch)
            np.testing.assert_allclose(batched[name], summed, rtol=0, atol=1e-12)

    def test_items_sharing_an_id_keep_their_own_sentences(self, lexicon):
        model = _toy_model(lexicon)
        batch = _mixed_batch(model)
        shared = [replace(x, sentence_id="same") for x in batch]
        unique = [replace(x, sentence_id=str(i)) for i, x in enumerate(batch)]
        expected = [float(t.data) for t in loss_terms(batch, model, lexicon)]
        assert [float(t.data) for t in loss_terms(shared, model, lexicon)] == expected
        assert [float(t.data) for t in loss_terms(unique, model, lexicon)] == expected

    def test_longer_sentence_leaves_other_items_unchanged(self, lexicon, monkeypatch):
        model = _toy_model(lexicon)
        batch = _mixed_batch(model)
        longest = ["gag", "the", "queue", "meet", "sue", "cue", "the", "meat", "gag"]
        extra = _item(model, "longest", longest, 7, ["cue", "sue", "gag", "the"])
        assert len(longest) > max(len(x.sentence) for x in batch)
        # each graph's per-step word and phoneme head logits
        logits = []
        original = M._head_logits
        monkeypatch.setattr(M, "_head_logits", lambda *a: logits.append(original(*a)) or logits[-1])
        alone = M._loss_graph(batch, model, lexicon)
        grown = M._loss_graph(batch + [extra], model, lexicon)
        (alone_n, alone_ph), (grown_n, grown_ph) = logits
        n, steps = len(batch), sum(len(x.target_ids) for x in batch)
        # the grown graph's rows: the extra item's start row follows the batch's
        # start rows, and its prefix rows follow the batch's prefix rows
        own = np.r_[0:n, n + 1 : steps + 1]
        np.testing.assert_allclose(grown_n.data[own], alone_n.data, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grown_ph.data[own], alone_ph.data, rtol=0, atol=1e-12)
        extra_tot = float(loss_terms([extra], model, lexicon)[0].data)
        assert float(grown.l_tot.data) == pytest.approx(float(alone.l_tot.data) + extra_tot, rel=1e-12)

    @pytest.mark.parametrize("case", ["one_token_sentence", "shared_sentence", "one_item", "max_len_sentence"])
    def test_packing_edge_cases_match_item_references(self, lexicon, case):
        model = _toy_model(lexicon)
        mid = ["the", "cue", "gag"]
        longest = (["meat", "sue", "queue", "the"] * 4)[: model.config.max_len]
        batch = {
            "one_token_sentence": [
                _item(model, "one", ["gag"], 0, ["the", "cue"]),
                _item(model, "mid", mid, 1, ["sue"]),
                _item(model, "one", ["gag"], 0, []),
            ],
            "shared_sentence": [
                _item(model, "mid", mid, 0, ["queue", "meat"]),
                _item(model, "mid", mid, 1, []),
                _item(model, "mid", mid, 2, ["sue", "the", "meet", "gag"]),
            ],
            "one_item": [_item(model, "mid", mid, 2, ["meet", "sue"])],
            "max_len_sentence": [
                _item(model, "short", ["meat", "sue"], 1, ["cue"]),
                _item(model, "longest", longest, model.config.max_len - 1, ["gag", "the"]),
                _item(model, "longest", longest, 0, []),
            ],
        }[case]
        l_tot, l_n, l_ph = loss_terms(batch, model, lexicon)
        refs = np.array([loss_reference(model, x, lexicon) for x in batch]).sum(axis=0)
        assert float(l_n.data) == pytest.approx(refs[0], rel=1e-10)
        assert float(l_ph.data) == pytest.approx(refs[1], rel=1e-10)
        assert float(l_tot.data) == pytest.approx(refs[2], rel=1e-10)
        batched, _ = backward_and_check(model, batch, lexicon)
        for name in batched:
            summed = sum(backward_and_check(model, [x], lexicon)[0][name] for x in batch)
            np.testing.assert_allclose(batched[name], summed, rtol=0, atol=1e-12)

    def test_row_wise_kernels_see_only_real_rows(self, lexicon, monkeypatch):
        # every projection, layer norm and feed-forward runs on the batch's
        # real encoder tokens and real decoder steps alone, none padded
        model = _toy_model(lexicon)
        batch = _mixed_batch(model)
        tokens = sum(len(s) for s in {x.sentence for x in batch})
        steps = sum(len(x.target_ids) for x in batch)
        seen = {"linear": [], "layer_norm": [], "gelu": []}
        for name, rows in seen.items():
            def counting(*args, _op=getattr(ad, name), _rows=rows):
                _rows.append(args[0].data[..., 0].size)
                return _op(*args)
            monkeypatch.setattr(ad, name, counting)
        M._loss_graph(batch, model, lexicon)
        assert sorted(seen["gelu"]) == sorted([tokens, steps])
        assert sorted(seen["layer_norm"]) == sorted([tokens, tokens, steps, steps])
        # the decoder's start projection runs once per item
        assert set(seen["linear"]) == {tokens, steps, len(batch)}

    def test_ablated_model_matches_item_references(self, lexicon):
        model = _toy_model(lexicon, phoneme_head=False)
        batch = _mixed_batch(model)
        l_tot, l_n, l_ph = loss_terms(batch, model, lexicon)
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
        tokens = ad.Grid([0, 0, 0, 0, 1, 1], 2)
        steps = ad.Grid([0, 1, 0, 0, 0], 2)
        ids = np.concatenate(sentences)
        e_enc = M.encode(M.embed_sequence(ids, params, config, rows_map, tokens), params, config, tokens)
        start = M.decoder_start(ad.rows(e_enc, [2, 4 + 1]), params)
        hidden = M.decoder_hidden(
            start, prefixes, M.decoder_memory(e_enc, params), params, config, rows_map, (steps, tokens)
        )
        assert e_enc.data.shape == (6, config.d_model) and hidden.data.shape == (5, config.d_model)
        # span i's rows: start row i, then its slice of the prefix rows after the start rows
        first_token, first_prefix = 0, len(sentences)
        for i, (sentence, k, prefix) in enumerate(zip(sentences, positions, prefixes)):
            single_enc = M.encode(M.embed_sequence([sentence], params, config, rows_map), params, config)
            mine = e_enc.data[first_token : first_token + len(sentence)]
            np.testing.assert_allclose(mine, single_enc.data[0], rtol=0, atol=1e-12)
            single_rows = ad.rows(single_enc, 0)
            single = one_span_hidden(
                M.decoder_start(ad.rows(single_rows, [k]), params), prefix,
                M.decoder_memory(single_rows, params), params, config, rows_map,
            )
            mine = hidden.data[np.r_[i, first_prefix : first_prefix + len(prefix)]]
            np.testing.assert_allclose(mine, single.data, rtol=0, atol=1e-12)
            first_token, first_prefix = first_token + len(sentence), first_prefix + len(prefix)

    def test_empty_batch_rejected(self, lexicon):
        model = _toy_model(lexicon)
        with pytest.raises(ValueError):
            loss_terms([], model, lexicon)


class TestFusedLoss:
    @pytest.mark.parametrize("phoneme_head", [True, False])
    @pytest.mark.parametrize("lambda_ph", [0.0, 0.5])
    def test_loss_equals_composed_ops_bit_for_bit(self, lexicon, monkeypatch, phoneme_head, lambda_ph):
        base = _toy_model(lexicon, phoneme_head=phoneme_head)
        model = M.Model(base.params, replace(base.config, lambda_ph=lambda_ph), base.vocab, base.code_index)
        batch = _mixed_batch(model)
        runs = []
        for use_composed in (False, True):
            if use_composed:
                monkeypatch.setattr(ad, "nll", composed_nll)
                monkeypatch.setattr(ad, "kl", composed_kl)
            graph = M._loss_graph(batch, model, lexicon)
            ad.backward(graph.l_tot)
            runs.append(graph)
        fused, composed = runs
        for name in ("l_tot", "l_n", "l_ph"):
            assert np.array_equal(getattr(fused, name).data, getattr(composed, name).data), name
        assert (float(fused.l_ph.data) > 0.0) == (phoneme_head and lambda_ph > 0.0)
        for name in fused.params:
            f, c = fused.params[name].grad, composed.params[name].grad
            assert (f is None and c is None) or np.array_equal(f, c), name


class TestStepDistributions:
    def _dists(self, model, seed=0):
        rng = np.random.default_rng(seed)
        params = M._wrap_params(model.params)
        d_k = Tensor(rng.normal(size=(1, model.config.d_model)))
        tables = M.head_tables(params, model.config, model.code_index.token_rows)
        return M.step_distributions(d_k, tables, model.special_mask)

    def test_distributions_sum_to_one(self, lexicon):
        model = _toy_model(lexicon)
        for seed in range(5):
            p_n, p_ph, p_gen = self._dists(model, seed)
            for p in (p_n, p_ph, p_gen):
                assert abs(p.sum() - 1.0) <= 1e-9
                assert (p >= 0).all()

    def test_shared_phonetic_code_shares_phoneme_logits(self, lexicon):
        model = _toy_model(lexicon)
        idx_meat = model.vocab.piece_to_id["meat"]
        idx_meet = model.vocab.piece_to_id["meet"]
        idx_cue = model.vocab.piece_to_id["cue"]
        idx_queue = model.vocab.piece_to_id["queue"]
        _, p_ph, _ = self._dists(model)
        assert p_ph[0, idx_meat] == p_ph[0, idx_meet]
        assert p_ph[0, idx_cue] == p_ph[0, idx_queue]

    def test_uniform_phoneme_head_leaves_word_head(self, lexicon):
        model = _toy_model(lexicon)
        # one shared code row for every token makes the phoneme head uniform
        n = len(model.vocab)
        model.code_index.token_rows = np.zeros(n, dtype=np.intp)
        p_n, p_ph, p_gen = self._dists(model)
        np.testing.assert_allclose(p_ph, np.full((1, n), 1.0 / n), atol=1e-12)
        np.testing.assert_allclose(p_gen, _without_bos_unk(model, p_n), atol=1e-12)

    def test_eos_keeps_word_head_probability_bos_and_unk_get_none(self, lexicon):
        for phoneme_head in (True, False):
            model = _toy_model(lexicon, phoneme_head=phoneme_head)
            for seed in range(5):
                p_n, _, p_gen = self._dists(model, seed)
                kept = _without_bos_unk(model, p_n)
                eos = model.vocab.eos_id
                assert p_gen[0, eos] == pytest.approx(kept[0, eos], abs=1e-12)
                assert p_gen[0, model.vocab.bos_id] == 0.0
                assert p_gen[0, model.vocab.unk_id] == 0.0

    def test_product_rule_hand_arithmetic(self, lexicon):
        model = _toy_model(lexicon)
        p_n, p_ph, p_gen = self._dists(model)
        pn, pph = p_n[0], p_ph[0]
        special = np.isin(model.vocab.pieces, C.SPECIALS)
        content = ~special
        factor = (pn[content] * pph[content]).sum() / pn[content].sum()
        expected = np.where(special, 0.0, pn * pph)
        expected[model.vocab.eos_id] = pn[model.vocab.eos_id] * factor
        expected /= expected.sum()
        np.testing.assert_allclose(p_gen[0], expected, atol=1e-12)

    def test_ablated_model_returns_word_head(self, lexicon):
        model = _toy_model(lexicon, phoneme_head=False)
        p_n, p_ph, p_gen = self._dists(model)
        assert p_ph is None
        np.testing.assert_array_equal(p_gen, _without_bos_unk(model, p_n))


def _without_bos_unk(model, p):
    """``p`` with [BOS] and [UNK] zeroed, renormalized."""
    kept = p.copy()
    kept[:, [model.vocab.bos_id, model.vocab.unk_id]] = 0.0
    return kept / kept.sum(axis=-1, keepdims=True)


class TestLoss:
    def test_zero_weight_reduces_to_word_loss(self, lexicon):
        model = _without_phoneme_loss(_toy_model(lexicon))
        batch = _toy_batch(model, lexicon)
        l_tot, l_n, l_ph = loss_terms(batch, model, lexicon)
        assert float(l_tot.data) == float(l_n.data)

    def test_matches_independent_recomputation(self, lexicon):
        model = _toy_model(lexicon)
        batch = _toy_batch(model, lexicon)
        assert batch
        for example in batch:
            l_tot, l_n, l_ph = loss_terms([example], model, lexicon)
            ref_n, ref_ph, ref_tot = loss_reference(model, example, lexicon)
            assert float(l_n.data) == pytest.approx(ref_n, rel=1e-10)
            assert float(l_ph.data) == pytest.approx(ref_ph, rel=1e-10)
            assert float(l_tot.data) == pytest.approx(ref_tot, rel=1e-10)

    def test_unk_target_gets_no_phoneme_supervision(self, lexicon):
        # [UNK] has no pronunciation, so like [EOS] it adds nothing to l_ph
        model = _toy_model(lexicon)
        example = _item(model, "s", ["the", "cue", "gag"], 1, ["[UNK]"])
        l_tot, l_n, l_ph = loss_terms([example], model, lexicon)
        assert float(l_ph.data) == 0.0
        assert float(l_tot.data) == float(l_n.data)
        word_only = loss_terms([example], _without_phoneme_loss(model), lexicon)[1]
        assert float(l_n.data) == float(word_only.data)
        assert float(l_n.data) == pytest.approx(loss_reference(model, example, lexicon)[0], rel=1e-10)

    def test_duplicated_example_doubles_gradient(self, lexicon):
        model = _toy_model(lexicon)
        batch = _toy_batch(model, lexicon)
        g1, _ = backward_and_check(model, batch[:1], lexicon)
        g2, _ = backward_and_check(model, batch[:1] + batch[:1], lexicon)
        for name in g1:
            np.testing.assert_allclose(g2[name], 2.0 * g1[name], atol=1e-12)

    def test_unused_phoneme_bias_gets_zero_gradient(self, lexicon):
        model = _without_phoneme_loss(_toy_model(lexicon))
        batch = _toy_batch(model, lexicon)
        grads, _ = backward_and_check(model, batch, lexicon)
        np.testing.assert_array_equal(grads["b_ph"], np.zeros_like(grads["b_ph"]))

    def test_phoneme_table_unused_at_lambda_w_one(self, lexicon):
        model = _without_phoneme_loss(_toy_model(lexicon, lambda_w=1.0))
        batch = _toy_batch(model, lexicon)
        grads, _ = backward_and_check(model, batch, lexicon)
        np.testing.assert_array_equal(grads["m_ph"], np.zeros_like(grads["m_ph"]))

    def test_gradient_check_small_model(self, lexicon):
        model = _toy_model(lexicon)
        batch = _toy_batch(model, lexicon)
        _, max_rel = backward_and_check(model, batch, lexicon, check_coords=25, check_seed=3)
        assert max_rel <= 1e-4

    def test_non_finite_gradient_detected(self, lexicon):
        model = _toy_model(lexicon)
        batch = _toy_batch(model, lexicon)
        model.params["m_word"][0, 0] = np.nan
        with pytest.raises(ValueError, match="gradient for m_word contains non-finite values"):
            backward_and_check(model, batch, lexicon)


def _counting_supervision(monkeypatch, degenerate=False):
    """Record the target of every ``supervision_distribution`` call the model
    makes; with ``degenerate`` every call raises DegenerateSupportError."""
    calls = []
    real = M.supervision_distribution

    def counted(target, support, lexicon):
        calls.append(target)
        if degenerate:
            raise DegenerateSupportError(f"target {target!r}")
        return real(target, support, lexicon)

    monkeypatch.setattr(M, "supervision_distribution", counted)
    return calls


class TestSupervisionLog:
    def test_special_pieces_have_no_row(self, lexicon, monkeypatch):
        model = _toy_model(lexicon)
        calls = _counting_supervision(monkeypatch)
        for special in ("[BOS]", "[EOS]", "[UNK]"):
            assert model.supervision_log(model.vocab.piece_to_id[special], lexicon) is None
        assert calls == []

    def test_row_is_the_floored_log_of_the_piece_distribution(self, lexicon):
        model = _toy_model(lexicon)
        r = M.supervision_distribution("cue", model.r_support(), lexicon)
        got = model.supervision_log(model.vocab.piece_to_id["cue"], lexicon)
        np.testing.assert_array_equal(got, np.log(np.maximum(r, M.R_FLOOR)))

    def test_degenerate_target_is_computed_once(self, lexicon, monkeypatch):
        model = _toy_model(lexicon)
        batch = [_item(model, "s", ["the", "cue", "gag"], 1, ["sue"])]
        calls = _counting_supervision(monkeypatch, degenerate=True)
        for _ in range(2):
            graph = M._loss_graph(batch, model, lexicon)
            assert float(graph.l_ph.data) == 0.0
        assert calls == ["sue"]

    def test_initial_and_continuation_surfaces_share_one_row(self, lexicon, monkeypatch):
        vocab = C.SubwordVocab(["[BOS]", "[EOS]", "[UNK]", "a", "b"])
        model = M.Model.build(vocab, lexicon, M.ModelConfig(d_model=8, n_heads=2), seed=5)
        alignments = [C.align_pair("b", "ba", lexicon), C.align_pair("b", "a", lexicon)]
        batch = C.build_training_items(alignments, vocab, max_target_len=model.config.max_gen_len)
        # both alignments' transcript pieces are targets: "ba" ends in "##a", "a" is "a"
        surfaces = {t.surface for a in alignments for e in a for w in e.asr_words for t in C.tokenize_word(w, vocab)}
        assert {"a", "##a"} <= surfaces
        calls = _counting_supervision(monkeypatch)
        M._loss_graph(batch, model, lexicon)
        assert sorted(calls) == ["a", "b"]
        a, b = vocab.piece_to_id["a"], vocab.piece_to_id["b"]
        assert model._supervision_logs.keys() == {a, b, vocab.eos_id}

    def test_a_row_cached_under_one_lexicon_is_not_served_for_another(self, lexicon):
        inventory = lexicon.inventory
        other = PronouncingLexicon({**lexicon.entries, "cue": (inventory["B"], inventory["AA"])}, inventory)
        model = _toy_model(lexicon)
        cue = model.vocab.piece_to_id["cue"]
        first = model.supervision_log(cue, lexicon)
        fresh = _toy_model(lexicon).supervision_log(cue, other)
        assert not np.array_equal(first, fresh)
        np.testing.assert_array_equal(model.supervision_log(cue, other), fresh)
        np.testing.assert_array_equal(model.supervision_log(cue, lexicon), first)


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

    @pytest.mark.parametrize(
        "seed", [True, np.bool_(True), -1, 2**64, 1.0], ids=["bool", "numpy-bool", "minus-one", "2**64", "float"]
    )
    def test_seed_outside_64_bits_rejected(self, lexicon, seed):
        # True is an int to isinstance and would build seed 1's parameters
        model = _toy_model(lexicon)
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            M.Model.build(model.vocab, lexicon, model.config, seed=seed)

    def test_config_sizes_match_artifacts(self, lexicon):
        model = _toy_model(lexicon)
        p = model.params
        assert p["m_word"].shape[0] == p["b_n"].shape[0] == len(model.vocab)
        assert p["m_ph"].shape[0] == p["b_ph"].shape[0] == len(model.code_index)
        M.Model(p, model.config, model.vocab, model.code_index)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p, rows: ({**p, "b_n": p["b_n"][:-1]}, rows), "b_n"),
            (lambda p, rows: ({k: v for k, v in p.items() if k != "dec_h"}, rows), "dec_h"),
            (lambda p, rows: ({**p, "extra": p["b_n"]}, rows), "extra"),
            (lambda p, rows: ({**p, "b_ph": p["b_ph"] * np.nan}, rows), "b_ph"),
            (lambda p, rows: (p, rows[:-1]), "token rows"),
            (lambda p, rows: (p, np.where(rows == rows.max(), -1, rows)), "token row"),
            (lambda p, rows: (p, np.where(rows == 0, rows.max() + 1, rows)), "token row"),
        ],
        ids=["short-bias", "missing", "unexpected", "non-finite", "rows-short", "row-negative",
             "row-past-codes"],
    )
    def test_parts_that_do_not_fit_are_rejected(self, lexicon, edit, message):
        model = _toy_model(lexicon)
        params, rows = edit(model.params, model.code_index.token_rows)
        code_index = M.PhonemeCodeIndex(model.code_index.codes, rows)
        with pytest.raises(ValueError, match=message):
            M.Model(params, model.config, model.vocab, code_index)
