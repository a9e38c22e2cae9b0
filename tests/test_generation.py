import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from asrnoise import autodiff as ad
from asrnoise import corpus as C
from asrnoise import generation as G
from asrnoise import model as M
from asrnoise.errors import PlanMismatchError, PriorOutOfRangeError
from asrnoise.intervention import CorruptionPlan, sample_plan_interventional
from asrnoise.phonetics import default_lexicon
from asrnoise.rng import derive_seed
from asrnoise.training import save_checkpoint

from conftest import make_token_seq
from oracles import first_step_one_row, full_prefix_span

SRC = Path(__file__).resolve().parent.parent / "src"


def _draw(p, temperature, rng):
    """One row's draw through the row-wise pick, with one uniform of ``rng``."""
    return int(G._pick(np.asarray(p)[None], temperature, np.array([rng.random()]))[0])


def _one_row_draw(p, temperature, u):
    """The one-row sampling formula: temperature-scaled weights over the
    largest probability, and the right-side search of ``u * cdf[-1]``."""
    with np.errstate(invalid="ignore", divide="ignore"):
        cdf = ((p / p.max()) ** (1.0 / temperature)).cumsum()
    return int(cdf.searchsorted(u * cdf[-1], side="right"))


class TestPickSample:
    def test_matches_generator_choice_draw_for_draw(self):
        source = np.random.default_rng(0)
        for seed in range(40):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            for step in range(50):
                p = source.dirichlet(np.full(384, 0.05 if step % 2 else 1.0))
                temperature = (0.5, 1.0, 1.7)[step % 3]
                logp = np.log(np.maximum(p, 1e-300)) / temperature
                weights = np.exp(logp - logp.max())
                weights /= weights.sum()
                expected = int(theirs.choice(len(weights), p=weights))
                assert _draw(p, temperature, ours) == expected

    @pytest.mark.parametrize("temperature", [0.5, 1.0, 1.7])
    def test_rows_match_the_one_row_formula_draw_for_draw(self, temperature):
        source = np.random.default_rng(3)
        p = source.dirichlet(np.full(384, 0.1), size=200)
        u = source.random(200)
        picks = G._pick(p, temperature, u)
        assert picks.tolist() == [_one_row_draw(row, temperature, ui) for row, ui in zip(p, u)]
        assert G._pick(p, temperature, None).tolist() == [int(np.argmax(row)) for row in p]

    def test_subnormal_temperature_picks_the_likeliest_token(self):
        source, rng = np.random.default_rng(1), np.random.default_rng(2)
        rows = [np.array([0.7, 0.2, 0.1]), np.array([0.1, 0.2, 0.7]), *source.dirichlet(np.full(50, 0.3), size=200)]
        for temperature in (1e-310, 1e-300):
            for p in rows:
                assert _draw(p, temperature, rng) == int(np.argmax(p))
            block = np.array(rows[2:])
            assert G._pick(block, temperature, rng.random(len(block))).tolist() == block.argmax(axis=1).tolist()

    def test_zero_probability_is_never_drawn(self):
        # a floored log would give it nearly a third of the draws at T = 1e6
        rng = np.random.default_rng(0)
        assert 0 not in {_draw(np.array([0.0, 0.5, 0.5]), 1e6, rng) for _ in range(200)}
        p = np.array([0.0, 0.1, 0.0, 0.0, 0.6, 0.3, 0.0])
        for temperature in (0.5, 1.0, 2.0):
            assert set(G._pick(np.tile(p, (2000, 1)), temperature, rng.random(2000)).tolist()) == {1, 4, 5}

    def test_unit_temperature_draws_match_the_distribution(self):
        # 20,000 draws: each frequency's standard error is at most 0.0036,
        # so 0.015 is over four of them
        rng = np.random.default_rng(4)
        p = np.array([0.05, 0.2, 0.0, 0.35, 0.1, 0.3])
        draws = [_draw(p, 1.0, rng) for _ in range(20_000)]
        freq = np.bincount(draws, minlength=len(p)) / len(draws)
        assert np.max(np.abs(freq - p)) <= 0.015
        assert freq[2] == 0.0

    def test_nonfinite_weights_rejected(self):
        with pytest.raises(ValueError):
            _draw(np.array([0.5, np.nan, 0.5]), 1.0, np.random.default_rng(0))
        # one bad row among good ones fails the whole step
        with pytest.raises(ValueError):
            G._pick(np.array([[0.5, 0.5, 0.0], [0.5, np.nan, 0.5]]), 1.0, np.array([0.3, 0.3]))

    @pytest.mark.parametrize("p", [[-0.5, -0.2], [0.6, -0.1, 0.5], [-1.0, 0.0]])
    def test_negative_probabilities_rejected(self, p):
        # dividing by p.max() would turn an all-negative p into positive weights
        with pytest.raises(ValueError):
            _draw(np.array(p), 1.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            G._pick(np.array([np.full(len(p), 1.0 / len(p)), p]), 1.0, np.array([0.5, 0.5]))


def _toy_model(lexicon, phoneme_head=True):
    vocab = C.SubwordVocab(
        ["[BOS]", "[EOS]", "[UNK]", "cue", "queue", "sue", "the", "gag", "##s"]
    )
    config = M.ModelConfig(
        d_model=8, n_heads=2, max_gen_len=5, max_len=16, phoneme_head=phoneme_head
    )
    return M.Model.build(vocab, lexicon, config, seed=11)


def _encode_text(model, text, mode=G.GREEDY, seed=0, positions=None):
    """A sentence of ``text`` encoded to decode ``positions`` (all by default)."""
    tokens = C.tokenize(text, model.vocab)
    positions = range(len(tokens)) if positions is None else positions
    [sentence] = G.SpanDecoder.build(model, mode, 1.0).encode([([t.piece_id for t in tokens], positions, seed)])
    return tokens, sentence


def _force_eos(model, logit=60.0):
    model.params["b_n"][:] = 0.0
    model.params["b_n"][model.vocab.eos_id] = logit


def _record_steps(monkeypatch):
    """Record each ``decoder_hidden`` call's output rows ``[s, d]`` and each
    ``step_distributions`` call's combined distributions ``[s, V]``, one row
    per live span."""
    hidden_rows, p_rows = [], []

    def decoder_hidden(*args):
        hidden = M.decoder_hidden(*args)
        hidden_rows.append(hidden.data[:, 0])
        return hidden

    def step_distributions(*args):
        dists = M.step_distributions(*args)
        p_rows.append(dists[2][:, 0])
        return dists

    monkeypatch.setattr(G, "decoder_hidden", decoder_hidden)
    monkeypatch.setattr(G, "step_distributions", step_distributions)
    return hidden_rows, p_rows


def _rows_per_span(step_rows, spans, max_gen_len):
    """Split each step's rows over the spans still live at that step: a span
    is live for its first ``min(m, max_gen_len - 1)`` steps, and the live
    rows keep the spans' order."""
    out = [[] for _ in spans]
    for t, rows in enumerate(step_rows):
        live = [i for i, span in enumerate(spans) if t < min(span.m, max_gen_len - 1)]
        assert rows.shape[0] == len(live)
        for i, row in zip(live, rows):
            out[i].append(row)
    return out


class TestGenerateSpan:
    def test_eos_dominant_model_yields_deletion(self, lexicon):
        model = _toy_model(lexicon)
        _force_eos(model)
        for mode in (G.GREEDY, G.SAMPLE):
            tokens, sentence = _encode_text(model, "the cue", mode, seed=3)
            span = G.generate_span(sentence, 0, tokens[0].surface)
            assert span.m == 1
            assert span.error_type is G.ErrorType.DELETION
            assert span.replacement == ""

    def test_greedy_argmax_chain(self, lexicon):
        # zeroed word embeddings put the word head entirely in its bias, so
        # greedy decoding repeats the biased token until [EOS] is forced
        model = _toy_model(lexicon, phoneme_head=False)
        target = model.vocab.piece_to_id["gag"]
        model.params["m_word"][:] = 0.0
        model.params["b_n"][:] = 0.0
        model.params["b_n"][target] = 40.0
        tokens, sentence = _encode_text(model, "the cue")
        span = G.generate_span(sentence, 1, tokens[1].surface)
        assert span.surfaces == ("gag", "gag", "gag", "gag", "[EOS]")
        assert span.m == model.config.max_gen_len
        assert span.error_type is G.ErrorType.INSERTION
        assert span.replacement == "gag gag gag gag"

    def test_greedy_tie_breaks_to_lowest_index(self, lexicon):
        model = _toy_model(lexicon, phoneme_head=False)
        model.params["m_word"][:] = 0.0
        model.params["b_n"][:] = 0.0
        hi = [model.vocab.piece_to_id["queue"], model.vocab.piece_to_id["sue"]]
        for idx in hi:
            model.params["b_n"][idx] = 40.0
        tokens, sentence = _encode_text(model, "the cue")
        span = G.generate_span(sentence, 0, tokens[0].surface)
        assert span.token_ids[0] == min(hi)

    def test_sampling_is_seed_deterministic(self, lexicon):
        model = _toy_model(lexicon)
        _, a = _encode_text(model, "the cue gag", G.SAMPLE, seed=42)
        _, b = _encode_text(model, "the cue gag", G.SAMPLE, seed=42)
        assert G.generate_span(a, 1, "cue") == G.generate_span(b, 1, "cue") == G.generate_span(a, 1, "cue")

    def test_span_terminates_with_single_trailing_eos(self, lexicon):
        model = _toy_model(lexicon)
        eos = model.vocab.eos_id
        for seed in range(4):
            tokens, sentence = _encode_text(model, "the cue gag sue", G.SAMPLE, seed=seed)
            for position in range(len(tokens)):
                span = G.generate_span(sentence, position, tokens[position].surface)
                assert span.m <= model.config.max_gen_len
                assert span.token_ids[-1] == eos
                assert sum(1 for t in span.token_ids if t == eos) == 1

    def test_unknown_mode_rejected(self, lexicon):
        model = _toy_model(lexicon)
        with pytest.raises(ValueError):
            G.SpanDecoder.build(model, "beam", 1.0)
        with pytest.raises(ValueError):
            G.SpanDecoder.build(model, G.SAMPLE, 0.0)

    def test_decoding_builds_no_graph(self, lexicon, monkeypatch):
        model = _toy_model(lexicon)
        created = []
        init = ad.Tensor.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            created.append(self)

        monkeypatch.setattr(ad.Tensor, "__init__", recording_init)
        tokens, sentence = _encode_text(model, "the cue gag sue", G.SAMPLE, seed=3)
        spans = [G.generate_span(sentence, k, tokens[k].surface) for k in range(len(tokens))]
        assert sum(span.m for span in spans) > len(spans)  # some spans took several steps
        G.corrupt_corpus(["the cue gag", "sue the cue"], model, p_z=1.0, seed=5)
        assert len(created) > 100
        assert not any(t.needs_grad or t._parents or t._bwd is not None for t in created)

    @pytest.mark.parametrize("position", [2, 5, -1])
    def test_position_outside_sentence_rejected(self, lexicon, position):
        model = _toy_model(lexicon)
        tokens, sentence = _encode_text(model, "the cue")
        assert len(tokens) == 2
        with pytest.raises(IndexError, match=f"position {position} .* 2 tokens"):
            G.generate_span(sentence, position, "")


class TestWorkPerStep:
    @pytest.mark.parametrize("phoneme_head, per_step", [(True, 6), (False, 5)])
    def test_linear_calls_per_sentence_span_and_step(self, lexicon, monkeypatch, phoneme_head, per_step):
        # a chunk: encoder q/k/v/o/ffn (6), the decoder's keys and values
        # (2) and its corrupted positions' start rows (1); a step: decoder
        # q/o/ffn (4) plus one linear per head, over every live span of the
        # chunk at once.  Neither a sentence nor a span runs work of its own.
        model = _toy_model(lexicon, phoneme_head=phoneme_head)
        calls = {"linear": 0, "encode": 0, "decoder_hidden": 0, "step_distributions": 0}

        def counting(name, target):
            def wrapper(*args):
                calls[name] += 1
                return target(*args)
            return wrapper

        monkeypatch.setattr(ad, "linear", counting("linear", ad.linear))
        for name in ("encode", "decoder_hidden", "step_distributions"):
            monkeypatch.setattr(G, name, counting(name, getattr(M, name)))
        texts = ["the cue gag sue", "queue the gag", "sue", "the cue"] * 8
        _, records = G.corrupt_corpus(texts, model, p_z=0.7, seed=4)
        # each sentence's corrupted positions, and the steps of its longest
        # span: a span takes one step per token it picked, and the [EOS]
        # forced at max_gen_len took none
        rows, steps_of = {}, {}
        for r in records:
            sentence = int(r.sentence_id)
            rows[sentence] = rows.get(sentence, 0) + 1
            span_steps = min(r.span.m, model.config.max_gen_len - 1)
            steps_of[sentence] = max(steps_of.get(sentence, 0), span_steps)
        # consecutive sentences of at most CHUNK_ROWS corrupted positions together
        chunks, size = [[]], 0
        for sentence in sorted(rows):
            if size + rows[sentence] > G.CHUNK_ROWS:
                chunks, size = chunks + [[]], 0
            chunks[-1].append(sentence)
            size += rows[sentence]
        steps = sum(max(steps_of[s] for s in chunk) for chunk in chunks)
        assert len(chunks) > 1 and all(len(chunk) > 1 for chunk in chunks)
        assert steps < sum(steps_of.values())  # so a step per sentence cannot match
        assert calls["encode"] == len(chunks)
        assert calls["decoder_hidden"] == calls["step_distributions"] == steps
        assert calls["linear"] == 9 * len(chunks) + per_step * steps

    @pytest.mark.parametrize("mode", [G.GREEDY, G.SAMPLE])
    def test_cached_keys_values_and_tables_change_no_bit(self, lexicon, monkeypatch, mode):
        # the rebuilt run recomputes each step's cached inputs from freshly
        # wrapped parameters: the query rows (the positions' start rows at
        # step 0, each live span's previous token embedding plus its position
        # row after), the sentence's keys and values, and the head tables
        model = _toy_model(lexicon)
        config, rows_map, eos = model.config, model.code_index.token_rows, model.vocab.eos_id
        decoder = G.SpanDecoder.build(model, mode, 1.0)
        tokens = C.tokenize("the cue gag sue", model.vocab)
        ids = [t.piece_id for t in tokens]
        positions = [3, 0, 2]
        picked = []  # each step's picks, one per live span
        pick = G._pick

        def recording_pick(*args):
            picked.append(pick(*args))
            return picked[-1]

        monkeypatch.setattr(G, "_pick", recording_pick)
        runs = []
        for rebuild in (False, True):
            seen = []

            def decoder_hidden(live, prefixes, memory, params, *rest):
                if rebuild:
                    params = M._wrap_params(model.params, needs_grad=False)
                    rows = M.encode(M.embed_sequence([ids], params, config, rows_map), params, config)
                    t = len(picked)
                    if t == 0:
                        where = np.asarray(positions)[:, None]
                        live = M.decoder_start(ad.select(rows, np.zeros_like(where), where), params)
                    else:
                        going = picked[-1][picked[-1] != eos]
                        tok = M._token_embeddings(going[:, None], params, config, rows_map)
                        live = ad.add(tok, ad.rows(params["m_pos"], [t]))
                    # every live row attends to the one sentence's keys and values
                    sentence_of_row = np.zeros(live.data.shape[0], dtype=np.intp)
                    memory = tuple(ad.rows(x, sentence_of_row) for x in M.decoder_memory(rows, params))
                return M.decoder_hidden(live, prefixes, memory, params, *rest)

            def step_distributions(d_k, tables, special_mask):
                if rebuild:
                    params = M._wrap_params(model.params, needs_grad=False)
                    tables = M.head_tables(params, config, rows_map)
                dists = M.step_distributions(d_k, tables, special_mask)
                seen.append(dists[2][:, 0])
                return dists

            monkeypatch.setattr(G, "decoder_hidden", decoder_hidden)
            monkeypatch.setattr(G, "step_distributions", step_distributions)
            picked.clear()
            [sentence] = decoder.encode([(ids, positions, 5)])
            spans = [G.generate_span(sentence, k, tokens[k].surface) for k in positions]
            runs.append(([span.token_ids for span in spans], seen))
        (cached_ids, cached_p), (rebuilt_ids, rebuilt_p) = runs
        assert cached_ids == rebuilt_ids
        assert max(map(len, cached_ids)) > 2  # some step read a previous token
        assert cached_p[0].shape == (len(positions), len(model.vocab))  # every span's first step
        assert len(cached_p) == len(rebuilt_p) == max(min(len(s), config.max_gen_len - 1) for s in cached_ids)
        assert all(np.array_equal(a, b) for a, b in zip(cached_p, rebuilt_p))


class TestLiveQueryRow:
    @pytest.mark.parametrize("phoneme_head", [True, False])
    def test_token_query_table_rows_are_token_embeddings(self, lexicon, phoneme_head):
        model = _toy_model(lexicon, phoneme_head=phoneme_head)
        decoder = G.SpanDecoder.build(model, G.GREEDY, 1.0)
        rows_map = model.code_index.token_rows
        assert decoder.token_queries.shape == (len(model.vocab), model.config.d_model)
        for v in range(len(model.vocab)):
            row = M._token_embeddings(np.array([v]), decoder.params, model.config, rows_map).data[0]
            assert decoder.token_queries[v].tobytes() == row.tobytes()

    @pytest.mark.parametrize("phoneme_head", [True, False])
    def test_greedy_matches_the_full_prefix_decode(self, lexicon, monkeypatch, phoneme_head):
        # step 0's hidden rows are one decoder call over every start row;
        # each later step's are one call over the spans still live
        model = _toy_model(lexicon, phoneme_head=phoneme_head)
        hidden_rows, _ = _record_steps(monkeypatch)
        steps = 0
        for text in ("the cue gag sue", "queue the gag", "sue"):
            hidden_rows.clear()
            tokens, sentence = _encode_text(model, text)
            spans = [G.generate_span(sentence, k, tokens[k].surface) for k in range(len(tokens))]
            assert hidden_rows[0].shape == (len(tokens), model.config.d_model)
            per_span = _rows_per_span(hidden_rows, spans, model.config.max_gen_len)
            for k, (span, rows) in enumerate(zip(spans, per_span)):
                expected_ids, expected_rows = full_prefix_span(sentence, k)
                assert span.token_ids == expected_ids
                assert len(rows) == len(expected_rows)
                assert np.max(np.abs(np.array(rows) - np.array(expected_rows))) <= 1e-12
                steps += len(rows)
        assert steps > 2 * 8  # spans of several steps, not only deletions


class TestLockstep:
    @pytest.mark.parametrize("phoneme_head", [True, False])
    @pytest.mark.parametrize("mode", [G.GREEDY, G.SAMPLE])
    def test_lockstep_equals_each_position_alone(self, lexicon, monkeypatch, mode, phoneme_head):
        # every position corrupted, and some of them: the spans decoded
        # together pick the tokens each picks alone, and their step rows
        # match the full-prefix decode up to the last bits (a one-row step
        # is a matrix-vector product, a multi-row step is not)
        model = _toy_model(lexicon, phoneme_head=phoneme_head)
        # larger word rows and an [EOS] bias spread the spans' lengths
        model.params["m_word"] *= 10.0
        model.params["b_n"][model.vocab.eos_id] += 1.0
        max_gen_len = model.config.max_gen_len
        hidden_rows, _ = _record_steps(monkeypatch)
        lengths = set()
        for text, positions in (("the cue gag sue", [0, 1, 2, 3]), ("queue the gag cue sue", [4, 1, 3])):
            for seed in (3, 8):
                hidden_rows.clear()
                tokens, sentence = _encode_text(model, text, mode, seed, positions)
                together = [G.generate_span(sentence, k, tokens[k].surface) for k in positions]
                per_span = _rows_per_span(hidden_rows, together, max_gen_len)
                for k, span, rows in zip(positions, together, per_span):
                    _, alone = _encode_text(model, text, mode, seed, [k])
                    assert span == G.generate_span(alone, k, tokens[k].surface)
                    temperature = None if mode == G.GREEDY else 1.0
                    expected_ids, expected_rows = full_prefix_span(sentence, k, temperature, seed)
                    assert span.token_ids == expected_ids
                    assert np.max(np.abs(np.array(rows) - np.array(expected_rows))) <= 1e-12
                    lengths.add(span.m)
        # spans left the live set at [EOS] and at max_gen_len both
        assert max_gen_len in lengths and len(lengths) > 1

    @pytest.mark.parametrize("mode", [G.GREEDY, G.SAMPLE])
    def test_a_one_token_span_limit_forces_eos_without_a_step(self, lexicon, monkeypatch, mode):
        vocab = C.SubwordVocab(["[BOS]", "[EOS]", "[UNK]", "cue", "the"])
        config = M.ModelConfig(d_model=8, n_heads=2, max_gen_len=1, max_len=16)
        model = M.Model.build(vocab, lexicon, config, seed=1)
        hidden_rows, _ = _record_steps(monkeypatch)
        tokens, sentence = _encode_text(model, "the cue", mode)
        spans = [G.generate_span(sentence, k, tokens[k].surface) for k in range(len(tokens))]
        assert [span.token_ids for span in spans] == [(vocab.eos_id,)] * 2
        assert hidden_rows == []


class TestFirstStepTable:
    @pytest.mark.parametrize("phoneme_head", [True, False])
    @pytest.mark.parametrize(
        "text, positions",
        [
            ("sue", [0]),
            ("the cue gag sue", [0, 1, 2, 3]),
            ("the cue gag sue", [2]),
            (" ".join(["the cue gag sue"] * 4), list(range(16))),
            (" ".join(["the cue gag sue"] * 4), [15, 3, 8]),
        ],
    )
    def test_every_row_matches_the_one_row_decode(self, lexicon, monkeypatch, phoneme_head, text, positions):
        # step 0 runs every position's start row in one call; one row takes
        # the matrix-vector path; 16 tokens is max_len
        model = _toy_model(lexicon, phoneme_head=phoneme_head)
        _, p_rows = _record_steps(monkeypatch)
        tokens, sentence = _encode_text(model, text, positions=positions)
        assert max(positions) < len(tokens) <= model.config.max_len
        G.generate_span(sentence, positions[0], tokens[positions[0]].surface)
        expected = first_step_one_row(sentence, positions)
        assert p_rows[0].shape == (len(positions), len(model.vocab))
        assert np.max(np.abs(p_rows[0] - expected)) <= 1e-12

    @pytest.mark.parametrize("positions", [[], [2], [-1], [0, 4]])
    def test_positions_outside_the_sentence_rejected(self, lexicon, positions):
        model = _toy_model(lexicon)
        with pytest.raises(IndexError, match="2 tokens"):
            _encode_text(model, "the cue", positions=positions)

    def test_a_span_needs_its_position_encoded(self, lexicon):
        model = _toy_model(lexicon)
        tokens, sentence = _encode_text(model, "the cue gag", positions=[0, 2])
        G.generate_span(sentence, 2, tokens[2].surface)
        with pytest.raises(IndexError, match="position 1 of a sentence of 3 tokens was not encoded"):
            G.generate_span(sentence, 1, tokens[1].surface)


class TestSaturatedWordHead:
    """A word-head logit of 800 leaves every other piece exp(-800) = 0 mass."""

    @pytest.mark.parametrize("piece", ["[EOS]", "[BOS]", "[UNK]"])
    def test_p_gen_is_finite_and_stops_the_span(self, lexicon, piece):
        model = _toy_model(lexicon)
        model.params["b_n"][model.vocab.piece_to_id[piece]] = 800.0
        decoder = G.SpanDecoder.build(model, G.GREEDY, 1.0)
        d_k = ad.Tensor(np.random.default_rng(0).normal(size=(3, model.config.d_model)))
        _, _, p_gen = M.step_distributions(d_k, decoder.tables, model.special_mask)
        eos_only = np.zeros(len(model.vocab))
        eos_only[model.vocab.eos_id] = 1.0
        assert np.array_equal(p_gen, np.tile(eos_only, (3, 1)))

    @pytest.mark.parametrize("piece", ["[EOS]", "[BOS]", "[UNK]"])
    def test_both_modes_decode_a_deletion(self, lexicon, piece):
        model = _toy_model(lexicon)
        model.params["b_n"][model.vocab.piece_to_id[piece]] = 800.0
        for mode in (G.GREEDY, G.SAMPLE):
            tokens, sentence = _encode_text(model, "the cue gag", mode, seed=1)
            for k in range(len(tokens)):
                span = G.generate_span(sentence, k, tokens[k].surface)
                assert span.token_ids == (model.vocab.eos_id,)

    @pytest.mark.parametrize("mode", [G.GREEDY, G.SAMPLE])
    def test_corrupt_corpus_at_full_prior(self, lexicon, mode):
        model = _toy_model(lexicon)
        model.params["b_n"][model.vocab.eos_id] = 800.0
        texts = ["the cue gag", "sue the queue"]
        outputs, records = G.corrupt_corpus(texts, model, p_z=1.0, seed=2, mode=mode)
        assert outputs == ["", ""]
        assert len(records) == 6
        assert all(r.span.error_type is G.ErrorType.DELETION for r in records)


def _span(vocab, position, original, surfaces):
    ids = tuple(vocab.piece_to_id[s] for s in surfaces)
    return G.GeneratedSpan(
        position=position,
        original=original,
        token_ids=ids,
        surfaces=tuple(surfaces),
    )


class TestAssemble:
    def test_single_insertion_fixture(self, fixture_vocab):
        tokens = make_token_seq(fixture_vocab, ["as", "best", "##ial"])
        plan = CorruptionPlan(z=(False, False, True))
        spans = [_span(fixture_vocab, 2, "##ial", ["at", "##ial", "[EOS]"])]
        assert G.assemble(tokens, plan, spans) == "as best atial"

    def test_three_error_fixture(self, fixture_vocab):
        tokens = make_token_seq(fixture_vocab, ["only", "labor", "##ed", "the", "gag", "##s"])
        plan = CorruptionPlan(z=(False, False, True, True, False, True))
        spans = [
            _span(fixture_vocab, 2, "##ed", ["##ed", "labor", "[EOS]"]),
            _span(fixture_vocab, 3, "the", ["the", "##s", "[EOS]"]),
            _span(fixture_vocab, 5, "##s", ["[EOS]"]),
        ]
        assert G.assemble(tokens, plan, spans) == "only labored labor thes gag"

    def test_identity_when_nothing_corrupted(self, fixture_vocab):
        tokens = make_token_seq(fixture_vocab, ["only", "labor", "##ed", "gag"])
        plan = CorruptionPlan(z=(False,) * 4)
        assert G.assemble(tokens, plan, []) == "only labored gag"

    def test_plan_span_mismatch(self, fixture_vocab):
        tokens = make_token_seq(fixture_vocab, ["as", "best"])
        plan = CorruptionPlan(z=(True, False))
        with pytest.raises(PlanMismatchError):
            G.assemble(tokens, plan, [])
        spans = [
            _span(fixture_vocab, 0, "as", ["at", "[EOS]"]),
            _span(fixture_vocab, 1, "best", ["at", "[EOS]"]),
        ]
        with pytest.raises(PlanMismatchError):
            G.assemble(tokens, plan, spans)

    def test_plan_length_mismatch(self, fixture_vocab):
        tokens = make_token_seq(fixture_vocab, ["as", "best"])
        plan = CorruptionPlan(z=(True,))
        with pytest.raises(PlanMismatchError):
            G.assemble(tokens, plan, [])


def _decode_each_alone(texts, model, p_z, seed, mode, temperature):
    """:func:`generation.corrupt_corpus`'s outputs and records with every
    sentence planned, encoded and decoded as a chunk of one, from a decoder
    built for it alone."""
    outputs, records = [], []
    for i, text in enumerate(texts):
        tokens = C.tokenize(text, model.vocab)
        if len(tokens) > model.config.max_len:
            outputs.append(C.detokenize(tokens))
            continue
        plan = sample_plan_interventional(tokens, p_z, derive_seed(seed, i))
        spans = []
        if plan.corruption_count:
            decoder = G.SpanDecoder.build(model, mode, temperature)
            [sentence] = decoder.encode([([t.piece_id for t in tokens], plan.corrupted_positions,
                                          derive_seed(seed, i))])
            spans = [G.generate_span(sentence, k, tokens[k].surface) for k in plan.corrupted_positions]
        outputs.append(G.assemble(tokens, plan, spans))
        records.extend(G.SpanRecord(str(i), span) for span in spans)
    return outputs, records


# words of the shipped lexicon in any case, glued to punctuation and '#'
_WORD = st.builds(
    lambda word, case: case(word),
    st.sampled_from(default_lexicon().words()),
    st.sampled_from([str.lower, str.upper, str.capitalize]),
)
_TEXT = st.lists(
    st.tuples(st.one_of(_WORD, st.sampled_from(["#", "##", ",", ".", "!", "'", "-"])),
              st.sampled_from([" ", "", "  "])),
    max_size=10,
).map(lambda parts: "".join(piece + sep for piece, sep in parts))


class TestCorruptCorpus:
    def test_zero_prior_is_identity(self, lexicon):
        model = _toy_model(lexicon)
        # no piece of the toy vocabulary covers z, q, x or 3 on its own
        texts = ["the cue", "gag sue the queue", "Zebra quiz, x-ray 3g!"]
        outputs, records = G.corrupt_corpus(texts, model, p_z=0.0, seed=1)
        assert outputs == [C.normalize(t) for t in texts]
        assert records == []

    @given(
        texts=st.lists(_TEXT, max_size=4),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        mode=st.sampled_from([G.GREEDY, G.SAMPLE]),
    )
    def test_zero_prior_identity_property(self, small_model, texts, seed, mode):
        outputs, records = G.corrupt_corpus(texts, small_model, 0.0, seed, mode=mode)
        assert outputs == [C.normalize(t) for t in texts]
        assert records == []

    def test_bad_mode_or_temperature_rejected_before_decoding(self, lexicon):
        model = _toy_model(lexicon)
        # no position is sampled at p_z = 0, so only an up-front check can raise
        with pytest.raises(ValueError):
            G.corrupt_corpus(["the cue"], model, p_z=0.0, seed=1, mode="beam")
        for temperature in (0.0, float("inf")):
            with pytest.raises(ValueError):
                G.corrupt_corpus(["the cue"], model, p_z=0.0, seed=1, mode=G.SAMPLE, temperature=temperature)

    @pytest.mark.parametrize("temperature", [0.0, -1.0, float("nan"), float("inf"), float("-inf")])
    def test_sampling_temperature_must_be_positive_and_finite(self, temperature):
        with pytest.raises(ValueError):
            G.check_decoding(G.SAMPLE, temperature)
        # greedy decoding reads no temperature
        G.check_decoding(G.GREEDY, temperature)
        for fine in (1e-310, 1.0, 1e300):
            G.check_decoding(G.SAMPLE, fine)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected_before_any_line(self, lexicon, seed):
        # derive_seed keeps 64 bits, so 2**64 would decode exactly as 0
        model = _toy_model(lexicon)
        with pytest.raises(ValueError, match="seed"):
            G.corrupt_corpus([], model, p_z=0.5, seed=seed)

    @pytest.mark.parametrize("mode", [G.GREEDY, G.SAMPLE])
    def test_corpus_and_per_sentence_decodes_agree(self, small_corpus, small_model, mode):
        # each sentence planned, encoded and decoded on its own, from a
        # decoder built for it alone, gives corrupt_corpus's records
        texts = [pair.gt for pair in small_corpus[40:60]]
        p_z, temperature = 0.5, 0.7
        for seed in (9, 2024):
            outputs, records = G.corrupt_corpus(texts, small_model, p_z, seed, mode, temperature)
            expected_outputs, expected_records = _decode_each_alone(texts, small_model, p_z, seed, mode, temperature)
            assert len(expected_records) > len(texts)
            assert outputs == expected_outputs
            assert records == expected_records

    @pytest.mark.parametrize("mode", [G.GREEDY, G.SAMPLE])
    def test_a_sentence_decodes_alike_in_any_chunk(self, small_corpus, small_model, monkeypatch, mode):
        # more than three chunks, with a one-token sentence, a line too long
        # to encode, a blank line and a sentence of more corrupted positions
        # than one chunk holds
        texts = [pair.gt for pair in small_corpus[40:80]]
        one_token = next(w for w in texts[0].split() if len(C.tokenize(w, small_model.vocab)) == 1)
        over_cap, over_long = " ".join(texts[:5]), " ".join(texts[:8])
        assert G.CHUNK_ROWS < len(C.tokenize(over_cap, small_model.vocab)) <= small_model.config.max_len
        assert len(C.tokenize(over_long, small_model.vocab)) > small_model.config.max_len
        texts[3:3] = [one_token, "", over_long, one_token, over_cap, one_token]
        chunks = []
        encode = G.SpanDecoder.encode

        def recording(decoder, sentences):
            chunks.append(sum(len(positions) for _, positions, _ in sentences) if len(sentences) > 1 else None)
            return encode(decoder, sentences)

        monkeypatch.setattr(G.SpanDecoder, "encode", recording)
        p_z, seed = 0.8, 31
        outputs, records = G.corrupt_corpus(texts, small_model, p_z, seed, mode)
        assert len(chunks) > 3 and None in chunks and max(filter(None, chunks)) <= G.CHUNK_ROWS
        spans_of = {}
        for r in records:
            spans_of.setdefault(int(r.sentence_id), []).append(r.span)
        assert len(spans_of[texts.index(over_cap)]) > G.CHUNK_ROWS
        assert any(k in spans_of for k, text in enumerate(texts) if text == one_token)
        assert outputs[texts.index(over_long)] == C.detokenize(C.tokenize(over_long, small_model.vocab))
        assert outputs[texts.index("")] == "" and texts.index("") not in spans_of
        assert (outputs, records) == _decode_each_alone(texts, small_model, p_z, seed, mode, 1.0)

    @pytest.mark.parametrize("mode", [G.GREEDY, G.SAMPLE])
    def test_no_decoder_call_gets_more_rows_than_the_cap(self, lexicon, monkeypatch, mode):
        model = _toy_model(lexicon)
        text = " ".join(["the cue gag sue"] * 4)
        assert len(C.tokenize(text, model.vocab)) == model.config.max_len
        hidden_rows, _ = _record_steps(monkeypatch)
        _, records = G.corrupt_corpus([text] * 5, model, p_z=1.0, seed=3, mode=mode)
        assert len(records) == 5 * model.config.max_len > 2 * G.CHUNK_ROWS
        assert max(rows.shape[0] for rows in hidden_rows) == G.CHUNK_ROWS

    @pytest.mark.parametrize("p_z", [2.0, -1.0, float("nan")])
    def test_bad_prior_rejected_before_any_line(self, lexicon, p_z):
        model = _toy_model(lexicon)
        long_line = " ".join(["the cue gag sue"] * 6)
        # no text, or only a line too long to encode: no plan is ever sampled
        for texts in ([], [long_line]):
            with pytest.raises(PriorOutOfRangeError):
                G.corrupt_corpus(texts, model, p_z=p_z, seed=1)

    def test_subnormal_temperature_decodes_every_span(self, lexicon):
        model = _toy_model(lexicon)
        texts = ["the cue gag sue", "queue the gag"]
        outputs, records = G.corrupt_corpus(texts, model, p_z=1.0, seed=5, mode=G.SAMPLE, temperature=1e-310)
        assert len(outputs) == len(texts)
        assert len(records) == sum(len(C.tokenize(t, model.vocab)) for t in texts)

    def test_full_prior_with_deletion_stub_empties_output(self, lexicon):
        model = _toy_model(lexicon)
        _force_eos(model)
        outputs, records = G.corrupt_corpus(["the cue gag"], model, p_z=1.0, seed=1, mode=G.GREEDY)
        assert outputs == [""]
        assert all(r.span.error_type is G.ErrorType.DELETION for r in records)

    def test_over_long_line_passes_through_and_leaves_others_unchanged(self, lexicon):
        model = _toy_model(lexicon)
        long_line = " ".join(["the cue gag sue"] * 6)
        assert len(C.tokenize(long_line, model.vocab)) > model.config.max_len
        texts = ["the queue", long_line, "gag the cue"]
        outputs, records = G.corrupt_corpus(texts, model, p_z=1.0, seed=1)
        assert outputs[1] == C.detokenize(C.tokenize(long_line, model.vocab))
        assert {r.sentence_id for r in records} == {"0", "2"}
        short = G.corrupt_corpus([texts[0], "sue", texts[2]], model, p_z=1.0, seed=1)
        assert [outputs[0], outputs[2]] == [short[0][0], short[0][2]]
        assert records == [r for r in short[1] if r.sentence_id != "1"]

    def test_decoding_never_writes_bos_or_unk(self, small_corpus, small_model, monkeypatch):
        # untrained, the word head gives [BOS] and [UNK] mass like any piece
        bos, unk = small_model.vocab.bos_id, small_model.vocab.unk_id
        seen = []

        def recording(*args):
            dists = M.step_distributions(*args)
            seen.extend(dists[2][:, 0, [bos, unk]])
            return dists

        monkeypatch.setattr(G, "step_distributions", recording)
        texts = [pair.gt for pair in small_corpus[40:]]
        outputs, records = G.corrupt_corpus(texts, small_model, p_z=0.5, seed=1)
        assert len(outputs) == 40 and records and seen
        assert not any("[" in line for line in outputs)
        assert not any({bos, unk} & set(r.span.token_ids) for r in records)
        assert np.all(np.asarray(seen) == 0.0)

    def test_deterministic_given_seed(self, lexicon):
        model = _toy_model(lexicon)
        texts = ["the cue gag sue", "queue the gag"]
        a = G.corrupt_corpus(texts, model, p_z=0.6, seed=17, mode=G.SAMPLE)
        b = G.corrupt_corpus(texts, model, p_z=0.6, seed=17, mode=G.SAMPLE)
        assert a == b

    @pytest.mark.parametrize("mode", [G.GREEDY, G.SAMPLE])
    def test_decoding_builds_no_numpy_generator(self, lexicon, monkeypatch, mode):
        # every sampled draw is counter-based (rng.uniforms_at)
        model = _toy_model(lexicon)
        texts = ["the cue gag sue", "queue the gag", "sue"]
        expected = G.corrupt_corpus(texts, model, p_z=0.8, seed=6, mode=mode)

        def refuse(*args, **kwargs):
            raise AssertionError("decoding built a numpy generator")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        assert G.corrupt_corpus(texts, model, p_z=0.8, seed=6, mode=mode) == expected
        assert len(expected[1]) > len(texts)

    def test_sample_decoding_from_a_checkpoint_never_loads_numpy_random(self, lexicon, tmp_path):
        # numpy 2.x loads numpy.random on first use, so a fresh process
        # shows whether loading a checkpoint and sampling spans reached it
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, _toy_model(lexicon))
        script = (
            "import sys, numpy\n"
            "eager = 'numpy.random' in sys.modules\n"
            "from asrnoise import generation, training\n"
            "model = training.load_checkpoint(sys.argv[1])\n"
            "_, records = generation.corrupt_corpus(['the cue gag sue'], model, 1.0, 3, generation.SAMPLE)\n"
            "assert records\n"
            "print('eager' if eager else 'numpy.random' in sys.modules)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        if result.stdout.strip() == "eager":
            pytest.skip("this numpy imports numpy.random with numpy itself")
        assert result.stdout.strip() == "False"

    @pytest.mark.parametrize("mode", [G.GREEDY, G.SAMPLE])
    def test_a_leading_shard_decodes_as_in_the_whole_corpus(self, small_corpus, small_model, mode):
        texts = [pair.gt for pair in small_corpus[40:60]]
        outputs, records = G.corrupt_corpus(texts, small_model, p_z=0.5, seed=9, mode=mode)
        assert len({r.sentence_id for r in records}) > 10
        for k in (1, 7, 19):
            shard_outputs, shard_records = G.corrupt_corpus(texts[:k], small_model, p_z=0.5, seed=9, mode=mode)
            assert shard_outputs == outputs[:k]
            assert shard_records == [r for r in records if int(r.sentence_id) < k]

    def test_span_report_format(self, lexicon, tmp_path):
        model = _toy_model(lexicon)
        texts = ["the cue gag sue"]
        _, records = G.corrupt_corpus(texts, model, p_z=0.8, seed=3)
        path = tmp_path / "spans.tsv"
        G.save_span_report(path, records, header="test")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "sentence_id\tposition\toriginal\treplacement\terror_type"
        assert len(lines) == 2 + len(records)
