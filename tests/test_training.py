import gc
import json
import os
import platform
import struct
import subprocess
import sys
import tempfile
from dataclasses import asdict, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asrnoise import autodiff as ad
from asrnoise import cli
from asrnoise import corpus as C
from asrnoise import generation as G
from asrnoise import model as M
from asrnoise import training as T
from asrnoise.errors import (
    CorruptCheckpointError,
    NonFiniteLossError,
    SequenceTooLongError,
    VersionMismatchError,
)

from oracles import backward_and_check, loss_terms
from test_model import _toy_model

SRC = Path(__file__).resolve().parent.parent / "src"


class TestTrainConfig:
    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError):
            T.TrainConfig(epochs=0)

    def test_zero_learning_rate_rejected(self):
        with pytest.raises(ValueError):
            T.TrainConfig(learning_rate=0.0)

    def test_bad_batch_and_clip_rejected(self):
        with pytest.raises(ValueError):
            T.TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            T.TrainConfig(clip_norm=0.0)

    @pytest.mark.parametrize(
        "field, value", [("batch_size", 2.5), ("epochs", 1.5), ("epochs", True), ("learning_rate", "0.1")]
    )
    def test_mistyped_field_rejected_by_name(self, field, value):
        # batch_size 2.5 and epochs 1.5 once failed with TypeError inside
        # train(), and epochs True trained one epoch
        with pytest.raises(ValueError, match=f"^{field} must be of type"):
            T.TrainConfig(**{field: value})

    def test_negative_seed_rejected(self):
        # True is an int to isinstance and would train as seed 1
        for seed in (-1, 2**64, True, np.bool_(True)):
            with pytest.raises(ValueError, match="seed"):
                T.TrainConfig(seed=seed)
        assert T.TrainConfig(seed=0).seed == 0
        assert T.TrainConfig(seed=2**64 - 1).seed == 2**64 - 1


class TestClipGradients:
    def test_never_increases_norm(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            grads = rng.normal(size=32) * rng.uniform(0.1, 30)
            before = np.sqrt((grads**2).sum())
            returned = T.clip_gradients(grads, 5.0)
            after = np.sqrt((grads**2).sum())
            assert returned == pytest.approx(before)
            assert after <= min(before, 5.0) + 1e-12

    def test_small_gradients_untouched(self):
        grads = np.full((2,), 0.1)
        T.clip_gradients(grads, 5.0)
        np.testing.assert_array_equal(grads, np.full((2,), 0.1))


class TestAdam:
    def test_flat_step_equals_the_per_array_formula_bit_for_bit(self):
        rng = np.random.default_rng(5)
        shapes = {"w": (3, 4), "b": (4,), "e": (2, 2, 3)}
        params = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        flat = np.concatenate([a.ravel() for a in params.values()])
        m = {name: np.zeros_like(a) for name, a in params.items()}
        v = {name: np.zeros_like(a) for name, a in params.items()}
        optimizer = T._Adam(flat, 1e-2)
        b1, b2, eps = T.ADAM_BETA1, T.ADAM_BETA2, T.ADAM_EPS
        for step in range(1, 4):
            grads = {name: rng.normal(size=a.shape) for name, a in params.items()}
            for name, g in grads.items():
                m[name] = b1 * m[name] + (1.0 - b1) * g
                v[name] = b2 * v[name] + (1.0 - b2) * g * g
                m_hat, v_hat = m[name] / (1.0 - b1**step), v[name] / (1.0 - b2**step)
                params[name] -= 1e-2 * m_hat / (np.sqrt(v_hat) + eps)
            optimizer.step(flat, np.concatenate([g.ravel() for g in grads.values()]))
            assert flat.tobytes() == np.concatenate([a.ravel() for a in params.values()]).tobytes()


def _tiny_training_setup(lexicon, n_pairs=12, seed=11):
    from asrnoise import synthetic

    pairs = synthetic.make_parallel_corpus(n_pairs, seed=seed, min_words=3, max_words=5)
    vocab = C.induce_vocab([p.gt for p in pairs] + [p.asr for p in pairs], 140)
    alignments = [C.align_pair(p.gt, p.asr, lexicon) for p in pairs]
    items = C.build_training_items(alignments, vocab, [p.id for p in pairs], max_target_len=5)
    return vocab, items


class TestTrain:
    def test_loss_decreases_on_tiny_corpus(self, lexicon):
        vocab, items = _tiny_training_setup(lexicon)
        model = M.Model.build(vocab, lexicon, M.ModelConfig(d_model=16, n_heads=2), seed=1)
        log = T.train(items, model, lexicon, T.TrainConfig(learning_rate=2e-3, epochs=8, seed=4))
        assert log[-1].loss_total < log[0].loss_total

    def test_identical_seeds_give_bit_identical_checkpoints(self, lexicon, tmp_path):
        vocab, items = _tiny_training_setup(lexicon)
        paths = []
        for run in range(2):
            model = M.Model.build(vocab, lexicon, M.ModelConfig(d_model=16, n_heads=2), seed=1)
            T.train(items, model, lexicon, T.TrainConfig(learning_rate=1e-3, epochs=3, seed=9))
            path = tmp_path / f"run{run}.ckpt"
            T.save_checkpoint(path, model)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_an_epoch_batches_whole_sentences(self, lexicon, monkeypatch):
        vocab, items = _tiny_training_setup(lexicon)
        index = {id(item): i for i, item in enumerate(items)}
        sentences = {item.sentence for item in items}
        assert len(sentences) < len(items)
        original = T._loss_graph

        def epoch_batches(seed):
            batches = []

            def recording(batch, *args):
                batches.append([index[id(item)] for item in batch])
                return original(batch, *args)

            monkeypatch.setattr(T, "_loss_graph", recording)
            model = M.Model.build(vocab, lexicon, M.ModelConfig(d_model=16, n_heads=2), seed=1)
            T.train(items, model, lexicon, T.TrainConfig(epochs=1, batch_size=4, seed=seed))
            return batches

        batches = epoch_batches(3)
        assert sorted(i for batch in batches for i in batch) == list(range(len(items)))
        # a sentence's items lie together, so only a batch boundary splits one
        encodes = sum(len({items[i].sentence for i in batch}) for batch in batches)
        assert encodes <= len(sentences) + len(batches) - 1
        assert epoch_batches(3) == batches
        assert epoch_batches(4) != batches

    def test_zero_phoneme_weight_equals_word_only_training(self, lexicon):
        vocab, items = _tiny_training_setup(lexicon)
        config = replace(M.ModelConfig(d_model=16, n_heads=2), lambda_ph=0.0)
        word_only = M.Model.build(vocab, lexicon, config, seed=2)
        log = T.train(items, word_only, lexicon, T.TrainConfig(learning_rate=1e-3, epochs=3, seed=5))
        assert all(row.loss_phoneme == 0.0 for row in log)
        assert all(row.loss_total == row.loss_word for row in log)
        # only the phoneme-head logits read b_ph, so word-only training never moves it
        np.testing.assert_array_equal(word_only.params["b_ph"], 0.0)

    def test_memorizes_single_example(self, lexicon):
        vocab, items = _tiny_training_setup(lexicon)
        item = items[0]
        model = M.Model.build(vocab, lexicon, M.ModelConfig(d_model=16, n_heads=2), seed=3)
        T.train([item], model, lexicon, T.TrainConfig(learning_rate=5e-3, epochs=60, batch_size=1, seed=0))
        decoder = G.SpanDecoder.build(model, G.GREEDY, 1.0)
        chunk = decoder.encode([(item.sentence, [item.position], 0)])
        span = G.generate_span(chunk, 0, item.position, vocab.surface(item.sentence[item.position]))
        assert span.token_ids == tuple(item.target_ids)

    def test_horizon_violation_rejected(self, lexicon):
        vocab, items = _tiny_training_setup(lexicon)
        model = M.Model.build(vocab, lexicon, M.ModelConfig(d_model=16, n_heads=2, max_gen_len=2), seed=1)
        if all(len(i.target_ids) <= 2 for i in items):
            pytest.skip("corpus produced no long targets")
        with pytest.raises(ValueError):
            T.train(items, model, lexicon, T.TrainConfig(epochs=1))

    def test_empty_items_rejected(self, lexicon, small_model):
        with pytest.raises(ValueError):
            T.train([], small_model, lexicon, T.TrainConfig(epochs=1))

    def test_overlong_sentence_rejected_before_epoch_one(self, lexicon, monkeypatch):
        vocab, items = _tiny_training_setup(lexicon)
        longest = max(len(i.sentence) for i in items)
        config = M.ModelConfig(d_model=16, n_heads=2, max_gen_len=longest - 1, max_len=longest - 1)
        model = M.Model.build(vocab, lexicon, config, seed=1)
        built = []
        original = T._loss_graph
        monkeypatch.setattr(T, "_loss_graph", lambda *a, **k: built.append(1) or original(*a, **k))
        with pytest.raises(SequenceTooLongError):
            T.train(items, model, lexicon, T.TrainConfig(epochs=1, batch_size=1))
        assert not built

    def test_divergence_keeps_parameters_of_last_finite_loss(self, lexicon, monkeypatch):
        vocab, items = _tiny_training_setup(lexicon)
        model = M.Model.build(vocab, lexicon, M.ModelConfig(d_model=16, n_heads=2), seed=1)
        batch_size = 8
        losses = []
        original_graph = T._loss_graph

        def recording_graph(batch, *args):
            graph = original_graph(batch, *args)
            losses.append((list(batch), float(graph.l_tot.data)))
            return graph

        original_step = T._Adam.step
        steps = []

        def poisoned_step(self, params, grads):
            original_step(self, params, grads)
            steps.append(1)
            if len(steps) == 3:
                # model.params are views of the buffer the optimizer steps
                model.params["b_n"][0] = np.inf

        monkeypatch.setattr(T, "_loss_graph", recording_graph)
        monkeypatch.setattr(T._Adam, "step", poisoned_step)
        with pytest.raises(NonFiniteLossError) as info:
            T.train(items, model, lexicon, T.TrainConfig(epochs=2, batch_size=batch_size, seed=3))
        assert len(losses) == 4 and not np.isfinite(losses[-1][1])
        batch, last_finite = losses[-2]
        assert np.isfinite(last_finite)
        restored = M.Model(info.value.last_good, model.config, model.vocab, model.code_index)
        l_tot, _, _ = loss_terms(batch, restored, lexicon)
        assert float(l_tot.data) == pytest.approx(last_finite, rel=1e-12)

    def test_last_good_shares_no_memory_with_the_live_parameters(self, lexicon, monkeypatch):
        vocab, items = _tiny_training_setup(lexicon)
        model = M.Model.build(vocab, lexicon, M.ModelConfig(d_model=16, n_heads=2), seed=1)
        original_step = T._Adam.step

        def poisoned_step(self, params, grads):
            original_step(self, params, grads)
            params[:] = np.inf

        monkeypatch.setattr(T._Adam, "step", poisoned_step)
        with pytest.raises(NonFiniteLossError) as info:
            T.train(items, model, lexicon, T.TrainConfig(epochs=1, batch_size=4, seed=3))
        last_good = info.value.last_good
        assert last_good.keys() == model.params.keys()
        kept = {name: a.copy() for name, a in last_good.items()}
        for live in model.params.values():
            assert not any(np.may_share_memory(live, a) for a in last_good.values())
            live[...] = 7.0
        for name, array in last_good.items():
            assert np.all(np.isfinite(array)) and array.tobytes() == kept[name].tobytes()

    def test_non_finite_gradient_norm_raises_before_the_step(self, lexicon, monkeypatch):
        vocab, items = _tiny_training_setup(lexicon)
        model = M.Model.build(vocab, lexicon, M.ModelConfig(d_model=16, n_heads=2), seed=1)
        batch_size = 8
        batches = -(-len(items) // batch_size)
        losses = []
        original_graph, original_clip = T._loss_graph, T.clip_gradients

        def recording_graph(batch, *args):
            graph = original_graph(batch, *args)
            losses.append((list(batch), float(graph.l_tot.data)))
            return graph

        def poisoned_clip(grads, max_norm):
            if len(losses) == batches:  # the last batch of the epoch
                grads[0] = np.nan
            return original_clip(grads, max_norm)

        monkeypatch.setattr(T, "_loss_graph", recording_graph)
        monkeypatch.setattr(T, "clip_gradients", poisoned_clip)
        with pytest.raises(NonFiniteLossError) as info:
            T.train(items, model, lexicon, T.TrainConfig(epochs=1, batch_size=batch_size, seed=3))
        last_good = info.value.last_good
        assert all(np.all(np.isfinite(a)) for a in last_good.values())
        # no step was taken from the parameters the last batch's loss was computed at
        for name, array in model.params.items():
            assert array.tobytes() == last_good[name].tobytes()
        batch, last_finite = losses[-1]
        restored = M.Model(last_good, model.config, model.vocab, model.code_index)
        l_tot, _, _ = loss_terms(batch, restored, lexicon)
        assert float(l_tot.data) == pytest.approx(last_finite, rel=1e-12)

    def test_graphs_are_freed_without_the_cycle_collector(self, lexicon):
        vocab, items = _tiny_training_setup(lexicon)
        model = M.Model.build(vocab, lexicon, M.ModelConfig(d_model=16, n_heads=2), seed=1)
        cfg = T.TrainConfig(epochs=1, batch_size=4, seed=0)

        def live_tensors():
            return sum(isinstance(o, ad.Tensor) for o in gc.get_objects())

        gc.collect()
        gc.disable()
        try:
            before = live_tensors()
            T.train(items, model, lexicon, cfg)
            after_one = live_tensors()
            T.train(items, model, lexicon, cfg)
            after_two = live_tensors()
        finally:
            gc.enable()
        assert after_one == before
        assert after_two == before

    def test_warm_epoch_accumulates_only_into_parameters(self, lexicon, monkeypatch):
        # constants (mix weights, supervision logs, lambda_ph, the 1/B scale)
        # need no gradient, so backward never accumulates into them
        vocab, items = _tiny_training_setup(lexicon)
        model = M.Model.build(vocab, lexicon, M.ModelConfig(d_model=16, n_heads=2), seed=1)
        cfg = T.TrainConfig(epochs=1, batch_size=4, seed=0)
        T.train(items, model, lexicon, cfg)  # cold epoch: fills the supervision cache
        wrap_params = M._wrap_params
        leaves: list[ad.Tensor] = []  # kept alive so their ids are not reused
        param_ids: set[int] = set()
        into_params, into_constants = [0], [0]

        def recording_wrap(params, needs_grad=True):
            wrapped = wrap_params(params, needs_grad)
            leaves.extend(wrapped.values())
            param_ids.update(id(t) for t in wrapped.values())
            return wrapped

        def counting(store):
            def counting_store(t, g):
                if id(t) in param_ids:
                    into_params[0] += 1
                elif t._bwd is None:
                    into_constants[0] += 1
                store(t, g)
            return counting_store

        monkeypatch.setattr(M, "_wrap_params", recording_wrap)
        # every gradient store goes through one of these two
        monkeypatch.setattr(ad, "_acc", counting(ad._acc))
        monkeypatch.setattr(ad, "_own", counting(ad._own))
        T.train(items, model, lexicon, cfg)
        assert into_params[0] > 0
        assert into_constants[0] == 0


class TestHeapThresholds:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap thresholds are glibc's")
    def test_warm_epoch_does_not_fault_its_memory_back_in(self):
        # a fresh process, so no earlier test has set the thresholds already
        script = (
            "import resource\n"
            "from asrnoise import corpus as C, model as M, synthetic, training as T\n"
            "from asrnoise.phonetics import default_lexicon\n"
            "lexicon = default_lexicon()\n"
            "pairs = synthetic.make_parallel_corpus(200, seed=1)\n"
            "vocab = C.induce_vocab([p.gt for p in pairs] + [p.asr for p in pairs if p.asr], 384)\n"
            "alignments = [C.align_pair(p.gt, p.asr, lexicon) for p in pairs]\n"
            "items = C.build_training_items(alignments, vocab, [p.id for p in pairs], max_target_len=5)\n"
            "model = M.Model.build(vocab, lexicon, M.ModelConfig(), seed=1)\n"
            "cfg = T.TrainConfig(epochs=1, batch_size=32, seed=1)\n"
            "T.train(items, model, lexicon, cfg)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "T.train(items, model, lexicon, cfg)\n"
            "print(len(items), resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        n_items, faults = map(int, result.stdout.split())
        assert n_items == 495
        # glibc's defaults take about 10,600 here: each batch faults its
        # freed temporaries back in
        assert faults < 1000

    # malloc.h: M_MMAP_THRESHOLD is -3 and M_TRIM_THRESHOLD is -1
    @pytest.mark.parametrize("libc, calls", [
        ("glibc", [(-3, 32 << 20), (-1, 64 << 20)]),
        ("musl", []),
        ("", []),
    ])
    def test_mallopt_is_called_on_glibc_only(self, lexicon, monkeypatch, libc, calls):
        vocab, items = _tiny_training_setup(lexicon)
        model = M.Model.build(vocab, lexicon, M.ModelConfig(d_model=16, n_heads=2), seed=1)
        made = []

        def mallopt(param, value):
            made.append((param, value))
            return 1

        monkeypatch.setattr(platform, "libc_ver", lambda *a, **k: (libc, "1.0" if libc else ""))
        monkeypatch.setattr(T.ctypes, "CDLL", lambda *a, **k: SimpleNamespace(mallopt=mallopt))
        T.train(items, model, lexicon, T.TrainConfig(epochs=1, batch_size=8, seed=0))
        assert made == calls


def _cut_position_table(header, body, max_len):
    """A checkpoint's header and body with ``max_len`` lowered and ``m_pos``
    cut to its first ``max_len`` rows, so that only ``max_gen_len`` exceeds
    ``max_len``; ``m_pos``'s place in the body comes from ``_param_specs``."""
    config, n_codes = M.ModelConfig(**header["config"]), len(M.PhonemeCodeIndex(header["piece_codes"]))
    specs = M._param_specs(config, len(header["vocab"]), n_codes)
    i = [name for name, _, _ in specs].index("m_pos")
    offset, (rows, width) = sum(8 * int(np.prod(shape)) for _, shape, _ in specs[:i]), specs[i][1]
    cut = (offset + 8 * max_len * width, offset + 8 * rows * width)
    return {**header, "config": {**header["config"], "max_len": max_len}}, body[:cut[0]] + body[cut[1]:]


def _drop_a_shared_piece_code(header):
    """A checkpoint's header one piece code short, with the dropped code kept
    by another piece, so the code table, and so the body's size, is unchanged."""
    codes = header["piece_codes"]
    i = next(i for i in reversed(range(len(codes))) if codes[i] in codes[:i])
    return {**header, "piece_codes": codes[:i] + codes[i + 1:]}


class TestCheckpointIO:
    def test_round_trip_bit_identical(self, lexicon, small_model, tmp_path):
        path = tmp_path / "model.ckpt"
        T.save_checkpoint(path, small_model, meta={"note": "round trip"})
        loaded = T.load_checkpoint(path)
        assert loaded.config == small_model.config
        assert loaded.vocab.pieces == small_model.vocab.pieces
        assert loaded.code_index.codes == small_model.code_index.codes
        np.testing.assert_array_equal(loaded.code_index.token_rows, small_model.code_index.token_rows)
        assert list(loaded.params) == [name for name, _, _ in M._param_specs(
            loaded.config, len(loaded.vocab), len(loaded.code_index))]
        for name, array in small_model.params.items():
            assert loaded.params[name].tobytes() == array.tobytes()
        # saving the loaded model reproduces the file byte for byte
        path2 = tmp_path / "model2.ckpt"
        T.save_checkpoint(path2, loaded, meta={"note": "round trip"})
        assert path.read_bytes() == path2.read_bytes()

    def test_truncated_file_rejected(self, lexicon, small_model, tmp_path):
        path = tmp_path / "model.ckpt"
        T.save_checkpoint(path, small_model)
        data = path.read_bytes()
        for cut in (len(data) // 3, len(data) - 5):
            bad = tmp_path / "bad.ckpt"
            bad.write_bytes(data[:cut])
            with pytest.raises(CorruptCheckpointError):
                T.load_checkpoint(bad)

    def test_trailing_garbage_rejected(self, lexicon, small_model, tmp_path):
        path = tmp_path / "model.ckpt"
        T.save_checkpoint(path, small_model)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(path.read_bytes() + b"extra")
        with pytest.raises(CorruptCheckpointError):
            T.load_checkpoint(bad)

    @settings(max_examples=8)
    @given(
        heads_and_width=st.sampled_from([(1, 4), (2, 8), (4, 8)]),
        max_gen_len=st.integers(1, 6),
        max_len=st.integers(4, 20),
        lambda_w=st.floats(0.0, 1.0),
        lambda_ph=st.floats(0.0, 3.0),
        phoneme_head=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_round_trip_property(
        self, lexicon, heads_and_width, max_gen_len, max_len, lambda_w, lambda_ph, phoneme_head, seed
    ):
        n_heads, d_model = heads_and_width
        config = M.ModelConfig(
            d_model=d_model, n_heads=n_heads, max_gen_len=min(max_gen_len, max_len), max_len=max_len,
            lambda_w=lambda_w, lambda_ph=lambda_ph, phoneme_head=phoneme_head,
        )
        model = M.Model.build(_toy_model(lexicon).vocab, lexicon, config, seed=seed)
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "a.ckpt", Path(tmp) / "b.ckpt"
            T.save_checkpoint(first, model, meta={"seed": seed})
            loaded = T.load_checkpoint(first)
            T.save_checkpoint(second, loaded, meta={"seed": seed})
            assert second.read_bytes() == first.read_bytes()
        assert loaded.config == model.config
        assert list(loaded.params) == list(model.params)
        for name, array in model.params.items():
            assert loaded.params[name].tobytes() == array.tobytes()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda h, b: ({k: v for k, v in h.items() if k != "config"}, b),
            lambda h, b: ({**h, "config": {**h["config"], "dropout": 0.1}}, b),
            lambda h, b: ({**h, "vocab": [p for p in h["vocab"] if p != "[BOS]"]}, b),
            lambda h, b: ({**h, "config": {**h["config"], "n_heads": 3}}, b),
            lambda h, b: ({**h, "config": {**h["config"], "max_len": 7}}, b),
            lambda h, b: ([h], b),
            lambda h, b: ({**h, "vocab": h["vocab"][:-5]}, b),
            lambda h, b: ({k: v for k, v in h.items() if k != "piece_codes"}, b),
            lambda h, b: ({**h, "piece_codes": " ".join(h["piece_codes"])}, b),
            lambda h, b: (_drop_a_shared_piece_code(h), b),
            # piece 0 is a special piece, whose pseudo-code no other piece shares
            lambda h, b: ({**h, "piece_codes": [7] + h["piece_codes"][1:]}, b),
            lambda h, b: ({**h, "vocab": h["vocab"][:-1] + ["##"]}, b),
            lambda h, b: ({**h, "config": {**h["config"], "max_gen_len": h["config"]["max_len"] + 1}}, b),
            lambda h, b: _cut_position_table(h, b, 3),
            lambda h, b: ({**h, "vocab": h["vocab"][:-1] + ["Two Words"]}, b),
            lambda h, b: ({**h, "vocab": h["vocab"][:-1] + ["x\ty"]}, b),
            lambda h, b: ({**h, "config": {**h["config"], "max_gen_len": 4.5}}, b),
            lambda h, b: ({**h, "config": {**h["config"], "phoneme_head": "no"}}, b),
            lambda h, b: ({**h, "config": {**h["config"], "d_model": float(h["config"]["d_model"])}}, b),
            lambda h, b: ({**h, "vocab": h["vocab"][:-1] + [7]}, b),
        ],
        ids=[
            "no-config", "unknown-config-key", "vocab-without-bos",
            "d-model-not-divisible", "arrays-do-not-fit-config", "header-not-an-object",
            "vocab-shorter-than-m-word", "no-piece-codes", "piece-codes-not-a-list",
            "piece-codes-one-short", "piece-code-not-a-string", "vocab-piece-without-characters",
            "max-gen-len-past-max-len", "max-len-cut-below-max-gen-len",
            "vocab-piece-with-space-and-upper-case", "vocab-piece-with-tab",
            "fractional-max-gen-len", "string-phoneme-head", "float-d-model",
            "vocab-piece-not-a-string",
        ],
    )
    def test_malformed_header_is_corrupt_checkpoint(self, small_model, tmp_path, edit):
        path = tmp_path / "model.ckpt"
        T.save_checkpoint(path, small_model)
        data = path.read_bytes()
        start = len(T.CHECKPOINT_MAGIC)
        (size,) = struct.unpack("<I", data[start:start + 4])
        header, body = edit(json.loads(data[start + 4:start + 4 + size]), data[start + 4 + size:])
        blob = json.dumps(header).encode("utf-8")
        path.write_bytes(data[:start] + struct.pack("<I", len(blob)) + blob + body)
        with pytest.raises(CorruptCheckpointError):
            T.load_checkpoint(path)
        texts = tmp_path / "texts.txt"
        texts.write_text("the cue\n")
        rc = cli.main(["corrupt", str(texts), "--checkpoint", str(path), "--out", str(tmp_path / "out.txt")])
        assert rc == 2

    def test_header_holds_only_what_the_model_cannot_derive(self, small_model, tmp_path):
        path = tmp_path / "model.ckpt"
        T.save_checkpoint(path, small_model, meta={"note": "header"})
        data = path.read_bytes()
        start = len(T.CHECKPOINT_MAGIC)
        (size,) = struct.unpack("<I", data[start:start + 4])
        header = json.loads(data[start + 4:start + 4 + size])
        assert header.keys() == {"format_version", "config", "vocab", "piece_codes", "meta"}
        assert header["format_version"] == 4
        assert header["config"] == asdict(small_model.config)
        assert header["vocab"] == small_model.vocab.pieces
        index = small_model.code_index
        assert header["piece_codes"] == [index.codes[row] for row in index.token_rows]
        assert header["meta"] == {"note": "header"}
        specs = M._param_specs(small_model.config, len(small_model.vocab), len(index))
        body = b"".join(small_model.params[name].astype("<f8").tobytes() for name, _, _ in specs)
        assert data[start + 4 + size:] == body

    def test_params_in_another_order_save_in_spec_order(self, small_model, tmp_path):
        params = dict(reversed(small_model.params.items()))
        shuffled = M.Model(params, small_model.config, small_model.vocab, small_model.code_index)
        first, second, third = tmp_path / "a.ckpt", tmp_path / "b.ckpt", tmp_path / "c.ckpt"
        T.save_checkpoint(first, small_model)
        T.save_checkpoint(second, shuffled)
        assert second.read_bytes() == first.read_bytes()
        T.save_checkpoint(third, T.load_checkpoint(second))
        assert third.read_bytes() == first.read_bytes()

    def test_older_format_version_rejected(self, small_model, tmp_path):
        path = tmp_path / "model.ckpt"
        T.save_checkpoint(path, small_model)
        data = path.read_bytes()
        start = len(T.CHECKPOINT_MAGIC)
        (size,) = struct.unpack("<I", data[start:start + 4])
        for version in (1, 2, 3):
            header = {**json.loads(data[start + 4:start + 4 + size]), "format_version": version}
            blob = json.dumps(header).encode("utf-8")
            path.write_bytes(data[:start] + struct.pack("<I", len(blob)) + blob + data[start + 4 + size:])
            with pytest.raises(VersionMismatchError):
                T.load_checkpoint(path)
        texts = tmp_path / "texts.txt"
        texts.write_text("the cue\n")
        rc = cli.main(["corrupt", str(texts), "--checkpoint", str(path), "--out", str(tmp_path / "out.txt")])
        assert rc == 2

    def test_loaded_model_trains_like_the_saved_one(self, lexicon, tmp_path):
        vocab, items = _tiny_training_setup(lexicon)
        model = M.Model.build(vocab, lexicon, M.ModelConfig(d_model=16, n_heads=2), seed=1)
        path = tmp_path / "model.ckpt"
        T.save_checkpoint(path, model)
        loaded = T.load_checkpoint(path)
        assert all(a.flags.writeable for a in loaded.params.values())
        cfg = T.TrainConfig(learning_rate=1e-3, epochs=1, seed=9)
        assert T.train(items, loaded, lexicon, cfg) == T.train(items, model, lexicon, cfg)
        for name, array in model.params.items():
            assert loaded.params[name].tobytes() == array.tobytes()

    def test_gradient_audit_runs_on_a_loaded_model(self, lexicon, small_setup, small_model, tmp_path):
        _, _, items = small_setup
        path = tmp_path / "model.ckpt"
        T.save_checkpoint(path, small_model)
        loaded = T.load_checkpoint(path)
        grads, max_rel = backward_and_check(loaded, items[:4], lexicon, check_coords=5, check_seed=1)
        expected, _ = backward_and_check(small_model, items[:4], lexicon)
        assert max_rel is not None
        for name, g in expected.items():
            np.testing.assert_array_equal(grads[name], g)

    def test_foreign_magic_rejected(self, tmp_path):
        path = tmp_path / "foreign.ckpt"
        path.write_bytes(b"NOPE1" + b"\x00" * 64)
        with pytest.raises(VersionMismatchError):
            T.load_checkpoint(path)


class TestLossLog:
    def test_csv_format(self, tmp_path):
        rows = [T.EpochStats(1, 2.5, 2.0, 1.0), T.EpochStats(2, 1.25, 1.0, 0.5)]
        path = tmp_path / "loss.csv"
        T.save_loss_log(path, rows, header="test")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "epoch,L_tot,L_n,L_ph"
        assert lines[2].startswith("1,2.5,")
