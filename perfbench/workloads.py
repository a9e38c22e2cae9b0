"""The three workloads: set-up, one pass, output checks and digests.

Each workload makes the library calls of the CLI commands ``train``;
``corrupt``; or ``vocab``, ``align`` and ``eval`` through module attributes, so
the tracer's rebinding sees them.  Nothing here imports asrnoise at module
level: the workload process imports it after the set-up clock starts.

An operation is a training item, a sentence or a pair.  A call that raises
fails every operation it carried; ``run_pass`` returns that count instead of
raising.
"""
from __future__ import annotations

import hashlib
import math
import traceback

# passes in a traced run: one cold pass and two warm ones, so counts repeat
FIXED_PASSES = 3
# fewest passes in each timed process: one cold pass and one warm one
MIN_TIMED_PASSES = 2


class Check:
    def __init__(self, name: str, ok: bool, detail: str):
        self.name, self.ok, self.detail = name, bool(ok), detail

    def as_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


def _error(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _sha(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else repr(chunk).encode())
    return h.hexdigest()


class Workload:
    name = ""
    # spans a traced run of this workload must record at least once
    spans: tuple[str, ...] = ()
    # the host-speed reference task that does this workload's kind of work
    reference = "numpy"

    def __init__(self, inputs: dict, workdir: str):
        self.inputs = inputs
        self.workdir = workdir
        self.errors: list[str] = []
        self.pass_digests: list[str] = []

    def _fail(self, exc: Exception, ops: int) -> int:
        self.errors.append(_error(exc))
        return ops

    def ops_per_pass(self) -> int:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, index: int) -> int:
        """Run one pass; returns the number of operations that failed."""
        raise NotImplementedError

    def digest_pass(self, index: int) -> None:
        """Digest the outputs of the pass just run; called outside the clock."""
        raise NotImplementedError

    def finish(self) -> None:
        """Untimed work the CLI command does after its main loop."""

    def checks(self) -> list[Check]:
        raise NotImplementedError

    def counts(self) -> dict:
        raise NotImplementedError

    def output_digest(self) -> str:
        return self.pass_digests[0] if self.pass_digests else ""

    def _same_every_pass(self) -> Check:
        distinct = len(set(self.pass_digests))
        return Check("passes_identical", distinct == 1,
                     f"{len(self.pass_digests)} passes, {distinct} distinct output digests")


class Train(Workload):
    """``asrnoise train``: vocab, align, items and Model.build, then epochs."""

    name = "train"
    spans = ("phonetics.supervision", "phonetics.edit_distance", "phonetics.g2p",
             "corpus.induce_vocab", "corpus.align", "corpus.build_items", "model.forward",
             "model.embed", "model.encode", "model.decoder", "model.heads", "autodiff.backward",
             "training.train", "training.optimizer", "training.clip", "training.checkpoint_save")

    def ops_per_pass(self) -> int:
        return len(self.items)

    def setup(self) -> None:
        from asrnoise import corpus, model, phonetics, training

        self.training = training
        cfg = self.cfg = self.inputs["config"]
        self.lexicon = phonetics.default_lexicon()
        pairs = [corpus.ParallelPair(gt=gt, asr=asr, id=pid) for gt, asr, pid in self.inputs["pairs"]]
        texts = [p.gt for p in pairs] + [p.asr for p in pairs if p.asr.strip()] + self.inputs["coverage"]
        vocab = corpus.induce_vocab(texts, cfg["vocab_size"])
        alignments = [corpus.align_pair(p.gt, p.asr, self.lexicon) for p in pairs]
        self.items = corpus.build_training_items(
            alignments, vocab, [p.id for p in pairs], max_target_len=cfg["max_gen_len"]
        )
        config = model.ModelConfig(
            d_model=cfg["d_model"], n_heads=cfg["n_heads"], max_gen_len=cfg["max_gen_len"],
            max_len=cfg["max_len"], lambda_w=cfg["lambda_w"], lambda_ph=cfg["lambda_ph"],
            phoneme_head=cfg["phoneme_head"],
        )
        self.model = model.Model.build(vocab, self.lexicon, config, seed=self.inputs["model_seed"])
        self.losses: list[float] = []

    def run_pass(self, index: int) -> int:
        # one train() call per epoch lets the clock see epoch 1, which fills
        # the supervision cache, apart from the warm epochs.  Every call gets
        # the same seed, so every epoch does the same work.
        cfg = self.cfg
        train_cfg = self.training.TrainConfig(
            learning_rate=cfg["learning_rate"], epochs=1, batch_size=cfg["batch_size"],
            seed=self.inputs["model_seed"], clip_norm=cfg["clip_norm"],
        )
        try:
            log = self.training.train(self.items, self.model, self.lexicon, train_cfg)
        except Exception as exc:  # train() carries every item of the epoch
            return self._fail(exc, len(self.items))
        self.losses.append(log[-1].loss_total)
        return 0

    def digest_pass(self, index: int) -> None:
        # epochs differ, and how many run depends on the clock, so the
        # parameters after epoch 1 are what runs compare
        if index == 0:
            self.pass_digests.append(_sha(*(
                name.encode() + array.tobytes() for name, array in self.model.params.items()
            )))

    def finish(self) -> None:
        self.training.save_checkpoint(f"{self.workdir}/train.ckpt", self.model)

    def checks(self) -> list[Check]:
        import numpy as np

        losses = self.losses
        return [
            Check("epoch_losses_finite", losses and all(math.isfinite(x) for x in losses),
                  f"{len(losses)} epoch losses"),
            Check("loss_decreased", len(losses) >= 2 and losses[-1] < losses[0],
                  f"first {losses[0]:.4f} last {losses[-1]:.4f}" if losses else "no epochs"),
            Check("params_finite", all(np.all(np.isfinite(a)) for _, a in self.model.params.items()),
                  "final parameters"),
        ]

    def counts(self) -> dict:
        return {"items": len(self.items), "vocab": len(self.model.vocab),
                "pairs": len(self.inputs["pairs"])}


class Corrupt(Workload):
    """``asrnoise corrupt``: load a checkpoint, corrupt held-out sentences."""

    name = "corrupt"
    spans = ("training.checkpoint_load", "generation.corrupt", "generation.span",
             "generation.assemble", "corpus.tokenize", "intervention.plan", "model.embed",
             "model.encode", "model.decoder", "model.heads")

    def ops_per_pass(self) -> int:
        return len(self.texts)

    def setup(self) -> None:
        from asrnoise import generation, training

        self.generation = generation
        self.model = training.load_checkpoint(self.inputs["checkpoint"])
        self.texts = self.inputs["texts"]
        self.outputs: list[str] = []
        self.records: list = []

    def run_pass(self, index: int) -> int:
        try:
            self.outputs, self.records = self.generation.corrupt_corpus(
                self.texts, self.model, p_z=self.inputs["p_z"], seed=self.inputs["corrupt_seed"],
                mode=self.generation.SAMPLE, temperature=1.0,
            )
        except Exception as exc:  # corrupt_corpus carries every sentence
            return self._fail(exc, len(self.texts))
        return 0

    def digest_pass(self, index: int) -> None:
        self.pass_digests.append(_sha(self.outputs, [
            (r.sentence_id, r.span.position, r.span.token_ids) for r in self.records
        ]))

    def checks(self) -> list[Check]:
        from asrnoise import corpus, evaluation

        p_z = self.inputs["p_z"]
        if len(self.outputs) != len(self.texts):
            return [Check("one_line_per_input", False,
                          f"{len(self.outputs)} outputs for {len(self.texts)} inputs")]
        positions = sum(len(corpus.tokenize(t, self.model.vocab)) for t in self.texts)
        rate = len(self.records) / positions
        tolerance = max(0.02, 5.0 * math.sqrt(p_z * (1.0 - p_z) / positions))
        wer = evaluation.word_error_rate(self.texts, self.outputs)
        kinds = sorted({r.span.error_type.value for r in self.records})
        return [
            Check("one_line_per_input", True, f"{len(self.outputs)} outputs for {len(self.texts)} inputs"),
            Check("corruption_rate", abs(rate - p_z) <= tolerance,
                  f"realized {rate:.4f} vs p_z {p_z} (tolerance {tolerance:.4f}, {positions} positions)"),
            Check("wer_floor", wer >= 0.9 * p_z, f"WER {wer:.4f} >= {0.9 * p_z:.4f}"),
            Check("three_error_types", kinds == ["deletion", "insertion", "substitution"],
                  f"span types {kinds}"),
            self._same_every_pass(),
        ]

    def counts(self) -> dict:
        return {"sentences": len(self.texts), "spans": len(self.records)}


class Prep(Workload):
    """``asrnoise vocab`` + ``align`` and item building, then ``asrnoise eval``.

    Each pass prepares a parallel corpus for training, then scores its ASR
    side against its GT side with the four evaluation functions.
    """

    name = "prep"
    reference = "python"
    spans = ("corpus.induce_vocab", "corpus.align", "corpus.build_items",
             "phonetics.edit_distance", "phonetics.g2p", "evaluation.wer", "evaluation.cer",
             "evaluation.breakdown", "evaluation.phoneme_distance")

    def ops_per_pass(self) -> int:
        return len(self.pairs)

    def setup(self) -> None:
        from asrnoise import corpus, evaluation, phonetics

        self.corpus, self.evaluation = corpus, evaluation
        self.lexicon = phonetics.default_lexicon()
        self.pairs = [corpus.ParallelPair(gt=gt, asr=asr, id=pid) for gt, asr, pid in self.inputs["pairs"]]
        self.refs, self.hyps = [p.gt for p in self.pairs], [p.asr for p in self.pairs]
        self.alignments: list = []
        self.scores: dict = {}

    def run_pass(self, index: int) -> int:
        failed = self._prepare()
        return max(failed, self._score())

    def _prepare(self) -> int:
        corpus = self.corpus
        try:
            texts = [p.gt for p in self.pairs] + [p.asr for p in self.pairs if p.asr.strip()]
            vocab = corpus.induce_vocab(texts, self.inputs["vocab_size"])
        except Exception as exc:  # the vocabulary carries every pair
            return self._fail(exc, len(self.pairs))
        alignments, ids, failed = [], [], 0
        for pair in self.pairs:
            try:
                alignments.append(corpus.align_pair(pair.gt, pair.asr, self.lexicon))
            except Exception as exc:  # one pair fails alone
                failed += self._fail(exc, 1)
                continue
            ids.append(pair.id)
        try:
            items = corpus.build_training_items(
                alignments, vocab, ids, max_target_len=self.inputs["max_gen_len"]
            )
        except Exception as exc:  # the call carried every aligned pair
            return failed + self._fail(exc, len(alignments))
        self.vocab, self.alignments, self.ids, self.items = vocab, alignments, ids, items
        return failed

    def _score(self) -> int:
        ev, refs, hyps = self.evaluation, self.refs, self.hyps
        try:
            breakdown = ev.error_type_breakdown(refs, hyps)
            self.scores = {
                "wer": ev.word_error_rate(refs, hyps),
                "cer": ev.char_error_rate(refs, hyps),
                "breakdown": breakdown.as_tuple(),
                "total_errors": breakdown.total_errors,
                "mean_phoneme_distance": ev.mean_phoneme_distance(refs, hyps, self.lexicon),
            }
        except Exception as exc:  # each scorer carries every pair
            return self._fail(exc, len(refs))
        return 0

    def digest_pass(self, index: int) -> None:
        self.pass_digests.append(_sha(self.vocab.pieces, self.alignments, [
            (i.sentence_id, i.position, i.target_ids) for i in self.items
        ], sorted(self.scores.items())))

    def checks(self) -> list[Check]:
        if not self.alignments or not self.scores:
            return [Check("outputs", False, "no pass completed")]
        by_id = {p.id: p for p in self.pairs}
        off = sum(
            len(entries) != len(self.corpus.normalize(by_id[pid].gt).split())
            for pid, entries in zip(self.ids, self.alignments)
        )
        s = self.scores
        total = sum(s["breakdown"])
        return [
            Check("one_entry_per_gt_word", off == 0,
                  f"{off} of {len(self.alignments)} alignments differ from their GT word count"),
            Check("items_built", len(self.items) > 0, f"{len(self.items)} items"),
            Check("breakdown_sums_to_one", s["total_errors"] > 0 and abs(total - 1.0) <= 1e-9,
                  f"fractions sum to {total!r} over {s['total_errors']} errors"),
            Check("scores_finite",
                  all(math.isfinite(s[k]) for k in ("wer", "cer", "mean_phoneme_distance")),
                  f"WER {s['wer']:.4f} CER {s['cer']:.4f} MPD {s['mean_phoneme_distance']:.4f}"),
            self._same_every_pass(),
        ]

    def counts(self) -> dict:
        done = bool(self.alignments)
        return {"pairs": len(self.pairs), "vocab": len(self.vocab) if done else 0,
                "items": len(self.items) if done else 0, "errors": self.scores.get("total_errors", 0)}


WORKLOADS = {w.name: w for w in (Train, Corrupt, Prep)}
