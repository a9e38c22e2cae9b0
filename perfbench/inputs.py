"""Seeded inputs for each workload, made before any workload process starts.

``asrnoise.synthetic`` is the input generator, so its time is never
measured: the workload processes receive only the JSON written here and, for
``corrupt``, a checkpoint trained here once per source tree and cached.
"""
from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

# The desk setup of tests/test_acceptance.py: 500 train-pool pairs plus 300
# held-out sentences for tokenizer coverage, a 384-piece vocabulary, d_model
# 32 with 4 heads, batch 32, lr 1e-3, phoneme head on, max_gen_len 5.
DESK = {
    "d_model": 32,
    "n_heads": 4,
    "vocab_size": 384,
    "max_gen_len": 5,
    "max_len": 64,
    "lambda_w": 0.5,
    "lambda_ph": 0.5,
    "phoneme_head": True,
    "learning_rate": 1e-3,
    "batch_size": 32,
    "clip_norm": 5.0,
}
DESK_SEED = 20260810
DESK_HELDOUT_SEED = 777
P_Z = 0.45

SIZES = {
    "full": {
        "train_pairs": 500,
        "coverage_texts": 300,
        "corrupt_sentences": 400,
        "prep_pairs": 3000,
        "checkpoint_pairs": 500,
        "checkpoint_epochs": 3,
    },
    # a smoke-test size for the harness tests; its figures mean nothing
    "tiny": {
        "train_pairs": 40,
        "coverage_texts": 20,
        "corrupt_sentences": 40,
        "prep_pairs": 60,
        "checkpoint_pairs": 120,
        "checkpoint_epochs": 6,
    },
}


def derive(seed: int, salt: str) -> int:
    """A 32-bit seed for one input stream, independent of the program's RNG code."""
    digest = hashlib.sha256(f"{seed}:{salt}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def source_digest(src: Path) -> str:
    """sha256 over every file of the package, so a cache never outlives its code."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _pairs(pairs) -> list[list[str]]:
    return [[p.gt, p.asr, p.id] for p in pairs]


def _desk_corpus(synthetic, lexicon, n_pairs, n_coverage, seed, heldout_seed):
    train_pool, heldout_pool = synthetic.split_word_pool(lexicon)
    pairs = synthetic.make_parallel_corpus(n_pairs, seed=seed, pool=train_pool)
    coverage = [p.gt for p in synthetic.make_parallel_corpus(n_coverage, seed=heldout_seed, pool=heldout_pool)]
    return pairs, coverage


def _checkpoint(cache: Path, src: Path, size: str) -> Path:
    """Train the corrupt workload's model once per source tree and size.

    It is the desk recipe cut to a few epochs: enough for the decoder to emit
    all three error types, which is all the corrupt workload's checks need.
    """
    from asrnoise import phonetics, synthetic, training
    from workloads import Train

    sizes = SIZES[size]
    recipe = {"desk": DESK, "seed": DESK_SEED, "heldout_seed": DESK_HELDOUT_SEED,
              **{k: sizes[k] for k in ("checkpoint_pairs", "coverage_texts", "checkpoint_epochs")}}
    key = hashlib.sha256((source_digest(src) + json.dumps(recipe, sort_keys=True)).encode()).hexdigest()
    path = cache / f"corrupt-{key[:16]}.ckpt"
    if path.is_file():
        return path
    pairs, coverage = _desk_corpus(
        synthetic, phonetics.default_lexicon(), sizes["checkpoint_pairs"], sizes["coverage_texts"],
        DESK_SEED, DESK_HELDOUT_SEED,
    )
    desk = Train({"pairs": _pairs(pairs), "coverage": coverage, "config": DESK, "model_seed": 1}, str(cache))
    desk.setup()
    training.train(desk.items, desk.model, desk.lexicon, training.TrainConfig(
        learning_rate=DESK["learning_rate"], epochs=sizes["checkpoint_epochs"],
        batch_size=DESK["batch_size"], seed=1, clip_norm=DESK["clip_norm"],
    ))
    cache.mkdir(parents=True, exist_ok=True)
    partial = path.with_suffix(f".{os.getpid()}.tmp")
    training.save_checkpoint(partial, desk.model)
    partial.replace(path)
    return path


def make_inputs(workload: str, seed: int, size: str, src: Path, cache: Path) -> dict:
    """The workload's inputs as plain JSON data; same seed, same inputs."""
    from asrnoise import phonetics, synthetic

    sizes = SIZES[size]
    lexicon = phonetics.default_lexicon()
    if workload == "train":
        pairs, coverage = _desk_corpus(
            synthetic, lexicon, sizes["train_pairs"], sizes["coverage_texts"],
            derive(seed, "train.pairs"), derive(seed, "train.coverage"),
        )
        return {"pairs": _pairs(pairs), "coverage": coverage, "config": DESK,
                "model_seed": derive(seed, "train.model") % 10_000}
    if workload == "corrupt":
        _, heldout_pool = synthetic.split_word_pool(lexicon)
        texts = [p.gt for p in synthetic.make_parallel_corpus(
            sizes["corrupt_sentences"], seed=derive(seed, "corrupt.texts"), pool=heldout_pool)]
        return {"texts": texts, "checkpoint": str(_checkpoint(cache, src, size)),
                "p_z": P_Z, "corrupt_seed": derive(seed, "corrupt.plan")}
    if workload == "prep":
        pairs = synthetic.make_parallel_corpus(sizes["prep_pairs"], seed=derive(seed, "prep.pairs"))
        return {"pairs": _pairs(pairs), "vocab_size": DESK["vocab_size"],
                "max_gen_len": DESK["max_gen_len"]}
    raise ValueError(f"unknown workload {workload!r}")
