"""Quality harness: the desk recipe's paper measurements over five training seeds.

    PYTHONPATH=src python3 scripts/quality.py OUT.json [--side NAME]

Trains the desk recipe of acceptance criterion 7 (the ``DESK`` settings and
the desk corpora of ``perfbench/inputs.py``, 40 epochs) through
the ``asrnoise`` command at the fixed seeds 1-5, each with the phoneme head
(``full``) and without it (``ablation``). Each model corrupts the held-out
sentences at ``P_Z`` with corruption seed 9, as criterion 7 does, and the
harness records per seed:

- the mean phoneme distance of each arm and the relative ablation gap;
- the word-level (ins, del, sub) mix, and its L1 distance to the training
  corpus's mix and to each ``evaluation.REFERENCE_ERROR_MIX`` entry;
- the WER, to read beside ``evaluation.REFERENCE_WER``;
- the realized corruption rate (spans over the token positions of the
  corruptible sentences) against ``P_Z``;
- the final epoch's mean loss, and the share of batches whose gradient norm
  ``training.clip_gradients`` clipped (counted by wrapping it here).

A ``mean`` entry averages every figure over the seeds. The chi-square
independence verdict is left out: at desk scale most pieces occur at fewer
than ``evaluation.MIN_OBSERVATIONS`` positions, so it would test almost
nothing. The harness measures and bounds nothing.

The results go into ``OUT.json`` under ``--side`` (default ``change``); other
sides already in the file are kept, so two runs against two source trees
(``PYTHONPATH`` naming each tree's ``src``) fill one file. A training run
takes 10-20 s on a 2-core x86-64 host, so a side takes a few minutes.
"""
from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import inputs  # noqa: E402  perfbench/inputs.py: the desk recipe
from asrnoise import cli, corpus, evaluation, generation, phonetics, synthetic, training  # noqa: E402

SEEDS = (1, 2, 3, 4, 5)
#: criterion 7's fixture trains this many epochs
EPOCHS = 40
CORRUPT_SEED = 9
ARMS = {"full": True, "ablation": False}


def _l1(a, b) -> float:
    return sum(abs(x - y) for x, y in zip(a, b))


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def _train(root: Path, vocab: Path, train_tsv: Path, seed: int, phoneme_head: bool):
    """Train one arm through the CLI; returns the model, its last epoch's mean
    loss and the clipped share of its batches."""
    cfg = root / f"seed{seed}-{phoneme_head}.cfg"
    settings = {**inputs.DESK, "epochs": EPOCHS, "seed": seed, "phoneme_head": phoneme_head}
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()))
    ckpt, loss_log = root / f"seed{seed}-{phoneme_head}.ckpt", root / f"seed{seed}-{phoneme_head}.csv"
    norms = []
    clip = training.clip_gradients

    def counting_clip(grads, max_norm):
        norms.append(clip(grads, max_norm))
        return norms[-1]

    training.clip_gradients = counting_clip
    try:
        argv = ["train", str(train_tsv), "--vocab", str(vocab), "--checkpoint", str(ckpt),
                "--out", str(loss_log), "--config", str(cfg)]
        if cli.main(argv) != 0:
            raise SystemExit(f"training failed at seed {seed}, phoneme head {phoneme_head}")
    finally:
        training.clip_gradients = clip
    last = [line for line in loss_log.read_text().splitlines() if line[:1].isdigit()][-1]
    clipped = sum(norm > inputs.DESK["clip_norm"] for norm in norms) / len(norms)
    return training.load_checkpoint(ckpt), float(last.split(",")[1]), clipped


def _score(model, texts, lexicon, corpus_mix) -> dict:
    outputs, records = generation.corrupt_corpus(texts, model, p_z=inputs.P_Z, seed=CORRUPT_SEED,
                                                 mode=generation.SAMPLE)
    lengths = [len(corpus.tokenize(text, model.vocab)) for text in texts]
    mix = evaluation.error_type_breakdown(texts, outputs).as_tuple()
    return {
        "mean_phoneme_distance": evaluation.mean_phoneme_distance(texts, outputs, lexicon),
        "error_mix": list(mix),
        "mix_l1_to_corpus": _l1(mix, corpus_mix),
        **{f"mix_l1_to_{name}": _l1(mix, ref) for name, ref in evaluation.REFERENCE_ERROR_MIX.items()},
        "wer": evaluation.word_error_rate(texts, outputs),
        "corruption_rate": len(records) / sum(n for n in lengths if n <= model.config.max_len),
    }


def run_side() -> dict:
    lexicon = phonetics.default_lexicon()
    sizes = inputs.SIZES["full"]
    pairs, heldout = inputs._desk_corpus(synthetic, lexicon, sizes["train_pairs"], sizes["coverage_texts"],
                                         inputs.DESK_SEED, inputs.DESK_HELDOUT_SEED)
    corpus_mix = evaluation.error_type_breakdown([p.gt for p in pairs], [p.asr for p in pairs]).as_tuple()
    seeds = {}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        train_tsv, vocab_tsv, vocab = root / "train.tsv", root / "vocab_corpus.tsv", root / "vocab.txt"
        corpus.write_pairs_tsv(train_tsv, pairs)
        # tokenizer coverage: the training pairs plus the held-out sentences
        corpus.write_pairs_tsv(vocab_tsv, pairs + [corpus.ParallelPair(gt=t, asr="") for t in heldout])
        if cli.main(["vocab", str(vocab_tsv), "--out", str(vocab), "--size", str(inputs.DESK["vocab_size"])]):
            raise SystemExit("vocab failed")
        for seed in SEEDS:
            arms = {}
            for arm, phoneme_head in ARMS.items():
                model, final_loss, clipped = _train(root, vocab, train_tsv, seed, phoneme_head)
                arms[arm] = {**_score(model, heldout, lexicon, corpus_mix),
                             "final_loss": final_loss, "clipped_share": clipped}
            full, abl = (arms[arm]["mean_phoneme_distance"] for arm in ARMS)
            seeds[str(seed)] = {"gap": (abl - full) / abl, **arms}
            print(f"seed {seed}: gap {seeds[str(seed)]['gap']:.1%} (full {full:.4f}, ablation {abl:.4f})",
                  file=sys.stderr)
    runs = list(seeds.values())
    mean = {"gap": _mean(run["gap"] for run in runs)}
    for arm in ARMS:
        mean[arm] = {}
        for key, value in runs[0][arm].items():
            if isinstance(value, list):  # the error mix, averaged per error type
                mean[arm][key] = [_mean(run[arm][key][i] for run in runs) for i in range(len(value))]
            else:
                mean[arm][key] = _mean(run[arm][key] for run in runs)
    return {"corpus_error_mix": list(corpus_mix), "seeds": seeds, "mean": mean}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--side", default="change", help="key under which this run's results go")
    args = parser.parse_args(argv)
    report = json.loads(args.out.read_text()) if args.out.is_file() else {}
    report["recipe"] = {**inputs.DESK, "epochs": EPOCHS, "seeds": list(SEEDS), "p_z": inputs.P_Z,
                        "corrupt_seed": CORRUPT_SEED, "corpus_seed": inputs.DESK_SEED,
                        "heldout_seed": inputs.DESK_HELDOUT_SEED}
    report["reference"] = {"wer": evaluation.REFERENCE_WER, "error_mix": evaluation.REFERENCE_ERROR_MIX,
                           "phoneme_distance": evaluation.REFERENCE_PHONEME_DISTANCE}
    report.setdefault("sides", {})[args.side] = run_side()
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
