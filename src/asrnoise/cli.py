"""Command-line pipeline: vocab, g2p, align, train, corrupt, eval.

Configuration resolves in three layers (built-in defaults, then a flat
``key = value`` config file, then command-line flags); the resolved config is
echoed to stderr and hashed into every artifact header.  All randomness
derives from the single ``--seed`` value.
"""
from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import corpus as corpus_mod
from . import evaluation, generation, intervention, phonetics, training
from .errors import (
    AsrNoiseError,
    ConfigParseError,
    CorruptCheckpointError,
    EmptyCorpusError,
    LengthMismatchError,
    NonFiniteLossError,
    PriorOutOfRangeError,
    SizeTooSmallError,
    UnknownConfigKeyError,
    VersionMismatchError,
)
from .model import Model, ModelConfig
from .training import TrainConfig

DEFAULTS: dict[str, object] = {
    "seed": 0,
    "p_z": 0.15,
    "lambda_w": 0.5,
    "lambda_ph": 0.5,
    "mode": "sample",
    "temperature": 1.0,
    "d_model": 32,
    "n_heads": 4,
    "vocab_size": 256,
    "max_gen_len": 5,
    "max_len": 64,
    "learning_rate": 1e-3,
    "epochs": 20,
    "batch_size": 32,
    "clip_norm": 5.0,
    "phoneme_head": True,
}

COMMANDS = ("vocab", "g2p", "align", "train", "corrupt", "eval")


def _parse_value(key: str, raw: str, line: Optional[int] = None):
    default = DEFAULTS[key]
    raw = raw.strip()
    try:
        if isinstance(default, bool):
            low = raw.lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigParseError(f"line {line}: bad value for {key}: {exc}", line=line) from exc


def load_config(path: Optional[str] = None, overrides: Optional[dict] = None) -> dict:
    """Resolve configuration: defaults, then file, then explicit overrides."""
    config = dict(DEFAULTS)
    if path:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigParseError(f"line {lineno}: expected 'key = value', got {raw!r}", line=lineno)
                key, _, value = line.partition("=")
                key = key.strip()
                if key not in DEFAULTS:
                    raise UnknownConfigKeyError(f"line {lineno}: unknown config key {key!r}")
                config[key] = _parse_value(key, value, lineno)
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in DEFAULTS:
            raise UnknownConfigKeyError(f"unknown config key {key!r}")
        config[key] = value
    if config["mode"] not in ("greedy", "sample"):
        raise ConfigParseError(f"mode must be greedy or sample, got {config['mode']!r}")
    return config


def config_hash(config: dict) -> str:
    canon = "\n".join(f"{k} = {config[k]}" for k in sorted(config))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


def _echo_config(command: str, config: dict) -> None:
    print(f"[asrnoise {command}] config-hash={config_hash(config)}", file=sys.stderr)
    for key in sorted(config):
        print(f"[asrnoise {command}]   {key} = {config[key]}", file=sys.stderr)


def _header(command: str, config: dict) -> str:
    return f"produced-by: asrnoise {command}; config-hash: {config_hash(config)}"


def _read_lines(path) -> list[str]:
    lines = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if line.startswith("#"):
                continue
            lines.append(line)
    return lines


def _load_lexicon(config_paths: dict) -> phonetics.PronouncingLexicon:
    lex_path = config_paths.get("lexicon")
    inv_path = config_paths.get("inventory")
    if lex_path is None and inv_path is None:
        return phonetics.default_lexicon()
    if lex_path is None or inv_path is None:
        raise ValueError("provide both --lexicon and --inventory or neither")
    inventory = phonetics.load_inventory(inv_path)
    return phonetics.load_lexicon(lex_path, inventory)


# ---------------------------------------------------------------- commands
def _cmd_vocab(args, config) -> int:
    pairs = corpus_mod.load_pairs_tsv(args.input)
    texts = [p.gt for p in pairs] + [p.asr for p in pairs if p.asr.strip()]
    vocab = corpus_mod.induce_vocab(texts, config["vocab_size"])
    vocab.save(args.out, header=_header("vocab", config))
    print(f"wrote {len(vocab)} pieces to {args.out}", file=sys.stderr)
    return 0


def _cmd_g2p(args, config) -> int:
    lexicon = _load_lexicon({"lexicon": args.lexicon, "inventory": args.inventory})
    lines = []
    for word in args.words:
        code = phonetics.g2p(word, lexicon)
        lines.append(f"{word}\t{code.key()}")
    output = "\n".join(lines)
    if args.out:
        Path(args.out).write_text(f"# {_header('g2p', config)}\n{output}\n", encoding="utf-8")
    else:
        print(output)
    return 0


def _cmd_align(args, config) -> int:
    lexicon = _load_lexicon({"lexicon": args.lexicon, "inventory": args.inventory})
    pairs = corpus_mod.load_pairs_tsv(args.input)
    alignments = [corpus_mod.align_pair(p.gt, p.asr, lexicon) for p in pairs]
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(f"# {_header('align', config)}\n")
        fh.write("sentence_id\tgt_word\tasr_words\tlabel\n")
        for pair, entries in zip(pairs, alignments):
            for entry in entries:
                fh.write(f"{pair.id}\t{entry.gt_word}\t{' '.join(entry.asr_words)}\t{entry.label}\n")
    if args.prior_out:
        table = intervention.estimate_conditional_prior(alignments)
        table.save(args.prior_out, header=_header("align", config))
    return 0


def _cmd_train(args, config) -> int:
    lexicon = _load_lexicon({"lexicon": args.lexicon, "inventory": args.inventory})
    pairs = corpus_mod.load_pairs_tsv(args.input)
    vocab = corpus_mod.SubwordVocab.load(args.vocab)
    alignments = [corpus_mod.align_pair(p.gt, p.asr, lexicon) for p in pairs]
    items = corpus_mod.build_training_items(
        alignments, vocab, [p.id for p in pairs], max_target_len=config["max_gen_len"]
    )
    if not items:
        raise EmptyCorpusError("no corrupted positions found in the training corpus")
    model_config = ModelConfig(
        d_model=config["d_model"],
        n_heads=config["n_heads"],
        max_gen_len=config["max_gen_len"],
        max_len=config["max_len"],
        lambda_w=config["lambda_w"],
        lambda_ph=config["lambda_ph"],
        phoneme_head=config["phoneme_head"],
    )
    model = Model.build(vocab, lexicon, model_config, seed=config["seed"])
    train_config = TrainConfig(
        learning_rate=config["learning_rate"],
        epochs=config["epochs"],
        batch_size=config["batch_size"],
        seed=config["seed"],
        clip_norm=config["clip_norm"],
    )
    meta = {"config_hash": config_hash(config)}
    try:
        log = training.train(items, model, lexicon, train_config)
    except NonFiniteLossError as exc:
        model.params = exc.last_good
        last_good_path = f"{args.checkpoint}.last_good"
        training.save_checkpoint(last_good_path, model, meta=meta)
        print(f"asrnoise: wrote the last finite-loss parameters to {last_good_path}", file=sys.stderr)
        raise
    training.save_checkpoint(args.checkpoint, model, meta=meta)
    if args.out:
        training.save_loss_log(args.out, log, header=_header("train", config))
    first, last = log[0], log[-1]
    print(
        f"trained on {len(items)} items: L_tot {first.loss_total:.4f} -> {last.loss_total:.4f}",
        file=sys.stderr,
    )
    return 0


def _cmd_corrupt(args, config) -> int:
    model = training.load_checkpoint(args.checkpoint)
    texts = [line for line in _read_lines(args.input) if line.strip()]
    if not texts:
        raise EmptyCorpusError(f"no sentences found in {args.input}")
    outputs, records = generation.corrupt_corpus(
        texts,
        model,
        p_z=config["p_z"],
        seed=config["seed"],
        mode=config["mode"],
        temperature=config["temperature"],
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(f"# {_header('corrupt', config)}\n")
        for line in outputs:
            fh.write(line + "\n")
    if args.report:
        generation.save_span_report(args.report, records, header=_header("corrupt", config))
    print(f"corrupted {len(texts)} sentences ({len(records)} spans)", file=sys.stderr)
    return 0


def _cmd_eval(args, config) -> int:
    lexicon = _load_lexicon({"lexicon": args.lexicon, "inventory": args.inventory})
    refs = [line for line in _read_lines(args.ref) if line.strip()]
    # keep blank hypothesis lines: they are total deletions
    hyps = _read_lines(args.hyp)
    while len(hyps) > len(refs) and hyps and not hyps[-1].strip():
        hyps.pop()
    breakdown = evaluation.error_type_breakdown(refs, hyps)
    metrics = {
        "wer": evaluation.word_error_rate(refs, hyps),
        "cer": evaluation.char_error_rate(refs, hyps),
        "insertion_fraction": breakdown.insertion,
        "deletion_fraction": breakdown.deletion,
        "substitution_fraction": breakdown.substitution,
        "total_errors": breakdown.total_errors,
        "mean_phoneme_distance": evaluation.mean_phoneme_distance(refs, hyps, lexicon),
    }
    out = Path(args.out)
    evaluation.write_metrics_report(
        out.with_suffix(".txt"), out.with_suffix(".csv"), metrics, header=_header("eval", config)
    )
    for name, value in metrics.items():
        print(f"{name}: {value}", file=sys.stderr)
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit with 1
        self.print_usage(sys.stderr)
        print(f"asrnoise: usage error: {message}", file=sys.stderr)
        sys.exit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="asrnoise", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--p-z", dest="p_z", type=float, default=None)
        p.add_argument("--lambda-w", dest="lambda_w", type=float, default=None)
        p.add_argument("--lambda-ph", dest="lambda_ph", type=float, default=None)
        p.add_argument("--mode", choices=("greedy", "sample"), default=None)
        p.add_argument("--lexicon", default=None)
        p.add_argument("--inventory", default=None)

    p = sub.add_parser("vocab", help="induce a subword vocabulary from a GT/ASR TSV corpus")
    common(p)
    p.add_argument("input")
    p.add_argument("--out", required=True)
    p.add_argument("--size", dest="vocab_size", type=int, default=None)

    p = sub.add_parser("g2p", help="print phonetic codes for words")
    common(p)
    p.add_argument("words", nargs="+")
    p.add_argument("--out", default=None)

    p = sub.add_parser("align", help="align a GT/ASR TSV corpus word by word")
    common(p)
    p.add_argument("input")
    p.add_argument("--out", required=True)
    p.add_argument("--prior-out", dest="prior_out", default=None,
                   help="also write the empirical corruption-frequency table")

    p = sub.add_parser("train", help="train the noise generator on a GT/ASR TSV corpus")
    common(p)
    p.add_argument("input")
    p.add_argument("--vocab", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", default=None, help="loss log CSV")

    p = sub.add_parser("corrupt", help="corrupt plain text into pseudo transcripts")
    common(p)
    p.add_argument("input")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None, help="span report TSV")

    p = sub.add_parser("eval", help="score hypotheses against references")
    common(p)
    p.add_argument("--ref", required=True)
    p.add_argument("--hyp", required=True)
    p.add_argument("--out", required=True, help="report basename (.txt and .csv are written)")

    return parser


_USAGE_ERRORS = (ConfigParseError, UnknownConfigKeyError, SizeTooSmallError, PriorOutOfRangeError, ValueError)
_DATA_ERRORS = (
    FileNotFoundError,
    EmptyCorpusError,
    CorruptCheckpointError,
    VersionMismatchError,
    LengthMismatchError,
)


def run_command(command: str, args, config: dict) -> int:
    handlers = {
        "vocab": _cmd_vocab,
        "g2p": _cmd_g2p,
        "align": _cmd_align,
        "train": _cmd_train,
        "corrupt": _cmd_corrupt,
        "eval": _cmd_eval,
    }
    if command not in handlers:
        raise ValueError(f"unknown command {command!r}")
    return handlers[command](args, config)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    overrides = {
        "seed": getattr(args, "seed", None),
        "p_z": getattr(args, "p_z", None),
        "lambda_w": getattr(args, "lambda_w", None),
        "lambda_ph": getattr(args, "lambda_ph", None),
        "mode": getattr(args, "mode", None),
        "vocab_size": getattr(args, "vocab_size", None),
    }
    try:
        config = load_config(args.config, overrides)
        _echo_config(args.command, config)
        return run_command(args.command, args, config)
    except _USAGE_ERRORS as exc:
        print(f"asrnoise: usage error: {exc}", file=sys.stderr)
        return 1
    except _DATA_ERRORS as exc:
        print(f"asrnoise: data error: {exc}", file=sys.stderr)
        return 2
    except AsrNoiseError as exc:
        print(f"asrnoise: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
