"""Command-line pipeline: vocab, g2p, align, train, corrupt, eval.

Configuration resolves in three layers (built-in defaults, then a flat
``key = value`` config file, then command-line flags).  A command takes a
flag only for a key it reads, and echoes to stderr, and hashes into its
artifact headers, only the keys it reads.  All randomness derives from the
single ``--seed`` value.  Every output path is checked before any input is
read, and no output of a run may name another output or an input.
``corrupt`` writes one output line per input line, and ``eval`` pairs its
two inputs line by line.
"""
from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import asdict, fields
from pathlib import Path
from typing import Optional, Sequence

from . import corpus as corpus_mod
from . import evaluation, generation, phonetics, textio, training
from .errors import (
    AsrNoiseError,
    ConfigParseError,
    CorruptCheckpointError,
    EmptyCorpusError,
    LengthMismatchError,
    MalformedInputError,
    NonFiniteLossError,
    PriorOutOfRangeError,
    SizeTooSmallError,
    UnknownConfigKeyError,
    VersionMismatchError,
)
from .intervention import check_prior
from .model import Model, ModelConfig
from .rng import check_seed
from .training import TrainConfig

_MODEL_KEYS = tuple(f.name for f in fields(ModelConfig))
_TRAIN_KEYS = tuple(f.name for f in fields(TrainConfig))

DEFAULTS: dict[str, object] = {
    **asdict(ModelConfig()),
    **asdict(TrainConfig()),
    "vocab_size": 256,
    "p_z": 0.15,
    "mode": "sample",
    "temperature": 1.0,
}

#: the command-line flag of each config key that has one; it parses as the default's type
_FLAGS = {"seed": "--seed", "p_z": "--p-z", "lambda_w": "--lambda-w", "lambda_ph": "--lambda-ph",
          "mode": "--mode", "vocab_size": "--size"}


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
    for lineno, raw in _parse_file(textio.read_lines, path) if path else ():
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
    return config


def config_hash(config: dict) -> str:
    canon = "\n".join(f"{k} = {config[k]}" for k in sorted(config))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


def _echo_config(command: str, config: dict) -> None:
    print(f"[asrnoise {command}] config-hash={config_hash(config)}", file=sys.stderr)
    for key in sorted(config):
        print(f"[asrnoise {command}]   {key} = {config[key]}", file=sys.stderr)


def _header(command: str, config: dict) -> str:
    return f"asrnoise {command}; config-hash: {config_hash(config)}"


def _parse_file(parse, path, *args):
    """``parse(path, *args)``, with a file it rejects reported as a data error."""
    try:
        return parse(path, *args)
    except ValueError as exc:
        raise MalformedInputError(f"{path}: {exc}") from exc


def _settings(make, config: dict, keys: Sequence[str]):
    """``make`` called with the config's ``keys``; a value it rejects is a config error."""
    try:
        return make(**{key: config[key] for key in keys})
    except ValueError as exc:
        raise ConfigParseError(f"invalid config value: {exc}") from exc


def _check_output(flag: str, value: str, path: str) -> None:
    """Reject an output path that cannot be written: its parent must be a
    directory, and the path itself must not be one.  ``value`` is what the
    flag was given, and ``path`` a file written for it."""
    target = Path(path)
    if not target.parent.is_dir():
        raise NotADirectoryError(f"{flag} {value}: {target.parent} is not a directory")
    if target.is_dir():
        raise IsADirectoryError(f"{flag} {value}: {path} is a directory")


def _metrics_paths(out: str) -> tuple[str, str]:
    """``eval``'s report and CSV paths: ``.txt`` and ``.csv`` are appended to
    ``out``, unless it already ends in one of them, which they replace."""
    stem = out[:-4] if out.endswith((".txt", ".csv")) else out
    return stem + ".txt", stem + ".csv"


def _load_lexicon(args) -> phonetics.PronouncingLexicon:
    if args.lexicon is None and args.inventory is None:
        return phonetics.default_lexicon()
    if args.lexicon is None or args.inventory is None:
        raise ConfigParseError("provide both --lexicon and --inventory or neither")
    inventory = _parse_file(phonetics.load_inventory, args.inventory)
    return _parse_file(phonetics.load_lexicon, args.lexicon, inventory)


# ---------------------------------------------------------------- commands
def _cmd_vocab(args, config) -> int:
    pairs = _parse_file(corpus_mod.load_pairs_tsv, args.input)
    texts = [p.gt for p in pairs] + [p.asr for p in pairs if p.asr.strip()]
    vocab = corpus_mod.induce_vocab(texts, config["vocab_size"])
    vocab.save(args.out, header=_header("vocab", config))
    print(f"wrote {len(vocab)} pieces to {args.out}", file=sys.stderr)
    return 0


def _cmd_g2p(args, config) -> int:
    lexicon = _load_lexicon(args)
    lines = [f"{word}\t{phonetics.code_key(phonetics.g2p(word, lexicon))}" for word in args.words]
    if args.out:
        textio.write_lines(args.out, lines, _header("g2p", config))
    else:
        print("\n".join(lines))
    return 0


def _cmd_align(args, config) -> int:
    lexicon = _load_lexicon(args)
    pairs = _parse_file(corpus_mod.load_pairs_tsv, args.input)
    alignments = [corpus_mod.align_pair(p.gt, p.asr, lexicon) for p in pairs]
    rows = (
        f"{pair.id}\t{entry.gt_word}\t{' '.join(entry.asr_words)}\t{entry.label}"
        for pair, entries in zip(pairs, alignments)
        for entry in entries
    )
    textio.write_lines(args.out, ["sentence_id\tgt_word\tasr_words\tlabel", *rows], _header("align", config))
    return 0


def _cmd_train(args, config) -> int:
    model_config = _settings(ModelConfig, config, _MODEL_KEYS)
    train_config = _settings(TrainConfig, config, _TRAIN_KEYS)
    lexicon = _load_lexicon(args)
    pairs = _parse_file(corpus_mod.load_pairs_tsv, args.input)
    vocab = _parse_file(corpus_mod.SubwordVocab.load, args.vocab)
    for pair in pairs:
        n_tokens = len(corpus_mod.tokenize(pair.gt, vocab))
        if n_tokens > model_config.max_len:
            raise MalformedInputError(
                f"{args.input}: line {int(pair.id) + 1}: {n_tokens} tokens exceed max_len={model_config.max_len}"
            )
    alignments = [corpus_mod.align_pair(p.gt, p.asr, lexicon) for p in pairs]
    items = corpus_mod.build_training_items(
        alignments, vocab, [p.id for p in pairs], max_target_len=model_config.max_gen_len
    )
    if not items:
        raise EmptyCorpusError("no corrupted positions found in the training corpus")
    model = Model.build(vocab, lexicon, model_config, seed=train_config.seed)
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
    try:
        generation.check_decoding(config["mode"], config["temperature"])
    except ValueError as exc:
        raise ConfigParseError(str(exc)) from exc
    _settings(check_seed, config, ("seed",))
    check_prior(config["p_z"], "p_z")
    model = training.load_checkpoint(args.checkpoint)
    # a blank line passes through as a blank line, and '#' starts no comment
    texts = [line for _, line in _parse_file(textio.read_lines, args.input)]
    if not any(line.strip() for line in texts):
        raise EmptyCorpusError(f"no sentences found in {args.input}")
    outputs, records = generation.corrupt_corpus(
        texts,
        model,
        p_z=config["p_z"],
        seed=config["seed"],
        mode=config["mode"],
        temperature=config["temperature"],
    )
    textio.write_lines(args.out, outputs, _header("corrupt", config))
    if args.report:
        generation.save_span_report(args.report, records, header=_header("corrupt", config))
    print(f"corrupted {len(texts)} sentences ({len(records)} spans)", file=sys.stderr)
    return 0


def _cmd_eval(args, config) -> int:
    lexicon = _load_lexicon(args)
    # line i of the references pairs with line i of the hypotheses, blank or not
    refs = [line for _, line in _parse_file(textio.read_lines, args.ref)]
    hyps = [line for _, line in _parse_file(textio.read_lines, args.hyp)]
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
    evaluation.write_metrics_report(*_metrics_paths(args.out), metrics, header=_header("eval", config))
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

    def command(name, handler, reads, help, lexicon=False, inputs=("input",), outputs=("out",),
                written=lambda path: (path,)):
        """A subcommand reading the config keys ``reads``: ``--config``, the flag
        of each read key that has one, and ``--lexicon``/``--inventory`` if it
        loads a lexicon.  ``inputs`` and ``outputs`` name the attributes of the
        paths it reads (``--config`` and the lexicon's two besides) and
        writes, and ``written`` maps an output flag's value to the files it
        writes."""
        p = sub.add_parser(name, help=help)
        inputs += ("config", "lexicon", "inventory") if lexicon else ("config",)
        p.set_defaults(handler=handler, reads=reads, inputs=inputs, outputs=outputs, written=written)
        p.add_argument("--config", help="flat key = value config file")
        for key in (k for k in reads if k in _FLAGS):
            p.add_argument(_FLAGS[key], dest=key, type=type(DEFAULTS[key]), default=None)
        if lexicon:
            p.add_argument("--lexicon", default=None)
            p.add_argument("--inventory", default=None)
        return p

    p = command("vocab", _cmd_vocab, ("vocab_size",),
                "induce a subword vocabulary from a GT/ASR TSV corpus")
    p.add_argument("input")
    p.add_argument("--out", required=True)

    p = command("g2p", _cmd_g2p, (), "print phonetic codes for words", lexicon=True, inputs=())
    p.add_argument("words", nargs="+")
    p.add_argument("--out", default=None)

    p = command("align", _cmd_align, (), "align a GT/ASR TSV corpus word by word", lexicon=True)
    p.add_argument("input")
    p.add_argument("--out", required=True)

    p = command("train", _cmd_train, _MODEL_KEYS + _TRAIN_KEYS,
                "train the noise generator on a GT/ASR TSV corpus", lexicon=True,
                inputs=("input", "vocab"), outputs=("checkpoint", "out"))
    p.add_argument("input")
    p.add_argument("--vocab", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", default=None, help="loss log CSV")

    p = command("corrupt", _cmd_corrupt, ("seed", "p_z", "mode", "temperature"),
                "corrupt plain text into pseudo transcripts", inputs=("input", "checkpoint"),
                outputs=("out", "report"))
    p.add_argument("input")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None, help="span report TSV")

    p = command("eval", _cmd_eval, (), "score hypotheses against references", lexicon=True,
                inputs=("ref", "hyp"), written=_metrics_paths)
    p.add_argument("--ref", required=True)
    p.add_argument("--hyp", required=True)
    p.add_argument("--out", required=True,
                   help="report basename: OUT.txt and OUT.csv are written (a .txt or .csv suffix is replaced)")

    return parser


_USAGE_ERRORS = (ConfigParseError, UnknownConfigKeyError, SizeTooSmallError, PriorOutOfRangeError)
_DATA_ERRORS = (
    OSError,
    MalformedInputError,
    EmptyCorpusError,
    CorruptCheckpointError,
    VersionMismatchError,
    LengthMismatchError,
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {key: value for key, value in vars(args).items() if key in DEFAULTS}
    try:
        written: dict[Path, str] = {}
        for dest in args.outputs:
            value = getattr(args, dest)
            for path in args.written(value) if value is not None else ():
                _check_output(f"--{dest}", value, path)
                flag, real = f"--{dest} {value}", Path(path).resolve()
                if real in written:
                    raise ConfigParseError(f"{flag} and {written[real]} name one file")
                written[real] = flag
        for dest in args.inputs:
            value = getattr(args, dest)
            if value is not None and Path(value).resolve() in written:
                flag = "the input" if dest == "input" else f"--{dest}"
                raise ConfigParseError(f"{written[Path(value).resolve()]} would overwrite {flag} {value}")
        resolved = load_config(args.config, overrides)
        config = {key: resolved[key] for key in args.reads}
        _echo_config(args.command, config)
        return args.handler(args, config)
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
