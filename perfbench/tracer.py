"""Span tracer that times asrnoise's layers from outside the package.

No source file is edited.  ``Tracer.install`` rebinds, at run time, each name
a calling module looks up (``training`` does ``from .model import
_loss_graph``, so the wrapper goes on ``asrnoise.training._loss_graph``) and
``uninstall`` puts the originals back.  A binding that no longer exists is an
error, never a silent zero: a refactor that renames a wrapped function makes
the traced run fail and name the span it lost.

Spans carry a name, start, end, parent span and the run id.  They stay in
memory and are written out when the run ends.  This module imports only the
standard library, so loading it before the set-up clock starts costs the
measured import nothing.
"""
from __future__ import annotations

import functools
import importlib
import math
import time


class MissingBindingError(RuntimeError):
    """A name the tracer must rebind is gone from its module."""


def _decoder_rows(args):
    return 1 + len(args[1])


def _note_items(tracer, args, result):
    tracer.count("corpus.items", len(result))


def _note_plan(tracer, args, result):
    tracer.count("intervention.positions", len(args[0]))
    tracer.count("intervention.corrupted", result.corruption_count)


def _note_forward(tracer, args, result):
    tracer.count("trace.items_forward", len(args[0]))


def _note_train_decoder(tracer, args, result):
    rows = _decoder_rows(args)
    tracer.count("model.decoder_rows", rows)
    tracer.count("model.decoder_rows_used", rows)


def _note_decode_decoder(tracer, args, result):
    # generate_span reads only the last query row of each decoder call
    tracer.count("model.decoder_rows", _decoder_rows(args))
    tracer.count("model.decoder_rows_used", 1)


def _note_clip(tracer, args, result):
    tracer.samples["training.grad_norm"].append(result)
    if result > args[1]:
        tracer.count("training.clipped_batches", 1)


_ERROR_COUNTERS = {"deletion": "deletions", "substitution": "substitutions", "insertion": "insertions"}


def _note_span(tracer, args, result):
    tracer.count("generation." + _ERROR_COUNTERS[result.error_type.value], 1)


def _count_graph(tracer, args):
    """Nodes reachable from the batch loss handed to ``backward``."""
    seen = set()
    stack = [args[0]]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    tracer.count("trace.graph_nodes", len(seen))


# (span, module, attribute path, note after the call, hook before the call)
BINDINGS = (
    ("phonetics.supervision_lookup", "asrnoise.model", "Model.supervision_log", None, None),
    ("phonetics.supervision", "asrnoise.model", "supervision_distribution", None, None),
    ("phonetics.edit_distance", "asrnoise.phonetics", "phoneme_edit_distance", None, None),
    ("phonetics.edit_distance", "asrnoise.corpus", "phoneme_edit_distance", None, None),
    ("phonetics.edit_distance", "asrnoise.evaluation", "phoneme_edit_distance", None, None),
    ("phonetics.g2p", "asrnoise.phonetics", "g2p", None, None),
    ("phonetics.g2p", "asrnoise.corpus", "g2p", None, None),
    ("phonetics.g2p", "asrnoise.evaluation", "g2p", None, None),
    ("phonetics.g2p", "asrnoise.model", "g2p", None, None),
    ("corpus.induce_vocab", "asrnoise.corpus", "induce_vocab", None, None),
    ("corpus.align", "asrnoise.corpus", "align_pair", None, None),
    ("corpus.build_items", "asrnoise.corpus", "build_training_items", _note_items, None),
    ("corpus.tokenize", "asrnoise.generation", "tokenize", None, None),
    ("intervention.plan", "asrnoise.generation", "sample_plan_interventional", _note_plan, None),
    ("model.forward", "asrnoise.training", "_loss_graph", _note_forward, None),
    ("model.embed", "asrnoise.model", "embed_sequence", None, None),
    ("model.embed", "asrnoise.generation", "embed_sequence", None, None),
    ("model.encode", "asrnoise.model", "encode", None, None),
    ("model.encode", "asrnoise.generation", "encode", None, None),
    ("model.decoder", "asrnoise.model", "decoder_hidden", _note_train_decoder, None),
    ("model.decoder", "asrnoise.generation", "decoder_hidden", _note_decode_decoder, None),
    ("model.heads", "asrnoise.model", "_head_logits", None, None),
    ("model.heads", "asrnoise.generation", "step_distributions", None, None),
    ("autodiff.backward", "asrnoise.autodiff", "backward", None, _count_graph),
    ("training.train", "asrnoise.training", "train", None, None),
    ("training.optimizer", "asrnoise.training", "_Adam.step", None, None),
    ("training.clip", "asrnoise.training", "clip_gradients", _note_clip, None),
    ("training.checkpoint_save", "asrnoise.training", "save_checkpoint", None, None),
    ("training.checkpoint_load", "asrnoise.training", "load_checkpoint", None, None),
    ("generation.corrupt", "asrnoise.generation", "corrupt_corpus", None, None),
    ("generation.span", "asrnoise.generation", "generate_span", _note_span, None),
    ("generation.assemble", "asrnoise.generation", "assemble", None, None),
    ("evaluation.wer", "asrnoise.evaluation", "word_error_rate", None, None),
    ("evaluation.cer", "asrnoise.evaluation", "char_error_rate", None, None),
    ("evaluation.breakdown", "asrnoise.evaluation", "error_type_breakdown", None, None),
    ("evaluation.phoneme_distance", "asrnoise.evaluation", "mean_phoneme_distance", None, None),
)

HOOK_SPAN = "trace.hook"


class Tracer:
    """In-memory span recorder; single-threaded, like the program it traces."""

    def __init__(self, run_id: str, bindings=BINDINGS):
        self.run_id = run_id
        self.bindings = bindings
        # each span is [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.samples: dict[str, list[float]] = {"training.grad_norm": []}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def _resolve(self, module: str, path: str):
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        return owner, attr, getattr(owner, attr)

    def install(self) -> None:
        """Rebind every name in the table, or raise naming each one that is missing."""
        resolved, missing = [], []
        for span, module, path, note, hook in self.bindings:
            try:
                owner, attr, original = self._resolve(module, path)
            except (ImportError, AttributeError):
                missing.append(f"{module}.{path} (span {span})")
                continue
            if not callable(original):
                missing.append(f"{module}.{path} (span {span}): not callable")
                continue
            resolved.append((owner, attr, original, span, note, hook))
        if missing:
            raise MissingBindingError("tracer cannot bind: " + "; ".join(missing))
        for owner, attr, original, span, note, hook in resolved:
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span, note, hook))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _open(self, name: str) -> list:
        stack = self._stack
        record = [name, 0.0, 0.0, stack[-1] if stack else -1]
        stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, original, span, note, hook):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if stack and tracer.spans[stack[-1]][0] == span:
                # a re-entrant call (heads inside heads) belongs to the outer span
                return original(*args, **kwargs)
            if hook is not None:
                record = tracer._open(HOOK_SPAN)
                try:
                    hook(tracer, args)
                finally:
                    tracer._close(record)
            record = tracer._open(span)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(record)
            if note is not None:
                note(tracer, args, result)
            return result

        return traced

    def write(self, path) -> None:
        """Spans as TSV: run id, index, name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run_id\tspan\tname\tstart\tend\tparent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{self.run_id}\t{i}\t{name}\t{start!r}\t{end!r}\t{parent}\n")


# ------------------------------------------------------------ per-layer metrics
# Spans called many times report their total, call count, median, and the
# highest percentile that still has at least ten samples beyond it.
DIST_SPANS = (
    "phonetics.supervision",
    "phonetics.edit_distance",
    "phonetics.g2p",
    "corpus.align",
    "corpus.tokenize",
    "intervention.plan",
    "model.forward",
    "model.embed",
    "model.encode",
    "model.decoder",
    "model.heads",
    "autodiff.backward",
    "training.optimizer",
    "training.clip",
    "generation.span",
    "generation.step",
)
TOTAL_SPANS = (
    "corpus.induce_vocab",
    "corpus.build_items",
    "training.checkpoint_save",
    "training.checkpoint_load",
    "generation.corrupt",
    "generation.assemble",
    "evaluation.wer",
    "evaluation.cer",
    "evaluation.breakdown",
    "evaluation.phoneme_distance",
)
SELF_SPANS = {
    "model.forward_self_s": "model.forward",
    "training.self_s": "training.train",
    "generation.self_s": "generation.corrupt",
}
# call counts reported under the name of what they count
CALL_NAMES = {
    "model.forward": "training.batches",
    "generation.span": "generation.spans",
    "generation.step": "generation.decode_steps",
}
COUNTERS = (
    "corpus.items",
    "intervention.positions",
    "intervention.corrupted",
    "model.decoder_rows",
    "model.decoder_rows_used",
    "training.clipped_batches",
    "generation.deletions",
    "generation.substitutions",
    "generation.insertions",
)
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)


# per-layer metrics where a larger value is the better one; the rest are
# times, call counts or waste, where lower is better
HIGHER_IS_BETTER = {
    "phonetics.supervision_hit_ratio", "model.encoder_reuse", "model.decoder_rows_used",
    "corpus.items", "intervention.positions", "intervention.corrupted",
    "generation.deletions", "generation.substitutions", "generation.insertions",
}


def metric_spec() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    spec: list[tuple[str, str]] = []
    for span in DIST_SPANS:
        spec += [
            (f"{span}_s", "s"),
            (CALL_NAMES.get(span, f"{span}_calls"), "count"),
            (f"{span}_p50_ms", "ms"),
            (f"{span}_tail_ms", "ms"),
            (f"{span}_tail_pct", "%"),
        ]
    spec += [(f"{span}_s", "s") for span in TOTAL_SPANS]
    spec += [(name, "s") for name in SELF_SPANS]
    spec += [(name, "count") for name in COUNTERS]
    spec += [
        ("phonetics.supervision_hit_ratio", "ratio"),
        ("model.encoder_reuse", "ratio"),
        ("autodiff.graph_nodes_per_item", "count"),
        ("training.grad_norm_p50", "norm"),
        ("trace.spans", "count"),
        ("trace.overhead_pct", "%"),
    ]
    return [(name, unit, "higher" if name in HIGHER_IS_BETTER or name.endswith("_tail_pct") else "lower")
            for name, unit in spec]


def _percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def _tail(sorted_values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest ladder step with ten samples beyond it."""
    n = len(sorted_values)
    best = (0.0, 0.0)
    for pct in TAIL_LADDER:
        if n - max(1, math.ceil(pct / 100.0 * n)) >= 10:
            best = (pct, _percentile(sorted_values, pct))
    return best


def step_durations(spans: list[list]) -> list[float]:
    """Per decode step: from a decoder call's start to the end of the heads
    call that follows it inside the same generated span."""
    names = [s[0] for s in spans]
    pending: dict[int, float] = {}
    steps = []
    for name, start, end, parent in spans:
        if parent < 0 or names[parent] != "generation.span":
            continue
        if name == "model.decoder":
            pending[parent] = start
        elif name == "model.heads" and parent in pending:
            steps.append(end - pending.pop(parent))
    return steps


def layer_metrics(tracer: Tracer, overhead_pct: float) -> dict[str, float]:
    """Aggregate spans and counters into the per-layer metric values."""
    spans = tracer.spans
    durations: dict[str, list[float]] = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        durations.setdefault(name, []).append(end - start)
        if parent >= 0:
            child_time[parent] += end - start
    self_time: dict[str, float] = {}
    for i, (name, start, end, _) in enumerate(spans):
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time[i]
    durations["generation.step"] = step_durations(spans)

    values: dict[str, float] = {}
    for span in DIST_SPANS:
        samples = sorted(durations.get(span, []))
        pct, tail = _tail(samples)
        values[f"{span}_s"] = sum(samples)
        values[CALL_NAMES.get(span, f"{span}_calls")] = len(samples)
        values[f"{span}_p50_ms"] = 1e3 * _percentile(samples, 50.0) if samples else 0.0
        values[f"{span}_tail_ms"] = 1e3 * tail
        values[f"{span}_tail_pct"] = pct
    for span in TOTAL_SPANS:
        values[f"{span}_s"] = sum(durations.get(span, []))
    for metric, span in SELF_SPANS.items():
        values[metric] = self_time.get(span, 0.0)
    for name in COUNTERS:
        values[name] = tracer.counters.get(name, 0)

    lookups = len(durations.get("phonetics.supervision_lookup", []))
    misses = sum(1 for name, _, _, parent in spans
                 if name == "phonetics.supervision" and parent >= 0
                 and spans[parent][0] == "phonetics.supervision_lookup")
    values["phonetics.supervision_hit_ratio"] = 1.0 - misses / lookups if lookups else 0.0
    items = tracer.counters.get("trace.items_forward", 0)
    encodes = len(durations.get("model.encode", []))
    served = items + len(durations.get("generation.span", []))
    values["model.encoder_reuse"] = served / encodes if encodes else 0.0
    values["autodiff.graph_nodes_per_item"] = (
        tracer.counters.get("trace.graph_nodes", 0) / items if items else 0.0
    )
    norms = sorted(tracer.samples["training.grad_norm"])
    values["training.grad_norm_p50"] = _percentile(norms, 50.0) if norms else 0.0
    values["trace.spans"] = len(spans)
    values["trace.overhead_pct"] = overhead_pct
    return values
