"""Training loop, Adam updates and checkpoint serialization.

Runs are deterministic for a fixed seed: the shuffle order is derived from
it, batch grouping and gradient reduction order are fixed by the code, and
parameters live in float64 throughout.  An epoch shuffles clean sentences,
not items: it lays out each sentence's items together, in their input order,
and cuts the sequence into batches, so a batch encodes each of its sentences
once and an epoch encodes a sentence about once (twice where a batch
boundary splits its items).

During :func:`train` the parameters, their gradients and Adam's moments each
live in one flat float64 buffer, and ``Model.params`` maps each name to its
view of the parameter buffer.  Clipping and Adam work on whole buffers.  The
reduction order is fixed by the code, not by the data or the BLAS thread
count: a weight's gradient sums a batch's rows in fixed blocks, in order
(``autodiff.linear``), gathered rows scatter back in index order, and the
gradient norm is one pairwise sum over the flat gradient buffer.

On glibc, :func:`train` raises the C heap's mmap and trim thresholds for the
whole process (:func:`_keep_heap`), so warm batches reuse the heap pages that
earlier batches freed instead of faulting them in again.
"""
from __future__ import annotations

import ctypes
import json
import math
import platform
import struct
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .corpus import AlignedExample, SubwordVocab
from .errors import (
    CorruptCheckpointError,
    NonFiniteLossError,
    SequenceTooLongError,
    VersionMismatchError,
)
from .model import Model, ModelConfig, PhonemeCodeIndex, _loss_graph, _param_specs, check_field_types
from .phonetics import PronouncingLexicon
from .rng import check_seed
from .textio import replacing, write_lines

CHECKPOINT_MAGIC = b"ISNI1"

#: Adam's moment decay rates and denominator guard
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 20
    batch_size: int = 32
    seed: int = 0
    clip_norm: float = 5.0

    def __post_init__(self):
        check_field_types(self, skip=("seed",))
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning rate must be positive and finite")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if not self.clip_norm > 0.0:
            raise ValueError("clip norm must be positive")
        check_seed(self.seed)


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    loss_total: float
    loss_word: float
    loss_phoneme: float


def clip_gradients(grads: np.ndarray, max_norm: float) -> float:
    """Scale the gradient buffer in place so its norm is at most ``max_norm``.

    Returns the pre-clip norm.
    """
    total = float(np.sqrt((grads * grads).sum()))
    if total > max_norm and total > 0.0:
        grads *= max_norm / total
    return total


class _Adam:
    """Adam over one flat parameter buffer, its moments flat buffers too."""

    def __init__(self, params: np.ndarray, learning_rate: float):
        self.learning_rate = learning_rate
        self.step_count = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self._scratch = (np.empty_like(params), np.empty_like(params))

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        """``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g`` and
        ``params -= lr*m_hat / (sqrt(v_hat) + eps)``, in that operation
        order, in place and without per-step allocations."""
        self.step_count += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        bias1 = 1.0 - b1**self.step_count
        bias2 = 1.0 - b2**self.step_count
        m, v = self.m, self.v
        update, denom = self._scratch
        m *= b1
        m += np.multiply(grads, 1.0 - b1, out=update)
        v *= b2
        np.multiply(grads, 1.0 - b2, out=update)
        v += np.multiply(update, grads, out=update)
        np.sqrt(np.divide(v, bias2, out=denom), out=denom)
        denom += ADAM_EPS
        np.divide(m, bias1, out=update)
        update *= self.learning_rate
        params -= np.divide(update, denom, out=update)


def _keep_heap() -> None:
    """Keep freed batch memory in glibc's heap for the rest of the process.

    A batch's autodiff temporaries (a few MB on the desk recipe) are all
    freed after ``backward``.  At glibc's defaults the heap top is then
    trimmed back to the system, and arrays above the dynamic mmap threshold
    get pages of their own, so every batch faults its memory in again.
    Setting either threshold freezes glibc's dynamic mmap threshold where it
    stands, so both are set: large arrays stay on the heap, and the heap
    keeps up to 64 MiB of free top.  The settings are process-wide and stay
    after :func:`train` returns, since glibc cannot restore its dynamic
    thresholds.  No arithmetic changes.  Other C libraries are left alone.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # malloc.h's M_MMAP_THRESHOLD, at the ceiling of glibc's dynamic threshold
    # on 64-bit hosts, then M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)
    mallopt(-1, 64 << 20)


def _views(shapes: dict[str, tuple[int, ...]], flat: np.ndarray) -> dict[str, np.ndarray]:
    """Consecutive views of ``flat``, one per name, in the order and shapes
    that ``shapes`` gives."""
    views, offset = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        views[name] = flat[offset:offset + size].reshape(shape)
        offset += size
    return views


def train(
    items: Sequence[AlignedExample],
    model: Model,
    lexicon: PronouncingLexicon,
    cfg: TrainConfig,
) -> list[EpochStats]:
    """Optimize the model in place; returns per-epoch mean losses.

    Each epoch visits every item once: it shuffles the distinct clean
    sentences (``item.sentence``, grouped in order of first appearance) with
    the seed's generator, lays out each sentence's items together in their
    input order, and cuts ``cfg.batch_size`` items per batch.

    ``model.params`` keeps its names and shapes, but its arrays are replaced
    by views of one buffer that each step updates in place.  Aborts with
    NonFiniteLossError if a batch loss or its gradient norm is not finite,
    before that batch's step; its ``last_good`` holds copies of the
    parameters at which the last finite batch loss was computed (the
    initial ones if the first batch diverges).  Numpy's overflow and
    invalid-value warnings are off meanwhile, since those checks catch what
    they would warn of.  Items whose target or
    sentence cannot fit the model are rejected before the first epoch.  On
    glibc it sets the process's heap thresholds first (:func:`_keep_heap`).
    """
    if not items:
        raise ValueError("cannot train on an empty item list")
    longest_sentence = max(len(item.sentence) for item in items)
    if longest_sentence > model.config.max_len:
        raise SequenceTooLongError(
            f"an item sentence has {longest_sentence} tokens but max_len is {model.config.max_len}"
        )
    longest = max(len(item.target_ids) for item in items)
    if longest > model.config.max_gen_len:
        raise ValueError(
            f"an item target has {longest} tokens but the generation horizon is "
            f"{model.config.max_gen_len}; build items with max_target_len at most that"
        )
    _keep_heap()
    by_sentence: dict[tuple[int, ...], list[int]] = {}
    for i, item in enumerate(items):
        by_sentence.setdefault(item.sentence, []).append(i)
    groups = list(by_sentence.values())
    rng = np.random.default_rng(cfg.seed)
    shapes = {name: a.shape for name, a in model.params.items()}
    flat = np.concatenate([a.ravel() for a in model.params.values()], dtype=np.float64)
    model.params.update(_views(shapes, flat))
    grad_flat = np.zeros_like(flat)
    grads = _views(shapes, grad_flat)
    last_good = flat.copy()
    optimizer = _Adam(flat, cfg.learning_rate)
    log: list[EpochStats] = []
    # overflow and 0 * inf in a diverging batch are caught below as a
    # non-finite loss or gradient norm, so numpy need not warn about them
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.epochs + 1):
            order = [i for g in rng.permutation(len(groups)) for i in groups[g]]
            sums = np.zeros(3)
            for start in range(0, len(order), cfg.batch_size):
                batch = [items[i] for i in order[start:start + cfg.batch_size]]
                graph = _loss_graph(batch, model, lexicon)
                values = (float(graph.l_tot.data), float(graph.l_n.data), float(graph.l_ph.data))
                if not all(np.isfinite(values)):
                    raise NonFiniteLossError(
                        f"loss diverged in epoch {epoch}", last_good=_views(shapes, last_good)
                    )
                np.copyto(last_good, flat)
                # every parameter's gradient accumulates into its view of grad_flat
                grad_flat.fill(0.0)
                for name, leaf in graph.params.items():
                    leaf.grad = grads[name]
                # optimize the per-item mean so step size is batch-size invariant
                ad.backward(ad.mul(graph.l_tot, ad.Tensor(1.0 / len(batch), needs_grad=False)))
                norm = clip_gradients(grad_flat, cfg.clip_norm)
                if not math.isfinite(norm):
                    raise NonFiniteLossError(
                        f"gradient norm is {norm} in epoch {epoch}", last_good=_views(shapes, last_good)
                    )
                optimizer.step(flat, grad_flat)
                sums += np.asarray(values)
            n = len(items)
            log.append(EpochStats(epoch, float(sums[0]) / n, float(sums[1]) / n, float(sums[2]) / n))
    return log


def save_loss_log(path, log: Sequence[EpochStats], header: str = "") -> None:
    rows = (f"{row.epoch},{row.loss_total!r},{row.loss_word!r},{row.loss_phoneme!r}" for row in log)
    write_lines(path, ["epoch,L_tot,L_n,L_ph", *rows], header)


# checkpoint format: magic, u32 length of a JSON header (format_version 4,
# hyperparameters, the vocabulary, one phonetic code key per piece, metadata),
# then every parameter as float64 little-endian, in ``_param_specs`` order and
# shapes, which follow from the header.
def save_checkpoint(path, model: Model, meta: Optional[dict] = None) -> None:
    header = {
        "format_version": 4,
        "config": asdict(model.config),
        "vocab": model.vocab.pieces,
        "piece_codes": [model.code_index.codes[row] for row in model.code_index.token_rows],
        "meta": meta or {},
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with replacing(path, binary=True) as fh:
        fh.write(CHECKPOINT_MAGIC + struct.pack("<I", len(blob)) + blob)
        specs = _param_specs(model.config, len(model.vocab), len(model.code_index))
        fh.write(b"".join(model.params[name].astype("<f8").tobytes() for name, _, _ in specs))


def _read_exact(fh, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise CorruptCheckpointError("checkpoint file is truncated")
    return data


def load_checkpoint(path) -> Model:
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise VersionMismatchError(f"unknown checkpoint magic {magic!r}")
        (blob_len,) = struct.unpack("<I", _read_exact(fh, 4))
        try:
            header = json.loads(_read_exact(fh, blob_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CorruptCheckpointError(f"unreadable checkpoint header: {exc}") from exc
        if not isinstance(header, dict):
            raise CorruptCheckpointError("checkpoint header is not a JSON object")
        if header.get("format_version") != 4:
            raise VersionMismatchError(f"unsupported format version {header.get('format_version')}")
        body = fh.read()
    try:
        piece_codes = header["piece_codes"]
        if not (isinstance(piece_codes, list) and all(isinstance(key, str) for key in piece_codes)):
            raise CorruptCheckpointError("checkpoint piece_codes is not a list of strings")
        config, vocab = ModelConfig(**header["config"]), SubwordVocab(header["vocab"])
        code_index = PhonemeCodeIndex(piece_codes)
        shapes = {name: shape for name, shape, _ in _param_specs(config, len(vocab), len(code_index))}
        size = sum(math.prod(shape) for shape in shapes.values())
        if len(body) != 8 * size:
            raise CorruptCheckpointError(f"checkpoint body is {len(body)} bytes, not {8 * size}")
        flat = np.frombuffer(body, dtype="<f8").astype(np.float64)  # a writable copy
        return Model(params=_views(shapes, flat), config=config, vocab=vocab, code_index=code_index)
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptCheckpointError(f"checkpoint header and body do not fit: {exc!r}") from exc
