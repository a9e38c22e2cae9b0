"""Training loop, Adam updates and checkpoint serialization.

Runs are deterministic for a fixed seed: the shuffle order, batch grouping
and gradient reduction order are all derived from it, and parameters live in
float64 throughout.
"""
from __future__ import annotations

import json
import math
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
from .model import Model, ModelConfig, PhonemeCodeIndex, _loss_graph
from .phonetics import PronouncingLexicon
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
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning rate must be positive and finite")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if not self.clip_norm > 0.0:
            raise ValueError("clip norm must be positive")
        if not self.seed >= 0:
            raise ValueError("seed must be a non-negative integer")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    loss_total: float
    loss_word: float
    loss_phoneme: float


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale gradients in place so their global norm is at most ``max_norm``.

    Returns the pre-clip norm.
    """
    total = float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))
    if total > max_norm and total > 0.0:
        factor = max_norm / total
        for g in grads.values():
            g *= factor
    return total


class _Adam:
    def __init__(self, params: dict[str, np.ndarray], learning_rate: float):
        self.learning_rate = learning_rate
        self.step_count = 0
        self.m = {name: np.zeros_like(a) for name, a in params.items()}
        self.v = {name: np.zeros_like(a) for name, a in params.items()}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.step_count += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        bias1 = 1.0 - b1**self.step_count
        bias2 = 1.0 - b2**self.step_count
        for name in params:
            g = grads[name]
            self.m[name] = b1 * self.m[name] + (1.0 - b1) * g
            self.v[name] = b2 * self.v[name] + (1.0 - b2) * g * g
            m_hat = self.m[name] / bias1
            v_hat = self.v[name] / bias2
            params[name] -= self.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def train(
    items: Sequence[AlignedExample],
    model: Model,
    lexicon: PronouncingLexicon,
    cfg: TrainConfig,
) -> list[EpochStats]:
    """Optimize the model in place; returns per-epoch mean losses.

    Aborts with NonFiniteLossError if a batch loss diverges; its
    ``last_good`` holds the parameters at which the last finite batch loss
    was computed (the initial ones if the first batch diverges).  Items
    whose target or sentence cannot fit the model are rejected before the
    first epoch.
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
            f"{model.config.max_gen_len}; build items with max_target_len set"
        )
    rng = np.random.default_rng(cfg.seed)
    optimizer = _Adam(model.params, cfg.learning_rate)
    log: list[EpochStats] = []
    last_good = {name: a.copy() for name, a in model.params.items()}
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(items))
        sums = np.zeros(3)
        for start in range(0, len(order), cfg.batch_size):
            batch = [items[i] for i in order[start:start + cfg.batch_size]]
            graph = _loss_graph(batch, model, lexicon)
            values = (float(graph.l_tot.data), float(graph.l_n.data), float(graph.l_ph.data))
            if not all(np.isfinite(values)):
                raise NonFiniteLossError(
                    f"loss diverged in epoch {epoch}", last_good=last_good
                )
            last_good = {name: a.copy() for name, a in model.params.items()}
            # optimize the per-item mean so step size is batch-size invariant
            ad.backward(ad.mul(graph.l_tot, ad.Tensor(1.0 / len(batch), needs_grad=False)))
            grads = {
                name: (leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data))
                for name, leaf in graph.params.items()
            }
            clip_gradients(grads, cfg.clip_norm)
            optimizer.step(model.params, grads)
            sums += np.asarray(values)
        n = len(items)
        log.append(EpochStats(epoch, float(sums[0]) / n, float(sums[1]) / n, float(sums[2]) / n))
    return log


def save_loss_log(path, log: Sequence[EpochStats], header: str = "") -> None:
    rows = (f"{row.epoch},{row.loss_total!r},{row.loss_word!r},{row.loss_phoneme!r}" for row in log)
    write_lines(path, ["epoch,L_tot,L_n,L_ph", *rows], header)


# checkpoint format: magic, u32 length of a JSON header (hyperparameters, the
# vocab and code index that size the tables, metadata, and "arrays": [name, dims]
# of every parameter in file order), then all arrays as float64 little-endian.
def save_checkpoint(path, model: Model, meta: Optional[dict] = None) -> None:
    header = {
        "format_version": 3,
        "config": asdict(model.config),
        "vocab": model.vocab.pieces,
        "codes": model.code_index.codes,
        "token_rows": [int(r) for r in model.code_index.token_rows],
        "arrays": [[name, list(array.shape)] for name, array in model.params.items()],
        "meta": meta or {},
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with replacing(path, binary=True) as fh:
        fh.write(CHECKPOINT_MAGIC + struct.pack("<I", len(blob)) + blob)
        fh.write(b"".join(array.astype("<f8").tobytes() for array in model.params.values()))


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
        if header.get("format_version") != 3:
            raise VersionMismatchError(f"unsupported format version {header.get('format_version')}")
        body = fh.read()
    try:
        if len(dict(header["arrays"])) != len(header["arrays"]):
            raise CorruptCheckpointError("checkpoint lists an array name twice")
        sizes = [math.prod(dims) for _, dims in header["arrays"]]
        if len(body) != 8 * sum(sizes):
            raise CorruptCheckpointError(f"checkpoint body is {len(body)} bytes, not {8 * sum(sizes)}")
        flat = np.frombuffer(body, dtype="<f8").astype(np.float64)  # a writable copy
        pieces = np.split(flat, np.cumsum(sizes)[:-1])
        return Model(
            params={name: a.reshape(dims) for (name, dims), a in zip(header["arrays"], pieces)},
            config=ModelConfig(**header["config"]),
            vocab=SubwordVocab(header["vocab"]),
            code_index=PhonemeCodeIndex(header["codes"], header["token_rows"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptCheckpointError(f"checkpoint header and arrays do not fit: {exc!r}") from exc
