"""Training loop, Adam updates, checkpoint serialization and dev evaluation.

Runs are deterministic for a fixed seed: the shuffle order, batch grouping
and gradient reduction order are all derived from it, and parameters live in
float64 throughout.
"""
from __future__ import annotations

import io
import json
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
from .model import Model, ModelConfig, ParamStore, PhonemeCodeIndex, _loss_graph, combine_heads
from .phonetics import PronouncingLexicon

CHECKPOINT_MAGIC = b"ISNI1"


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 20
    batch_size: int = 32
    seed: int = 0
    lambda_ph: Optional[float] = None
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    clip_norm: float = 5.0

    def __post_init__(self):
        if self.learning_rate <= 0.0:
            raise ValueError("learning rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if not 0.0 <= self.beta1 < 1.0 or not 0.0 <= self.beta2 < 1.0:
            raise ValueError("Adam moment coefficients must lie in [0, 1)")
        if self.clip_norm <= 0.0:
            raise ValueError("clip norm must be positive")


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
    def __init__(self, params: ParamStore, cfg: TrainConfig):
        self.cfg = cfg
        self.step_count = 0
        self.m = {name: np.zeros_like(a) for name, a in params.items()}
        self.v = {name: np.zeros_like(a) for name, a in params.items()}

    def step(self, params: ParamStore, grads: dict[str, np.ndarray]) -> None:
        self.step_count += 1
        b1, b2 = self.cfg.beta1, self.cfg.beta2
        bias1 = 1.0 - b1**self.step_count
        bias2 = 1.0 - b2**self.step_count
        for name in params.arrays:
            g = grads[name]
            self.m[name] = b1 * self.m[name] + (1.0 - b1) * g
            self.v[name] = b2 * self.v[name] + (1.0 - b2) * g * g
            m_hat = self.m[name] / bias1
            v_hat = self.v[name] / bias2
            params.arrays[name] -= self.cfg.learning_rate * m_hat / (np.sqrt(v_hat) + self.cfg.adam_eps)


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
    longest_sentence = max(len(item.sentence.piece_ids) for item in items)
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
    optimizer = _Adam(model.params, cfg)
    log: list[EpochStats] = []
    last_good = model.params.copy()
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(items))
        sums = np.zeros(3)
        for start in range(0, len(order), cfg.batch_size):
            batch = [items[i] for i in order[start:start + cfg.batch_size]]
            graph = _loss_graph(batch, model, lexicon, cfg.lambda_ph)
            values = (float(graph.l_tot.data), float(graph.l_n.data), float(graph.l_ph.data))
            if not all(np.isfinite(values)):
                raise NonFiniteLossError(
                    f"loss diverged in epoch {epoch}", last_good=last_good
                )
            last_good = model.params.copy()
            # optimize the per-item mean so step size is batch-size invariant
            ad.backward(ad.mul(graph.l_tot, ad.Tensor(1.0 / len(batch))))
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


@dataclass(frozen=True)
class DevReport:
    mean_loss_word: float
    mean_loss_phoneme: float
    token_accuracy: float
    n_examples: int
    n_steps: int


def evaluate_dev(
    items: Sequence[AlignedExample],
    model: Model,
    lexicon: PronouncingLexicon,
) -> DevReport:
    """Forward-only teacher-forced metrics; parameters are untouched.

    Token accuracy counts steps whose combined-head argmax equals the
    target token.  An empty item list yields a zeroed report.
    """
    if not items:
        return DevReport(0.0, 0.0, 0.0, 0, 0)
    graph = _loss_graph(items, model, lexicon, None)
    _, _, p_gen = combine_heads(graph.logits_n, graph.logits_ph, model.special_mask)
    hits = int(np.count_nonzero(np.argmax(p_gen.data, axis=-1) == graph.targets))
    steps = len(graph.targets)
    return DevReport(
        mean_loss_word=float(graph.l_n.data) / steps,
        mean_loss_phoneme=float(graph.l_ph.data) / steps,
        token_accuracy=hits / steps,
        n_examples=len(items),
        n_steps=steps,
    )


def save_loss_log(path, log: Sequence[EpochStats], header: str = "") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
        fh.write("epoch,L_tot,L_n,L_ph\n")
        for row in log:
            fh.write(f"{row.epoch},{row.loss_total!r},{row.loss_word!r},{row.loss_phoneme!r}\n")


# checkpoint format: magic, JSON header (config, vocab, code index, metadata),
# then named arrays as (name length, name, rank, dims, float64 little-endian).
def save_checkpoint(path, model: Model, meta: Optional[dict] = None) -> None:
    header = {
        "format_version": 1,
        "config": asdict(model.config),
        "vocab": model.vocab.pieces,
        "codes": model.code_index.codes,
        "token_rows": [int(r) for r in model.code_index.token_rows],
        "meta": meta or {},
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<I", len(blob)))
    buf.write(blob)
    buf.write(struct.pack("<I", len(model.params.arrays)))
    for name, array in model.params.items():
        encoded = name.encode("utf-8")
        buf.write(struct.pack("<H", len(encoded)))
        buf.write(encoded)
        buf.write(struct.pack("<B", array.ndim))
        for dim in array.shape:
            buf.write(struct.pack("<I", dim))
        buf.write(array.astype("<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


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
        if header.get("format_version") != 1:
            raise VersionMismatchError(f"unsupported format version {header.get('format_version')}")
        (n_arrays,) = struct.unpack("<I", _read_exact(fh, 4))
        arrays: dict[str, np.ndarray] = {}
        for _ in range(n_arrays):
            (name_len,) = struct.unpack("<H", _read_exact(fh, 2))
            name = _read_exact(fh, name_len).decode("utf-8")
            (rank,) = struct.unpack("<B", _read_exact(fh, 1))
            shape = tuple(struct.unpack("<I", _read_exact(fh, 4))[0] for _ in range(rank))
            count = int(np.prod(shape)) if shape else 1
            data = np.frombuffer(_read_exact(fh, count * 8), dtype="<f8").reshape(shape)
            arrays[name] = np.ascontiguousarray(data, dtype=np.float64)
        trailing = fh.read(1)
        if trailing:
            raise CorruptCheckpointError("unexpected bytes after the last array")
    try:
        config = ModelConfig(**header["config"])
        vocab = SubwordVocab(header["vocab"])
        code_index = PhonemeCodeIndex(header["codes"], header["token_rows"])
        params = ParamStore(arrays)
        params.validate(config)
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptCheckpointError(f"checkpoint header and arrays do not fit: {exc!r}") from exc
    return Model(params=params, config=config, vocab=vocab, code_index=code_index)
