"""Constrained encoder-decoder with word and phoneme generation heads.

The encoder is one self-attention block over mixed word/phoneme/position
embeddings.  For each corrupted position the decoder cross-attends to the
encoder states from a query sequence that starts with a projection of
[encoder row ; start embedding] and continues with the tokens generated so
far.  Two heads score the vocabulary from the decoder state: a word head and
a phoneme head whose logits are shared across tokens with the same phonetic
code; their renormalized product drives generation.

The block functions take one sequence (``[n, d]``) or a padded batch
(``[B, n, d]``).  Training builds one graph per batch: the batch's distinct
sentences are padded to the longest with id 0 and encoded together, each
item's decoder queries are padded to the longest target, and every item
cross-attends to its own sentence's encoder rows.  A boolean key mask
(``[B, n]``, True at real tokens) adds -inf to the attention scores of
padded keys, so padding gets exactly zero weight.  Query rows never attend
to each other, so padded query rows only compute values that are dropped
before the vocabulary-wide heads.  Decoding calls the same functions on
single sequences without a mask.

Everything runs in float64 through the in-package autodiff engine, so
training is deterministic and gradients can be checked against central
finite differences.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import SPECIALS, AlignedExample, SubwordVocab
from .errors import (
    DegenerateSupportError,
    NonFiniteGradientError,
    PrefixTooLongError,
    SequenceTooLongError,
)
from .phonetics import PronouncingLexicon, g2p, supervision_distribution

_SPECIAL_CODES = {piece: f"<{piece[1:-1].lower()}>" for piece in SPECIALS}

#: Floor applied to supervision entries outside their support so the
#: phoneme-head KL term stays finite.
R_FLOOR = 1e-12


@dataclass(frozen=True)
class ModelConfig:
    d_model: int = 32
    n_heads: int = 4
    vocab_size: int = 0
    code_vocab_size: int = 0
    max_gen_len: int = 5
    max_len: int = 64
    lambda_w: float = 0.5
    lambda_ph: float = 0.5
    phoneme_head: bool = True

    def __post_init__(self):
        if self.d_model <= 0 or self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be positive and divisible by n_heads")
        if self.max_gen_len < 1:
            raise ValueError("max_gen_len must be at least 1")
        if self.max_len < 1:
            raise ValueError("max_len must be at least 1")
        if not 0.0 <= self.lambda_w <= 1.0:
            raise ValueError("lambda_w must lie in [0, 1]")
        if self.lambda_ph < 0.0:
            raise ValueError("lambda_ph must be nonnegative")


class PhonemeCodeIndex:
    """Maps vocabulary pieces to rows of the phoneme embedding table.

    Pieces with identical phonetic codes share a row; special tokens get
    private pseudo-codes.
    """

    def __init__(self, codes: Sequence[str], token_rows: Sequence[int]):
        self.codes: list[str] = list(codes)
        self.token_rows: np.ndarray = np.asarray(token_rows, dtype=np.intp)
        if self.token_rows.size and self.token_rows.max() >= len(self.codes):
            raise ValueError("token row out of range for the code list")

    def __len__(self) -> int:
        return len(self.codes)

    @classmethod
    def build(cls, vocab: SubwordVocab, lexicon: PronouncingLexicon) -> "PhonemeCodeIndex":
        codes: list[str] = []
        row_of: dict[str, int] = {}
        token_rows: list[int] = []
        for piece in vocab.pieces:
            if piece in _SPECIAL_CODES:
                key = _SPECIAL_CODES[piece]
            else:
                key = g2p(piece, lexicon).key()
            row = row_of.get(key)
            if row is None:
                row = len(codes)
                row_of[key] = row
                codes.append(key)
            token_rows.append(row)
        return cls(codes, token_rows)


def _normal(rng: np.random.Generator, shape, scale=0.02) -> np.ndarray:
    return rng.normal(0.0, scale, size=shape).astype(np.float64)


def _param_specs(config: ModelConfig) -> list[tuple[str, tuple[int, ...], Optional[float]]]:
    """Every parameter as ``(name, shape, fill)``, in initialization order.

    ``fill`` None means N(0, 0.02^2) draws; the order fixes both the draw
    sequence of :meth:`ParamStore.init` and the checkpoint's array order.
    """
    d, f = config.d_model, 4 * config.d_model
    specs = [
        ("m_word", (config.vocab_size, d), None),
        ("m_pos", (config.max_len, d), None),
        ("m_ph", (config.code_vocab_size, d), None),
        ("bos_emb", (1, d), None),
    ]
    for prefix in ("enc_", "dec_"):
        for x in "qkvo":
            specs += [(prefix + "w" + x, (d, d), None), (prefix + "b" + x, (d,), 0.0)]
        specs += [
            (prefix + "ln1_g", (d,), 1.0),
            (prefix + "ln1_b", (d,), 0.0),
            (prefix + "w1", (d, f), None),
            (prefix + "b1", (f,), 0.0),
            (prefix + "w2", (f, d), None),
            (prefix + "b2", (d,), 0.0),
            (prefix + "ln2_g", (d,), 1.0),
            (prefix + "ln2_b", (d,), 0.0),
        ]
    specs += [
        ("dec_h", (2 * d, d), None),
        ("b_n", (config.vocab_size,), 0.0),
        ("b_ph", (config.code_vocab_size,), 0.0),
    ]
    return specs


class ParamStore:
    """Named float64 arrays in a fixed order."""

    def __init__(self, arrays: dict[str, np.ndarray]):
        self.arrays: dict[str, np.ndarray] = {
            name: np.asarray(a, dtype=np.float64) for name, a in arrays.items()
        }

    @classmethod
    def init(cls, config: ModelConfig, seed: int) -> "ParamStore":
        rng = np.random.default_rng(seed)
        return cls(
            {
                name: _normal(rng, shape) if fill is None else np.full(shape, fill)
                for name, shape, fill in _param_specs(config)
            }
        )

    def validate(self, config: ModelConfig) -> None:
        expected = {name: shape for name, shape, _ in _param_specs(config)}
        if set(expected) != set(self.arrays):
            missing = set(expected) - set(self.arrays)
            extra = set(self.arrays) - set(expected)
            raise ValueError(f"parameter names mismatch: missing={missing}, extra={extra}")
        for name, shape in expected.items():
            if self.arrays[name].shape != shape:
                raise ValueError(
                    f"parameter {name} has shape {self.arrays[name].shape}, expected {shape}"
                )
            if not np.all(np.isfinite(self.arrays[name])):
                raise ValueError(f"parameter {name} contains non-finite values")

    def copy(self) -> "ParamStore":
        return ParamStore({name: a.copy() for name, a in self.arrays.items()})

    def items(self):
        return self.arrays.items()

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]

    def __setitem__(self, name: str, value: np.ndarray) -> None:
        self.arrays[name] = np.asarray(value, dtype=np.float64)

    def __contains__(self, name: str) -> bool:
        return name in self.arrays


@dataclass
class Model:
    """Parameter store plus everything needed to run it."""

    params: ParamStore
    config: ModelConfig
    vocab: SubwordVocab
    code_index: PhonemeCodeIndex
    #: 1.0 at special-token indices, 0.0 elsewhere
    special_mask: np.ndarray = field(init=False, repr=False, compare=False)
    _supervision_logs: dict[str, np.ndarray] = field(
        init=False, default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self):
        self.special_mask = np.asarray([1.0 if p in SPECIALS else 0.0 for p in self.vocab.pieces])

    @classmethod
    def build(
        cls,
        vocab: SubwordVocab,
        lexicon: PronouncingLexicon,
        config: Optional[ModelConfig] = None,
        seed: int = 0,
    ) -> "Model":
        code_index = PhonemeCodeIndex.build(vocab, lexicon)
        base = config if config is not None else ModelConfig()
        base = replace(base, vocab_size=len(vocab), code_vocab_size=len(code_index))
        params = ParamStore.init(base, seed)
        params.validate(base)
        return cls(params=params, config=base, vocab=vocab, code_index=code_index)

    def r_support(self) -> list[Optional[str]]:
        return [None if p in SPECIALS else p for p in self.vocab.pieces]

    def supervision_log(self, surface: str, lexicon: PronouncingLexicon) -> np.ndarray:
        """Floored log of a target's supervision distribution over the
        vocabulary, cached per target surface."""
        vec = self._supervision_logs.get(surface)
        if vec is None:
            r = supervision_distribution(surface, self.r_support(), lexicon)
            vec = np.log(np.maximum(r, R_FLOOR))
            self._supervision_logs[surface] = vec
        return vec


def _wrap_params(params: ParamStore) -> dict[str, Tensor]:
    return {name: Tensor(a) for name, a in params.items()}


def _token_embeddings(
    ids: np.ndarray,
    params: dict[str, Tensor],
    config: ModelConfig,
    token_code_rows: np.ndarray,
) -> Tensor:
    """Word rows, or the word/phoneme convex mix when the phoneme head is on."""
    words = ad.rows(params["m_word"], ids)
    if not config.phoneme_head:
        return words
    phonemes = ad.rows(params["m_ph"], token_code_rows[ids])
    return ad.add(
        ad.mul(Tensor(config.lambda_w), words),
        ad.mul(Tensor(1.0 - config.lambda_w), phonemes),
    )


def embed_sequence(
    token_ids,
    params: dict[str, Tensor],
    config: ModelConfig,
    token_code_rows: np.ndarray,
) -> Tensor:
    """Input embeddings: word/phoneme convex mix plus position rows.

    ``token_ids`` is one sequence ``[n]`` or a padded batch ``[B, n]``.
    """
    ids = np.asarray(token_ids, dtype=np.intp)
    n = ids.shape[-1]
    if n > config.max_len:
        raise SequenceTooLongError(f"sequence of {n} tokens exceeds max_len={config.max_len}")
    positions = ad.rows(params["m_pos"], np.arange(n))
    return ad.add(_token_embeddings(ids, params, config, token_code_rows), positions)


def _swap_seq_and_head(ndim: int) -> tuple[int, ...]:
    """Axis order taking [..., n, h, x] to [..., h, n, x] and back."""
    return (*range(ndim - 3), ndim - 2, ndim - 3, ndim - 1)


def _split_heads(x: Tensor, h: int, dh: int) -> Tensor:
    """[..., n, h*dh] -> [..., h, n, dh]."""
    shape = x.data.shape[:-1] + (h, dh)
    return ad.transpose_axes(ad.reshape(x, shape), _swap_seq_and_head(len(shape)))


def _attention_ffn_block(
    q_in: Tensor,
    kv_in: Tensor,
    params: dict[str, Tensor],
    prefix: str,
    config: ModelConfig,
    key_mask: Optional[np.ndarray] = None,
) -> Tensor:
    """Post-layer-norm attention and feed-forward block.

    Inputs are ``[n, d]`` queries over ``[m, d]`` keys, or padded stacks
    ``[B, n, d]`` over ``[B, m, d]``.  ``key_mask`` (``[..., m]``, True at
    real keys) adds -inf to the scores of padded keys, so they get exactly
    zero attention weight and zero gradient.
    """
    d, h = config.d_model, config.n_heads
    dh = d // h
    q = ad.add(ad.matmul(q_in, params[prefix + "wq"]), params[prefix + "bq"])
    k = ad.add(ad.matmul(kv_in, params[prefix + "wk"]), params[prefix + "bk"])
    v = ad.add(ad.matmul(kv_in, params[prefix + "wv"]), params[prefix + "bv"])
    qh = _split_heads(q, h, dh)
    kh = _split_heads(k, h, dh)
    vh = _split_heads(v, h, dh)
    ndim = kh.data.ndim
    keys_t = ad.transpose_axes(kh, (*range(ndim - 2), ndim - 1, ndim - 2))
    scores = ad.mul(ad.matmul(qh, keys_t), Tensor(1.0 / np.sqrt(dh)))
    if key_mask is not None:
        scores = ad.add(scores, Tensor(np.where(key_mask, 0.0, -np.inf)[..., None, None, :]))
    weights = ad.softmax(scores, axis=-1)
    heads = ad.matmul(weights, vh)
    merged = ad.reshape(ad.transpose_axes(heads, _swap_seq_and_head(ndim)), q_in.data.shape)
    attn = ad.add(ad.matmul(merged, params[prefix + "wo"]), params[prefix + "bo"])
    h1 = ad.layer_norm(ad.add(q_in, attn), params[prefix + "ln1_g"], params[prefix + "ln1_b"])
    inner = ad.gelu(ad.add(ad.matmul(h1, params[prefix + "w1"]), params[prefix + "b1"]))
    ffn = ad.add(ad.matmul(inner, params[prefix + "w2"]), params[prefix + "b2"])
    return ad.layer_norm(ad.add(h1, ffn), params[prefix + "ln2_g"], params[prefix + "ln2_b"])


def encode(
    e_in: Tensor,
    params: dict[str, Tensor],
    config: ModelConfig,
    key_mask: Optional[np.ndarray] = None,
) -> Tensor:
    """One self-attention block; output rows align with input rows.

    A padded batch ``[B, n, d]`` takes ``key_mask`` ``[B, n]``; rows at padded
    positions come out finite but meaningless.
    """
    return _attention_ffn_block(e_in, e_in, params, "enc_", config, key_mask)


def _pad(sequences: Sequence[Sequence[int]]) -> np.ndarray:
    """Ragged id lists as one ``[len(sequences), longest]`` array, padded with id 0."""
    out = np.zeros((len(sequences), max(map(len, sequences), default=0)), dtype=np.intp)
    for i, seq in enumerate(sequences):
        out[i, : len(seq)] = seq
    return out


def _decoder_queries(
    e_k: Tensor,
    generated_ids,
    params: dict[str, Tensor],
    config: ModelConfig,
    token_code_rows: np.ndarray,
) -> Tensor:
    if e_k.data.ndim == 2:
        ids = np.asarray(generated_ids, dtype=np.intp)
        bos = params["bos_emb"]
    else:
        ids = _pad(generated_ids)
        bos = ad.rows(params["bos_emb"], np.zeros((len(generated_ids), 1), dtype=np.intp))
    n_prev = ids.shape[-1]
    if 1 + n_prev > config.max_gen_len:
        raise PrefixTooLongError(
            f"prefix of {1 + n_prev} positions exceeds max_gen_len={config.max_gen_len}"
        )
    head = ad.matmul(ad.concat([e_k, bos], axis=-1), params["dec_h"])
    head = ad.add(head, ad.rows(params["m_pos"], np.asarray([0], dtype=np.intp)))
    if not n_prev:
        return head
    tok = _token_embeddings(ids, params, config, token_code_rows)
    tok = ad.add(tok, ad.rows(params["m_pos"], np.arange(1, n_prev + 1)))
    return ad.concat([head, tok], axis=-2)


def decoder_hidden(
    e_k: Tensor,
    generated_ids,
    e_encoder: Tensor,
    params: dict[str, Tensor],
    config: ModelConfig,
    token_code_rows: np.ndarray,
    key_mask: Optional[np.ndarray] = None,
) -> Tensor:
    """Hidden states for every query position (no cross-position mixing).

    One span: ``e_k`` ``[1, d]``, one prefix, ``e_encoder`` ``[n, d]``.
    A batch: ``e_k`` ``[B, 1, d]``, ``B`` prefixes of any lengths (padded to
    the longest, so rows past a prefix's end are meaningless),
    ``e_encoder`` ``[B, n, d]`` and ``key_mask`` ``[B, n]``.
    """
    queries = _decoder_queries(e_k, generated_ids, params, config, token_code_rows)
    return _attention_ffn_block(queries, e_encoder, params, "dec_", config, key_mask)


def _head_logits(
    d_k: Tensor,
    params: dict[str, Tensor],
    config: ModelConfig,
    token_code_rows: np.ndarray,
) -> tuple[Tensor, Optional[Tensor]]:
    logits_n = ad.add(ad.matmul(d_k, ad.transpose_axes(params["m_word"], (1, 0))), params["b_n"])
    if not config.phoneme_head:
        return logits_n, None
    ph_rows = ad.rows(params["m_ph"], token_code_rows)
    ph_bias = ad.rows(params["b_ph"], token_code_rows)
    logits_ph = ad.add(ad.matmul(d_k, ad.transpose_axes(ph_rows, (1, 0))), ph_bias)
    return logits_n, logits_ph


def step_distributions(
    d_k: Tensor,
    params: dict[str, Tensor],
    config: ModelConfig,
    token_code_rows: np.ndarray,
    special_mask: Optional[np.ndarray] = None,
) -> tuple[Tensor, Optional[Tensor], Tensor]:
    """Word-head, phoneme-head and combined distributions over the vocabulary.

    The combined distribution is the renormalized elementwise product of the
    two heads over pronounceable tokens.  Special tokens ([BOS]/[EOS]/[UNK])
    have no pronunciation, and their supervision mass is floored to nothing,
    so the product would starve them of probability and generation could
    never stop; instead they keep their word-head probability exactly, which
    is the product rule with the content-average phoneme factor standing in
    for their undefined phoneme score.  A uniform phoneme head therefore
    leaves the word-head distribution unchanged.
    """
    logits_n, logits_ph = _head_logits(d_k, params, config, token_code_rows)
    return combine_heads(logits_n, logits_ph, special_mask)


def combine_heads(
    logits_n: Tensor,
    logits_ph: Optional[Tensor],
    special_mask: Optional[np.ndarray] = None,
) -> tuple[Tensor, Optional[Tensor], Tensor]:
    """The distributions of :func:`step_distributions` from the head logits."""
    p_n = ad.softmax(logits_n, axis=-1)
    if logits_ph is None:
        return p_n, None, p_n
    p_ph = ad.softmax(logits_ph, axis=-1)
    if special_mask is None:
        special_mask = np.zeros(logits_n.data.shape[-1])
    content = Tensor(1.0 - special_mask)
    special = Tensor(special_mask)
    prod = ad.mul(p_n, p_ph)
    pn_content = ad.sum_(ad.mul(p_n, content), axis=-1, keepdims=True)
    prod_content = ad.sum_(ad.mul(prod, content), axis=-1, keepdims=True)
    mean_factor = ad.div(prod_content, pn_content)
    unnorm = ad.add(ad.mul(prod, content), ad.mul(ad.mul(p_n, special), mean_factor))
    p_gen = ad.div(unnorm, ad.sum_(unnorm, axis=-1, keepdims=True))
    return p_n, p_ph, p_gen


@dataclass
class LossGraph:
    """One batch's loss graph and the per-step head logits it was built from.

    Rows of ``logits_n``/``logits_ph`` are the teacher-forced steps of every
    item, item by item; ``targets`` holds each step's target id.
    """

    l_tot: Tensor
    l_n: Tensor
    l_ph: Tensor
    params: dict[str, Tensor]
    logits_n: Tensor
    logits_ph: Optional[Tensor]
    targets: np.ndarray


def _loss_graph(
    batch: Sequence[AlignedExample],
    model: Model,
    lexicon: PronouncingLexicon,
    lambda_ph: Optional[float] = None,
) -> LossGraph:
    """Build one padded, masked graph for the whole batch.

    The batch's distinct sentences are encoded together, padded to the
    longest; every item's decoder queries run together, padded to the
    longest target, over its sentence's encoder rows.  Padded query rows are
    dropped before the heads, so each teacher-forced step is one logits row.
    """
    if not batch:
        raise ValueError("cannot build a loss graph for an empty batch")
    config = model.config
    weight = config.lambda_ph if lambda_ph is None else lambda_ph
    params = _wrap_params(model.params)
    rows_map = model.code_index.token_rows
    eos_id = model.vocab.eos_id

    slot: dict[str, int] = {}
    sentences: list[tuple[int, ...]] = []
    for example in batch:
        if example.sentence_id not in slot:
            slot[example.sentence_id] = len(sentences)
            sentences.append(example.sentence.piece_ids)
    ids = _pad(sentences)
    is_token = np.arange(ids.shape[1]) < np.asarray([len(s) for s in sentences])[:, None]
    e_enc = encode(embed_sequence(ids, params, config, rows_map), params, config, is_token)

    which = np.asarray([slot[example.sentence_id] for example in batch], dtype=np.intp)
    where = np.asarray([example.position for example in batch], dtype=np.intp)
    e_k = ad.select(e_enc, which[:, None], where[:, None])
    targets = [example.target_ids for example in batch]
    hidden = decoder_hidden(
        e_k, [t[:-1] for t in targets], ad.rows(e_enc, which), params, config, rows_map, is_token[which]
    )
    step_item = np.repeat(np.arange(len(batch)), [len(t) for t in targets])
    step_pos = np.concatenate([np.arange(len(t)) for t in targets])
    logits_n, logits_ph = _head_logits(ad.select(hidden, step_item, step_pos), params, config, rows_map)
    target_ids = np.concatenate(targets).astype(np.intp)
    lp_n = ad.log_softmax(logits_n, axis=-1)
    l_n = ad.neg(ad.sum_(ad.select(lp_n, np.arange(len(target_ids)), target_ids)))

    l_ph = Tensor(0.0)
    if logits_ph is not None and weight != 0.0:
        step_rows = []
        r_logs = []
        surfaces = (s for example in batch for s in example.target_surfaces)
        for n, (tid, surface) in enumerate(zip(target_ids, surfaces)):
            if tid == eos_id:
                continue
            try:
                r_log = model.supervision_log(surface, lexicon)
            except DegenerateSupportError:
                continue
            step_rows.append(n)
            r_logs.append(r_log)
        if step_rows:
            lp_ph = ad.log_softmax(ad.rows(logits_ph, step_rows), axis=-1)
            p_ph = ad.exp(lp_ph)
            l_ph = ad.sum_(ad.mul(p_ph, ad.sub(lp_ph, Tensor(np.asarray(r_logs)))))
    l_tot = ad.add(l_n, ad.mul(Tensor(weight), l_ph))
    return LossGraph(l_tot, l_n, l_ph, params, logits_n, logits_ph, target_ids)


def loss_total(
    batch: Sequence[AlignedExample],
    model: Model,
    lexicon: PronouncingLexicon,
    lambda_ph: Optional[float] = None,
) -> tuple[Tensor, Tensor, Tensor]:
    """Word-head negative log likelihood plus weighted phoneme-head KL.

    The phoneme term sums, over non-[EOS] teacher-forcing steps, the KL
    divergence from the phoneme-head distribution to the supervision
    distribution of the step's target token (floored outside its support).
    """
    graph = _loss_graph(batch, model, lexicon, lambda_ph)
    return graph.l_tot, graph.l_n, graph.l_ph


@dataclass(frozen=True)
class GradCheckReport:
    coordinates: tuple[tuple[str, int], ...]
    max_rel_error: float
    worst_coordinate: tuple[str, int]


def backward_and_check(
    model: Model,
    batch: Sequence[AlignedExample],
    lexicon: PronouncingLexicon,
    lambda_ph: Optional[float] = None,
    check_coords: int = 0,
    check_seed: int = 0,
    fd_step: float = 1e-5,
) -> tuple[dict[str, np.ndarray], Optional[GradCheckReport]]:
    """Gradients of the total loss, optionally audited by finite differences.

    When ``check_coords`` > 0, that many randomly chosen parameter
    coordinates are re-derived with central differences at ``fd_step`` and
    the maximum relative error (guarded at unit scale) is reported.
    """
    graph = _loss_graph(batch, model, lexicon, lambda_ph)
    ad.backward(graph.l_tot)
    grads: dict[str, np.ndarray] = {}
    for name, leaf in graph.params.items():
        g = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradientError(f"gradient for {name} contains non-finite values")
        grads[name] = g

    report = None
    if check_coords > 0:
        rng = np.random.default_rng(check_seed)
        names = sorted(model.params.arrays)
        coords: list[tuple[str, int]] = []
        for _ in range(check_coords):
            name = names[int(rng.integers(len(names)))]
            coords.append((name, int(rng.integers(model.params[name].size))))

        def loss_value() -> float:
            return float(_loss_graph(batch, model, lexicon, lambda_ph).l_tot.data)

        max_rel = 0.0
        worst = coords[0]
        for name, flat in coords:
            array = model.params[name]
            original = array.flat[flat]
            array.flat[flat] = original + fd_step
            up = loss_value()
            array.flat[flat] = original - fd_step
            down = loss_value()
            array.flat[flat] = original
            fd = (up - down) / (2.0 * fd_step)
            adg = float(grads[name].flat[flat])
            rel = abs(adg - fd) / max(abs(adg), abs(fd), 1.0)
            if rel > max_rel:
                max_rel, worst = rel, (name, flat)
        report = GradCheckReport(tuple(coords), max_rel, worst)
    return grads, report
