"""Constrained encoder-decoder with word and phoneme generation heads.

The encoder is one self-attention block over mixed word/phoneme/position
embeddings.  For each corrupted position the decoder cross-attends to the
encoder states from a query sequence that starts with a projection of
[encoder row ; start embedding] and continues with the tokens generated so
far.  Two heads score the vocabulary from the decoder state: a word head and
a phoneme head whose logits are shared across tokens with the same phonetic
code; their renormalized product drives generation.

Encoder and decoder share one post-layer-norm block,
:func:`_attention_ffn_block`: a ``linear`` query projection, one fused
multi-head ``attention`` op over keys and values projected beforehand by
:func:`_key_values`, an output projection, a residual add and
``layer_norm``, then a ``linear``-``gelu``-``linear`` feed-forward
(``d -> 4d -> d``) with a second residual add and ``layer_norm``.  Each part
is computed by its own function, so a caller computes it once at the level
where it stops changing: the decoder's keys and values
(:func:`decoder_memory`) and the first query row of every corrupted
position (:func:`decoder_start`) once per encoded chunk of sentences, and
the head tables (:func:`head_tables`: the transposed word table, and the
phoneme table gathered per piece) once per set of parameters.

Every block function takes a padded batch (``[B, n, d]``).  Training
builds one graph per batch: the batch's distinct sentences are padded to the
longest with id 0 and encoded together, each item's decoder queries are
padded to the longest target, and every item cross-attends to its own
sentence's encoder rows.  A boolean key mask (``[B, n]``, True at real
tokens) adds -inf to the attention scores of padded keys, so padding gets
exactly zero weight.  Query rows never attend to each other, so padded query
rows only compute values that are dropped before the vocabulary-wide heads.
The loss is two engine ops over the teacher-forced steps: ``nll`` of the
word head at the targets, plus ``lambda_ph`` times ``kl`` from the phoneme
head to each supervised step's floored supervision distribution.

Decoding encodes a chunk of sentences the same way, padded and masked.
Since query rows never attend to each other, a step's row depends only on
the previous token, the step and the sentence, and step 0 only on the
sentence and the position.  So each span is one batch entry of its own: its
query row ``[1, d]`` attends to its sentence's keys and values, gathered by
sentence, under that sentence's key mask.  Step 0 runs the start rows of
every corrupted position of the chunk through one :func:`decoder_hidden`
call (``[S, 1, d]``, empty prefixes) and one :func:`step_distributions`
call.  Each later step runs only what the newest token changes: the block's
query side over the live rows, each the previous token's
:func:`_token_embeddings` row plus a position row, and the two heads over
their output.

Training and decoding run the same functions, training once per batch.
Decoding wraps the parameters as tensors that need no gradient, so its
forward passes build no graph; :func:`step_distributions` combines the heads
in plain numpy because no loss differentiates the combination.

Everything runs in float64 through the in-package autodiff engine, so
training is deterministic and gradients can be checked against central
finite differences.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
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
from .phonetics import PronouncingLexicon, code_key, g2p, supervision_distribution

_SPECIAL_CODES = {piece: f"<{piece[1:-1].lower()}>" for piece in SPECIALS}

#: Floor applied to supervision entries outside their support so the
#: phoneme-head KL term stays finite.
R_FLOOR = 1e-12

_SMALLEST = np.finfo(np.float64).smallest_subnormal

#: Standard deviation of the normal draws that initialize weight parameters.
_INIT_STD = 0.02

#: Central-difference step of :func:`backward_and_check`'s audit.
_FD_STEP = 1e-5


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters; the vocabulary and its code index size the tables."""

    d_model: int = 32
    n_heads: int = 4
    max_gen_len: int = 5
    max_len: int = 64
    lambda_w: float = 0.5
    lambda_ph: float = 0.5
    phoneme_head: bool = True

    def __post_init__(self):
        if self.n_heads < 1 or self.d_model < 1 or self.d_model % self.n_heads != 0:
            raise ValueError("d_model and n_heads must be positive, and n_heads must divide d_model")
        if self.max_gen_len < 1:
            raise ValueError("max_gen_len must be at least 1")
        if self.max_len < 1:
            raise ValueError("max_len must be at least 1")
        if self.max_gen_len > self.max_len:
            # a span's query rows read position rows 0 .. max_gen_len - 1 of m_pos
            raise ValueError(f"max_gen_len={self.max_gen_len} must not exceed max_len={self.max_len}")
        if not 0.0 <= self.lambda_w <= 1.0:
            raise ValueError("lambda_w must lie in [0, 1]")
        if not 0.0 <= self.lambda_ph < math.inf:
            raise ValueError("lambda_ph must be nonnegative and finite")


class PhonemeCodeIndex:
    """Maps vocabulary pieces to rows of the phoneme embedding table.

    Pieces with identical phonetic codes share a row; special tokens get
    private pseudo-codes.
    """

    def __init__(self, codes: Sequence[str], token_rows: Sequence[int]):
        """Raise ValueError for a token row that is not an integer (a bool
        is not one): the cast to ``intp`` would truncate it silently."""
        if not all(isinstance(row, (int, np.integer)) and not isinstance(row, bool) for row in token_rows):
            raise ValueError("every token row must be an integer")
        self.codes: list[str] = list(codes)
        self.token_rows: np.ndarray = np.asarray(token_rows, dtype=np.intp)

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
                key = code_key(g2p(piece, lexicon))
            row = row_of.get(key)
            if row is None:
                row = len(codes)
                row_of[key] = row
                codes.append(key)
            token_rows.append(row)
        return cls(codes, token_rows)


def _param_specs(config: ModelConfig, n_words: int, n_codes: int) -> list[tuple]:
    """Every parameter as ``(name, shape, fill)``, in initialization order,
    for a vocabulary of ``n_words`` pieces and ``n_codes`` phonetic codes.

    ``fill`` None means N(0, ``_INIT_STD``^2) draws; the order fixes both the
    draw sequence of :meth:`Model.build` and the checkpoint's array order.
    """
    d, f = config.d_model, 4 * config.d_model
    specs = [
        ("m_word", (n_words, d), None),
        ("m_pos", (config.max_len, d), None),
        ("m_ph", (n_codes, d), None),
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
        ("b_n", (n_words,), 0.0),
        ("b_ph", (n_codes,), 0.0),
    ]
    return specs


@dataclass
class Model:
    """Named float64 parameter arrays plus everything needed to run them."""

    params: dict[str, np.ndarray]
    config: ModelConfig
    vocab: SubwordVocab
    code_index: PhonemeCodeIndex
    #: ``[2, V]``: row 0 is 1.0 at the special pieces, row 1 at [EOS] alone,
    #: the one special piece decoding may emit (see :func:`step_distributions`)
    special_mask: np.ndarray = field(init=False, repr=False, compare=False)
    _supervision_logs: dict[int, Optional[np.ndarray]] = field(
        init=False, default_factory=dict, repr=False, compare=False
    )
    _supervision_lexicon: Optional[PronouncingLexicon] = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        """Raise ValueError unless params, config, vocab and code index fit together."""
        n_words, n_codes = len(self.vocab), len(self.code_index)
        rows = self.code_index.token_rows
        if rows.shape != (n_words,):
            raise ValueError(f"{rows.size} token rows for a vocabulary of {n_words} pieces")
        if n_words and not (rows.min() >= 0 and rows.max() < n_codes):
            raise ValueError(f"a token row lies outside the {n_codes} phonetic codes")
        expected = {name: shape for name, shape, _ in _param_specs(self.config, n_words, n_codes)}
        if expected.keys() != self.params.keys():
            odd = sorted(expected.keys() ^ self.params.keys())
            raise ValueError(f"parameter names missing or unexpected: {odd}")
        for name, shape in expected.items():
            if self.params[name].shape != shape or not np.all(np.isfinite(self.params[name])):
                raise ValueError(f"parameter {name} is not a finite array of shape {shape}")
        ids = np.arange(n_words)
        self.special_mask = np.asarray([np.isin(self.vocab.pieces, SPECIALS), ids == self.vocab.eos_id], dtype=float)

    @classmethod
    def build(
        cls,
        vocab: SubwordVocab,
        lexicon: PronouncingLexicon,
        config: Optional[ModelConfig] = None,
        seed: int = 0,
    ) -> "Model":
        code_index = PhonemeCodeIndex.build(vocab, lexicon)
        config = config if config is not None else ModelConfig()
        rng = np.random.default_rng(seed)
        params = {
            name: rng.normal(0.0, _INIT_STD, size=shape) if fill is None else np.full(shape, fill)
            for name, shape, fill in _param_specs(config, len(vocab), len(code_index))
        }
        return cls(params=params, config=config, vocab=vocab, code_index=code_index)

    def r_support(self) -> list[Optional[str]]:
        return [None if p in SPECIALS else p for p in self.vocab.pieces]

    def supervision_log(self, target_id: int, lexicon: PronouncingLexicon) -> Optional[np.ndarray]:
        """Floored log of piece ``target_id``'s supervision distribution over
        the vocabulary, or None for a special piece or a piece phonetically
        disjoint from the vocabulary; cached per piece, None included, for the
        last lexicon object asked about."""
        if lexicon is not self._supervision_lexicon:
            self._supervision_logs, self._supervision_lexicon = {}, lexicon
        if target_id not in self._supervision_logs:
            piece, vec = self.vocab.pieces[target_id], None
            if piece not in SPECIALS:
                try:
                    vec = np.log(np.maximum(supervision_distribution(piece, self.r_support(), lexicon), R_FLOOR))
                except DegenerateSupportError:
                    pass
            self._supervision_logs[target_id] = vec
        return self._supervision_logs[target_id]


def _wrap_params(params: dict[str, np.ndarray], needs_grad: bool = True) -> dict[str, Tensor]:
    """The parameter arrays as leaf tensors; without ``needs_grad`` a forward
    pass over them builds no graph."""
    return {name: Tensor(a, needs_grad) for name, a in params.items()}


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
        ad.mul(Tensor(config.lambda_w, needs_grad=False), words),
        ad.mul(Tensor(1.0 - config.lambda_w, needs_grad=False), phonemes),
    )


def embed_sequence(
    token_ids,
    params: dict[str, Tensor],
    config: ModelConfig,
    token_code_rows: np.ndarray,
) -> Tensor:
    """Input embeddings ``[B, n, d]`` of padded ids ``[B, n]``: word/phoneme
    convex mix plus position rows."""
    ids = np.asarray(token_ids, dtype=np.intp)
    n = ids.shape[-1]
    if n > config.max_len:
        raise SequenceTooLongError(f"sequence of {n} tokens exceeds max_len={config.max_len}")
    positions = ad.rows(params["m_pos"], np.arange(n))
    return ad.add(_token_embeddings(ids, params, config, token_code_rows), positions)


def _key_values(kv_in: Tensor, params: dict[str, Tensor], prefix: str) -> tuple[Tensor, Tensor]:
    """The block's key and value projections of ``kv_in`` ``[B, m, d]``."""
    return (
        ad.linear(kv_in, params[prefix + "wk"], params[prefix + "bk"]),
        ad.linear(kv_in, params[prefix + "wv"], params[prefix + "bv"]),
    )


def _attention_ffn_block(
    q_in: Tensor,
    memory: tuple[Tensor, Tensor],
    params: dict[str, Tensor],
    prefix: str,
    config: ModelConfig,
    key_mask: Optional[np.ndarray] = None,
) -> Tensor:
    """Post-layer-norm attention and feed-forward block.

    Queries ``[B, n, d]`` attend over ``memory``, the keys and values
    ``[B, m, d]`` of :func:`_key_values`.  ``key_mask`` (``[B, m]``, True at
    real keys) adds -inf to the scores of padded keys, so they get exactly
    zero attention weight and zero gradient.
    """
    q = ad.linear(q_in, params[prefix + "wq"], params[prefix + "bq"])
    heads = ad.attention(q, *memory, config.n_heads, key_mask)
    attn = ad.linear(heads, params[prefix + "wo"], params[prefix + "bo"])
    h1 = ad.layer_norm(ad.add(q_in, attn), params[prefix + "ln1_g"], params[prefix + "ln1_b"])
    inner = ad.gelu(ad.linear(h1, params[prefix + "w1"], params[prefix + "b1"]))
    ffn = ad.linear(inner, params[prefix + "w2"], params[prefix + "b2"])
    return ad.layer_norm(ad.add(h1, ffn), params[prefix + "ln2_g"], params[prefix + "ln2_b"])


def encode(
    e_in: Tensor,
    params: dict[str, Tensor],
    config: ModelConfig,
    key_mask: Optional[np.ndarray] = None,
) -> Tensor:
    """One self-attention block over ``[B, n, d]``; output rows align with
    input rows.  Rows at positions ``key_mask`` marks as padding come out
    finite but meaningless.
    """
    return _attention_ffn_block(e_in, _key_values(e_in, params, "enc_"), params, "enc_", config, key_mask)


def _pad(sequences: Sequence[Sequence[int]]) -> np.ndarray:
    """Ragged id lists as one ``[len(sequences), longest]`` array, padded with id 0."""
    out = np.zeros((len(sequences), max(map(len, sequences), default=0)), dtype=np.intp)
    for i, seq in enumerate(sequences):
        out[i, : len(seq)] = seq
    return out


def decoder_memory(e_encoder: Tensor, params: dict[str, Tensor]) -> tuple[Tensor, Tensor]:
    """The decoder's cross-attention keys and values of encoder rows
    ``[B, n, d]``: fixed for a sentence, whatever its spans generate."""
    return _key_values(e_encoder, params, "dec_")


def decoder_start(e_k: Tensor, params: dict[str, Tensor]) -> Tensor:
    """First query rows ``[B, n, d]`` of the spans at encoder rows ``e_k``
    ``[B, n, d]``: each row beside the start embedding, through ``dec_h``,
    plus position 0; fixed for a span, whatever it generates.  Training
    and decoding pass each span's corrupted row (``n`` = 1)."""
    bos = ad.rows(params["bos_emb"], np.zeros(e_k.data.shape[:2], dtype=np.intp))
    return ad.linear(ad.concat([e_k, bos], axis=-1), params["dec_h"], ad.rows(params["m_pos"], [0]))


def decoder_hidden(
    start: Tensor,
    generated_ids,
    memory: tuple[Tensor, Tensor],
    params: dict[str, Tensor],
    config: ModelConfig,
    token_code_rows: np.ndarray,
    key_mask: Optional[np.ndarray] = None,
) -> Tensor:
    """Hidden states ``[B, 1 + longest prefix, d]`` for every query position
    (no cross-position mixing).

    ``start`` is :func:`decoder_start` ``[B, 1, d]``, ``generated_ids``
    holds ``B`` prefixes of any lengths (padded to the longest, so rows past
    a prefix's end are meaningless), and ``memory`` is
    :func:`decoder_memory` of ``[B, n, d]`` encoder rows with ``key_mask``
    ``[B, n]``.  A prefix row is the token's :func:`_token_embeddings` row
    plus its position row, and that sum passed as ``start`` with an empty
    prefix, as decoding passes each live span's row, gives the same row up
    to the last bits of the block's products.
    """
    ids = _pad(generated_ids)
    n_prev = ids.shape[1]
    if 1 + n_prev > config.max_gen_len:
        raise PrefixTooLongError(
            f"prefix of {1 + n_prev} positions exceeds max_gen_len={config.max_gen_len}"
        )
    queries = start
    if n_prev:
        tok = _token_embeddings(ids, params, config, token_code_rows)
        tok = ad.add(tok, ad.rows(params["m_pos"], np.arange(1, n_prev + 1)))
        queries = ad.concat([start, tok], axis=-2)
    return _attention_ffn_block(queries, memory, params, "dec_", config, key_mask)


#: The ``linear`` weight ``[d, V]`` and bias ``[V]`` of each head: the word
#: head's, then the phoneme head's, or None without a phoneme head.
HeadTables = tuple[tuple[Tensor, Tensor], Optional[tuple[Tensor, Tensor]]]


def head_tables(
    params: dict[str, Tensor],
    config: ModelConfig,
    token_code_rows: np.ndarray,
) -> HeadTables:
    """The word head's transposed ``m_word`` and ``b_n``; the phoneme head's
    ``m_ph`` rows and ``b_ph`` entries gathered per piece by
    ``token_code_rows``, the rows transposed.  They change only with the
    parameters."""
    word = (ad.transpose_axes(params["m_word"], (1, 0)), params["b_n"])
    if not config.phoneme_head:
        return word, None
    ph_rows = ad.rows(params["m_ph"], token_code_rows)
    return word, (ad.transpose_axes(ph_rows, (1, 0)), ad.rows(params["b_ph"], token_code_rows))


def _head_logits(d_k: Tensor, tables: HeadTables) -> tuple[Tensor, Optional[Tensor]]:
    word, phoneme = tables
    return ad.linear(d_k, *word), None if phoneme is None else ad.linear(d_k, *phoneme)


def step_distributions(
    d_k: Tensor,
    tables: HeadTables,
    special_mask: np.ndarray,
) -> tuple[np.ndarray, Optional[np.ndarray], np.ndarray]:
    """Word-head, phoneme-head and combined distributions over the vocabulary.

    The combined distribution is the renormalized elementwise product of the
    two heads over pronounceable tokens.  [EOS] has no pronunciation, and
    its supervision mass is floored to nothing, so the product would starve
    it and generation could never stop; instead the content-average phoneme
    factor stands in for its phoneme score.  [BOS] and [UNK] get no mass, so
    decoding never writes them.  A uniform phoneme head, or none, therefore
    leaves the word head over the other pieces, renormalized.

    ``tables`` is :func:`head_tables` and ``special_mask`` is
    :attr:`Model.special_mask`.  No loss differentiates the distributions,
    so they are plain numpy arrays ``p_n``, ``p_ph`` and ``p_gen`` computed
    from the logits' values; ``p_ph`` is None without a phoneme head.  A row
    whose allowed pieces all underflow to zero mass puts all of its
    ``p_gen`` on [EOS].
    """
    logits_n, logits_ph = _head_logits(d_k, tables)
    special, eos = special_mask
    content = 1.0 - special
    p_n = ad.softmax_array(logits_n.data)
    p_ph = None if logits_ph is None else ad.softmax_array(logits_ph.data)
    # without a phoneme head every phoneme factor, and so their mean, is 1
    p_content = p_n * content
    prod_content = p_content if p_ph is None else p_content * p_ph
    # a zero content mass has a zero product mass: its mean factor is 0, not 0/0
    mean_factor = prod_content.sum(axis=-1, keepdims=True) / np.maximum(
        p_content.sum(axis=-1, keepdims=True), _SMALLEST
    )
    unnorm = prod_content + p_n * eos * mean_factor
    total = unnorm.sum(axis=-1, keepdims=True)
    if not total.all():
        # a saturated head left every allowed piece of a row zero mass
        unnorm = np.where(total > 0.0, unnorm, eos)
        total = unnorm.sum(axis=-1, keepdims=True)
    return p_n, p_ph, unnorm / total


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
    needs_grad: bool = True,
) -> LossGraph:
    """Build one padded, masked graph for the whole batch.

    The batch's distinct sentences are encoded together, padded to the
    longest; every item's decoder queries run together, padded to the
    longest target, over its sentence's encoder rows.  Padded query rows are
    dropped before the heads, so each teacher-forced step is one logits row.
    Without ``needs_grad`` only the values are computed and no graph is kept.
    """
    if not batch:
        raise ValueError("cannot build a loss graph for an empty batch")
    config = model.config
    params = _wrap_params(model.params, needs_grad)
    rows_map = model.code_index.token_rows

    # one encoder row per distinct sentence, in order of first appearance
    keys = [tuple(t.piece_id for t in example.sentence) for example in batch]
    sentences = list(dict.fromkeys(keys))
    slot = {sentence: i for i, sentence in enumerate(sentences)}
    ids = _pad(sentences)
    is_token = np.arange(ids.shape[1]) < np.asarray([len(s) for s in sentences])[:, None]
    e_enc = encode(embed_sequence(ids, params, config, rows_map), params, config, is_token)

    which = np.asarray([slot[key] for key in keys], dtype=np.intp)
    where = np.asarray([example.position for example in batch], dtype=np.intp)
    start = decoder_start(ad.select(e_enc, which[:, None], where[:, None]), params)
    memory = decoder_memory(ad.rows(e_enc, which), params)
    targets = [example.target_ids for example in batch]
    hidden = decoder_hidden(start, [t[:-1] for t in targets], memory, params, config, rows_map, is_token[which])
    step_item = np.repeat(np.arange(len(batch)), [len(t) for t in targets])
    step_pos = np.concatenate([np.arange(len(t)) for t in targets])
    tables = head_tables(params, config, rows_map)
    logits_n, logits_ph = _head_logits(ad.select(hidden, step_item, step_pos), tables)
    target_ids = np.concatenate(targets).astype(np.intp)
    l_n = ad.nll(logits_n, target_ids)

    l_ph = Tensor(0.0, needs_grad=False)
    if logits_ph is not None and config.lambda_ph != 0.0:
        r_logs = [model.supervision_log(tid, lexicon) for tid in target_ids.tolist()]
        step_rows = [n for n, r_log in enumerate(r_logs) if r_log is not None]
        if step_rows:
            l_ph = ad.kl(ad.rows(logits_ph, step_rows), np.asarray([r_logs[n] for n in step_rows]))
    l_tot = ad.add(l_n, ad.mul(Tensor(config.lambda_ph, needs_grad=False), l_ph))
    return LossGraph(l_tot, l_n, l_ph, params, logits_n, logits_ph, target_ids)


def loss_total(
    batch: Sequence[AlignedExample],
    model: Model,
    lexicon: PronouncingLexicon,
) -> tuple[Tensor, Tensor, Tensor]:
    """Word-head negative log likelihood plus weighted phoneme-head KL.

    The phoneme term sums, over teacher-forcing steps whose target piece has
    a supervision row (:meth:`Model.supervision_log`: not a special piece,
    and not phonetically disjoint from the vocabulary), the KL divergence
    from the phoneme-head distribution to the supervision distribution of
    the step's target piece (floored outside its support).
    """
    graph = _loss_graph(batch, model, lexicon)
    return graph.l_tot, graph.l_n, graph.l_ph


def backward_and_check(
    model: Model,
    batch: Sequence[AlignedExample],
    lexicon: PronouncingLexicon,
    check_coords: int = 0,
    check_seed: int = 0,
) -> tuple[dict[str, np.ndarray], Optional[float]]:
    """Gradients of the total loss, optionally audited by finite differences.

    When ``check_coords`` > 0, that many randomly chosen parameter
    coordinates are re-derived with central differences at ``_FD_STEP`` and
    the maximum relative error (guarded at unit scale) is returned beside
    the gradients; otherwise None is.
    """
    graph = _loss_graph(batch, model, lexicon)
    ad.backward(graph.l_tot)
    grads: dict[str, np.ndarray] = {}
    for name, leaf in graph.params.items():
        g = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradientError(f"gradient for {name} contains non-finite values")
        grads[name] = g

    if check_coords <= 0:
        return grads, None

    def loss_value() -> float:
        return float(_loss_graph(batch, model, lexicon, needs_grad=False).l_tot.data)

    rng = np.random.default_rng(check_seed)
    names = sorted(model.params)
    max_rel = 0.0
    for _ in range(check_coords):
        name = names[int(rng.integers(len(names)))]
        array = model.params[name]
        flat = int(rng.integers(array.size))
        original = array.flat[flat]
        array.flat[flat] = original + _FD_STEP
        up = loss_value()
        array.flat[flat] = original - _FD_STEP
        down = loss_value()
        array.flat[flat] = original
        fd = (up - down) / (2.0 * _FD_STEP)
        adg = float(grads[name].flat[flat])
        max_rel = max(max_rel, abs(adg - fd) / max(abs(adg), abs(fd), 1.0))
    return grads, max_rel
