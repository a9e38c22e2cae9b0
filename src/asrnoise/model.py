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

Every block function takes either sentences of one length, one batch entry
each (``[B, n, d]``), as decoding passes them, or packed rows with the
``ad.Grid`` that groups them, as training passes them.  Training builds one
graph per batch over its real rows alone: the batch's distinct sentences are
embedded and encoded as one ``[R, d]`` matrix of their ``R`` tokens, the
decoder's keys and values are projected once from those rows, and the
teacher-forced steps are ``S`` decoder query rows ``[S, d]``: every item's
start row, then every item's prefix rows.  Only ``ad.attention`` lays the
rows out in a ``[sentences, longest]`` grid: each query attends over its
own sentence's keys, and the empty cells get -inf scores, so exactly zero
weight.  No padded row is projected, normalized, fed forward or scored by
a head.  The loss is two engine ops over the ``S`` steps: ``nll`` of the
word head at the targets, plus ``lambda_ph`` times ``kl`` from the phoneme
head to each supervised step's floored supervision distribution.

Decoding encodes a chunk of sentences of one length, unpadded and without a
grid.  Query rows never attend to each other, so a step's row depends
only on the previous token, the step and the sentence, and step 0 only on
the sentence and the position.  Each span is thus one batch entry of its
own: its query row ``[1, d]`` attends to its sentence's keys and values,
gathered by sentence, and a sentence decodes to the same bits alone, in a
leading shard or in the whole corpus.  Step 0 runs every corrupted
position's start row through one :func:`decoder_hidden` call
(``[S, 1, d]``, empty prefixes) and one :func:`step_distributions` call.
Each later step runs only what the newest token changes: the block's query
side over the live rows, each the previous token's
:func:`_token_embeddings` row plus a position row, and the two heads over
their output.

Training and decoding run the same functions, training once per batch.
Decoding wraps the parameters as tensors that need no gradient, so its
forward passes build no graph; :func:`step_distributions` combines the heads
in plain numpy because no loss differentiates the combination.

Everything runs in float64 through the in-package autodiff engine, so
training is deterministic and gradients can be checked against central
finite differences; the tests' oracles (``tests/oracles.py``) hold that
audit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import SPECIALS, AlignedExample, SubwordVocab
from .errors import DegenerateSupportError, PrefixTooLongError, SequenceTooLongError
from .phonetics import PronouncingLexicon, code_key, g2p, supervision_distribution
from .rng import check_seed as _check_seed

_SPECIAL_CODES = {piece: f"<{piece[1:-1].lower()}>" for piece in SPECIALS}

#: Floor applied to supervision entries outside their support so the
#: phoneme-head KL term stays finite.
R_FLOOR = 1e-12

_SMALLEST = np.finfo(np.float64).smallest_subnormal

#: Standard deviation of the normal draws that initialize weight parameters.
_INIT_STD = 0.02


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
        # a checkpoint header is outside input, so types are checked too:
        # any int is a real number here, but a bool is only a bool
        for f in fields(self):
            value = getattr(self, f.name)
            kinds = {"int": int, "float": (int, float), "bool": bool}[f.type]
            if not isinstance(value, kinds) or (isinstance(value, bool) and f.type != "bool"):
                raise ValueError(f"{f.name} must be of type {f.type}, not {value!r}")
        if self.n_heads < 1 or self.d_model < 1 or self.d_model % self.n_heads != 0:
            raise ValueError("d_model and n_heads must be positive, and n_heads must divide d_model")
        if self.max_gen_len < 1 or self.max_len < 1:
            raise ValueError("max_gen_len and max_len must be at least 1")
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
        is not one), which the cast to ``intp`` would truncate silently, or
        that lies outside ``intp``'s range."""
        if not all(isinstance(row, (int, np.integer)) and not isinstance(row, bool) for row in token_rows):
            raise ValueError("every token row must be an integer")
        self.codes: list[str] = list(codes)
        try:
            self.token_rows: np.ndarray = np.asarray(token_rows, dtype=np.intp)
        except OverflowError as exc:
            raise ValueError(f"a token row does not fit in intp: {exc}") from None

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
        _check_seed(seed)
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
    grid: Optional[ad.Grid] = None,
) -> Tensor:
    """Input embeddings: word/phoneme convex mix plus position rows.

    Ids ``[B, n]`` of sentences of one length give ``[B, n, d]``.  With
    ``grid``, the ids are the packed tokens ``[R]`` of sentences of any
    lengths, one group of ``grid`` per sentence, so each token's position is
    its slot, and the result is ``[R, d]``.
    """
    ids = np.asarray(token_ids, dtype=np.intp)
    n = ids.shape[-1] if grid is None else grid.shape[1]
    if n > config.max_len:
        raise SequenceTooLongError(f"sequence of {n} tokens exceeds max_len={config.max_len}")
    positions = ad.rows(params["m_pos"], np.arange(n) if grid is None else grid.slots)
    return ad.add(_token_embeddings(ids, params, config, token_code_rows), positions)


def _key_values(kv_in: Tensor, params: dict[str, Tensor], prefix: str) -> tuple[Tensor, Tensor]:
    """The block's key and value projections of ``kv_in`` (``[B, m, d]`` or
    packed ``[R, d]``)."""
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
    grids: Optional[tuple[ad.Grid, ad.Grid]] = None,
) -> Tensor:
    """Post-layer-norm attention and feed-forward block.

    Queries ``[B, n, d]`` attend over ``memory``, the keys and values
    ``[B, m, d]`` of :func:`_key_values`.  With ``grids``, queries and
    memory are packed rows that ``ad.attention`` groups by ``grids``;
    everything else in the block is row-wise, so it sees only those rows.
    """
    q = ad.linear(q_in, params[prefix + "wq"], params[prefix + "bq"])
    heads = ad.attention(q, *memory, config.n_heads, grids)
    attn = ad.linear(heads, params[prefix + "wo"], params[prefix + "bo"])
    h1 = ad.layer_norm(ad.add(q_in, attn), params[prefix + "ln1_g"], params[prefix + "ln1_b"])
    inner = ad.gelu(ad.linear(h1, params[prefix + "w1"], params[prefix + "b1"]))
    ffn = ad.linear(inner, params[prefix + "w2"], params[prefix + "b2"])
    return ad.layer_norm(ad.add(h1, ffn), params[prefix + "ln2_g"], params[prefix + "ln2_b"])


def encode(
    e_in: Tensor,
    params: dict[str, Tensor],
    config: ModelConfig,
    grid: Optional[ad.Grid] = None,
) -> Tensor:
    """One self-attention block; output rows align with input rows.

    ``e_in`` is sentences of one length ``[B, n, d]``, or with ``grid`` the
    packed rows ``[R, d]`` of sentences of any lengths, one group of
    ``grid`` per sentence.  A packed row attends only over its own
    sentence's rows, and the projections, layer norms and feed-forward run
    on the ``R`` real rows alone.
    """
    grids = None if grid is None else (grid, grid)
    return _attention_ffn_block(e_in, _key_values(e_in, params, "enc_"), params, "enc_", config, grids)


def decoder_memory(e_encoder: Tensor, params: dict[str, Tensor]) -> tuple[Tensor, Tensor]:
    """The decoder's cross-attention keys and values of encoder rows
    (``[B, n, d]`` or packed ``[R, d]``): fixed for a sentence, whatever its
    spans generate."""
    return _key_values(e_encoder, params, "dec_")


def decoder_start(e_k: Tensor, params: dict[str, Tensor]) -> Tensor:
    """First query rows ``[..., d]`` of the spans at encoder rows ``e_k``
    ``[..., d]``: each row beside the start embedding, through ``dec_h``,
    plus position 0; fixed for a span, whatever it generates.  Training
    passes each span's corrupted row ``[N, d]``, decoding ``[N, 1, d]``."""
    bos = ad.rows(params["bos_emb"], np.zeros(e_k.data.shape[:-1], dtype=np.intp))
    return ad.linear(ad.concat([e_k, bos], axis=-1), params["dec_h"], ad.rows(params["m_pos"], [0]))


def decoder_hidden(
    start: Tensor,
    generated_ids,
    memory: tuple[Tensor, Tensor],
    params: dict[str, Tensor],
    config: ModelConfig,
    token_code_rows: np.ndarray,
    grids: Optional[tuple[ad.Grid, ad.Grid]] = None,
) -> Tensor:
    """Hidden states of every query row of ``len(generated_ids)`` spans (no
    cross-position mixing).

    A span's query rows are its start row, from :func:`decoder_start`, and
    one row per token of its prefix in ``generated_ids``: the token's
    :func:`_token_embeddings` row plus its position row.  That sum passed
    as ``start`` with an empty prefix, as decoding passes each live span's
    row, gives the same row up to the last bits of the block's products.

    With ``grids`` = ``(step_grid, sentence_grid)``, as training calls it,
    ``start`` is ``[N, d]``, the prefixes have any lengths, ``memory`` is
    :func:`decoder_memory` of the packed encoder rows that
    ``sentence_grid`` groups by sentence, and the result is the packed
    query rows ``[S, d]``: the ``N`` start rows, then every span's prefix
    rows, span by span.  ``step_grid`` places those ``S`` rows in their
    span's sentence group, so each attends over its own sentence's keys and
    values.  Without ``grids``, as decoding calls it, every prefix is empty:
    ``start`` is the live rows ``[s, 1, d]``, one batch entry per span,
    ``memory`` is :func:`decoder_memory` of ``[s, n, d]`` encoder rows, and
    the result is ``[s, 1, d]``.  Prefix rows exist only in the packed form,
    so a non-empty prefix without ``grids`` raises ValueError.
    """
    lengths = [len(prefix) for prefix in generated_ids]
    n_prev = max(lengths, default=0)
    if 1 + n_prev > config.max_gen_len:
        raise PrefixTooLongError(
            f"prefix of {1 + n_prev} positions exceeds max_gen_len={config.max_gen_len}"
        )
    queries = start
    if n_prev:
        ids = np.fromiter(chain.from_iterable(generated_ids), dtype=np.intp, count=sum(lengths))
        positions = np.concatenate([np.arange(1, n + 1) for n in lengths])
        tok = ad.add(_token_embeddings(ids, params, config, token_code_rows), ad.rows(params["m_pos"], positions))
        queries = ad.concat([start, tok])
    return _attention_ffn_block(queries, memory, params, "dec_", config, grids)


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
    special, eos_row = special_mask
    eos = eos_row.argmax()
    p_n = ad.softmax_in_place(logits_n.data)
    p_ph = None if logits_ph is None else ad.softmax_in_place(logits_ph.data)
    # p_n * (1 - special): the special columns zeroed, the rest kept as they are
    unnorm = p_n.copy()
    unnorm[..., special != 0.0] = 0.0
    content_mass = unnorm.sum(axis=-1, keepdims=True)
    # without a phoneme head every phoneme factor, and so their mean, is 1
    if p_ph is not None:
        unnorm *= p_ph
    # a zero content mass has a zero product mass: its mean factor is 0, not 0/0
    mean_factor = unnorm.sum(axis=-1, keepdims=True) / np.maximum(content_mass, _SMALLEST)
    # [EOS] is special, so its product column is 0 and takes its term alone
    unnorm[..., eos] = p_n[..., eos] * mean_factor[..., 0]
    total = unnorm.sum(axis=-1, keepdims=True)
    if not total.all():
        # a saturated head left every allowed piece of a row zero mass
        unnorm = np.where(total > 0.0, unnorm, eos_row)
        total = unnorm.sum(axis=-1, keepdims=True)
    unnorm /= total
    return p_n, p_ph, unnorm


@dataclass
class LossGraph:
    """One batch's loss terms and the parameter leaves they were built from,
    which hold the gradients after ``ad.backward``.

    ``l_tot`` is ``l_n``, the word head's negative log likelihood, plus
    ``lambda_ph`` times ``l_ph``.  The phoneme term sums, over
    teacher-forcing steps whose target piece has a supervision row
    (:meth:`Model.supervision_log`: not a special piece, and not
    phonetically disjoint from the vocabulary), the KL divergence from the
    phoneme-head distribution to the supervision distribution of the step's
    target piece (floored outside its support).
    """

    l_tot: Tensor
    l_n: Tensor
    l_ph: Tensor
    params: dict[str, Tensor]


def _loss_graph(
    batch: Sequence[AlignedExample],
    model: Model,
    lexicon: PronouncingLexicon,
    needs_grad: bool = True,
) -> LossGraph:
    """Build one graph for the whole batch over its real rows alone.

    The batch's distinct sentences are embedded and encoded as one packed
    matrix of their ``R`` tokens, and the decoder's keys and values are
    projected once from those rows.  The decoder runs the ``S`` teacher-forced
    steps, every item's first step and then every item's later steps, each
    over its own sentence's keys and values, and each step's row is one
    logits row.  Only ``ad.attention`` sees the sentences as a grid
    (:class:`ad.Grid`); every projection, layer norm, feed-forward and head
    computes ``R`` or ``S`` rows, none padded.
    Without ``needs_grad`` only the values are computed and no graph is kept.
    """
    if not batch:
        raise ValueError("cannot build a loss graph for an empty batch")
    config = model.config
    params = _wrap_params(model.params, needs_grad)
    rows_map = model.code_index.token_rows

    # one encoder row per distinct sentence, in order of first appearance
    sentences = list(dict.fromkeys(example.sentence for example in batch))
    slot = {sentence: i for i, sentence in enumerate(sentences)}
    lengths = np.asarray([len(s) for s in sentences], dtype=np.intp)
    tokens = ad.Grid(np.repeat(np.arange(len(sentences)), lengths), len(sentences))
    ids = np.fromiter(chain.from_iterable(sentences), dtype=np.intp, count=int(lengths.sum()))
    e_enc = encode(embed_sequence(ids, params, config, rows_map, tokens), params, config, tokens)

    which = np.asarray([slot[example.sentence] for example in batch], dtype=np.intp)
    where = np.asarray([example.position for example in batch], dtype=np.intp)
    start = decoder_start(ad.rows(e_enc, (np.cumsum(lengths) - lengths)[which] + where), params)
    targets = [example.target_ids for example in batch]
    # every item's start row, then every item's prefix rows, item by item
    steps = ad.Grid(np.concatenate([which, np.repeat(which, [len(t) - 1 for t in targets])]), len(sentences))
    hidden = decoder_hidden(
        start, [t[:-1] for t in targets], decoder_memory(e_enc, params), params, config, rows_map, (steps, tokens)
    )
    logits_n, logits_ph = _head_logits(hidden, head_tables(params, config, rows_map))
    target_ids = np.concatenate([[t[0] for t in targets], *(t[1:] for t in targets)]).astype(np.intp)
    l_n = ad.nll(logits_n, target_ids)

    l_ph = Tensor(0.0, needs_grad=False)
    if logits_ph is not None and config.lambda_ph != 0.0:
        r_logs = [model.supervision_log(tid, lexicon) for tid in target_ids.tolist()]
        step_rows = [n for n, r_log in enumerate(r_logs) if r_log is not None]
        if step_rows:
            l_ph = ad.kl(ad.rows(logits_ph, step_rows), np.asarray([r_logs[n] for n in step_rows]))
    l_tot = ad.add(l_n, ad.mul(Tensor(config.lambda_ph, needs_grad=False), l_ph))
    return LossGraph(l_tot, l_n, l_ph, params)
