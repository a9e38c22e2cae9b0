"""Constrained decoding of noise spans and pseudo-transcript assembly.

Corrupted positions each decode a short token span ending in [EOS]; the
span's length classifies the error (one token is a deletion, two a
substitution, more an insertion), so a :class:`GeneratedSpan` keeps its
tokens and derives its error type from them.  A :class:`SpanDecoder` holds
one call's decode mode and temperature, checked once.  The spans of a chunk
of sentences decode together, one step at a time over the rows still live.
Untouched positions pass through, and :func:`corpus.detokenize` rebuilds the
surface text.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import (
    DELETION,
    INSERTION,
    SUBSTITUTION,
    Token,
    TokenSeq,
    detokenize,
    label_from_length,
    tokenize,
)
from .errors import PlanMismatchError
from .intervention import CorruptionPlan, check_prior, sample_plan_interventional
from .model import (
    HeadTables,
    Model,
    _token_embeddings,
    _wrap_params,
    decoder_hidden,
    decoder_memory,
    decoder_start,
    embed_sequence,
    encode,
    head_tables,
    step_distributions,
)
from .rng import check_seed, derive_seed, uniforms_at
from .textio import write_lines

GREEDY = "greedy"
SAMPLE = "sample"


class ErrorType(Enum):
    """The corpus error labels of :func:`corpus.label_from_length`."""

    DELETION = DELETION
    SUBSTITUTION = SUBSTITUTION
    INSERTION = INSERTION


@dataclass(frozen=True)
class GeneratedSpan:
    """Decoder output for one corrupted position: the token ids and their
    surfaces, the terminating [EOS] included, that replace the token
    ``original``.  The error type and the replacement text are read from the
    tokens, so a record cannot disagree with them.
    """

    position: int
    original: str
    token_ids: tuple[int, ...]
    surfaces: tuple[str, ...]

    @property
    def m(self) -> int:
        return len(self.token_ids)

    @property
    def error_type(self) -> ErrorType:
        return ErrorType(label_from_length(self.m))

    @property
    def replacement(self) -> str:
        """The surface form that substitutes ``original``."""
        return detokenize(map(Token, self.token_ids[:-1], self.surfaces[:-1]))


def check_decoding(mode: str, temperature: float) -> None:
    """Reject an unknown decode mode, or in sample mode a temperature that is
    not positive and finite: at an infinite one every piece, [BOS] and [UNK]
    included, would get weight 1."""
    if mode not in (GREEDY, SAMPLE):
        raise ValueError(f"unknown decode mode {mode!r}")
    if mode == SAMPLE and not 0.0 < temperature < math.inf:
        raise ValueError(f"sampling temperature must be positive and finite, got {temperature}")


def _pick(p: np.ndarray, temperature: float, u: Optional[np.ndarray]) -> np.ndarray:
    """Each row's token of the distributions ``p`` ``[s, V]``: without
    uniforms ``u`` the argmax (lowest index wins ties), else a draw from the
    temperature-scaled weights with row ``i``'s uniform ``u[i]`` in [0, 1).

    The weights divide by the row's largest probability before the power: at
    a tiny temperature the likeliest token keeps weight 1 and the others
    underflow to 0, the weight a token of probability 0 has at any
    temperature.  ``Generator.choice(V, p=weights / weights.sum())`` draws
    this way, one uniform per draw, up to rounding and without re-validating
    the distribution each step: the draw is the count of cumulative weights
    at or below ``u * cdf[-1]``, which stays below ``cdf[-1]``, so a
    zero-weight token is never picked.  The sign is checked on ``p`` itself:
    dividing by a negative maximum would turn an all-negative row positive.
    """
    if u is None:
        return p.argmax(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        cdf = p / p.max(axis=1, keepdims=True)
        cdf **= 1.0 / temperature
    np.cumsum(cdf, axis=1, out=cdf)
    if not (p.min() >= 0.0 and np.isfinite(cdf[:, -1]).all()):
        raise ValueError("sampling weights must be finite and non-negative")
    return np.count_nonzero(cdf <= (u * cdf[:, -1])[:, None], axis=1)


#: Most span rows one chunk of sentences decodes together.  Each live row
#: holds about five float64 ``[V]`` arrays at once in the heads and the
#: pick (the two heads' distributions, the combined one, the sampling
#: weights and a bias-add temporary), so the cap bounds a step's memory.
#: A sentence with more corrupted positions decodes alone.
CHUNK_ROWS = 128


@dataclass(frozen=True)
class SpanDecoder:
    """What decoding reads and never changes within a call: the parameters
    as tensors that need no gradient, the head tables of
    :func:`model.head_tables`, the token-query table ``[V, d]``, whose row
    ``v`` is piece ``v``'s decoder input embedding
    (:func:`model._token_embeddings`), and the decode ``mode`` and
    ``temperature``, checked once by :meth:`build`.  Build it after the last
    change to the parameters: the tables are gathered copies.
    :meth:`encode` starts a chunk of sentences' decode.
    """

    model: Model
    params: dict[str, Tensor]
    tables: HeadTables
    token_queries: np.ndarray
    mode: str
    temperature: float

    @classmethod
    def build(cls, model: Model, mode: str, temperature: float) -> "SpanDecoder":
        check_decoding(mode, temperature)
        config, rows_map = model.config, model.code_index.token_rows
        params = _wrap_params(model.params, needs_grad=False)
        token_queries = _token_embeddings(np.arange(len(model.vocab)), params, config, rows_map).data
        return cls(model, params, head_tables(params, config, rows_map), token_queries, mode, temperature)

    def encode(self, sentences: Sequence[tuple[Sequence[int], Sequence[int], int]]) -> "SpanChunk":
        """Encode a chunk of sentences of one length, each given as its piece
        ids, the positions whose spans to decode and the seed that keys their
        draws, and project the encoder rows to the decoder's keys and values.
        The chunk is encoded in one call, with no padding and no grid, so
        a sentence's rows are the same bits in any chunk.  Returns the
        :class:`SpanChunk`, whose sentence ``i`` is ``sentences[i]``.  Raises
        :class:`ValueError` if the sentences differ in length."""
        model, params = self.model, self.params
        config, rows_map = model.config, model.code_index.token_rows
        lengths = sorted({len(piece_ids) for piece_ids, _, _ in sentences})
        if len(lengths) != 1:
            raise ValueError(f"a chunk's sentences must have one length, got lengths {lengths}")
        [n] = lengths
        positions = [tuple(p) for _, p, _ in sentences]
        for ks in positions:
            if not ks or not all(0 <= k < n for k in ks):
                raise IndexError(f"positions {list(ks)} must be a non-empty subset of a sentence of {n} tokens")
        ids = np.array([piece_ids for piece_ids, _, _ in sentences], dtype=np.intp)
        e_enc = encode(embed_sequence(ids, params, config, rows_map), params, config)
        return SpanChunk(
            self,
            e_enc,
            decoder_memory(e_enc, params),
            np.repeat(np.arange(len(sentences)), [len(ks) for ks in positions]),
            np.asarray([k for ks in positions for k in ks], dtype=np.intp),
            np.asarray([seed for _, _, seed in sentences], dtype=np.uint64),
        )


@dataclass(frozen=True)
class SpanChunk:
    """The spans of a chunk of ``B`` sentences of ``n`` tokens each: the
    encoder rows ``[B, n, d]``, the decoder's cross-attention keys and values
    of them, and one span row per corrupted position: its sentence ``which``
    (in ``range(B)``), its position ``where``, and each sentence's ``seed``,
    which keys its draws; the mode and temperature are the ``decoder``'s.

    :meth:`token_ids` decodes every span of the chunk at once on its first
    call and keeps the result.  The decode thus runs inside the chunk's
    first :func:`generate_span`: the benchmark's tracer, which wraps that
    function from outside the package, counts and times the decode steps it
    finds there.
    """

    decoder: SpanDecoder
    rows: Tensor
    memory: tuple[Tensor, Tensor]
    which: np.ndarray
    where: np.ndarray
    seeds: np.ndarray
    _token_ids: dict[tuple[int, int], tuple[int, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def token_ids(self, sentence: int, position: int) -> tuple[int, ...]:
        """The token ids, [EOS] included, of the span at ``position`` of the
        chunk's sentence ``sentence``; IndexError for a span it does not hold."""
        if not self._token_ids:
            self._token_ids.update(zip(zip(self.which.tolist(), self.where.tolist()), self._decode()))
        if (sentence, position) not in self._token_ids:
            b, n = self.rows.data.shape[:2]
            raise IndexError(f"position {position} of a sentence of {n} tokens was not encoded for decoding "
                             f"(sentence {sentence} of a chunk of {b})")
        return self._token_ids[sentence, position]

    def _decode(self) -> list[tuple[int, ...]]:
        """Decode every span step-synchronously, one decoder call and one
        heads call per step over the live query rows ``[s, 1, d]``.

        Each row is a batch entry of its own and attends to its sentence's
        keys and values, gathered by ``which``, so a row's step depends only
        on its sentence, its position and its own span.  Step 0's rows are
        the positions' start rows (:func:`model.decoder_start`); a later
        step's row is the previous token's row of the decoder's token-query
        table plus position row t, the same elementwise sum the decoder
        takes for a prefix row.  Each step picks every live row's token in
        one :func:`_pick`: greedy mode takes the argmax and draws nothing;
        sample mode draws step t of the span at position k with the uniform
        of :func:`rng.uniforms_at` under its sentence's seed at counter
        ``(k + 1) * 2**32 + t``, the chunk's uniforms in one call.  A span
        leaves the live set at [EOS]; one still live after
        ``max_gen_len - 1`` tokens gets [EOS] forced, so decoding always
        terminates.
        """
        decoder, which = self.decoder, self.which
        model, params = decoder.model, decoder.params
        config, rows_map, eos = model.config, model.code_index.token_rows, model.vocab.eos_id
        steps = config.max_gen_len - 1
        u = None
        if decoder.mode == SAMPLE:
            u = uniforms_at(self.seeds[which][:, None], (self.where[:, None] + 1) * 2**32 + np.arange(steps))
        keys, values = self.memory
        m_pos = params["m_pos"].data
        ids: list[list[int]] = [[] for _ in which]
        live = np.arange(len(which))
        query = decoder_start(Tensor(self.rows.data[which, self.where][:, None], needs_grad=False), params)
        for t in range(steps):
            sentences = which[live]
            memory = (ad.rows(keys, sentences), ad.rows(values, sentences))
            hidden = decoder_hidden(query, [()] * live.size, memory, params, config, rows_map)
            _, _, p_gen = step_distributions(hidden, decoder.tables, model.special_mask)
            picks = _pick(p_gen[:, 0], decoder.temperature, None if u is None else u[live, t])
            for i, token in zip(live.tolist(), picks.tolist()):
                ids[i].append(token)
            going = picks != eos
            live, picks = live[going], picks[going]
            if not live.size or t + 1 == steps:
                break
            query = Tensor((decoder.token_queries[picks] + m_pos[t + 1])[:, None], needs_grad=False)
        for i in live.tolist():
            ids[i].append(eos)
        return [tuple(span) for span in ids]


def generate_span(chunk: SpanChunk, sentence: int, position: int, original: str) -> GeneratedSpan:
    """The record of the span the chunk's sentence ``sentence`` decoded at
    ``position`` to replace the token ``original``: its token ids and their
    surfaces, [EOS] included.  Raises :class:`IndexError` for a sentence or
    position the chunk was not encoded to decode."""
    generated = chunk.token_ids(sentence, position)
    surfaces = tuple(map(chunk.decoder.model.vocab.surface, generated))
    return GeneratedSpan(position, original, generated, surfaces)


def assemble(tokens: TokenSeq, plan: CorruptionPlan, spans: Sequence[GeneratedSpan]) -> str:
    """Rebuild surface text with corrupted positions replaced by their spans.

    Spans must cover exactly the corrupted positions of the plan.
    """
    if len(plan) != len(tokens):
        raise PlanMismatchError(f"plan covers {len(plan)} tokens, sentence has {len(tokens)}")
    by_position = {span.position: span for span in spans}
    if len(by_position) != len(spans):
        raise PlanMismatchError("duplicate span positions")
    expected = set(plan.corrupted_positions)
    if set(by_position) != expected:
        raise PlanMismatchError(
            f"spans cover positions {sorted(by_position)}, plan corrupts {sorted(expected)}"
        )
    stream: list[Token] = []
    for k, token in enumerate(tokens):
        if not plan.z[k]:
            stream.append(token)
            continue
        span = by_position[k]
        stream.extend(map(Token, span.token_ids[:-1], span.surfaces[:-1]))
    return detokenize(stream)


@dataclass(frozen=True)
class SpanRecord:
    sentence_id: str
    span: GeneratedSpan


def _chunks(sentences: Sequence[tuple]) -> Iterator[list[tuple]]:
    """Consecutive runs of ``sentences``, each an ``(index, tokens, plan,
    seed)`` tuple, stably sorted by token count: each run holds sentences of
    one count and at most :data:`CHUNK_ROWS` corrupted positions together; a
    sentence with more forms a chunk alone."""
    chunk: list[tuple] = []
    rows = 0
    for sentence in sorted(sentences, key=lambda s: len(s[1])):
        m = sentence[2].corruption_count
        if chunk and (rows + m > CHUNK_ROWS or len(sentence[1]) != len(chunk[0][1])):
            yield chunk
            chunk, rows = [], 0
        chunk.append(sentence)
        rows += m
    if chunk:
        yield chunk


def corrupt_corpus(
    texts: Sequence[str],
    model: Model,
    p_z: float,
    seed: int,
    mode: str = SAMPLE,
    temperature: float = 1.0,
) -> tuple[list[str], list[SpanRecord]]:
    """Corrupt every text: tokenize, sample a plan, decode spans, reassemble.

    Deterministic for a fixed ``seed``, an integer in [0, 2**64) (a larger
    one would repeat its low 64 bits).  Sentence ``i``'s seed derives from
    ``seed`` and ``i``, its index within this call.  A sentence decodes the
    same spans whichever chunk it lands in: alone, in a leading shard
    (``texts[:k]``) or in the whole corpus.  Its plan and draws are keyed by
    its seed, position and step alone, each of its query rows is a batch
    entry of its own, and a chunk holds sentences of one length, encoded
    unpadded, so every step distribution is the same bits as decoded alone.
    Outputs and records keep the input order.  A later shard, whose indices
    restart at 0, draws other plans and spans.  A text of more than
    ``max_len`` tokens, which the model cannot encode, passes through
    tokenized and detokenized, with no plan sampled and no span decoded.

    Work is done once at the level where it stops changing: each distinct
    word's segmentation once per vocabulary (:func:`corpus.tokenize_word`);
    the check of ``mode`` and ``temperature``, the gradient-free
    parameters, the head tables and the token-query table once per call
    (:class:`SpanDecoder`); a plan per sentence; the encoder rows, the
    decoder's keys and values and the sampled draws once per chunk of
    sentences of one length holding at most :data:`CHUNK_ROWS` corrupted
    positions (:meth:`SpanDecoder.encode`); and the decoder block and the
    heads once per step of the chunk's longest span, over the live query
    rows of all its spans at once (:class:`SpanChunk`).
    """
    decoder = SpanDecoder.build(model, mode, temperature)
    check_prior(p_z, "corruption prior")
    check_seed(seed)
    config = model.config
    outputs: list[str] = []
    corrupted: list[tuple[int, TokenSeq, CorruptionPlan, int]] = []
    for idx, text in enumerate(texts):
        tokens = tokenize(text, model.vocab)
        if len(tokens) > config.max_len:
            outputs.append(detokenize(tokens))
            continue
        sentence_seed = derive_seed(seed, idx)
        plan = sample_plan_interventional(tokens, p_z, sentence_seed)
        if plan.corruption_count:
            corrupted.append((idx, tokens, plan, sentence_seed))
        # a corrupted sentence's text is assembled once its chunk decodes
        outputs.append("" if plan.corruption_count else assemble(tokens, plan, []))
    spans_of: dict[int, list[GeneratedSpan]] = {}
    for group in _chunks(corrupted):
        chunk = decoder.encode([([t.piece_id for t in tokens], plan.corrupted_positions, sentence_seed)
                                for _, tokens, plan, sentence_seed in group])
        for i, (idx, tokens, plan, _) in enumerate(group):
            spans_of[idx] = [generate_span(chunk, i, k, tokens[k].surface) for k in plan.corrupted_positions]
            outputs[idx] = assemble(tokens, plan, spans_of[idx])
    records = [SpanRecord(str(idx), span) for idx, *_ in corrupted for span in spans_of[idx]]
    return outputs, records


def save_span_report(path, records: Sequence[SpanRecord], header: str = "") -> None:
    """TSV: sentence_id, position, original, replacement, error_type."""
    lines = ["sentence_id\tposition\toriginal\treplacement\terror_type"]
    for rec in records:
        s = rec.span
        lines.append(f"{rec.sentence_id}\t{s.position}\t{s.original}\t{s.replacement}\t{s.error_type.value}")
    write_lines(path, lines, header)
