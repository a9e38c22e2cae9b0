"""Constrained decoding of noise spans and pseudo-transcript assembly.

Corrupted positions each decode a short token span ending in [EOS]; the
span's length classifies the error (one token is a deletion, two a
substitution, more an insertion).  A sentence's spans decode together, one
step at a time over the rows still live.  Untouched positions pass through,
and :func:`corpus.detokenize` rebuilds the surface text.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

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
from .errors import OutOfRangeError, PlanMismatchError
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
from .rng import derive_seed
from .textio import write_lines

GREEDY = "greedy"
SAMPLE = "sample"


class ErrorType(Enum):
    """The corpus error labels of :func:`corpus.label_from_length`."""

    DELETION = DELETION
    SUBSTITUTION = SUBSTITUTION
    INSERTION = INSERTION


def classify_error(m: int, max_gen_len: int) -> ErrorType:
    """Error type from the generated token count (including [EOS])."""
    if not 1 <= m <= max_gen_len:
        raise OutOfRangeError(f"generated length {m} outside [1, {max_gen_len}]")
    return ErrorType(label_from_length(m))


@dataclass(frozen=True)
class GeneratedSpan:
    """Decoder output for one corrupted position.

    ``token_ids``/``surfaces`` include the terminating [EOS]; ``replacement``
    is the surface form that substitutes the original token.
    """

    position: int
    original: str
    token_ids: tuple[int, ...]
    surfaces: tuple[str, ...]
    error_type: ErrorType
    replacement: str

    @property
    def m(self) -> int:
        return len(self.token_ids)


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
        weights = (p / p.max(axis=1, keepdims=True)) ** (1.0 / temperature)
    cdf = weights.cumsum(axis=1)
    if not (p.min() >= 0.0 and np.isfinite(cdf[:, -1]).all()):
        raise ValueError("sampling weights must be finite and non-negative")
    return (cdf <= (u * cdf[:, -1])[:, None]).sum(axis=1)


@dataclass(frozen=True)
class SpanDecoder:
    """What decoding reads from a model and never changes: the parameters as
    tensors that need no gradient, the head tables of
    :func:`model.head_tables`, and the token-query table ``[V, d]``, whose
    row ``v`` is piece ``v``'s decoder input embedding
    (:func:`model._token_embeddings`).  Build it after the last change to the
    parameters: the tables are gathered copies.  :meth:`encode` starts one
    sentence's decode.
    """

    model: Model
    params: dict[str, Tensor]
    tables: HeadTables
    token_queries: np.ndarray

    @classmethod
    def build(cls, model: Model) -> "SpanDecoder":
        config, rows_map = model.config, model.code_index.token_rows
        params = _wrap_params(model.params, needs_grad=False)
        token_queries = _token_embeddings(np.arange(len(model.vocab)), params, config, rows_map).data
        return cls(model, params, head_tables(params, config, rows_map), token_queries)

    def encode(
        self,
        piece_ids: Sequence[int],
        positions: Sequence[int],
        mode: str = GREEDY,
        temperature: float = 1.0,
        seed: int = 0,
    ) -> "SentenceSpans":
        """Encode one sentence and project its rows to the decoder's keys and
        values, for the spans at ``positions`` to be decoded with ``mode``,
        ``temperature`` and ``seed`` (:class:`SentenceSpans`)."""
        check_decoding(mode, temperature)
        model, params = self.model, self.params
        config, rows_map = model.config, model.code_index.token_rows
        positions = tuple(positions)
        n = len(piece_ids)
        if not positions or not all(0 <= k < n for k in positions):
            raise IndexError(f"positions {list(positions)} must be a non-empty subset of a sentence of {n} tokens")
        e_in = embed_sequence([list(piece_ids)], params, config, rows_map)
        e_enc = encode(e_in, params, config)
        return SentenceSpans(self, e_enc, decoder_memory(e_enc, params), positions, mode, temperature, seed)


@dataclass(frozen=True)
class SentenceSpans:
    """The spans of one sentence's corrupted ``positions``: the encoder rows
    ``[1, n, d]``, the decoder's cross-attention keys and values of them,
    and the decode ``mode``, ``temperature`` and ``seed``.

    :meth:`token_ids` decodes every span at once on its first call and keeps
    the result.  The decode thus runs inside the sentence's first
    :func:`generate_span`: the benchmark's tracer, which wraps that function
    from outside the package, counts and times the decode steps it finds
    there.
    """

    decoder: SpanDecoder
    rows: Tensor
    memory: tuple[Tensor, Tensor]
    positions: tuple[int, ...]
    mode: str
    temperature: float
    seed: int
    _token_ids: dict[int, tuple[int, ...]] = field(default_factory=dict, init=False, repr=False, compare=False)

    def token_ids(self, position: int) -> tuple[int, ...]:
        """The token ids, [EOS] included, of the span at ``position``."""
        if not self._token_ids:
            self._token_ids.update(zip(self.positions, self._decode()))
        if position not in self._token_ids:
            n = self.rows.data.shape[1]
            raise IndexError(f"position {position} of a sentence of {n} tokens was not encoded for decoding")
        return self._token_ids[position]

    def _decode(self) -> list[tuple[int, ...]]:
        """Decode every span step-synchronously, one decoder call and one
        heads call per step over the live query rows ``[1, s, d]``.

        Query rows never attend to each other, so a row's step depends only
        on the sentence, its position and its own span.  Step 0's rows are
        the positions' start rows (:func:`model.decoder_start`); a later
        step's row is the previous token's row of the decoder's token-query
        table plus position row t, the same elementwise sum the decoder takes
        for a prefix row.  Each step picks every live row's token in one
        :func:`_pick`: greedy mode takes the argmax, sample mode draws with
        the span's own generator keyed by (seed, position), one uniform per
        token in order.  A span leaves the live set at [EOS]; one still live
        after ``max_gen_len - 1`` tokens gets [EOS] forced, so decoding
        always terminates.
        """
        decoder, positions = self.decoder, self.positions
        model, params = decoder.model, decoder.params
        config, eos = model.config, model.vocab.eos_id
        steps = config.max_gen_len - 1
        u = None
        if self.mode == SAMPLE:
            u = np.array([np.random.default_rng(derive_seed(self.seed, k)).random(steps) for k in positions])
        m_pos = params["m_pos"].data
        ids: list[list[int]] = [[] for _ in positions]
        live = np.arange(len(positions))
        query = decoder_start(ad.select(self.rows, [[0] * len(positions)], [list(positions)]), params)
        for t in range(steps):
            hidden = decoder_hidden(query, [()], self.memory, params, config, model.code_index.token_rows)
            _, _, p_gen = step_distributions(ad.rows(hidden, 0), decoder.tables, model.special_mask)
            picks = _pick(p_gen.data, self.temperature, None if u is None else u[live, t])
            for i, token in zip(live, picks.tolist()):
                ids[i].append(token)
            going = picks != eos
            live, picks = live[going], picks[going]
            if not live.size or t + 1 == steps:
                break
            query = Tensor((decoder.token_queries[picks] + m_pos[t + 1])[None], needs_grad=False)
        for i in live:
            ids[i].append(eos)
        return [tuple(span) for span in ids]


def generate_span(sentence: SentenceSpans, position: int, original: str = "") -> GeneratedSpan:
    """The record of the span the sentence decoded at ``position``: its token
    ids and surfaces, [EOS] included, its error type, and the surface form
    that replaces ``original``.  Raises :class:`IndexError` for a position
    the sentence was not encoded to decode."""
    generated = sentence.token_ids(position)
    model = sentence.decoder.model
    surfaces = tuple(map(model.vocab.surface, generated))
    return GeneratedSpan(
        position=position,
        original=original,
        token_ids=generated,
        surfaces=surfaces,
        error_type=classify_error(len(generated), model.config.max_gen_len),
        replacement=detokenize(map(Token, generated[:-1], surfaces[:-1])),
    )


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


def corrupt_corpus(
    texts: Sequence[str],
    model: Model,
    p_z: float,
    seed: int,
    mode: str = SAMPLE,
    temperature: float = 1.0,
) -> tuple[list[str], list[SpanRecord]]:
    """Corrupt every text: tokenize, sample a plan, decode spans, reassemble.

    Deterministic for a fixed seed.  Sentence ``i``'s seed derives from
    ``seed`` and ``i``, its index within this call, so a leading shard
    (``texts[:k]``) decodes the same spans alone as inside the whole corpus;
    a later shard, whose indices restart at 0, draws other plans and spans.
    A text of more than ``max_len`` tokens, which the model cannot encode,
    passes through tokenized and detokenized, with no plan sampled and no
    span decoded.

    Work is done once at the level where it stops changing: the
    gradient-free parameters, the head tables and the token-query table once
    per call (:class:`SpanDecoder`); the encoder rows and the decoder's keys
    and values once per sentence (:meth:`SpanDecoder.encode`); and the
    decoder block and the heads once per step of the sentence's longest
    span, over the live query rows of all its spans at once
    (:class:`SentenceSpans`).  A sentence's work reads nothing of another
    sentence.
    """
    check_decoding(mode, temperature)
    check_prior(p_z, "corruption prior")
    decoder = SpanDecoder.build(model)
    config = model.config
    outputs: list[str] = []
    records: list[SpanRecord] = []
    for idx, text in enumerate(texts):
        tokens = tokenize(text, model.vocab)
        if len(tokens) > config.max_len:
            outputs.append(detokenize(tokens))
            continue
        sentence_seed = derive_seed(seed, idx)
        plan = sample_plan_interventional(tokens, p_z, sentence_seed)
        spans: list[GeneratedSpan] = []
        if plan.corruption_count:
            sentence = decoder.encode(
                [t.piece_id for t in tokens], plan.corrupted_positions, mode, temperature, sentence_seed
            )
            spans = [generate_span(sentence, k, tokens[k].surface) for k in plan.corrupted_positions]
        outputs.append(assemble(tokens, plan, spans))
        records.extend(SpanRecord(str(idx), span) for span in spans)
    return outputs, records


def save_span_report(path, records: Sequence[SpanRecord], header: str = "") -> None:
    """TSV: sentence_id, position, original, replacement, error_type."""
    lines = ["sentence_id\tposition\toriginal\treplacement\terror_type"]
    for rec in records:
        s = rec.span
        lines.append(f"{rec.sentence_id}\t{s.position}\t{s.original}\t{s.replacement}\t{s.error_type.value}")
    write_lines(path, lines, header)
