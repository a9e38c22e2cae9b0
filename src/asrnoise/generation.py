"""Constrained decoding of noise spans and pseudo-transcript assembly.

Corrupted positions each decode a short token span ending in [EOS]; the
span's length classifies the error (one token is a deletion, two a
substitution, more an insertion).  Untouched positions pass through, and
:func:`corpus.detokenize` rebuilds the surface text.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

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


def _pick_greedy(p: np.ndarray) -> int:
    # lowest index wins ties
    return int(np.argmax(p))


def _pick_sample(p: np.ndarray, temperature: float, rng: np.random.Generator) -> int:
    # divide by the largest probability before the power: at a tiny
    # temperature the likeliest token keeps weight 1 and the others
    # underflow to 0, the weight a token of probability 0 has at any
    # temperature
    with np.errstate(invalid="ignore", divide="ignore"):
        weights = (p / p.max()) ** (1.0 / temperature)
    # Generator.choice(len(weights), p=weights / weights.sum()) draws this
    # way, one uniform per call, up to rounding and without re-validating
    # the distribution each step.  The draw stays below cdf[-1] >= 1, so a
    # zero-weight token is never picked.  The sign is checked on p itself:
    # dividing by a negative maximum would turn an all-negative p positive.
    cdf = weights.cumsum()
    if not (p.min() >= 0.0 and np.isfinite(cdf[-1])):
        raise ValueError("sampling weights must be finite and non-negative")
    return int(cdf.searchsorted(rng.random() * cdf[-1], side="right"))


@dataclass(frozen=True)
class EncodedSentence:
    """One sentence as its spans read it: the encoder rows ``[1, n, d]``,
    the decoder's cross-attention keys and values of them, and
    ``first_step``, which maps each position encoded for decoding to the
    combined generation distribution ``[V]`` of its span's first step."""

    rows: Tensor
    memory: tuple[Tensor, Tensor]
    first_step: dict[int, np.ndarray]


@dataclass(frozen=True)
class SpanDecoder:
    """What decoding reads from a model and never changes: the parameters as
    tensors that need no gradient, the head tables of
    :func:`model.head_tables`, and the token-query table ``[V, d]``, whose
    row ``v`` is piece ``v``'s decoder input embedding
    (:func:`model._token_embeddings`).  Build it after the last change to the
    parameters: the tables are gathered copies.
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

    def encode(self, piece_ids: Sequence[int], positions: Sequence[int]) -> EncodedSentence:
        """Encode one sentence, project its rows to the decoder's keys and
        values, and decode the first step of the spans at ``positions`` at
        once: their ``m`` start rows through one decoder call and one heads
        call, so the cost scales with the spans, not the sentence."""
        model, params = self.model, self.params
        config, rows_map = model.config, model.code_index.token_rows
        positions = list(positions)
        n = len(piece_ids)
        if not positions or not all(0 <= k < n for k in positions):
            raise IndexError(f"positions {positions} must be a non-empty subset of a sentence of {n} tokens")
        e_in = embed_sequence([list(piece_ids)], params, config, rows_map)
        e_enc = encode(e_in, params, config)
        memory = decoder_memory(e_enc, params)
        start = decoder_start(ad.select(e_enc, [[0] * len(positions)], [positions]), params)
        hidden = decoder_hidden(start, [()], memory, params, config, rows_map)
        _, _, p_gen = step_distributions(ad.rows(hidden, 0), self.tables, model.special_mask)
        return EncodedSentence(e_enc, memory, dict(zip(positions, p_gen.data)))


def generate_span(
    sentence: EncodedSentence,
    decoder: SpanDecoder,
    position: int,
    original: str = "",
    mode: str = GREEDY,
    temperature: float = 1.0,
    seed: int = 0,
) -> GeneratedSpan:
    """Decode the noise span of row ``position`` of an encoded sentence from
    the combined generation distribution.

    Query rows never attend to each other, so step 0 depends only on the
    sentence and the position, and reads the sentence's ``first_step`` entry
    of ``position``, which must be one of the positions it was encoded with.
    Each step t >= 1 computes only its live query row: the previous token's
    row of the decoder's token-query table plus position row t, the same
    elementwise sum the decoder takes for a prefix row.  The decoder block
    runs over that one row against the sentence's fixed keys and values, and
    the two heads over its output from the decoder's fixed tables.  Greedy
    mode takes the argmax each step (lowest index on ties); sample mode
    draws from the temperature-scaled distribution with a generator keyed by
    (seed, position).  [EOS] is forced once the span reaches the maximum
    generation length, so decoding always terminates.
    """
    check_decoding(mode, temperature)
    if position not in sentence.first_step:
        n = sentence.rows.data.shape[1]
        raise IndexError(f"position {position} of a sentence of {n} tokens was not encoded for decoding")
    model, params = decoder.model, decoder.params
    config = model.config
    vocab = model.vocab
    rows_map = model.code_index.token_rows
    rng = np.random.default_rng(derive_seed(seed, position)) if mode == SAMPLE else None

    m_pos = params["m_pos"].data
    probs = sentence.first_step[position]
    generated: list[int] = []
    # pick the span's t-th token, then run step t over its query row; after
    # max_gen_len - 1 picks the last token, [EOS], is forced instead
    for t in range(1, config.max_gen_len):
        if mode == GREEDY:
            token = _pick_greedy(probs)
        else:
            token = _pick_sample(probs, temperature, rng)
        generated.append(token)
        if token == vocab.eos_id or t == config.max_gen_len - 1:
            break
        live = Tensor((decoder.token_queries[token] + m_pos[t])[None, None], needs_grad=False)
        hidden = decoder_hidden(live, [()], sentence.memory, params, config, rows_map)
        _, _, p_gen = step_distributions(ad.select(hidden, [0], [0]), decoder.tables, model.special_mask)
        probs = p_gen.data[0]
    if not generated or generated[-1] != vocab.eos_id:
        generated.append(vocab.eos_id)

    surfaces = tuple(vocab.surface(t) for t in generated)
    return GeneratedSpan(
        position=position,
        original=original,
        token_ids=tuple(generated),
        surfaces=surfaces,
        error_type=classify_error(len(generated), config.max_gen_len),
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
    per call (:class:`SpanDecoder`); the encoder rows, the decoder's keys
    and values, and the first decode step of every corrupted position once
    per sentence with one (:meth:`SpanDecoder.encode`); and the
    decoder block over one live query row, and the heads over its output,
    once per later step of :func:`generate_span`.  A sentence's work reads
    nothing of another sentence.
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
            sentence = decoder.encode([t.piece_id for t in tokens], plan.corrupted_positions)
            for k in plan.corrupted_positions:
                spans.append(
                    generate_span(
                        sentence,
                        decoder,
                        position=k,
                        original=tokens[k].surface,
                        mode=mode,
                        temperature=temperature,
                        seed=sentence_seed,
                    )
                )
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
