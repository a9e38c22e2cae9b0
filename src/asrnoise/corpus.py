"""Parallel-corpus ingestion: subword vocabulary, tokenization and alignment.

Clean/noisy sentence pairs are normalized, tokenized into subword pieces
(greedy longest match, ``##`` marks continuations) and aligned word by word
with a phonetically weighted edit distance.  Aligned pairs decompose into
per-piece training items: each corrupted piece gets the target token
sequence the generator should produce for it, terminated by ``[EOS]``.

:func:`align_sequences` is the package's one alignment dynamic program.  The
word alignment feeds it phonetic substitution costs; the piece alignment
inside a word pair and the WER/CER scoring in ``evaluation`` feed it unit
costs (:func:`unit_costs`).
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .errors import EmptyCorpusError, SizeTooSmallError
from .phonetics import CONTINUATION_PREFIX, PronouncingLexicon, g2p, phoneme_edit_distance

BOS = "[BOS]"
EOS = "[EOS]"
UNK = "[UNK]"
SPECIALS = (BOS, EOS, UNK)

MATCH = "match"
SUBSTITUTION = "substitution"
INSERTION = "insertion"
DELETION = "deletion"

_NORMALIZE_RE = re.compile(r"[^a-z0-9 ]+")
_WS_RE = re.compile(r"\s+")


def normalize(text: str) -> str:
    """Lowercase, drop punctuation, collapse whitespace."""
    text = _WS_RE.sub(" ", text.lower())
    text = _NORMALIZE_RE.sub(" ", text)
    return _WS_RE.sub(" ", text).strip()


@dataclass(frozen=True)
class ParallelPair:
    """One (clean text, noisy transcript) pair; the transcript may be empty."""

    gt: str
    asr: str
    id: str = ""

    def __post_init__(self):
        if not self.gt.strip():
            raise ValueError("ground-truth side of a pair must be nonempty")


class Token(NamedTuple):
    piece_id: int
    surface: str
    is_continuation: bool


@dataclass(frozen=True)
class TokenSeq:
    tokens: tuple[Token, ...]

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)

    def __getitem__(self, i):
        return self.tokens[i]

    @property
    def surfaces(self) -> tuple[str, ...]:
        return tuple(t.surface for t in self.tokens)

    @property
    def piece_ids(self) -> tuple[int, ...]:
        return tuple(t.piece_id for t in self.tokens)


class SubwordVocab:
    """Ordered piece list with [BOS]/[EOS]/[UNK] specials.

    Single-character pieces serve both word-initial and continuation roles;
    multi-character continuation pieces carry an explicit ``##`` prefix.
    """

    def __init__(self, pieces: Sequence[str]):
        pieces = list(pieces)
        for special in SPECIALS:
            if pieces.count(special) != 1:
                raise ValueError(f"special piece {special} must appear exactly once")
        if len(set(pieces)) != len(pieces):
            raise ValueError("vocabulary pieces must be unique")
        self.pieces: list[str] = pieces
        self.piece_to_id: dict[str, int] = {p: i for i, p in enumerate(pieces)}
        self.bos_id = self.piece_to_id[BOS]
        self.eos_id = self.piece_to_id[EOS]
        self.unk_id = self.piece_to_id[UNK]
        self._initial: dict[str, int] = {}
        self._continuation: dict[str, int] = {}
        for i, p in enumerate(pieces):
            if p in SPECIALS:
                continue
            if p.startswith(CONTINUATION_PREFIX):
                self._continuation[p[len(CONTINUATION_PREFIX):]] = i
            else:
                self._initial[p] = i
        self._max_piece_len = max((len(s) for s in (*self._initial, *self._continuation)), default=1)

    def __len__(self) -> int:
        return len(self.pieces)

    def __contains__(self, piece: str) -> bool:
        return piece in self.piece_to_id

    def surface(self, piece_id: int) -> str:
        return self.pieces[piece_id]

    def save(self, path, header: str = "") -> None:
        with open(path, "w", encoding="utf-8") as fh:
            if header:
                fh.write(f"# {header}\n")
            for piece in self.pieces:
                fh.write(piece + "\n")

    @classmethod
    def load(cls, path) -> "SubwordVocab":
        pieces = []
        with open(path, encoding="utf-8") as fh:
            for raw in fh:
                line = raw.rstrip("\n")
                # comment lines start with a single '#'; pieces use '##'
                if not line or (line.startswith("#") and not line.startswith(CONTINUATION_PREFIX)):
                    continue
                pieces.append(line)
        return cls(pieces)


def _word_symbols(word: str) -> list[str]:
    """Role-marked single-character symbols: ``bad -> [b, ##a, ##d]``."""
    return [word[0]] + [CONTINUATION_PREFIX + ch for ch in word[1:]]


def induce_vocab(texts: Sequence[str], size: int) -> SubwordVocab:
    """Build a subword vocabulary by frequency-greedy merges.

    Starts from all single characters of the normalized corpus; repeatedly
    merges the most frequent adjacent symbol pair (lexicographic tie-break)
    until ``size`` pieces exist or nothing is left to merge.
    """
    word_counts: dict[str, int] = {}
    for text in texts:
        for word in normalize(text).split():
            word_counts[word] = word_counts.get(word, 0) + 1
    if not word_counts:
        raise EmptyCorpusError("cannot induce a vocabulary from an empty corpus")

    charset = sorted({ch for word in word_counts for ch in word})
    if size < len(SPECIALS) + len(charset):
        raise SizeTooSmallError(
            f"size {size} cannot hold {len(SPECIALS)} specials plus {len(charset)} characters"
        )

    pieces: list[str] = [*SPECIALS, *charset]
    known = set(pieces)
    sequences: dict[str, list[str]] = {w: _word_symbols(w) for w in word_counts}

    while len(pieces) < size:
        pair_counts: dict[tuple[str, str], int] = {}
        for word, seq in sequences.items():
            count = word_counts[word]
            for left, right in zip(seq, seq[1:]):
                pair_counts[(left, right)] = pair_counts.get((left, right), 0) + count
        if not pair_counts:
            break
        best_pair = min(pair_counts, key=lambda p: (-pair_counts[p], p))
        left, right = best_pair
        merged = left + right[len(CONTINUATION_PREFIX):]
        if merged not in known:
            pieces.append(merged)
            known.add(merged)
        for word, seq in sequences.items():
            out: list[str] = []
            i = 0
            while i < len(seq):
                if i + 1 < len(seq) and seq[i] == left and seq[i + 1] == right:
                    out.append(merged)
                    i += 2
                else:
                    out.append(seq[i])
                    i += 1
            sequences[word] = out
    return SubwordVocab(pieces)


def tokenize_word(word: str, vocab: SubwordVocab) -> list[Token]:
    """Greedy longest-match segmentation of one normalized word."""
    tokens: list[Token] = []
    pos = 0
    n = len(word)
    while pos < n:
        table = vocab._initial if pos == 0 else vocab._continuation
        match_id = None
        match_len = 0
        limit = min(vocab._max_piece_len, n - pos)
        for length in range(limit, 0, -1):
            cand = word[pos:pos + length]
            pid = table.get(cand)
            if pid is not None:
                match_id, match_len = pid, length
                break
        if match_id is None and pos > 0:
            # single characters double as continuation pieces
            pid = vocab._initial.get(word[pos])
            if pid is not None:
                match_id, match_len = pid, 1
        if match_id is None:
            tokens.append(Token(vocab.unk_id, UNK, pos > 0))
            pos += 1
            continue
        surface = word[pos:pos + match_len]
        if pos > 0:
            surface = CONTINUATION_PREFIX + surface
        tokens.append(Token(match_id, surface, pos > 0))
        pos += match_len
    return tokens


def tokenize(text: str, vocab: SubwordVocab) -> TokenSeq:
    """Normalize and segment a sentence into subword tokens."""
    tokens: list[Token] = []
    for word in normalize(text).split():
        tokens.extend(tokenize_word(word, vocab))
    return TokenSeq(tuple(tokens))


def detokenize(tokens: TokenSeq | Sequence[Token]) -> str:
    """Rebuild surface text; continuation tokens glue onto the current word."""
    words: list[str] = []
    for tok in tokens:
        surface = tok.surface
        if surface.startswith(CONTINUATION_PREFIX):
            surface = surface[len(CONTINUATION_PREFIX):]
        if tok.is_continuation and words:
            words[-1] += surface
        else:
            words.append(surface)
    return " ".join(words)


@dataclass(frozen=True)
class AlignmentEntry:
    """One ground-truth word with the transcript words aligned to it."""

    gt_word: str
    asr_words: tuple[str, ...]
    label: str


def _classify_entry(gt_word: str, asr_words: tuple[str, ...]) -> str:
    if not asr_words:
        return DELETION
    if len(asr_words) == 1:
        return MATCH if asr_words[0] == gt_word else SUBSTITUTION
    return INSERTION


_DIAG, _INS, _DEL = 0, 1, 2


def unit_costs(ref: Sequence[str], hyp: Sequence[str]) -> list[list[int]]:
    """Substitution-cost rows for :func:`align_sequences`: 0 on equal symbols, else 1."""
    return [[0 if r == h else 1 for h in hyp] for r in ref]


def align_sequences(
    sub_costs: Sequence[Sequence[float]], m: int
) -> list[tuple[Optional[int], Optional[int]]]:
    """Minimum-cost alignment of ``len(sub_costs)`` reference items against
    ``m`` hypothesis items.

    ``sub_costs[i][j]`` is the cost of aligning reference item ``i`` with
    hypothesis item ``j``; insertions and deletions cost 1.  Ties prefer the
    diagonal step, then insertion.  Returns the backtrace in order as
    ``(i, j)`` steps: ``(i, None)`` deletes reference item ``i``, ``(None, j)``
    inserts hypothesis item ``j``, and two indices align item ``i`` with ``j``.
    """
    n = len(sub_costs)
    cost = [[0] * (m + 1) for _ in range(n + 1)]
    choice = [[_DIAG] * (m + 1) for _ in range(n + 1)]
    for j in range(1, m + 1):
        cost[0][j] = j
        choice[0][j] = _INS
    for i in range(1, n + 1):
        costs_i = sub_costs[i - 1]
        above, row, row_choice = cost[i - 1], cost[i], choice[i]
        row[0] = i
        row_choice[0] = _DEL
        for j in range(1, m + 1):
            diag = above[j - 1] + costs_i[j - 1]
            ins = row[j - 1] + 1
            dele = above[j] + 1
            if diag <= ins and diag <= dele:
                row[j], row_choice[j] = diag, _DIAG
            elif ins <= dele:
                row[j], row_choice[j] = ins, _INS
            else:
                row[j], row_choice[j] = dele, _DEL
    steps: list[tuple[Optional[int], Optional[int]]] = []
    i, j = n, m
    while i > 0 or j > 0:
        c = choice[i][j]
        if c == _DIAG:
            i, j = i - 1, j - 1
            steps.append((i, j))
        elif c == _INS:
            j -= 1
            steps.append((None, j))
        else:
            i -= 1
            steps.append((i, None))
    steps.reverse()
    return steps


def _group_alignment(steps):
    """Attach inserted items to the preceding slot (leading ones to the first)."""
    groups: list[tuple[int, list[int]]] = []
    leading: list[int] = []
    for i, j in steps:
        if i is None:
            if groups:
                groups[-1][1].append(j)
            else:
                leading.append(j)
        else:
            groups.append((i, [] if j is None else [j]))
    if leading and groups:
        first_i, first_js = groups[0]
        groups[0] = (first_i, leading + first_js)
    return groups


def align_pair(
    gt: str | Sequence[str],
    asr: str | Sequence[str],
    lexicon: PronouncingLexicon,
) -> list[AlignmentEntry]:
    """Word-level alignment of a transcript against its ground truth.

    Substitution cost is the phoneme edit distance normalized by the
    ground-truth code length and clamped to [0, 1]; insertions and deletions
    cost 1, so phonetically close words align as substitutions rather than
    deletion/insertion pairs.  Inserted transcript words attach to the
    preceding ground-truth word.
    """
    gt_words = normalize(gt).split() if isinstance(gt, str) else [w.lower() for w in gt]
    asr_words = normalize(asr).split() if isinstance(asr, str) else [w.lower() for w in asr]
    if not gt_words:
        raise EmptyCorpusError("ground-truth side of an alignment must be nonempty")

    codes = {w: g2p(w, lexicon) for w in set(gt_words) | set(asr_words)}

    def sub_cost(gw: str, aw: str) -> float:
        if gw == aw:
            return 0.0
        d = phoneme_edit_distance(codes[gw], codes[aw])
        return min(d / max(len(codes[gw]), 1), 1.0)

    sub_costs = [[sub_cost(gw, aw) for aw in asr_words] for gw in gt_words]
    entries = []
    for i, js in _group_alignment(align_sequences(sub_costs, len(asr_words))):
        matched = tuple(asr_words[j] for j in js)
        entries.append(AlignmentEntry(gt_words[i], matched, _classify_entry(gt_words[i], matched)))
    return entries


@dataclass(frozen=True)
class AlignedExample:
    """Training target for one corrupted subword position.

    ``target_ids`` always ends with the [EOS] piece; a bare [EOS] means the
    piece was deleted.  ``error_label`` follows the generated-length rule:
    1 token is a deletion, 2 a substitution, more an insertion.
    """

    sentence_id: str
    sentence: TokenSeq
    position: int
    gt_piece: str
    target_ids: tuple[int, ...]
    target_surfaces: tuple[str, ...]
    error_label: str


def _label_from_length(m: int) -> str:
    if m == 1:
        return DELETION
    if m == 2:
        return SUBSTITUTION
    return INSERTION


def build_training_items(
    alignments: Sequence[Sequence[AlignmentEntry]] | Sequence[AlignmentEntry],
    vocab: SubwordVocab,
    sentence_ids: Optional[Sequence[str]] = None,
    max_target_len: Optional[int] = None,
) -> list[AlignedExample]:
    """Decompose word alignments into per-piece generation targets.

    Only corrupted positions yield items.  Within a non-matching word pair
    the ground-truth pieces are aligned against the transcript pieces with
    unit costs; each changed piece gets its aligned transcript pieces plus
    [EOS] as the target, and untouched pieces are skipped.  Targets longer
    than ``max_target_len`` (the generator's horizon, [EOS] included) are
    clamped to it.
    """
    if max_target_len is not None and max_target_len < 1:
        raise ValueError("max_target_len must be at least 1")
    if alignments and isinstance(alignments[0], AlignmentEntry):
        alignments = [alignments]  # type: ignore[list-item]
    items: list[AlignedExample] = []
    for pair_idx, entries in enumerate(alignments):
        sid = sentence_ids[pair_idx] if sentence_ids is not None else str(pair_idx)
        word_tokens = [tokenize_word(e.gt_word, vocab) for e in entries]
        sentence = TokenSeq(tuple(t for toks in word_tokens for t in toks))
        offset = 0
        for entry, gt_toks in zip(entries, word_tokens):
            if entry.label == MATCH:
                offset += len(gt_toks)
                continue
            asr_toks = [t for w in entry.asr_words for t in tokenize_word(w, vocab)]
            costs = unit_costs([t.surface for t in gt_toks], [t.surface for t in asr_toks])
            for piece_pos, js in _group_alignment(align_sequences(costs, len(asr_toks))):
                aligned = [asr_toks[j] for j in js]
                piece = gt_toks[piece_pos]
                if len(aligned) == 1 and aligned[0].surface == piece.surface:
                    continue
                if max_target_len is not None and len(aligned) >= max_target_len:
                    aligned = aligned[: max_target_len - 1]
                target_ids = tuple(t.piece_id for t in aligned) + (vocab.eos_id,)
                target_surfaces = tuple(t.surface for t in aligned) + (EOS,)
                items.append(
                    AlignedExample(
                        sentence_id=sid,
                        sentence=sentence,
                        position=offset + piece_pos,
                        gt_piece=piece.surface,
                        target_ids=target_ids,
                        target_surfaces=target_surfaces,
                        error_label=_label_from_length(len(target_ids)),
                    )
                )
            offset += len(gt_toks)
    return items


def load_pairs_tsv(path) -> list[ParallelPair]:
    """Read ``GT<TAB>ASR`` lines; the transcript column may be empty."""
    pairs: list[ParallelPair] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh):
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            gt, _, asr = line.partition("\t")
            pairs.append(ParallelPair(gt=gt, asr=asr, id=str(lineno)))
    if not pairs:
        raise EmptyCorpusError(f"no pairs found in {path}")
    return pairs


def write_pairs_tsv(path, pairs: Sequence[ParallelPair], header: str = "") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
        for pair in pairs:
            fh.write(f"{pair.gt}\t{pair.asr}\n")
