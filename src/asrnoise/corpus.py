"""Parallel-corpus ingestion: subword vocabulary, tokenization and alignment.

Clean/noisy sentence pairs are normalized, tokenized into subword pieces
(greedy longest match, ``##`` marks continuations) and aligned word by word
with a phonetically weighted edit distance.  Aligned pairs decompose into
per-piece training items: each corrupted piece gets the target token
sequence the generator should produce for it, terminated by ``[EOS]``.

:func:`align_sequences` is the package's one alignment dynamic program.  The
word alignment feeds it phonetic substitution costs; the piece alignment
inside a word pair and the error-type scoring in ``evaluation`` feed it unit
costs (:func:`unit_costs`).  :func:`edit_distance` counts the unit-cost
distance alone, bit-parallel: WER/CER need nothing more, and the word
alignment takes it, beside the cost of a first alignment on fewer
diagonals, as a bound that leaves out the diagonals no optimal path uses.
"""
from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from typing import Hashable, Iterable, NamedTuple, Optional, Sequence

from .errors import EmptyCorpusError, LengthMismatchError, SizeTooSmallError
from .phonetics import CONTINUATION_PREFIX, WORD, PronouncingLexicon, g2p, phoneme_edit_distance
from .textio import read_lines, write_lines

BOS = "[BOS]"
EOS = "[EOS]"
UNK = "[UNK]"
SPECIALS = (BOS, EOS, UNK)

MATCH = "match"
SUBSTITUTION = "substitution"
INSERTION = "insertion"
DELETION = "deletion"

def normalize(text: str) -> str:
    """Fold accents (NFKD, combining marks dropped), lowercase, and keep the
    words (:data:`phonetics.WORD`), one space apart."""
    if not text.isascii():
        text = "".join(ch for ch in unicodedata.normalize("NFKD", text) if not unicodedata.combining(ch))
    return " ".join(WORD.findall(text.lower()))


@dataclass(frozen=True)
class ParallelPair:
    """One (clean text, noisy transcript) pair; the clean text must hold at
    least one word once normalized, the transcript may be empty."""

    gt: str
    asr: str
    id: str = ""

    def __post_init__(self):
        if not normalize(self.gt):
            raise ValueError("ground-truth side of a pair has no words")


class Token(NamedTuple):
    """One piece of a sentence: its vocabulary id, and its source surface,
    ``##``-prefixed when it continues a word."""

    piece_id: int
    surface: str


#: A tokenized sentence.
TokenSeq = tuple[Token, ...]


class SubwordVocab:
    """Ordered piece list with [BOS]/[EOS]/[UNK] specials.

    Single-character pieces serve both word-initial and continuation roles;
    multi-character continuation pieces carry an explicit ``##`` prefix.
    """

    def __init__(self, pieces: Sequence[str]):
        self.pieces: list[str] = list(pieces)
        self.piece_to_id: dict[str, int] = {}
        self._initial: dict[str, int] = {}
        self._continuation: dict[str, int] = {}
        for i, p in enumerate(self.pieces):
            _check_piece(p, self.piece_to_id)
            self.piece_to_id[p] = i
            if p not in SPECIALS:
                rest = p.removeprefix(CONTINUATION_PREFIX)
                (self._initial if rest == p else self._continuation)[rest] = i
        for special in SPECIALS:
            if special not in self.piece_to_id:
                raise ValueError(f"special piece {special} is missing")
        self.bos_id = self.piece_to_id[BOS]
        self.eos_id = self.piece_to_id[EOS]
        self.unk_id = self.piece_to_id[UNK]
        self._max_piece_len = max((len(s) for s in (*self._initial, *self._continuation)), default=1)
        # tokenize_word's memo: the tables above never change, nor a word's segmentation
        self._segments: dict[str, tuple[Token, ...]] = {}

    def __len__(self) -> int:
        return len(self.pieces)

    def surface(self, piece_id: int) -> str:
        return self.pieces[piece_id]

    def save(self, path, header: str = "") -> None:
        write_lines(path, self.pieces, header)

    @classmethod
    def load(cls, path) -> "SubwordVocab":
        """One piece per line; a piece the vocabulary rejects is reported by
        line.  Comment lines start with a single ``#``; pieces use ``##``."""
        pieces: dict[str, None] = {}
        for number, line in read_lines(path):
            if not line or (line.startswith("#") and not line.startswith(CONTINUATION_PREFIX)):
                continue
            try:
                _check_piece(line, pieces)
            except ValueError as exc:
                raise ValueError(f"line {number}: {exc}") from None
            pieces[line] = None
        return cls(list(pieces))


def _check_piece(piece: str, seen) -> None:
    """Raise ValueError for a piece that is not a ``str``, one already in
    ``seen``, or, apart from the specials, one that no normalized word
    segments into: anything but a :data:`phonetics.WORD` past an optional
    ``##``."""
    if not isinstance(piece, str):
        raise ValueError(f"piece {piece!r} is not a string")
    if piece in seen:
        raise ValueError(f"piece {piece!r} appears twice")
    if piece not in SPECIALS and not WORD.fullmatch(piece.removeprefix(CONTINUATION_PREFIX)):
        raise ValueError(f"piece {piece!r} is not {WORD.pattern} past an optional ##")


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
    # Pair counts and, per pair, the words that may hold it are kept across
    # merges: a merge re-counts only the words that held the merged pair.
    pair_counts: dict[tuple[str, str], int] = {}
    holders: dict[tuple[str, str], set[str]] = {}
    for word, seq in sequences.items():
        _add_pairs(word, seq, word_counts[word], pair_counts, holders)

    while len(pieces) < size and pair_counts:
        best_pair = min(pair_counts, key=lambda p: (-pair_counts[p], p))
        left, right = best_pair
        merged = left + right[len(CONTINUATION_PREFIX):]
        if merged not in known:
            pieces.append(merged)
            known.add(merged)
        for word in holders.pop(best_pair):
            seq, count = sequences[word], word_counts[word]
            for pair in zip(seq, seq[1:]):
                remaining = pair_counts[pair] - count
                if remaining:
                    pair_counts[pair] = remaining
                else:
                    del pair_counts[pair]
                    holders.pop(pair, None)
            seq = _merge_pair(seq, left, right, merged)
            sequences[word] = seq
            _add_pairs(word, seq, count, pair_counts, holders)
    return SubwordVocab(pieces)


def _add_pairs(word, seq, count, pair_counts, holders) -> None:
    for pair in zip(seq, seq[1:]):
        pair_counts[pair] = pair_counts.get(pair, 0) + count
        holders.setdefault(pair, set()).add(word)


def _merge_pair(seq: list[str], left: str, right: str, merged: str) -> list[str]:
    """Replace each ``left, right`` occurrence, scanning left to right."""
    out: list[str] = []
    i = 0
    while i < len(seq):
        if i + 1 < len(seq) and seq[i] == left and seq[i + 1] == right:
            out.append(merged)
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return out


def tokenize_word(word: str, vocab: SubwordVocab) -> tuple[Token, ...]:
    """Greedy longest-match segmentation of one normalized word, computed
    once per word and vocabulary and kept in the vocabulary.

    A character no piece covers becomes one ``[UNK]`` token whose surface is
    the character itself (``##``-prefixed when it continues the word).
    """
    memo = vocab._segments.get(word)
    if memo is not None:
        return memo
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
            match_id, match_len = vocab.unk_id, 1
        surface = word[pos:pos + match_len]
        if pos > 0:
            surface = CONTINUATION_PREFIX + surface
        tokens.append(Token(match_id, surface))
        pos += match_len
    vocab._segments[word] = segments = tuple(tokens)
    return segments


def tokenize(text: str, vocab: SubwordVocab) -> TokenSeq:
    """Normalize and segment a sentence into subword tokens."""
    return tuple(t for word in normalize(text).split() for t in tokenize_word(word, vocab))


def detokenize(tokens: Iterable[Token]) -> str:
    """Rebuild surface text: a ``##`` surface glues onto the current word."""
    words: list[str] = []
    for _, surface in tokens:
        word = surface.removeprefix(CONTINUATION_PREFIX)
        if word != surface and words:
            words[-1] += word
        else:
            words.append(word)
    return " ".join(words)


@dataclass(frozen=True)
class AlignmentEntry:
    """One ground-truth word with the transcript words aligned to it."""

    gt_word: str
    asr_words: tuple[str, ...]
    label: str


def _classify_entry(gt_word: str, asr_words: tuple[str, ...]) -> str:
    if asr_words == (gt_word,):
        return MATCH
    return label_from_length(len(asr_words) + 1)


_DIAG, _INS, _DEL = 0, 1, 2


def unit_costs(ref: Sequence[str], hyp: Sequence[str]) -> list[list[int]]:
    """Substitution-cost rows for :func:`align_sequences`: 0 on equal symbols, else 1."""
    return [[0 if r == h else 1 for h in hyp] for r in ref]


def edit_distance(ref: Sequence[Hashable], hyp: Sequence[Hashable]) -> int:
    """Unit-cost Levenshtein distance between two sequences of hashable symbols.

    The shared prefix and suffix are dropped first, which leaves the distance
    as it is: an optimal alignment matches them item for item.  What remains
    runs bit-parallel over the longer sequence, one Python-int bit per symbol,
    so there is no length limit (Myers 1999; the row form of Hyyrö 2001).  It
    equals the number of substitutions, insertions and deletions along any
    minimum-cost alignment from :func:`align_sequences` with unit costs.
    """
    if len(ref) < len(hyp):
        ref, hyp = hyp, ref
    start, m, stop = 0, len(ref), len(hyp)
    while start < stop and ref[start] == hyp[start]:
        start += 1
    while start < stop and ref[m - 1] == hyp[stop - 1]:
        m -= 1
        stop -= 1
    if start == stop:
        return m - start
    ref, hyp = ref[start:m], hyp[start:stop]
    m = len(ref)
    match: dict[Hashable, int] = {}
    for i, symbol in enumerate(ref):
        match[symbol] = match.get(symbol, 0) | (1 << i)
    mask = (1 << m) - 1
    last = 1 << (m - 1)
    # vertical deltas D[i][j] - D[i-1][j] of the current column: +1 in vp, -1 in vn
    vp, vn, dist = mask, 0, m
    for symbol in hyp:
        eq = match.get(symbol, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        hp = vn | ~(xh | vp)
        hn = vp & xh
        if hp & last:
            dist += 1
        elif hn & last:
            dist -= 1
        # the top row D[0][j] = j grows by one per column
        hp = (hp << 1) | 1
        hn <<= 1
        vp = (hn | ~(xv | hp)) & mask
        vn = hp & xv
    return dist


def align_sequences(
    sub_costs: Sequence[Sequence[float]], m: int
) -> list[tuple[Optional[int], Optional[int]]]:
    """Minimum-cost alignment of ``len(sub_costs)`` reference items against
    ``m`` hypothesis items.

    ``sub_costs[i][j]`` is the cost of aligning reference item ``i`` with
    hypothesis item ``j``, and must not be negative; insertions and deletions
    cost 1.  Ties prefer the diagonal step, then insertion.  Returns the
    backtrace in order as ``(i, j)`` steps: ``(i, None)`` deletes reference
    item ``i``, ``(None, j)`` inserts hypothesis item ``j``, and two indices
    align item ``i`` with ``j``.

    The table keeps one cost row and one row of choices per reference item.
    A trailing run of zero-cost diagonal cells, ending at the last items, is
    emitted as diagonal steps without being computed, and the backtrace of
    the full table takes the same steps: with non-negative costs,
    ``D[i-1][j-1] <= D[i][j-1] + 1`` and ``D[i-1][j-1] <= D[i-1][j] + 1``
    (rounding is monotone, so this holds in floating point too), so a
    zero-cost diagonal step is never worse, and the diagonal wins ties.  A
    shared prefix is not trimmed the same way: it would move tied steps, as
    ``aa`` against ``aaa`` inserts the first ``a``, not the last.
    """
    return _align(sub_costs, m)[1]


def _align(sub_costs, m):
    """:func:`align_sequences` as ``(cost, steps)``, the cost being the
    table's own (rounded) optimum."""
    n = len(sub_costs)
    tail = 0
    while tail < n and tail < m and sub_costs[n - 1 - tail][m - 1 - tail] == 0:
        tail += 1
    n, m = n - tail, m - tail
    row = list(range(m + 1))
    choices = []
    cols = range(1, m + 1)
    for i in range(n):
        costs = sub_costs[i]
        corner = row[0]
        left = row[0] = i + 1
        choice = [_DIAG] * (m + 1)
        for j in cols:
            up = row[j]
            diag = corner + costs[j - 1]
            ins = left + 1
            dele = up + 1
            corner = up
            if diag <= ins and diag <= dele:
                left = diag
            elif ins <= dele:
                left = ins
                choice[j] = _INS
            else:
                left = dele
                choice[j] = _DEL
            row[j] = left
        choices.append(choice)
    steps: list[tuple[Optional[int], Optional[int]]] = [(n + k, m + k) for k in range(tail - 1, -1, -1)]
    i, j = n, m
    while i and j:
        c = choices[i - 1][j]
        if c == _DIAG:
            i, j = i - 1, j - 1
            steps.append((i, j))
        elif c == _INS:
            j -= 1
            steps.append((None, j))
        else:
            i -= 1
            steps.append((i, None))
    while j:
        j -= 1
        steps.append((None, j))
    while i:
        i -= 1
        steps.append((i, None))
    steps.reverse()
    return row[m], steps


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


def align_pair(gt: str, asr: str, lexicon: PronouncingLexicon) -> list[AlignmentEntry]:
    """Word-level alignment of a transcript against its ground truth.

    Substitution cost is the phoneme edit distance normalized by the
    ground-truth code length and clamped to [0, 1]; insertions and deletions
    cost 1, so phonetically close words align as substitutions rather than
    deletion/insertion pairs.  Inserted transcript words attach to the
    preceding ground-truth word.

    Only the diagonals an optimal alignment can use get a phonetic cost; the
    other cells keep the placeholder cost 1, no less than their true cost.
    With ``Δ = n - m``, a path that pairs ground-truth word ``i`` with
    transcript word ``j`` makes at least ``|d| + |Δ - d|`` insertions and
    deletions (``d = i - j``), each costing 1.  So for any bound ``B`` on the
    optimum, the cells with ``i - j`` in ``[min(0, Δ) - s, max(0, Δ) + s]``,
    ``s = (B - |Δ|) // 2``, hold every optimal path.  Raising the cost of a
    cell off every optimal path only raises the candidates the backtrace
    turns down, so the alignment is the full table's.

    The costs come in two stages.  The first fills only the ``|Δ| + 1``
    diagonals of ``s = 0`` and aligns; that table's cost bounds the optimum,
    because its placeholders only raise costs.  The second widens the band
    only if ``s > 0`` for ``B`` the lesser of that cost and the unit-cost word
    edit distance (:func:`edit_distance`, which bounds the optimum because
    every substitution costs at most 1), computes the cells the first stage
    left out, and aligns again.
    """
    gt_words = normalize(gt).split()
    asr_words = normalize(asr).split()
    if not gt_words:
        raise EmptyCorpusError("ground-truth side of an alignment must be nonempty")

    m = len(asr_words)
    delta = len(gt_words) - m
    low, high = min(0, delta), max(0, delta)
    codes = {w: g2p(w, lexicon) for w in set(gt_words) | set(asr_words)}
    sub_costs = [[1.0] * m for _ in gt_words]
    for i, (gw, row) in enumerate(zip(gt_words, sub_costs)):
        _phonetic_costs(row, gw, asr_words, codes, i - high, i - low + 1)
    cost, steps = _align(sub_costs, m)
    slack = int(cost - abs(delta)) // 2
    if slack:  # U is needed only when the first band leaves room
        slack = min(slack, (edit_distance(gt_words, asr_words) - abs(delta)) // 2)
    if slack:
        for i, (gw, row) in enumerate(zip(gt_words, sub_costs)):
            _phonetic_costs(row, gw, asr_words, codes, i - high - slack, i - high)
            _phonetic_costs(row, gw, asr_words, codes, i - low + 1, i - low + 1 + slack)
        steps = align_sequences(sub_costs, m)
    entries = []
    for i, js in _group_alignment(steps):
        matched = tuple(asr_words[j] for j in js)
        entries.append(AlignmentEntry(gt_words[i], matched, _classify_entry(gt_words[i], matched)))
    return entries


def _phonetic_costs(row, gt_word, asr_words, codes, start, stop) -> None:
    """Set ``row[j]`` to ``gt_word``'s substitution cost against transcript
    word ``j``, for ``j`` in ``[start, stop)`` within the row."""
    cg = codes[gt_word]
    norm = max(len(cg), 1)
    for j in range(max(start, 0), min(stop, len(row))):
        aw = asr_words[j]
        if aw == gt_word:
            row[j] = 0.0
        else:
            cost = phoneme_edit_distance(cg, codes[aw]) / norm
            row[j] = cost if cost < 1.0 else 1.0


@dataclass(frozen=True)
class AlignedExample:
    """Training target for one corrupted subword position.

    ``sentence`` holds the clean sentence's piece ids, the ids
    :func:`tokenize` gives its text, and ``position`` indexes the corrupted
    one.  ``target_ids`` always ends with the [EOS] piece; a bare [EOS]
    means the piece was deleted.
    """

    sentence_id: str
    sentence: tuple[int, ...]
    position: int
    target_ids: tuple[int, ...]

    @property
    def error_label(self) -> str:
        """The generated-length rule's label: 1 token is a deletion, 2 a
        substitution, more an insertion."""
        return label_from_length(len(self.target_ids))


def label_from_length(m: int) -> str:
    """Error label of a target of ``m`` tokens, [EOS] included."""
    if m == 1:
        return DELETION
    if m == 2:
        return SUBSTITUTION
    return INSERTION


def build_training_items(
    alignments: Sequence[Sequence[AlignmentEntry]],
    vocab: SubwordVocab,
    sentence_ids: Optional[Sequence[str]] = None,
    *,
    max_target_len: int,
) -> list[AlignedExample]:
    """Decompose word alignments into per-piece generation targets.

    Only corrupted positions yield items.  Within a non-matching word pair
    the ground-truth pieces are aligned against the transcript pieces with
    unit costs; each changed piece gets its aligned transcript pieces plus
    [EOS] as the target, and untouched pieces are skipped.  Targets longer
    than ``max_target_len`` (the generator's horizon, [EOS] included) are
    clamped to it.  ``sentence_ids``, if given, holds one id per alignment.
    """
    if max_target_len < 1:
        raise ValueError("max_target_len must be at least 1")
    if sentence_ids is not None and len(sentence_ids) != len(alignments):
        raise LengthMismatchError(f"{len(sentence_ids)} sentence ids vs {len(alignments)} alignments")
    items: list[AlignedExample] = []
    for pair_idx, entries in enumerate(alignments):
        sid = sentence_ids[pair_idx] if sentence_ids is not None else str(pair_idx)
        word_tokens = [tokenize_word(e.gt_word, vocab) for e in entries]
        sentence = tuple(t.piece_id for toks in word_tokens for t in toks)
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
                if len(aligned) >= max_target_len:
                    aligned = aligned[: max_target_len - 1]
                target_ids = tuple(t.piece_id for t in aligned) + (vocab.eos_id,)
                items.append(
                    AlignedExample(
                        sentence_id=sid,
                        sentence=sentence,
                        position=offset + piece_pos,
                        target_ids=target_ids,
                    )
                )
            offset += len(gt_toks)
    return items


def load_pairs_tsv(path) -> list[ParallelPair]:
    """Read ``GT<TAB>ASR`` lines; the transcript column may be empty.

    Blank lines and a header line (:func:`textio.read_lines`) are skipped;
    any other line is a pair, ``#`` included, whose id is its 0-based line
    index.  A line whose ground-truth side has no words, or that has a third
    column, is rejected with its 1-based number.
    """
    pairs: list[ParallelPair] = []
    for number, line in read_lines(path):
        if not line.strip():
            continue
        gt, _, asr = line.partition("\t")
        if "\t" in asr:
            raise ValueError(f"line {number}: expected GT<TAB>ASR, got a third column")
        try:
            pairs.append(ParallelPair(gt=gt, asr=asr, id=str(number - 1)))
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}") from exc
    if not pairs:
        raise EmptyCorpusError(f"no pairs found in {path}")
    return pairs


def write_pairs_tsv(path, pairs: Sequence[ParallelPair]) -> None:
    write_lines(path, (f"{pair.gt}\t{pair.asr}" for pair in pairs))
