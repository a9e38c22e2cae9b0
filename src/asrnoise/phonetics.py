"""Phonetic codes, articulatory edit distance and similarity supervision.

A word maps to a phonetic code (a sequence of phonemes): its lexicon entry,
or else letter-fallback phonemes, where a character without a fallback, or a
fallback phoneme that the inventory lacks, reads as the UNK phoneme.  Codes
are compared with a weighted Levenshtein distance whose substitution cost is
the fraction of articulatory slots two phonemes disagree on.  Distances
feed a similarity score and, normalized over a vocabulary, a supervision
distribution for the phoneme generation head.

The distance is computed in integer thirds.  Each distinct articulation (a
kind plus its three feature slots) is interned once, when the first phoneme
carrying it is built, and gets a small integer id; a module-level table then
holds :func:`articulatory_mismatches` for every ordered pair of ids seen so
far, so the dynamic program reads ``table[p][q]`` instead of comparing
features per cell.  The id is a plain attribute, not a dataclass field:
``Phoneme`` stays the three-field record ``(symbol, kind, features)`` that
equality, hashing and the lexicon files see, and a copied or unpickled
phoneme is rebuilt through its constructor, so it gets the id of the process
it lands in.
"""
from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from importlib import resources
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import DegenerateSupportError, EmptyWordError
from .textio import read_lines

CONSONANT = "consonant"
VOWEL = "vowel"

UNK_SYMBOL = "UNK"

#: Subword pieces carry this prefix when they continue a word.
CONTINUATION_PREFIX = "##"

#: A word: what :func:`corpus.normalize` keeps between spaces, so also what
#: a lexicon word, lowercased, and a subword piece past ``##`` must be.
WORD = re.compile("[a-z0-9]+")


@dataclass(frozen=True)
class Phoneme:
    """One phoneme of an inventory.

    ``kind`` is :data:`CONSONANT` or :data:`VOWEL`; ``features`` holds the
    three articulatory slots, place/manner/voicing for a consonant and
    height/backness/rounding for a vowel.
    """

    symbol: str
    kind: str
    features: tuple[str, str, str]

    def __post_init__(self):
        object.__setattr__(self, "articulation", _intern_articulation(self))

    def __reduce__(self):
        # rebuild through __init__, so the articulation id is this process's
        return (Phoneme, (self.symbol, self.kind, self.features))


# Articulation interning: ``_ARTICULATION_IDS`` maps (kind, features) to an id,
# ``_ARTICULATIONS[id]`` is the first phoneme seen with it, and
# ``_MISMATCH_UNITS[a][b]`` is ``articulatory_mismatches`` of ids a and b.  The
# tables only grow, and an id is published only once its row and column are
# filled, so a reader holding any phoneme's id never sees a partial table.
_ARTICULATION_IDS: dict[tuple[str, tuple[str, ...]], int] = {}
_ARTICULATIONS: list["Phoneme"] = []
_MISMATCH_UNITS: list[list[int]] = []
_INTERN_LOCK = threading.Lock()


def _intern_articulation(p: "Phoneme") -> int:
    key = (p.kind, tuple(p.features))
    aid = _ARTICULATION_IDS.get(key)
    if aid is not None:
        return aid
    with _INTERN_LOCK:
        aid = _ARTICULATION_IDS.get(key)
        if aid is None:
            aid = len(_ARTICULATIONS)
            for q, row in zip(_ARTICULATIONS, _MISMATCH_UNITS):
                row.append(articulatory_mismatches(q, p))
            _ARTICULATIONS.append(p)
            _MISMATCH_UNITS.append([articulatory_mismatches(p, q) for q in _ARTICULATIONS])
            _ARTICULATION_IDS[key] = aid
    return aid


#: Ordered phoneme sequence for one word surface.
PhoneticCode = tuple[Phoneme, ...]


def code_key(code: PhoneticCode) -> str:
    """Canonical string form of a code, e.g. ``"K Y UW"``."""
    return " ".join(p.symbol for p in code)


# Deterministic letter fallback used when a surface is not in the lexicon.
# Every letter maps to phonemes of the default inventory; anything else, and
# a phoneme that a custom inventory lacks, maps to the UNK phoneme.
FALLBACK_LETTER_PHONEMES: dict[str, tuple[str, ...]] = {
    "a": ("AE",),
    "b": ("B",),
    "c": ("K",),
    "d": ("D",),
    "e": ("EH",),
    "f": ("F",),
    "g": ("G",),
    "h": ("HH",),
    "i": ("IH",),
    "j": ("JH",),
    "k": ("K",),
    "l": ("L",),
    "m": ("M",),
    "n": ("N",),
    "o": ("AA",),
    "p": ("P",),
    "q": ("K",),
    "r": ("R",),
    "s": ("S",),
    "t": ("T",),
    "u": ("AH",),
    "v": ("V",),
    "w": ("W",),
    "x": ("K", "S"),
    "y": ("Y",),
    "z": ("Z",),
}


class PronouncingLexicon:
    """Case-insensitive word -> phonetic code map over one phoneme inventory;
    ValueError for a word that is not a :data:`WORD` once lowercased or is
    one already listed, and for a phoneme not in ``inventory``."""

    def __init__(self, entries: Mapping[str, PhoneticCode], inventory: Mapping[str, Phoneme]):
        self.inventory = dict(inventory)
        if UNK_SYMBOL not in self.inventory:
            raise ValueError("inventory must contain the %s phoneme" % UNK_SYMBOL)
        self.entries: dict[str, PhoneticCode] = {}
        listed: dict[str, str] = {}
        for word, code in entries.items():
            key = _lexicon_key(word, listed, f"as {word!r}")
            for ph in code:
                if ph.symbol not in self.inventory:
                    raise ValueError(f"{word!r} uses phoneme {ph.symbol!r} not in inventory")
            self.entries[key] = code
        self._fallback_cache: dict[str, PhoneticCode] = {}

    def words(self) -> list[str]:
        return list(self.entries)


def load_inventory(path) -> dict[str, Phoneme]:
    """Read one phoneme per line: ``SYMBOL<TAB>kind<TAB>slot1<TAB>slot2<TAB>slot3``."""
    inventory: dict[str, Phoneme] = {}
    for number, raw in read_lines(path):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 5:
            raise ValueError(f"line {number}: bad inventory line: {raw!r}")
        symbol, kind, *features = fields
        if symbol in inventory:
            raise ValueError(f"line {number}: duplicate phoneme symbol {symbol!r}")
        if kind not in (CONSONANT, VOWEL):
            raise ValueError(f"line {number}: unknown phoneme kind {kind!r}")
        inventory[symbol] = Phoneme(symbol, kind, tuple(features))
    return inventory


def _lexicon_key(word: str, listed: dict[str, str], where: str) -> str:
    """``word`` lowercased, entered in ``listed`` as found ``where``.
    Raises ValueError for a key that is not a :data:`WORD` (no normalized
    word could look it up) or that ``listed`` already holds."""
    key = word.lower()
    if not WORD.fullmatch(key):
        raise ValueError(f"word {word!r} is not {WORD.pattern} once lowercased")
    if key in listed:
        raise ValueError(f"word {word!r} is already listed {listed[key]}")
    listed[key] = where
    return key


def load_lexicon(path, inventory: Mapping[str, Phoneme]) -> PronouncingLexicon:
    """Read ``WORD<TAB>PH1 PH2 ...`` lines into a lexicon.

    Each line holds exactly one tab, with a word before it and at least one
    phoneme after it.  Words are case-insensitive, and a word must be a
    :data:`WORD` once lowercased.  A malformed line, a word already listed
    (naming the earlier line too), or a symbol missing from ``inventory``
    raises ValueError naming its line.
    """
    entries: dict[str, PhoneticCode] = {}
    listed: dict[str, str] = {}
    for number, raw in read_lines(path):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.count("\t") != 1:
            raise ValueError(f"line {number}: expected WORD<TAB>PHONEMES, got {raw.rstrip()!r}")
        word, _, symbols = line.partition("\t")
        try:
            key = _lexicon_key(word, listed, f"at line {number}")
            entries[key] = tuple(inventory[s] for s in symbols.split())
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}") from None
        except KeyError as exc:
            raise ValueError(f"line {number}: phoneme {exc.args[0]!r} is not in the inventory") from None
    return PronouncingLexicon(entries, inventory)


_DEFAULT_LEXICON: Optional[PronouncingLexicon] = None


def default_lexicon() -> PronouncingLexicon:
    """Lexicon shipped with the package (cached)."""
    global _DEFAULT_LEXICON
    if _DEFAULT_LEXICON is None:
        data = resources.files("asrnoise.data")
        inventory = load_inventory(data / "inventory.tsv")
        _DEFAULT_LEXICON = load_lexicon(data / "lexicon.tsv", inventory)
    return _DEFAULT_LEXICON


def g2p(word: str, lexicon: PronouncingLexicon) -> PhoneticCode:
    """Phonetic code for a surface: lexicon lookup, letter fallback otherwise.

    The subword continuation prefix ``##`` is stripped first.  Characters
    without a fallback entry, and fallback phonemes that the lexicon's
    inventory lacks, map to the UNK phoneme.
    """
    if word.startswith(CONTINUATION_PREFIX):
        word = word[len(CONTINUATION_PREFIX):]
    word = word.lower()
    if not word:
        raise EmptyWordError("cannot derive a phonetic code for an empty word")
    entry = lexicon.entries.get(word)
    if entry is not None:
        return entry
    cached = lexicon._fallback_cache.get(word)
    if cached is not None:
        return cached
    symbols: list[str] = []
    for ch in word:
        symbols.extend(FALLBACK_LETTER_PHONEMES.get(ch, (UNK_SYMBOL,)))
    unk = lexicon.inventory[UNK_SYMBOL]
    code = tuple(lexicon.inventory.get(s, unk) for s in symbols)
    lexicon._fallback_cache[word] = code
    return code


def articulatory_mismatches(p: Phoneme, q: Phoneme) -> int:
    """Number of differing articulatory slots, 0..3; 3 when kinds differ."""
    if p.kind != q.kind:
        return 3
    (p1, p2, p3), (q1, q2, q3) = p.features, q.features
    return (p1 != q1) + (p2 != q2) + (p3 != q3)


# Edit costs are kept in integer thirds so the dynamic program is exact:
# substitution costs 0..3 units, insertion and deletion cost 3 units.
_INDEL_UNITS = 3


def _edit_units(cp: PhoneticCode, cq: PhoneticCode) -> int:
    qs = [q.articulation for q in cq]
    prev = list(range(0, _INDEL_UNITS * (len(qs) + 1), _INDEL_UNITS))
    for i, p in enumerate(cp, start=1):
        costs = _MISMATCH_UNITS[p.articulation]
        left = i * _INDEL_UNITS
        cur = [left]
        j = 0
        for q in qs:
            # substitution wins ties, then insertion, then deletion
            best = prev[j] + costs[q]
            ins = left + _INDEL_UNITS
            if ins < best:
                best = ins
            j += 1
            dele = prev[j] + _INDEL_UNITS
            if dele < best:
                best = dele
            cur.append(best)
            left = best
        prev = cur
    return prev[-1]


def phoneme_edit_distance(cp: PhoneticCode, cq: PhoneticCode) -> float:
    """Weighted Levenshtein distance between two phonetic codes.

    Substitutions cost the articulatory differing-slot fraction; insertions
    and deletions cost 1.  Symmetric, zero exactly on equal codes.
    """
    return _edit_units(cp, cq) / 3.0


def _code_similarity(cp: PhoneticCode, cq: PhoneticCode) -> float:
    return max(float(len(cp)) - phoneme_edit_distance(cp, cq), 0.0)


def phonetic_similarity(wp: str, wq: str, lexicon: PronouncingLexicon) -> float:
    """max(|C_p| - D(C_p, C_q), 0) for the codes of two surfaces.

    Normalized by the first argument's code length, so not symmetric.
    """
    return _code_similarity(g2p(wp, lexicon), g2p(wq, lexicon))


def supervision_distribution(
    target: str,
    vocab: Sequence[Optional[str]],
    lexicon: PronouncingLexicon,
) -> np.ndarray:
    """Phonetic similarity of ``target`` to each vocab surface, normalized.

    ``None`` entries (special tokens) get zero mass.  Raises
    DegenerateSupportError when the target is phonetically disjoint from the
    whole vocabulary.
    """
    ct = g2p(target, lexicon)
    scores = np.zeros(len(vocab), dtype=np.float64)
    for i, surface in enumerate(vocab):
        if surface is None:
            continue
        try:
            cw = g2p(surface, lexicon)
        except EmptyWordError:
            continue
        scores[i] = _code_similarity(ct, cw)
    total = scores.sum()
    if total <= 0.0:
        raise DegenerateSupportError(
            f"target {target!r} has zero phonetic similarity to the whole vocabulary"
        )
    return scores / total
