import hashlib
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asrnoise import corpus as C
from asrnoise import synthetic
from asrnoise.errors import EmptyCorpusError, LengthMismatchError, SizeTooSmallError

from conftest import make_token_seq
from oracles import (
    align_pair_reference,
    align_sequences_reference,
    alignment_cost_recursive,
    edited_pairs,
    induce_vocab_reference,
    normalize_reference,
)

# pieces no normalized word segments into: only [a-z0-9]+ past an optional ## can be
_UNTOKENIZABLE_PIECES = ["##", "x\ty", "Two Words", "##Q!", "ab "]
_UNTOKENIZABLE_IDS = [
    "bare-continuation-prefix", "tab", "space-and-upper-case", "continued-punctuation", "trailing-space",
]


class TestNormalize:
    def test_lowercase_and_punctuation(self):
        assert C.normalize("Hello, World!") == "hello world"

    def test_whitespace_collapse(self):
        assert C.normalize("  a\t b \n c ") == "a b c"
        assert C.normalize("\u3000a\u00a0-\u2009b.\x1f") == "a b"

    @pytest.mark.parametrize(
        "text, expected",
        [("naïve café", "naive cafe"), ("Ångström", "angstrom"), ("ﬁne", "fine"), ("İstanbul", "istanbul")],
    )
    def test_accents_and_compatibility_forms_fold(self, text, expected):
        assert C.normalize(text) == expected

    def test_every_code_point_splits_or_joins_as_in_the_first_form(self):
        # each code point between two letters: one that folds to a word
        # character joins them, and any other separates them
        text = " ".join(f"a{chr(c)}b" for c in range(0x110000))
        assert C.normalize(text) == normalize_reference(text)


@st.composite
def _small_alphabet_corpora(draw):
    """Texts over two or three letters, so pair-count ties are common; with
    sizes up to 40 the merges often run out before the size is reached."""
    alphabet = draw(st.sampled_from(["ab", "abc"]))
    word = st.text(alphabet=alphabet, min_size=1, max_size=7)
    return draw(st.lists(st.lists(word, max_size=6).map(" ".join), max_size=8))


class TestInduceVocab:
    def test_charset_only_when_size_is_minimum(self):
        vocab = C.induce_vocab(["aaab"], size=5)
        assert vocab.pieces == ["[BOS]", "[EOS]", "[UNK]", "a", "b"]

    def test_deterministic(self):
        texts = ["the cat sat", "the bat sat on the mat"]
        v1 = C.induce_vocab(texts, 24)
        v2 = C.induce_vocab(texts, 24)
        assert v1.pieces == v2.pieces

    def test_dominant_bigram_merges_first(self):
        vocab = C.induce_vocab(["ab ab ab cd"], size=8)
        assert vocab.pieces[7] == "ab"

    def test_size_too_small(self):
        with pytest.raises(SizeTooSmallError):
            C.induce_vocab(["abcdef"], size=8)

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpusError):
            C.induce_vocab(["   "], size=10)

    @settings(max_examples=150)
    @example([], 10)
    @example(["ab ba"], 4)
    @example(["abab ab ba aab"], 40)
    @given(_small_alphabet_corpora(), st.integers(min_value=3, max_value=40))
    def test_pieces_equal_full_recount_reference(self, texts, size):
        try:
            expected = induce_vocab_reference(texts, size)
        except (EmptyCorpusError, SizeTooSmallError) as exc:
            with pytest.raises(type(exc)):
                C.induce_vocab(texts, size)
            return
        assert C.induce_vocab(texts, size).pieces == expected


class TestTokenize:
    def test_greedy_longest_match(self, fixture_vocab):
        assert [t.surface for t in C.tokenize("as bestial", fixture_vocab)] == ["as", "best", "##ial"]

    def test_detokenize_glue_rule(self, fixture_vocab):
        seq = make_token_seq(fixture_vocab, ["as", "best", "at", "##ial"])
        assert C.detokenize(seq) == "as best atial"

    def test_round_trip_in_vocab_text(self, fixture_vocab):
        text = "as bestial gags the labor"
        assert C.detokenize(C.tokenize(text, fixture_vocab)) == text

    def test_unknown_character_becomes_unk(self, fixture_vocab):
        seq = C.tokenize("z", fixture_vocab)
        assert seq[0].piece_id == fixture_vocab.unk_id

    def test_unknown_character_keeps_its_surface(self):
        vocab = C.SubwordVocab(["[BOS]", "[EOS]", "[UNK]", "e", "b", "r", "a", "u", "i"])
        seq = C.tokenize("zebra quiz", vocab)
        assert [t.surface for t in seq if t.piece_id == vocab.unk_id] == ["z", "q", "##z"]
        assert C.detokenize(seq) == "zebra quiz"

    def test_single_char_continuation_fallback(self):
        vocab = C.SubwordVocab(["[BOS]", "[EOS]", "[UNK]", "a", "b"])
        seq = C.tokenize("aba", vocab)
        assert [t.surface for t in seq] == ["a", "##b", "##a"]
        assert C.detokenize(seq) == "aba"

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.text(alphabet="abc", min_size=1, max_size=6), min_size=1, max_size=5))
    def test_round_trip_property(self, words):
        text = " ".join(words)
        vocab = C.induce_vocab([text], size=30)
        assert C.detokenize(C.tokenize(text, vocab)) == C.normalize(text)

    def test_vocab_save_load_round_trip(self, tmp_path, fixture_vocab):
        path = tmp_path / "vocab.txt"
        fixture_vocab.save(path, header="test artifact")
        loaded = C.SubwordVocab.load(path)
        assert loaded.pieces == fixture_vocab.pieces

    def test_vocab_with_bom_and_crlf_loads_the_same_pieces(self, tmp_path, fixture_vocab):
        path = tmp_path / "vocab.txt"
        fixture_vocab.save(path, header="test artifact")
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes().replace(b"\n", b"\r\n"))
        assert C.SubwordVocab.load(path).pieces == fixture_vocab.pieces

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("a", "line 6: piece 'a' appears twice"),
            *(
                (piece, f"line 6: piece {piece!r} is not [a-z0-9]+ past an optional ##")
                for piece in _UNTOKENIZABLE_PIECES
            ),
        ],
        ids=["duplicate", *_UNTOKENIZABLE_IDS],
    )
    def test_bad_vocab_line_is_rejected_by_number(self, tmp_path, bad, message):
        path = tmp_path / "vocab.txt"
        path.write_text("# produced-by: asrnoise vocab\n[BOS]\n[EOS]\n[UNK]\na\n" + bad + "\n##b\n")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            C.SubwordVocab.load(path)

    @pytest.mark.parametrize(
        "bad",
        ["", "[EOS]", *_UNTOKENIZABLE_PIECES, "##[EOS]"],
        ids=["empty", "repeated", *_UNTOKENIZABLE_IDS, "continued-special"],
    )
    def test_vocab_rejects_an_empty_or_repeated_piece(self, bad):
        with pytest.raises(ValueError, match="piece"):
            C.SubwordVocab(["[BOS]", "[EOS]", "[UNK]", "a", bad])


def test_only_corpus_reads_surfaces_past_the_tokenizer():
    """Past ``corpus``, asrnoise works on piece ids: the ``##`` glue rule
    stays in ``corpus`` (``phonetics.g2p`` strips ``##`` to pronounce a
    piece), so ``generation`` and ``model`` never read it, and a training
    item carries no target surfaces at all."""
    src = Path(C.__file__).parent
    texts = {module.name: module.read_text(encoding="utf-8") for module in sorted(src.glob("*.py"))}
    named = {
        name: {word for word in ("CONTINUATION_PREFIX", "##") if word in text}
        for name, text in texts.items()
    }
    assert {name for name, found in named.items() if found} == {"corpus.py", "phonetics.py"}
    assert not any("target_surfaces" in text for text in texts.values())


class TestLoadPairs:
    def test_cr_inside_a_line_stays_in_its_pair(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_bytes(b"hello\rworld\thello world\r\nthe cue\tthe queue\n")
        pairs = C.load_pairs_tsv(path)
        assert [(p.id, p.gt, p.asr) for p in pairs] == [
            ("0", "hello\rworld", "hello world"),
            ("1", "the cue", "the queue"),
        ]

    def test_header_after_a_bom_is_skipped_and_ids_do_not_move(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_bytes("\ufeff# produced-by: asrnoise vocab\nthe cue\tthe queue\n".encode("utf-8"))
        assert [(p.id, p.gt) for p in C.load_pairs_tsv(path)] == [("1", "the cue")]

    def test_bad_utf8_is_rejected_by_line(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_bytes(b"the cue\tthe queue\n\nthe g\xe9g\tthe gag\n")
        with pytest.raises(ValueError, match="^line 3: byte 0xe9 is not UTF-8$"):
            C.load_pairs_tsv(path)


class TestAlignPair:
    def test_identity_alignment_is_all_match(self, lexicon):
        entries = C.align_pair("the cat sat", "the cat sat", lexicon)
        assert [e.label for e in entries] == [C.MATCH] * 3

    def test_identity_alignment_property_random_sentences(self, lexicon):
        import numpy as np

        rng = np.random.default_rng(17)
        words = lexicon.words()
        for _ in range(25):
            n = int(rng.integers(1, 9))
            text = " ".join(words[i] for i in rng.integers(0, len(words), size=n))
            entries = C.align_pair(text, text, lexicon)
            assert all(e.label == C.MATCH for e in entries)

    def test_empty_transcript_is_all_deletions(self, lexicon):
        entries = C.align_pair("the cat sat", "", lexicon)
        assert [e.label for e in entries] == [C.DELETION] * 3
        assert all(e.asr_words == () for e in entries)

    def test_appendix_style_alignment(self, lexicon):
        entries = C.align_pair(
            "only labored the gags", "only labored labor thes gag", lexicon
        )
        assert [(e.gt_word, e.asr_words, e.label) for e in entries] == [
            ("only", ("only",), C.MATCH),
            ("labored", ("labored", "labor"), C.INSERTION),
            ("the", ("thes",), C.SUBSTITUTION),
            ("gags", ("gag",), C.SUBSTITUTION),
        ]

    def test_leading_insertion_attaches_to_first_word(self, lexicon):
        entries = C.align_pair("cue is good", "uh cue is good", lexicon)
        assert entries[0].gt_word == "cue"
        assert entries[0].asr_words == ("uh", "cue")
        assert entries[0].label == C.INSERTION

    def test_homophone_aligns_as_substitution(self, lexicon):
        entries = C.align_pair("the cue", "the queue", lexicon)
        assert entries[1].label == C.SUBSTITUTION
        assert entries[1].asr_words == ("queue",)

    def test_empty_gt_rejected(self, lexicon):
        with pytest.raises(EmptyCorpusError):
            C.align_pair("", "whatever", lexicon)

    def test_matches_the_per_cell_reference_on_random_pairs(self, lexicon):
        # align_pair computes costs only inside its band, the reference every
        # cell; the edited pairs hold homophones (cost 0 between unequal
        # words), misspellings, runs of insertions and deletions, n >> m,
        # m >> n and empty transcripts
        pairs = synthetic.make_parallel_corpus(200, seed=31)
        extra = [("cue is good", "uh queue is"), ("xyzzy plugh", "xyzy"), ("the cat", "")]
        mismatched = [
            (gt, asr)
            for gt, asr in [(p.gt, p.asr) for p in pairs] + extra + edited_pairs(1200, seed=33, lexicon=lexicon)
            if C.align_pair(gt, asr, lexicon) != align_pair_reference(gt, asr, lexicon)
        ]
        assert mismatched == []

    @pytest.fixture
    def distance_calls(self, monkeypatch):
        calls = []
        distance = C.phoneme_edit_distance

        def counted(cp, cq):
            calls.append((cp, cq))
            return distance(cp, cq)

        monkeypatch.setattr(C, "phoneme_edit_distance", counted)
        return calls

    def test_identical_sentence_computes_no_distance(self, lexicon, distance_calls):
        C.align_pair("the cue sat on the cue", "the cue sat on the cue", lexicon)
        assert distance_calls == []

    def test_one_substitution_computes_one_distance(self, lexicon, distance_calls):
        entries = C.align_pair("the cue sat on the mat", "the cue sat in the mat", lexicon)
        assert len(distance_calls) == 1
        assert entries[3].asr_words == ("in",)

    def test_a_cheap_first_band_computes_only_its_diagonal(self, lexicon, distance_calls):
        # n = m, and the two substitutions cost 0 (homophones) and 1/3, below
        # the 2 that a path off the diagonal pays in insertions and deletions
        entries = C.align_pair("the cue sat on the mat", "the queue sat in the mat", lexicon)
        assert distance_calls == [
            (C.g2p("cue", lexicon), C.g2p("queue", lexicon)),
            (C.g2p("on", lexicon), C.g2p("in", lexicon)),
        ]
        assert [e.asr_words for e in entries][1:4] == [("queue",), ("sat",), ("in",)]

    def test_no_pair_computes_more_distances_than_its_unequal_cells(self, lexicon, distance_calls):
        for gt, asr in edited_pairs(300, seed=34, lexicon=lexicon):
            del distance_calls[:]
            C.align_pair(gt, asr, lexicon)
            assert len(distance_calls) <= sum(g != a for g in gt.split() for a in asr.split())


# sha256 of the alignments and training items of make_parallel_corpus(500,
# seed=5), recorded before align_pair computed its costs in a band: a faster
# alignment must keep these bytes
_PINNED_ALIGNMENT_DIGEST = "0142c1dc0b083752b95fa3ed576ac002d27c557faceef107903471f60440da56"


@pytest.fixture(scope="module")
def seed5_corpus(lexicon):
    """Pairs, 384-piece vocabulary, alignments and training items of
    make_parallel_corpus(500, seed=5)."""
    pairs = synthetic.make_parallel_corpus(500, seed=5)
    vocab = C.induce_vocab([p.gt for p in pairs] + [p.asr for p in pairs], 384)
    alignments = [C.align_pair(p.gt, p.asr, lexicon) for p in pairs]
    items = C.build_training_items(alignments, vocab, [p.id for p in pairs], max_target_len=5)
    return pairs, vocab, alignments, items


def test_alignments_and_items_keep_their_pinned_bytes(seed5_corpus):
    _, _, alignments, items = seed5_corpus
    lines = [
        f"{k}\t{e.gt_word}\t{' '.join(e.asr_words)}\t{e.label}"
        for k, entries in enumerate(alignments)
        for e in entries
    ]
    lines += [
        f"{i.sentence_id}\t{i.position}\t{' '.join(map(str, i.target_ids))}\t"
        + " ".join(map(str, i.sentence))
        for i in items
    ]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == _PINNED_ALIGNMENT_DIGEST


def test_item_sentence_is_what_decoding_encodes(seed5_corpus):
    # training reads an item's sentence, corrupt_corpus the ids tokenize
    # gives the text: the encoder must see the same ids either way
    pairs, vocab, _, items = seed5_corpus
    gt = {p.id: p.gt for p in pairs}
    assert len(items) == 1269
    for item in items:
        assert item.sentence == tuple(t.piece_id for t in C.tokenize(gt[item.sentence_id], vocab))


class TestBuildTrainingItems:
    def test_all_match_yields_nothing(self, lexicon, fixture_vocab):
        alignment = C.align_pair("only the gag", "only the gag", lexicon)
        assert C.build_training_items([alignment], fixture_vocab, max_target_len=5) == []

    def test_appendix_targets(self, lexicon, fixture_vocab):
        alignment = C.align_pair(
            "only labored the gags", "only labored labor thes gag", lexicon
        )
        items = C.build_training_items([alignment], fixture_vocab, max_target_len=5)
        pieces = fixture_vocab.pieces
        got = [(i.position, pieces[i.sentence[i.position]], tuple(pieces[t] for t in i.target_ids), i.error_label)
               for i in items]
        assert got == [
            (2, "##ed", ("##ed", "labor", "[EOS]"), C.INSERTION),
            (3, "the", ("the", "##s", "[EOS]"), C.INSERTION),
            (5, "##s", ("[EOS]",), C.DELETION),
        ]

    def test_deletion_target_is_bare_eos(self, lexicon, fixture_vocab):
        alignment = C.align_pair("only the", "only", lexicon)
        items = C.build_training_items([alignment], fixture_vocab, max_target_len=5)
        assert len(items) == 1
        assert tuple(fixture_vocab.pieces[t] for t in items[0].target_ids) == ("[EOS]",)
        assert items[0].error_label == C.DELETION

    def test_every_target_ends_with_single_eos(self, small_setup):
        vocab, _, items = small_setup
        assert items
        for item in items:
            assert item.target_ids[-1] == vocab.eos_id
            assert sum(1 for t in item.target_ids if t == vocab.eos_id) == 1

    def test_error_label_follows_length_rule(self, small_setup):
        _, _, items = small_setup
        for item in items:
            m = len(item.target_ids)
            expected = C.DELETION if m == 1 else C.SUBSTITUTION if m == 2 else C.INSERTION
            assert item.error_label == expected

    def test_max_target_len_clamps(self, lexicon, fixture_vocab):
        alignment = C.align_pair(
            "only labored the gags", "only labored labor thes gag", lexicon
        )
        items = C.build_training_items([alignment], fixture_vocab, max_target_len=2)
        assert all(len(i.target_ids) <= 2 for i in items)
        assert all(i.target_ids[-1] == fixture_vocab.eos_id for i in items)

    @pytest.mark.parametrize("ids", [["x"], ["x", "y", "z"]], ids=["short", "long"])
    def test_sentence_ids_must_pair_with_the_alignments(self, lexicon, fixture_vocab, ids):
        alignments = [C.align_pair("only the gag", "only the gags", lexicon)] * 2
        with pytest.raises(LengthMismatchError, match=f"^{len(ids)} sentence ids vs 2 alignments$"):
            C.build_training_items(alignments, fixture_vocab, ids, max_target_len=5)

    def test_substitution_of_single_piece_word(self, lexicon):
        vocab = C.SubwordVocab(["[BOS]", "[EOS]", "[UNK]", "the", "thee", "cue"])
        alignment = C.align_pair("the cue", "thee cue", lexicon)
        items = C.build_training_items([alignment], vocab, max_target_len=5)
        assert len(items) == 1
        assert tuple(vocab.pieces[t] for t in items[0].target_ids) == ("thee", "[EOS]")
        assert items[0].error_label == C.SUBSTITUTION


# dyadic costs keep every path sum exact, so DP and oracle agree bit for bit
_costs = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.5])


@st.composite
def _cost_tables(draw):
    n = draw(st.integers(0, 6))
    m = draw(st.integers(0, 6))
    return draw(st.lists(st.lists(_costs, min_size=m, max_size=m), min_size=n, max_size=n)), m


# the word alignment's costs: phoneme distances in thirds of the code length
# are non-dyadic, so path sums round; the DP and its first form must round alike
_word_costs = st.sampled_from([0, 1 / 3, 1 / 2, 2 / 3, 1.0])


@st.composite
def _word_cost_tables(draw):
    """Cost tables up to 10 x 10, or with n much larger than m, whose last
    ``tail`` diagonal cells cost 0 (the run the DP leaves uncomputed)."""
    n, m = draw(st.one_of(
        st.tuples(st.integers(0, 10), st.integers(0, 10)),
        st.tuples(st.integers(12, 30), st.integers(0, 2)),
    ))
    table = draw(st.lists(st.lists(_word_costs, min_size=m, max_size=m), min_size=n, max_size=n))
    tail = draw(st.integers(0, min(n, m)))
    for k in range(1, tail + 1):
        table[n - k][m - k] = 0
    return table, m


class TestAlignSequences:
    @settings(max_examples=300)
    # a shared prefix: the full table inserts hyp[0] before it, so a DP that
    # trimmed the prefix (inserting hyp[2]) would move the insertion
    @example((C.unit_costs("aa", "aaa"), 3))
    @example((C.unit_costs("a", "aaa"), 3))
    @example(([[]] * 4, 0))
    @example(([[0.0, 0.0]] * 20, 2))
    @example(([[0, 1 / 3, 2 / 3], [1 / 3, 0, 1 / 3], [2 / 3, 1 / 3, 0]], 3))
    @given(_word_cost_tables())
    def test_steps_equal_the_full_table_reference(self, table):
        sub_costs, m = table
        assert C.align_sequences(sub_costs, m) == align_sequences_reference(sub_costs, m)

    @settings(max_examples=150)
    @given(_cost_tables())
    def test_step_costs_sum_to_the_minimum(self, table):
        sub_costs, m = table
        steps = C.align_sequences(sub_costs, m)
        total = sum(1.0 if i is None or j is None else sub_costs[i][j] for i, j in steps)
        assert total == alignment_cost_recursive(len(sub_costs), m, lambda i, j: sub_costs[i][j])

    @settings(max_examples=150)
    @given(_cost_tables())
    def test_steps_visit_every_index_once_in_order(self, table):
        sub_costs, m = table
        steps = C.align_sequences(sub_costs, m)
        assert [i for i, _ in steps if i is not None] == list(range(len(sub_costs)))
        assert [j for _, j in steps if j is not None] == list(range(m))

