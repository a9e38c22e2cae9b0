import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asrnoise import corpus as C
from asrnoise.errors import EmptyCorpusError, SizeTooSmallError

from conftest import make_token_seq
from oracles import alignment_cost_recursive


class TestNormalize:
    def test_lowercase_and_punctuation(self):
        assert C.normalize("Hello, World!") == "hello world"

    def test_whitespace_collapse(self):
        assert C.normalize("  a\t b \n c ") == "a b c"


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


class TestTokenize:
    def test_greedy_longest_match(self, fixture_vocab):
        assert C.tokenize("as bestial", fixture_vocab).surfaces == ("as", "best", "##ial")

    def test_detokenize_glue_rule(self, fixture_vocab):
        seq = make_token_seq(fixture_vocab, ["as", "best", "at", "##ial"])
        assert C.detokenize(seq) == "as best atial"

    def test_round_trip_in_vocab_text(self, fixture_vocab):
        text = "as bestial gags the labor"
        assert C.detokenize(C.tokenize(text, fixture_vocab)) == text

    def test_unknown_character_becomes_unk(self, fixture_vocab):
        seq = C.tokenize("z", fixture_vocab)
        assert seq.tokens[0].piece_id == fixture_vocab.unk_id

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


class TestBuildTrainingItems:
    def test_all_match_yields_nothing(self, lexicon, fixture_vocab):
        alignment = C.align_pair("only the gag", "only the gag", lexicon)
        assert C.build_training_items([alignment], fixture_vocab) == []

    def test_appendix_targets(self, lexicon, fixture_vocab):
        alignment = C.align_pair(
            "only labored the gags", "only labored labor thes gag", lexicon
        )
        items = C.build_training_items([alignment], fixture_vocab)
        got = [(i.position, i.gt_piece, i.target_surfaces, i.error_label) for i in items]
        assert got == [
            (2, "##ed", ("##ed", "labor", "[EOS]"), C.INSERTION),
            (3, "the", ("the", "##s", "[EOS]"), C.INSERTION),
            (5, "##s", ("[EOS]",), C.DELETION),
        ]

    def test_deletion_target_is_bare_eos(self, lexicon, fixture_vocab):
        alignment = C.align_pair("only the", "only", lexicon)
        items = C.build_training_items([alignment], fixture_vocab)
        assert len(items) == 1
        assert items[0].target_surfaces == ("[EOS]",)
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

    def test_substitution_of_single_piece_word(self, lexicon):
        vocab = C.SubwordVocab(["[BOS]", "[EOS]", "[UNK]", "the", "thee", "cue"])
        alignment = C.align_pair("the cue", "thee cue", lexicon)
        items = C.build_training_items([alignment], vocab)
        assert len(items) == 1
        assert items[0].target_surfaces == ("thee", "[EOS]")
        assert items[0].error_label == C.SUBSTITUTION


# dyadic costs keep every path sum exact, so DP and oracle agree bit for bit
_costs = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.5])


@st.composite
def _cost_tables(draw):
    n = draw(st.integers(0, 6))
    m = draw(st.integers(0, 6))
    return draw(st.lists(st.lists(_costs, min_size=m, max_size=m), min_size=n, max_size=n)), m


class TestAlignSequences:
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

