import copy
import os
import pickle
import re
import subprocess
import sys
from dataclasses import fields
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asrnoise import phonetics

from asrnoise.errors import DegenerateSupportError, EmptyWordError
from asrnoise.phonetics import (
    FALLBACK_LETTER_PHONEMES,
    UNK_SYMBOL,
    Phoneme,
    PronouncingLexicon,
    articulatory_mismatches,
    code_key,
    g2p,
    load_inventory,
    load_lexicon,
    phoneme_edit_distance,
    phoneme_sub_cost,
    phonetic_similarity,
    supervision_distribution,
)

from oracles import edit_distance_recursive


class TestFileFormats:
    def test_custom_inventory_and_lexicon_round_trip(self, tmp_path):
        inventory_path = tmp_path / "inventory.tsv"
        inventory_path.write_text(
            "# comment\n"
            "T\tconsonant\talveolar\tstop\tvoiceless\n"
            "AA\tvowel\tlow\tback\tunrounded\n"
            "UNK\tconsonant\tglottal\tstop\tvoiceless\n"
        )
        lexicon_path = tmp_path / "lexicon.tsv"
        lexicon_path.write_text("tot\tT AA T\n")
        inventory = load_inventory(inventory_path)
        assert set(inventory) == {"T", "AA", "UNK"}
        lexicon = load_lexicon(lexicon_path, inventory)
        assert code_key(g2p("TOT", lexicon)) == "T AA T"

    def test_lexicon_symbol_missing_from_inventory_rejected(self, tmp_path):
        inventory_path = tmp_path / "inventory.tsv"
        inventory_path.write_text("T\tconsonant\talveolar\tstop\tvoiceless\nAA\tvowel\tlow\tback\tunrounded\n")
        lexicon_path = tmp_path / "lexicon.tsv"
        lexicon_path.write_text("# header\ntat\tT AA T\ntot\tT ZZ T\n")
        with pytest.raises(ValueError, match="line 3: phoneme 'ZZ'"):
            load_lexicon(lexicon_path, load_inventory(inventory_path))

    @pytest.mark.parametrize(
        "bad_line, message",
        [
            ("hello HH AH L OW", "expected WORD<TAB>PHONEMES"),
            ("queue\t", "expected WORD<TAB>PHONEMES"),
            ("queue\tK Y UW\tK Y UW", "expected WORD<TAB>PHONEMES"),
            # normalize splits or strips these, so no word could look them up
            ("bad word\tT AA T", "word 'bad word' is not [a-z0-9]+ once lowercased"),
            ("t-t\tT T", "word 't-t' is not [a-z0-9]+ once lowercased"),
            # words are case-insensitive, so a later spelling would replace the first
            ("tat\tT AA", "word 'tat' is already listed at line 1"),
            ("TAT\tT AA", "word 'TAT' is already listed at line 1"),
        ],
        ids=["no-tab", "empty-code", "third-column", "space", "punctuation", "repeat", "repeat-case"],
    )
    def test_malformed_lexicon_line_rejected_by_line(self, tmp_path, bad_line, message):
        inventory_path = tmp_path / "inventory.tsv"
        inventory_path.write_text("T\tconsonant\talveolar\tstop\tvoiceless\nAA\tvowel\tlow\tback\tunrounded\n")
        lexicon_path = tmp_path / "lexicon.tsv"
        lexicon_path.write_text(f"tat\tT AA T\n{bad_line}\n")
        with pytest.raises(ValueError, match=re.escape(f"line 2: {message}")):
            load_lexicon(lexicon_path, load_inventory(inventory_path))

    @pytest.mark.parametrize(
        "words, message",
        [
            (["cue", "Cue"], "word 'Cue' is already listed as 'cue'"),
            (["two words"], "word 'two words' is not [a-z0-9]+ once lowercased"),
        ],
        ids=["repeat-case", "space"],
    )
    def test_constructor_rejects_what_load_lexicon_rejects(self, lexicon, words, message):
        # no entry is silently replaced, and none is one no normalized word looks up
        entries = {word: g2p("cue", lexicon) for word in words}
        with pytest.raises(ValueError, match=re.escape(message)):
            PronouncingLexicon(entries, lexicon.inventory)

    def test_entries_must_stay_in_inventory(self, lexicon):
        code = g2p("cue", lexicon)
        tiny_inventory = {"UNK": lexicon.phoneme("UNK")}
        with pytest.raises(ValueError):
            PronouncingLexicon({"cue": code}, tiny_inventory)

    def test_duplicate_inventory_symbol_rejected(self, tmp_path):
        path = tmp_path / "inventory.tsv"
        path.write_text(
            "T\tconsonant\talveolar\tstop\tvoiceless\n"
            "T\tconsonant\talveolar\tstop\tvoiced\n"
        )
        with pytest.raises(ValueError):
            load_inventory(path)

    @pytest.mark.parametrize(
        "line",
        [
            "T\tconsonant\talveolar\tstop",
            "T\tconsonant\talveolar\tstop\tvoiceless\textra",
            "T\tglide\talveolar\tstop\tvoiceless",
        ],
    )
    def test_bad_field_count_or_kind_rejected(self, tmp_path, line):
        path = tmp_path / "inventory.tsv"
        path.write_text(line + "\n")
        with pytest.raises(ValueError):
            load_inventory(path)

    def test_phoneme_is_a_flat_record(self, lexicon):
        assert [f.name for f in fields(Phoneme)] == ["symbol", "kind", "features"]
        assert lexicon.phoneme("B") == Phoneme("B", "consonant", ("bilabial", "stop", "voiced"))
        code = g2p("cue", lexicon)
        assert type(code) is tuple
        assert code == tuple(lexicon.phoneme(s) for s in ("K", "Y", "UW"))


class TestG2P:
    def test_lexicon_lookup_cue(self, lexicon):
        assert code_key(g2p("cue", lexicon)) == "K Y UW"

    def test_case_insensitive(self, lexicon):
        assert g2p("CUE", lexicon) == g2p("cue", lexicon)

    def test_empty_word_rejected(self, lexicon):
        with pytest.raises(EmptyWordError):
            g2p("", lexicon)
        with pytest.raises(EmptyWordError):
            g2p("##", lexicon)

    def test_continuation_prefix_stripped(self, lexicon):
        assert code_key(g2p("##cue", lexicon)) == "K Y UW"

    def test_fallback_ial(self, lexicon):
        # golden value: i -> IH, a -> AE, l -> L under the letter table
        assert code_key(g2p("##ial", lexicon)) == "IH AE L"
        expected = " ".join(s for ch in "ial" for s in FALLBACK_LETTER_PHONEMES[ch])
        assert code_key(g2p("##ial", lexicon)) == expected

    def test_unknown_character_maps_to_unk(self, lexicon):
        code = g2p("a9", lexicon)
        assert code_key(code) == f"AE {UNK_SYMBOL}"

    def test_fallback_stays_in_inventory(self, lexicon):
        for word in ("zyxq", "brrrr", "ial"):
            for ph in g2p(word, lexicon):
                assert ph.symbol in lexicon.inventory


def _inventory_columns() -> dict[str, tuple[str, str, str, str]]:
    """``symbol -> (kind, slot1, slot2, slot3)`` read straight from the shipped file."""
    text = (resources.files("asrnoise.data") / "inventory.tsv").read_text(encoding="utf-8")
    rows = [line.split("\t") for line in text.splitlines() if line and not line.startswith("#")]
    return {symbol: tuple(rest) for symbol, *rest in rows}


class TestSubCost:
    def test_mismatches_over_all_inventory_pairs(self, lexicon):
        columns = _inventory_columns()
        assert len(columns) == 40
        for a, (kind_a, *slots_a) in columns.items():
            for b, (kind_b, *slots_b) in columns.items():
                if kind_a != kind_b:
                    expected = 3
                else:
                    expected = sum(x != y for x, y in zip(slots_a, slots_b))
                got = articulatory_mismatches(lexicon.phoneme(a), lexicon.phoneme(b))
                assert got == expected, (a, b)

    def test_identity_is_zero(self, lexicon):
        for ph in lexicon.inventory.values():
            assert phoneme_sub_cost(ph, ph) == 0.0

    def test_kind_mismatch_is_one(self, lexicon):
        consonant = lexicon.phoneme("B")
        vowel = lexicon.phoneme("IY")
        assert phoneme_sub_cost(consonant, vowel) == 1.0

    def test_b_vs_p_differs_only_in_voicing(self, lexicon):
        cost = phoneme_sub_cost(lexicon.phoneme("B"), lexicon.phoneme("P"))
        assert cost == pytest.approx(1.0 / 3.0)

    def test_symmetric_bounded_zero_only_on_identity(self, lexicon):
        phonemes = list(lexicon.inventory.values())
        for p in phonemes:
            for q in phonemes:
                c = phoneme_sub_cost(p, q)
                assert 0.0 <= c <= 1.0
                assert c == phoneme_sub_cost(q, p)
                assert (c == 0.0) == (p.symbol == q.symbol)


class TestEditDistance:
    def test_identical_codes_zero(self, lexicon):
        for word in ("cue", "labored", "cereal"):
            code = g2p(word, lexicon)
            assert phoneme_edit_distance(code, code) == 0.0

    def test_against_empty_is_length(self, lexicon):
        code = g2p("workers", lexicon)
        empty = ()
        assert phoneme_edit_distance(code, empty) == float(len(code))
        assert phoneme_edit_distance(empty, code) == float(len(code))

    def test_matches_recursive_oracle_on_sample(self, lexicon):
        words = lexicon.words()[50:90]
        codes = [g2p(w, lexicon) for w in words]
        for cp in codes[:20]:
            for cq in codes[20:]:
                assert phoneme_edit_distance(cp, cq) == edit_distance_recursive(cp, cq)

    def test_metric_properties_random_triples(self, lexicon):
        rng = np.random.default_rng(42)
        words = lexicon.words()
        codes = {w: g2p(w, lexicon) for w in words}
        for _ in range(300):
            a, b, c = (codes[words[i]] for i in rng.integers(0, len(words), size=3))
            dab = phoneme_edit_distance(a, b)
            dba = phoneme_edit_distance(b, a)
            assert dab == dba
            assert dab >= 0.0
            assert (dab == 0.0) == (code_key(a) == code_key(b))
            assert phoneme_edit_distance(a, c) <= dab + phoneme_edit_distance(b, c) + 1e-12


# Every articulation here has a feature value the shipped inventory lacks, but
# for TT, which shares T's, so it must share T's interned id too.
_CUSTOM_INVENTORY = (
    "Q\tconsonant\tuvular\tstop\tvoiceless\n"
    "RR\tconsonant\talveolar\ttrill\tvoiced\n"
    "TS\tconsonant\tretroflex\tejective\tglottalized\n"
    "TT\tconsonant\talveolar\tstop\tvoiceless\n"
    "OE\tvowel\tmidlow\tnearfront\tcompressed\n"
    "A\tvowel\topen\tcentral\tunrounded\n"
    "UNK\tvowel\tmid\tcentral\tneutral\n"
)


@pytest.fixture(scope="module")
def custom_inventory(lexicon, tmp_path_factory):
    """A second inventory, loaded after the shipped one."""
    path = tmp_path_factory.mktemp("inventory") / "inventory.tsv"
    path.write_text(_CUSTOM_INVENTORY)
    return load_inventory(path)


@pytest.fixture(scope="module")
def mixed_phonemes(lexicon, custom_inventory):
    return [*lexicon.inventory.values(), *custom_inventory.values()]


class TestInternedMismatchTable:
    """The dynamic program reads an interned integer table; the feature
    comparison in ``articulatory_mismatches`` stays its definition."""

    @staticmethod
    def _table_disagreements(phonemes):
        table = phonetics._MISMATCH_UNITS
        return [
            (p.symbol, q.symbol)
            for p in phonemes
            for q in phonemes
            if table[p.articulation][q.articulation] != articulatory_mismatches(p, q)
        ]

    def test_table_equals_the_feature_comparison_on_the_shipped_inventory(self, lexicon):
        assert self._table_disagreements(list(lexicon.inventory.values())) == []

    def test_a_later_inventory_with_new_feature_values_extends_the_table(
        self, lexicon, custom_inventory, mixed_phonemes
    ):
        assert self._table_disagreements(mixed_phonemes) == []
        assert custom_inventory["TT"].articulation == lexicon.phoneme("T").articulation
        shipped = {p.articulation for p in lexicon.inventory.values()}
        assert all(custom_inventory[s].articulation not in shipped for s in ("Q", "RR", "TS", "OE", "A", "UNK"))

    def test_a_phoneme_built_outside_any_inventory(self, lexicon):
        bilabial_trill = Phoneme("BB", "consonant", ("bilabial", "trill", "voiced"))
        code = (bilabial_trill, *g2p("bestial", lexicon))
        other = g2p("labored", lexicon)
        for cp, cq in [(code, other), (other, code), (code, code[::-1]), ((bilabial_trill,), ())]:
            assert phoneme_edit_distance(cp, cq) == edit_distance_recursive(cp, cq)

    @settings(max_examples=300)
    @given(data=st.data())
    def test_distance_matches_the_recursive_oracle_across_inventories(self, mixed_phonemes, data):
        codes = st.lists(st.sampled_from(mixed_phonemes), max_size=8).map(tuple)
        cp, cq = data.draw(codes), data.draw(codes)
        assert phoneme_edit_distance(cp, cq) == edit_distance_recursive(cp, cq)

    def test_a_copy_keeps_its_articulation_and_carries_no_state(self, lexicon):
        k = lexicon.phoneme("K")
        for clone in (copy.copy(k), copy.deepcopy(k), pickle.loads(pickle.dumps(k))):
            assert clone == k and clone.articulation == k.articulation
        assert b"articulation" not in pickle.dumps(k)

    def test_an_unpickled_phoneme_takes_the_id_of_its_process(self, lexicon, custom_inventory):
        code = (*g2p("queue", lexicon), custom_inventory["Q"], custom_inventory["OE"])
        other = g2p("bestial", lexicon)
        script = (
            "import pickle, sys\n"
            "from asrnoise import phonetics\n"
            "phonetics.Phoneme('X', 'vowel', ('open', 'front', 'spread'))  # shifts every later id\n"
            "code, other = pickle.loads(sys.stdin.buffer.read())\n"
            "ids = phonetics._ARTICULATION_IDS\n"
            "assert [p.articulation for p in code + other] == [ids[(p.kind, p.features)] for p in code + other]\n"
            "print(repr(phonetics.phoneme_edit_distance(code, other)))\n"
        )
        src = Path(phonetics.__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", script], input=pickle.dumps((code, other)),
            env=env, capture_output=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr.decode()
        assert float(result.stdout) == phoneme_edit_distance(code, other) == edit_distance_recursive(code, other)


class TestSimilarity:
    def test_self_similarity_is_code_length(self, lexicon):
        for word in lexicon.words():
            assert phonetic_similarity(word, word, lexicon) == float(len(g2p(word, lexicon)))

    def test_disjoint_words_floor_at_zero(self, lexicon):
        # |C_p| = 2, |C_q| = 5 with no shared phonemes: D >= 3 >= |C_p|
        assert phonetic_similarity("be", "workers", lexicon) == 0.0

    def test_cue_queue_beats_cue_sue(self, lexicon):
        s_queue = phonetic_similarity("cue", "queue", lexicon)
        s_sue = phonetic_similarity("cue", "sue", lexicon)
        assert s_queue > s_sue > 0.0

    def test_asymmetric_normalization(self, lexicon):
        # first argument's code length sets the budget
        assert phonetic_similarity("be", "bean", lexicon) != phonetic_similarity("bean", "be", lexicon)


class TestSupervisionDistribution:
    def test_single_support(self, lexicon):
        r = supervision_distribution("cue", ["cue"], lexicon)
        assert r.shape == (1,)
        assert r[0] == 1.0

    def test_homophones_get_uniform_mass(self, lexicon):
        r = supervision_distribution("meat", ["meat", "meet"], lexicon)
        np.testing.assert_allclose(r, [0.5, 0.5])

    def test_five_token_vector_matches_oracle(self, lexicon):
        vocab = ["queue", "sue", "few", "new", "key"]
        target = "cue"
        ct = g2p(target, lexicon)
        scores = np.array(
            [
                max(len(ct) - edit_distance_recursive(ct, g2p(w, lexicon)), 0.0)
                for w in vocab
            ]
        )
        expected = scores / scores.sum()
        got = supervision_distribution(target, vocab, lexicon)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)

    def test_sums_to_one_and_nonnegative(self, lexicon):
        rng = np.random.default_rng(7)
        words = lexicon.words()
        for _ in range(50):
            vocab = [words[i] for i in rng.integers(0, len(words), size=12)]
            target = words[int(rng.integers(0, len(words)))]
            r = supervision_distribution(target, vocab + [target], lexicon)
            assert abs(r.sum() - 1.0) <= 1e-9
            assert (r >= 0.0).all()

    def test_none_entries_are_masked(self, lexicon):
        r = supervision_distribution("cue", [None, "cue", None], lexicon)
        np.testing.assert_allclose(r, [0.0, 1.0, 0.0])

    def test_degenerate_support(self, lexicon):
        with pytest.raises(DegenerateSupportError):
            supervision_distribution("be", ["workers"], lexicon)
