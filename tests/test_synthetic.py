import numpy as np
import pytest

from asrnoise import synthetic
from asrnoise.phonetics import g2p, phoneme_edit_distance


class TestSplitWordPool:
    def test_disjoint_and_covering(self, lexicon):
        train, heldout = synthetic.split_word_pool(lexicon)
        assert not set(train) & set(heldout)
        assert sorted(train + heldout) == sorted(lexicon.words())

    def test_deterministic(self, lexicon):
        assert synthetic.split_word_pool(lexicon) == synthetic.split_word_pool(lexicon)


class TestConfusionCandidates:
    def test_homophones_rank_first(self, lexicon):
        cands = synthetic.confusion_candidates(lexicon, pool=["cue", "queue", "sue", "workers"])
        assert cands["cue"][0] == "queue"
        assert cands["queue"][0] == "cue"

    def test_candidates_exclude_self(self, lexicon):
        cands = synthetic.confusion_candidates(lexicon, pool=["cat", "bat", "mat", "pat"])
        for word, near in cands.items():
            assert word not in near
            assert near


class TestMakeParallelCorpus:
    def test_deterministic(self):
        a = synthetic.make_parallel_corpus(20, seed=5)
        b = synthetic.make_parallel_corpus(20, seed=5)
        assert a == b
        assert a != synthetic.make_parallel_corpus(20, seed=6)

    @pytest.mark.parametrize(
        "seed", [True, np.bool_(True), -1, 2**64, 1.0], ids=["bool", "numpy-bool", "minus-one", "2**64", "float"]
    )
    def test_seed_outside_64_bits_rejected(self, seed):
        # True is an int to isinstance and would repeat seed 1's corpus
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            synthetic.make_parallel_corpus(3, seed=seed)

    def test_corruption_rate_in_range(self, lexicon):
        pairs = synthetic.make_parallel_corpus(150, seed=8, corruption_rate=0.4)
        changed = total = 0
        for pair in pairs:
            gt = pair.gt.split()
            asr = pair.asr.split()
            total += len(gt)
            if gt != asr:
                changed += 1
        assert changed / len(pairs) > 0.5  # most sentences carry some noise

    def test_substitutions_are_phonetically_close(self, lexicon):
        pairs = synthetic.make_parallel_corpus(60, seed=9, type_weights=(1.0, 0.0, 0.0))
        for pair in pairs:
            gt, asr = pair.gt.split(), pair.asr.split()
            assert len(gt) == len(asr)  # substitution-only corpus keeps length
            for g, a in zip(gt, asr):
                if g != a:
                    d = phoneme_edit_distance(g2p(g, lexicon), g2p(a, lexicon))
                    assert d <= 3.0

    def test_pool_restricts_vocabulary(self, lexicon):
        pool = ["cue", "queue", "sue", "key", "sea", "see", "tea", "bee"]
        pairs = synthetic.make_parallel_corpus(30, seed=2, pool=pool, type_weights=(1.0, 0.0, 0.0))
        used = {w for p in pairs for w in p.gt.split()}
        assert used <= set(pool)
