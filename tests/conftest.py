import pytest
from hypothesis import settings

from asrnoise import corpus as corpus_mod
from asrnoise import model as model_mod
from asrnoise import synthetic
from asrnoise.phonetics import default_lexicon

# Property tests draw the same examples on every run and write no example
# database, so a run's outcome depends only on the code under test.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def lexicon():
    return default_lexicon()


@pytest.fixture(scope="session")
def fixture_vocab():
    """Hand-built vocabulary matching the assembly fixtures."""
    return corpus_mod.SubwordVocab(
        [
            "[BOS]",
            "[EOS]",
            "[UNK]",
            "as",
            "best",
            "##ial",
            "at",
            "only",
            "labor",
            "##ed",
            "the",
            "gag",
            "##s",
        ]
    )


@pytest.fixture(scope="session")
def small_corpus():
    return synthetic.make_parallel_corpus(80, seed=123)


@pytest.fixture(scope="session")
def small_setup(small_corpus, lexicon):
    """Vocab, alignments and training items for a small synthetic corpus."""
    texts = [p.gt for p in small_corpus] + [p.asr for p in small_corpus]
    vocab = corpus_mod.induce_vocab(texts, 200)
    alignments = [corpus_mod.align_pair(p.gt, p.asr, lexicon) for p in small_corpus]
    items = corpus_mod.build_training_items(
        alignments, vocab, [p.id for p in small_corpus], max_target_len=5
    )
    return vocab, alignments, items


@pytest.fixture(scope="session")
def small_model(small_setup, lexicon):
    vocab, _, _ = small_setup
    return model_mod.Model.build(
        vocab, lexicon, model_mod.ModelConfig(d_model=16, n_heads=2), seed=7
    )


def make_token_seq(vocab, pieces):
    """TokenSeq from explicit piece surfaces (## marks continuations)."""
    return tuple(corpus_mod.Token(vocab.piece_to_id[piece], piece) for piece in pieces)
