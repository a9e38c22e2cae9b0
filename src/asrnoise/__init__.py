"""asrnoise: turn clean text into ASR-plausible pseudo transcripts.

Corruption targets are chosen by an interventional sampler whose per-token
prior is independent of token identity, and replacement spans are decoded by
a phoneme-aware constrained generator, so the injected noise mimics what
speech recognizers get wrong without copying any single recognizer's bias.
"""
from .corpus import (
    AlignedExample,
    AlignmentEntry,
    ParallelPair,
    SubwordVocab,
    Token,
    TokenSeq,
    align_pair,
    build_training_items,
    detokenize,
    induce_vocab,
    normalize,
    tokenize,
)
from .evaluation import (
    error_type_breakdown,
    independence_report,
    mean_phoneme_distance,
    word_error_rate,
)
from .generation import (
    ErrorType,
    GeneratedSpan,
    SpanDecoder,
    assemble,
    corrupt_corpus,
    generate_span,
)
from .intervention import (
    ConditionalPriorTable,
    CorruptionPlan,
    estimate_conditional_prior,
    sample_plan_conditional,
    sample_plan_interventional,
)
from .model import (
    Model,
    ModelConfig,
    PhonemeCodeIndex,
    step_distributions,
)
from .phonetics import (
    Phoneme,
    PhoneticCode,
    PronouncingLexicon,
    code_key,
    default_lexicon,
    g2p,
    phoneme_edit_distance,
    phonetic_similarity,
    supervision_distribution,
)
from .synthetic import make_parallel_corpus
from .training import TrainConfig, load_checkpoint, save_checkpoint, train

__version__ = "0.1.0"

__all__ = [
    "AlignedExample",
    "AlignmentEntry",
    "ConditionalPriorTable",
    "CorruptionPlan",
    "ErrorType",
    "GeneratedSpan",
    "Model",
    "ModelConfig",
    "ParallelPair",
    "Phoneme",
    "PhoneticCode",
    "PhonemeCodeIndex",
    "PronouncingLexicon",
    "SpanDecoder",
    "SubwordVocab",
    "Token",
    "TokenSeq",
    "TrainConfig",
    "align_pair",
    "assemble",
    "build_training_items",
    "code_key",
    "corrupt_corpus",
    "default_lexicon",
    "detokenize",
    "error_type_breakdown",
    "estimate_conditional_prior",
    "g2p",
    "generate_span",
    "independence_report",
    "induce_vocab",
    "load_checkpoint",
    "make_parallel_corpus",
    "mean_phoneme_distance",
    "normalize",
    "phoneme_edit_distance",
    "phonetic_similarity",
    "sample_plan_conditional",
    "sample_plan_interventional",
    "save_checkpoint",
    "step_distributions",
    "supervision_distribution",
    "tokenize",
    "train",
    "word_error_rate",
]
