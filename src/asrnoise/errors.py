"""Exception types raised across the package."""


class AsrNoiseError(Exception):
    """Base class for all package errors."""


class EmptyWordError(AsrNoiseError):
    """Word is empty after stripping the subword continuation prefix."""


class DegenerateSupportError(AsrNoiseError):
    """Phonetic similarity is zero against every vocabulary entry."""


class SizeTooSmallError(AsrNoiseError):
    """Requested vocabulary size cannot hold specials plus the charset."""


class PriorOutOfRangeError(AsrNoiseError):
    """Corruption prior must lie in [0, 1]."""


class EmptyCorpusError(AsrNoiseError):
    """An operation that needs data received none."""


class SequenceTooLongError(AsrNoiseError):
    """Token sequence exceeds the model's positional table."""


class PrefixTooLongError(AsrNoiseError):
    """Decoder prefix exceeds the maximum generation length."""


class NonFiniteLossError(AsrNoiseError):
    """Training loss or its gradient norm became NaN or infinite.

    Carries the last parameter state that produced a finite loss so the
    caller can checkpoint it.  When only the gradient norm is not finite,
    that is the state the failing batch's loss was computed at: no step
    was taken from it.
    """

    def __init__(self, message, last_good=None):
        super().__init__(message)
        self.last_good = last_good


class MalformedInputError(AsrNoiseError):
    """A corpus, vocabulary, lexicon or inventory file cannot be parsed."""


class CorruptCheckpointError(AsrNoiseError):
    """Checkpoint file is truncated or structurally invalid."""


class VersionMismatchError(AsrNoiseError):
    """Checkpoint carries an unknown magic string or format version."""


class PlanMismatchError(AsrNoiseError):
    """Generated spans do not cover exactly the corrupted positions."""


class LengthMismatchError(AsrNoiseError):
    """Two inputs that pair up item for item differ in length: reference and
    hypothesis corpora, plans and token lists, or alignments and sentence ids."""


class InsufficientDataError(AsrNoiseError):
    """Too few observations per token id for the independence test."""


class ConfigParseError(AsrNoiseError):
    """Malformed line in a config file."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class UnknownConfigKeyError(AsrNoiseError):
    """Config file or flag referenced a key that does not exist."""
