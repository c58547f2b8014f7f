"""Exception hierarchy shared across the package.

Errors are grouped by how the command-line layer maps them to exit
codes: I/O failures (a lost worker process among them) exit 1,
validation and configuration problems exit 2, numeric failures (a
non-finite training loss or checkpoint weight, or weights too large to
evaluate) exit 3.
"""


class PhraseLabError(Exception):
    """Base class for every error raised by this package."""


class IoError(PhraseLabError):
    """Filesystem failure: unreadable input or unwritable output."""


class BadMagic(IoError):
    """Checkpoint file does not begin with the expected magic bytes."""


class WorkerLost(IoError):
    """A worker process exited before returning its result, killed or
    out of memory."""


class ValidationError(PhraseLabError):
    """Invalid data, arguments, or configuration."""


class ConfigError(ValidationError):
    """A configuration value violates its documented constraints."""


class MissingColumn(ValidationError):
    """CSV header lacks one or more required columns."""


class MalformedCsv(ValidationError):
    """A CSV row cannot be parsed into a record."""


class DuplicateId(MalformedCsv):
    """A record id appears more than once in the same file."""


class ScoreOutOfRange(ValidationError):
    """A similarity score falls outside the closed interval [0, 1]."""


class EmptyField(ValidationError):
    """A required text field is empty after whitespace trimming."""


class EmptyDataset(ValidationError):
    """An operation that needs records received a dataset with none."""


class MaxLenTooSmall(ValidationError):
    """Sequence length budget cannot hold the special-token scaffold."""


class UnknownPreset(ValidationError):
    """Requested model preset name is not defined."""


class TooFewRecords(ValidationError):
    """Not enough records to build the requested fold plan."""


class LengthMismatch(ValidationError):
    """Paired sequences have different lengths."""


class ZeroVariance(ValidationError):
    """Correlation is undefined because one input is constant."""


class EmptySplit(ValidationError):
    """A train/validation split has an empty or overlapping side."""


class AllMasked(ValidationError):
    """An attention mask hides every position of some sequence."""


class ShapeMismatch(ValidationError):
    """Array shape disagrees with the shape implied by configuration."""


class NumericError(PhraseLabError):
    """Numeric failure while training or evaluating."""


class NonFiniteLoss(NumericError):
    """Training produced a NaN or infinite loss value."""


class NonFiniteWeights(NumericError):
    """A checkpoint holds a NaN or infinite parameter value."""


class NumericOverflow(NumericError):
    """Weights too large to evaluate: a step of the forward pass leaves
    the float64 range."""
