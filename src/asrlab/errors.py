"""Exception types shared across the package."""


class AsrLabError(Exception):
    """Base class for errors raised by this package."""


class ShapeError(AsrLabError):
    """Operand shapes are incompatible with the requested operation."""


class NumericError(AsrLabError):
    """A numeric domain violation (log/exp overflow, non-finite values)."""


class UsageError(AsrLabError):
    """The API was called in an unsupported way."""


class DataError(AsrLabError):
    """Malformed or inconsistent input data (manifests, files, ids)."""


class DivergenceError(AsrLabError):
    """Training produced NaN/Inf and was aborted."""


class SkippedUtteranceWarning(UserWarning):
    """An utterance was left out of a batch loss (e.g. a CTC label longer than its frames allow)."""
