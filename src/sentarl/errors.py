"""Exception types shared across the package."""


class SentarlError(Exception):
    """Base class for errors raised by this package."""


class IngestError(SentarlError, ValueError):
    """A data file could not be parsed or failed validation.

    Messages include the offending file and, where applicable, the
    1-based line number. Like a parse error from ``json``, it is also a
    ValueError.
    """


class ConfigError(SentarlError, ValueError):
    """A run configuration or a flag is malformed or out of range.

    Messages start with the dotted config key or the flag. Like
    IngestError, it is also a ValueError.
    """


class ModelFormatError(SentarlError):
    """A serialized model file is truncated, corrupt, or has an
    unsupported format version."""


class NonFiniteGradientError(SentarlError):
    """A parameter update was rejected because the gradients contained
    NaN or infinity."""

