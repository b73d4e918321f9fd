"""Exception types shared across the package, and the base of its enums."""

import enum


class SentarlError(Exception):
    """Base class for errors raised by this package."""


class IngestError(SentarlError, ValueError):
    """A data file could not be parsed or failed validation.

    Messages include the offending file and, where applicable, the
    1-based line number. Like a parse error from ``json``, it is also a
    ValueError.
    """


class ConfigError(SentarlError):
    """A run configuration is malformed or out of range."""


class ModelFormatError(SentarlError):
    """A serialized model file is truncated, corrupt, or has an
    unsupported format version."""


class NonFiniteGradientError(SentarlError):
    """A parameter update was rejected because the gradients contained
    NaN or infinity."""


class Choice(enum.Enum):
    """A closed set of named options, each subclass naming its noun:
    ``class Grouping(Choice, noun="grouping method")``. Calling the class
    on a member returns it; on an unknown value it raises a ValueError
    that lists the valid values."""

    def __init_subclass__(cls, noun: str, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._noun = noun

    @classmethod
    def _missing_(cls, value):
        raise ValueError(f"unknown {cls._noun} {value!r}; "
                         f"expected one of {[m.value for m in cls]}")
