"""Exception types shared across the package, the base of its enums, and
the value checks of config keys and command flags."""

import enum
import sys


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


# Each check takes a JSON-typed value and the dotted key or flag it came from, and
# returns it (numbers as floats, lists as tuples) or raises a ConfigError naming it.


def _number(value: object, where: str, lo: float | None = None,
            hi: float | None = None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    if not -sys.float_info.max <= value <= sys.float_info.max:  # NaN, inf, huge ints
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    if lo is not None and value < lo:
        raise ConfigError(f"{where}: {value} is below the minimum {lo}")
    if hi is not None and value > hi:
        raise ConfigError(f"{where}: {value} exceeds the maximum {hi}")
    return float(value)


def _integer(value: object, where: str, lo: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    if lo is not None and value < lo:
        raise ConfigError(f"{where}: {value} is below the minimum {lo}")
    return value


def _boolean(value: object, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where}: expected true or false, got {value!r}")
    return value


def _string(value: object, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where}: expected a string, got {value!r}")
    return value


def _list(value: object, where: str, item, nonempty: bool = True) -> tuple:
    if not isinstance(value, (list, tuple)) or (nonempty and not value):
        raise ConfigError(f"{where}: expected a {'non-empty list' if nonempty else 'list'}")
    return tuple(item(v, f"{where}[{i}]") for i, v in enumerate(value))


def _choice(value: object, where: str, cls: type[Choice]) -> Choice:
    """A member of `cls`, given as one or as its string value."""
    if not isinstance(value, cls):
        _string(value, where)
    try:
        return cls(value)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
