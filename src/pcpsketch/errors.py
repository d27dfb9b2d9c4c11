"""Exception and warning types shared across the package, and
``_check_count``, the one check of every rank, count and dimension argument."""

import numbers


class Error(Exception):
    """Base class for all errors raised by this package."""


class InvalidMatrixError(Error, ValueError):
    """Input is not a finite 2-D real matrix."""


class InvalidRankError(Error, ValueError):
    """Rank argument outside its admissible range."""


class DimensionError(Error, ValueError):
    """Operand shapes are incompatible."""


class ZeroMatrixError(Error, ValueError):
    """Operation undefined on the zero matrix."""


class InvalidInputError(Error, ValueError):
    """Scalar or structured argument outside its admissible range."""


class InvalidOverestimateError(Error, ValueError):
    """Supplied score overestimates fall below the true scores."""


class UnsupportedFamilyError(Error, ValueError):
    """Requested sketch method is not implemented."""


class TooLargeError(Error, ValueError):
    """Instance exceeds the size cap of an exhaustive routine."""


class ConfigError(Error, ValueError):
    """Malformed run configuration."""


class WidthNotReducingWarning(UserWarning):
    """Sketch width is at least the input width; sketch is built anyway."""


def _check_count(value, name: str, minimum: int = 1, error: type = InvalidInputError) -> int:
    """``value`` as an int if it is a Python or NumPy integer, not a bool,
    of at least ``minimum``; else ``error``: ``InvalidRankError`` for a rank
    k, ``ConfigError`` for a run configuration, by default ``InvalidInputError``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise error(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)
