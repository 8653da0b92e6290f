"""Exception types and parameter validators shared across the package.

Every failure mode raises one of the classes below so callers can
distinguish bad parameters from numerical breakdown without string
matching.
"""

from __future__ import annotations

import math
import numbers

__all__ = [
    "NlsboxError",
    "RepresentationError",
    "DomainError",
    "ResolutionError",
    "InstabilityError",
    "ConfigError",
    "UndersamplingWarning",
]


class NlsboxError(Exception):
    """Base class for all package-specific errors."""


class RepresentationError(NlsboxError, ValueError):
    """A field was supplied in the wrong representation (physical vs frequency)."""


class DomainError(NlsboxError, ValueError):
    """A parameter lies outside the domain an operation supports."""


class ResolutionError(NlsboxError, ValueError):
    """The grid cannot resolve the requested scale or cutoff."""


class InstabilityError(NlsboxError, RuntimeError):
    """A time evolution produced non-finite samples or blew up."""


class ConfigError(NlsboxError, ValueError):
    """An experiment configuration file is malformed or inconsistent."""


class UndersamplingWarning(UserWarning):
    """A time series is too coarsely sampled for the statistic computed from it."""


def _require_integer(name: str, value, low: int | None = None) -> int:
    """``value`` as a plain ``int``, if it is an integer (numpy's included,
    booleans not) and, when ``low`` is given, at least ``low``."""
    if type(value) is not int:  # a plain int, the common case, skips the ABC test
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise DomainError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if low is not None and value < low:
        raise DomainError(f"{name} must be an integer >= {low}, got {value!r}")
    return value


def _require_dim(dim) -> int:
    """A spatial dimension: the integer 2 or 3, as a plain ``int``."""
    if (value := _require_integer("dim", dim)) not in (2, 3):
        raise DomainError(f"dim must be 2 or 3, got {dim!r}")
    return value


def _require_equation(dim, k) -> tuple[int, int]:
    """``|u|^(2k) u`` in ``dim`` dimensions: any ``k`` in 2d, cubic in 3d;
    ``(dim, k)`` as plain ``int``s."""
    dim, k = _require_dim(dim), _require_integer("k", k, low=1)
    if k != 1 and dim == 3:
        raise DomainError("three dimensional runs support the cubic case only")
    return dim, k


def _require_exponent(name: str, value) -> float:
    """A Lebesgue exponent as a float: a real >= 1, ``inf`` included, NaN and booleans not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not value >= 1.0:
        raise DomainError(f"{name} must be a number >= 1, got {value!r}")
    return float(value)


def _require_same_dim(what: str, dim: int, requested: int) -> None:
    """A field or trajectory of dimension ``dim`` where ``requested`` is asked for."""
    if dim != requested:
        raise DomainError(f"{what} lives in {dim} dimensions but {requested} are requested")


def _require_increasing(name: str, values) -> None:
    """``values`` strictly increasing; a NaN anywhere fails the test."""
    if any(not b > a for a, b in zip(values, values[1:])):  # true for NaN, too
        raise DomainError(f"{name} must be strictly increasing")


def _require_real(name: str, value, positive: bool = False) -> float:
    """``value`` as a float, if it is a finite real number (and positive if asked).

    Plain ints and floats, else any ``numbers.Real`` (an ABC test, slower);
    booleans are rejected, and so are integers too large for a float.
    """
    real = isinstance(value, (int, float, numbers.Real)) and not isinstance(value, bool)
    try:
        finite = real and math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        finite = False
    if not finite:
        raise DomainError(f"{name} must be a finite number, got {value!r}")
    if positive and not value > 0:
        raise DomainError(f"{name} must be positive, got {value!r}")
    return float(value)
