"""Exception types and parameter validators shared across the package.

Every failure mode raises one of the classes below so callers can
distinguish bad parameters from numerical breakdown without string
matching.
"""

from __future__ import annotations

import sys

__all__ = [
    "NlsboxError",
    "RepresentationError",
    "DomainError",
    "ResolutionError",
    "InstabilityError",
    "ConfigError",
    "AtomicIntervalError",
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


class AtomicIntervalError(NlsboxError, RuntimeError):
    """A single time step already exceeds the requested interval budget."""


class UndersamplingWarning(UserWarning):
    """A time series is too coarsely sampled for the statistic computed from it."""


def _require_k(k) -> int:
    """The nonlinearity index ``k`` of ``|u|^(2k) u``, a positive integer."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise DomainError(f"k must be a positive integer, got {k!r}")
    return k


def _require_real(name: str, value, positive: bool = False) -> float:
    """``value`` as a float, if it is a finite real number (and positive if asked).

    Booleans are rejected even though Python counts them as integers, and
    so are integers too large for a float.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not abs(value) <= sys.float_info.max  # false for NaN, too
    ):
        raise DomainError(f"{name} must be a finite number, got {value!r}")
    if positive and not value > 0:
        raise DomainError(f"{name} must be positive, got {value!r}")
    return float(value)
