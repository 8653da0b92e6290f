"""Radial Fourier multipliers: smooth dyadic projections, sharp cutoffs,
fractional derivatives, and the low-frequency smoothing operator used by
the almost-conservation diagnostics.

All symbols are radial functions of ``|xi|``, evaluated once per integer
``|m|^2`` of the frequency lattice.  The smooth cutoff ``psi`` equals 1 on
``r <= 1`` and 0 on ``r >= 2`` exactly (masked branches), with the
transition given by the normalised primitive of the bump
``exp(-1/(1-t^2))``, so dyadic pieces have exact supports and telescope
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .errors import DomainError, ResolutionError, _require_integer, _require_real
from .spectral import Field, Grid, _map_spectrum, _radial, _readonly

__all__ = [
    "RadialSymbol",
    "ProjectionBank",
    "apply_symbol",
    "lp_project",
    "low_pass",
    "high_pass",
    "i_operator_symbol",
    "fractional_derivative",
    "smooth_cutoff",
]

_LOG2 = math.log(2.0)


@dataclass(frozen=True)
class RadialSymbol:
    """A radial frequency multiplier ``xi -> fn(|xi|)``.

    ``cutoff`` records the largest frequency scale the symbol genuinely
    depends on; applying the symbol on a grid whose Nyquist frequency
    does not exceed it raises :class:`ResolutionError`.
    """

    label: str
    fn: Callable[[np.ndarray], np.ndarray]
    cutoff: float | None = None

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return self.fn(np.asarray(r, dtype=np.float64))


@lru_cache(maxsize=4)
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def _bump(t: np.ndarray) -> np.ndarray:
    """``exp(-1/(1-t^2))`` on (-1, 1), zero beyond; vanishes to all orders."""
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    with np.errstate(under="ignore"):
        out[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    return out


_PANELS = 4


def _raw_primitive(u: np.ndarray) -> np.ndarray:
    """``int_{-1}^{u} bump`` by composite Gauss-Legendre, machine accurate."""
    nodes, weights = _gauss_legendre(96)
    u = np.asarray(u, dtype=np.float64)
    half = (u + 1.0) / (2.0 * _PANELS)
    odd = 2.0 * np.arange(_PANELS) + 1.0
    mids = -1.0 + half[..., None] * odd
    pts = mids[..., None] + half[..., None, None] * nodes
    return half * (_bump(pts) * weights).sum(axis=(-2, -1))


@lru_cache(maxsize=1)
def _bump_total() -> float:
    return float(_raw_primitive(np.array([1.0]))[0])


def _bump_primitive(u: np.ndarray) -> np.ndarray:
    """Normalised primitive ``int_{-1}^{u} bump / int_{-1}^{1} bump``."""
    return _raw_primitive(u) / _bump_total()


def smooth_cutoff(r: np.ndarray) -> np.ndarray:
    """Smooth radial step: 1 on ``r <= 1``, 0 on ``r >= 2``, nonincreasing."""
    r = np.asarray(r, dtype=np.float64)
    out = np.zeros_like(r)
    out[r <= 1.0] = 1.0
    mid = (r > 1.0) & (r < 2.0)
    out[mid] = 1.0 - _bump_primitive(2.0 * r[mid] - 3.0)
    return out


def apply_symbol(f: Field, symbol: RadialSymbol) -> Field:
    """Multiply ``f`` by ``symbol(|xi|)`` in frequency, preserving the rep."""
    _require_resolved(f.grid, symbol)
    return _map_spectrum(f, lambda spec, v: v * spec, partial(_symbol_values, f.grid, symbol))


def _require_resolved(grid: Grid, symbol: RadialSymbol) -> None:
    """Refuse ``symbol`` on ``grid`` if its cutoff is not below the grid's Nyquist."""
    if symbol.cutoff is not None and symbol.cutoff >= grid.nyquist:
        raise ResolutionError(
            f"symbol {symbol.label!r} needs frequencies up to {symbol.cutoff:.4g}, "
            f"grid Nyquist is {grid.nyquist:.4g}"
        )


# Symbol values per grid and block flag, tested when filled; the symbols of
# i_operator_symbol and _sobolev_symbol (one per parameter) and a bank's hit.  An
# entry is 8 n^d bytes for a real symbol (2 MiB at 64^3), 8 (n/2+1)^d on the block.
@lru_cache(maxsize=16)
def _symbol_values(grid: Grid, symbol: RadialSymbol, block: bool) -> np.ndarray:
    values = _radial(grid, symbol, block)
    if not np.all(np.isfinite(values)):
        raise DomainError(f"symbol {symbol.label!r} is not finite on the lattice")
    return _readonly(values)


@dataclass(frozen=True)
class ProjectionBank:
    """Dyadic family ``phi_j(xi) = psi(2^-j |xi|) - psi(2^-j+1 |xi|)``.

    ``phi_j`` is supported on ``2^(j-1) <= |xi| <= 2^(j+1)`` exactly and
    the family telescopes: summing ``phi_j`` over ``[j_min, j_max]``
    reproduces ``psi(2^-j_max r) - psi(2^-j_min+1 r)``.
    """

    j_min: int
    j_max: int

    def __post_init__(self) -> None:
        for name in ("j_min", "j_max"):
            object.__setattr__(self, name, _require_integer(name, getattr(self, name)))
        if self.j_min > self.j_max:
            raise DomainError(f"empty dyadic range [{self.j_min}, {self.j_max}]")
        object.__setattr__(self, "_symbols", {})  # per scale, so _symbol_values hits

    @classmethod
    def for_grid(cls, grid: Grid) -> "ProjectionBank":
        """Range wide enough that the bank resolves every nonzero lattice frequency."""
        j_min = math.floor(math.log2(grid.freq_step))
        j_max = math.ceil(math.log2(math.sqrt(grid.dim) * grid.nyquist))
        return cls(j_min, j_max)

    def phi(self, j: int, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=np.float64)
        return smooth_cutoff(np.ldexp(r, -j)) - smooth_cutoff(np.ldexp(r, -j + 1))

    def symbol(self, j: int) -> RadialSymbol:
        if not self.j_min <= (j := _require_integer("j", j)) <= self.j_max:
            raise DomainError(f"j={j} outside bank range [{self.j_min}, {self.j_max}]")
        if j not in self._symbols:
            self._symbols[j] = RadialSymbol(f"lp_{j}", partial(self.phi, j))
        return self._symbols[j]


def lp_project(f: Field, bank: ProjectionBank, j: int) -> Field:
    """Dyadic frequency piece of ``f`` at scale ``2^j``."""
    return apply_symbol(f, bank.symbol(j))


def _sharp_pass(f: Field, lam: float, keep_low: bool) -> Field:
    grid, lam = f.grid, _require_real("lam", lam)
    if not 0.0 < lam < grid.nyquist:
        raise ResolutionError(
            f"cutoff {lam:.4g} must lie in (0, Nyquist={grid.nyquist:.4g})"
        )
    mask = partial(_radial, grid, lambda r: r <= lam if keep_low else r > lam)
    return _map_spectrum(f, lambda spec, m: np.where(m, spec, 0.0), mask)


def low_pass(f: Field, lam: float) -> Field:
    """Sharp restriction to ``|xi| <= lam``."""
    return _sharp_pass(f, lam, True)


def high_pass(f: Field, lam: float) -> Field:
    """Sharp restriction to ``|xi| > lam``; complements :func:`low_pass` exactly."""
    return _sharp_pass(f, lam, False)


def i_operator_symbol(N: float, s: float) -> RadialSymbol:
    """Smoothing multiplier: identity below ``N``, order ``s-1`` decay above ``2N``.

    The gap ``(N, 2N)`` is filled with the monotone cubic Hermite
    interpolant in log-log coordinates, which makes the symbol C^1:

        m(r) = exp(-(1-s) * log(2) * t^2 * (2 - t)),   t = log2(r/N).

    The symbol records ``cutoff = 2N`` so applications on grids that
    cannot see the decaying branch are rejected.
    """
    N, s = _require_real("N", N, positive=True), _require_real("s", s)
    if not 0.0 < s < 1.0:
        raise DomainError(f"s must lie in (0, 1), got {s}")
    return _i_operator_symbol(N, s)


@lru_cache(maxsize=16)
def _i_operator_symbol(N: float, s: float) -> RadialSymbol:
    def fn(r: np.ndarray) -> np.ndarray:
        out = np.ones_like(r)
        high = r >= 2.0 * N
        out[high] = (N / r[high]) ** (1.0 - s)
        mid = (r > N) & (r < 2.0 * N)
        t = np.log2(r[mid] / N)
        out[mid] = np.exp(-(1.0 - s) * _LOG2 * t * t * (2.0 - t))
        return out

    return RadialSymbol(f"smoothing_N{N:g}_s{s:g}", fn, cutoff=2.0 * N)


def _sobolev_symbol(s: float, inhomogeneous: bool = False) -> RadialSymbol:
    """``|xi|^s``, or ``(1+|xi|^2)^(s/2)`` with ``inhomogeneous``; the first
    annihilates the zero mode for every ``s != 0``, and both are 1 at ``s = 0``."""
    return _sobolev(_require_real("s", s), bool(inhomogeneous))


@lru_cache(maxsize=16)
def _sobolev(s: float, inhomogeneous: bool) -> RadialSymbol:
    if inhomogeneous:
        return RadialSymbol(f"bessel_{s:g}", lambda r: (1.0 + r * r) ** (0.5 * s))

    def fn(r: np.ndarray) -> np.ndarray:
        out = np.full_like(r, 1.0 if s == 0.0 else 0.0)
        nz = r > 0.0
        out[nz] = r[nz] ** s
        return out

    return RadialSymbol(f"riesz_{s:g}", fn)


def fractional_derivative(f: Field, s: float, inhomogeneous: bool = False) -> Field:
    """Apply ``|xi|^s`` (or ``(1+|xi|^2)^(s/2)``) in frequency.

    The homogeneous symbol annihilates the zero mode for every ``s != 0``;
    ``s = 0`` is the identity.
    """
    return f if s == 0.0 else apply_symbol(f, _sobolev_symbol(s, inhomogeneous))
