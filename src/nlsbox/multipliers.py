"""Radial Fourier multipliers: smooth dyadic projections, sharp cutoffs,
fractional derivatives, and the low-frequency smoothing operator used by
the almost-conservation diagnostics.

All symbols are radial functions of ``|xi|`` applied on the frequency
lattice.  The smooth cutoff ``psi`` equals 1 on ``r <= 1`` and 0 on
``r >= 2`` exactly (masked branches), with the transition given by the
normalised primitive of the bump ``exp(-1/(1-t^2))``, so dyadic pieces
have exact supports and telescope exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DomainError, ResolutionError, _require_real
from .spectral import Field, Grid, _map_spectrum

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
    "symbol_to_csv",
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
    grid = f.grid
    if symbol.cutoff is not None and symbol.cutoff >= grid.nyquist:
        raise ResolutionError(
            f"symbol {symbol.label!r} needs frequencies up to {symbol.cutoff:.4g}, "
            f"grid Nyquist is {grid.nyquist:.4g}"
        )
    values = symbol(grid.freq_radius())
    if not np.all(np.isfinite(values)):
        raise DomainError(f"symbol {symbol.label!r} is not finite on the lattice")
    return _map_spectrum(f, lambda spec: values * spec)


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
        if self.j_min > self.j_max:
            raise DomainError(f"empty dyadic range [{self.j_min}, {self.j_max}]")

    @classmethod
    def for_grid(cls, grid: Grid) -> "ProjectionBank":
        """Range wide enough that the bank resolves every nonzero lattice frequency."""
        j_min = math.floor(math.log2(grid.freq_step))
        j_max = math.ceil(math.log2(math.sqrt(grid.dim) * grid.nyquist))
        return cls(j_min, j_max)

    def psi(self, r: np.ndarray) -> np.ndarray:
        return smooth_cutoff(r)

    def phi(self, j: int, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=np.float64)
        return smooth_cutoff(np.ldexp(r, -j)) - smooth_cutoff(np.ldexp(r, -j + 1))

    def symbol(self, j: int) -> RadialSymbol:
        if not self.j_min <= j <= self.j_max:
            raise DomainError(f"j={j} outside bank range [{self.j_min}, {self.j_max}]")
        return RadialSymbol(f"lp_{j}", lambda r, j=j: self.phi(j, r), cutoff=None)


def lp_project(f: Field, bank: ProjectionBank, j: int) -> Field:
    """Dyadic frequency piece of ``f`` at scale ``2^j``."""
    return apply_symbol(f, bank.symbol(j))


def _sharp_pass(f: Field, lam: float, keep_low: bool) -> Field:
    grid = f.grid
    if not 0.0 < lam < grid.nyquist:
        raise ResolutionError(
            f"cutoff {lam:.4g} must lie in (0, Nyquist={grid.nyquist:.4g})"
        )
    low = grid.freq_radius() <= lam
    mask = low if keep_low else ~low
    return _map_spectrum(f, lambda spec: np.where(mask, spec, 0.0))


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
    N = _require_real("N", N, positive=True)
    if not 0.0 < _require_real("s", s) < 1.0:
        raise DomainError(f"s must lie in (0, 1), got {s}")

    def fn(r: np.ndarray) -> np.ndarray:
        out = np.ones_like(r)
        high = r >= 2.0 * N
        out[high] = (N / r[high]) ** (1.0 - s)
        mid = (r > N) & (r < 2.0 * N)
        t = np.log2(r[mid] / N)
        out[mid] = np.exp(-(1.0 - s) * _LOG2 * t * t * (2.0 - t))
        return out

    return RadialSymbol(f"smoothing_N{N:g}_s{s:g}", fn, cutoff=2.0 * N)


def fractional_derivative(f: Field, s: float, inhomogeneous: bool = False) -> Field:
    """Apply ``|xi|^s`` (or ``(1+|xi|^2)^(s/2)``) in frequency.

    The homogeneous symbol annihilates the zero mode for every ``s != 0``;
    ``s = 0`` is the identity.
    """
    if s == 0.0:
        return f

    if inhomogeneous:
        sym = RadialSymbol(f"bessel_{s:g}", lambda r: (1.0 + r * r) ** (0.5 * s))
    else:

        def fn(r: np.ndarray) -> np.ndarray:
            out = np.zeros_like(r)
            nz = r > 0.0
            out[nz] = r[nz] ** s
            return out

        sym = RadialSymbol(f"riesz_{s:g}", fn)
    return apply_symbol(f, sym)


def symbol_to_csv(symbol: RadialSymbol, r_values: np.ndarray, path) -> None:
    """Tabulate a symbol as ``r,m`` rows for plotting."""
    r = np.asarray(r_values, dtype=np.float64)
    vals = symbol(r)
    with open(path, "w") as fh:
        fh.write("r,m\n")
        for ri, mi in zip(r, vals):
            fh.write(f"{float(ri)!r},{float(mi)!r}\n")
