"""Norm diagnostics: Lebesgue, Sobolev, mixed space-time norms, the
bilinear space-time smoothing quantity, weighted radial sups, and
admissibility bookkeeping for dispersive estimates.

Space integrals are lattice sums weighted by the cell volume; time
integrals are trapezoid sums over the sampled instants of a trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .dynamics import _sample_list
from .errors import (
    DomainError,
    _require_dim,
    _require_exponent,
    _require_increasing,
    _require_real,
    _require_same_dim,
)
from .multipliers import _sobolev_symbol, _symbol_values, fractional_derivative
from .spectral import Field, _lattice_max, _power_sum, _radial, dealiased_modulus_power

__all__ = [
    "lebesgue_norm",
    "sobolev_norm",
    "MixedNormSpec",
    "mixed_norm",
    "morawetz_quantity",
    "weighted_radial_sup",
    "strichartz_admissible",
    "DiagnosticSeries",
]


def lebesgue_norm(f: Field, p: float) -> float:
    """``L^p`` norm of the physical samples; ``p = inf`` gives the sup."""
    p, u = _require_exponent("p", p), f.as_physical()
    if math.isinf(p):
        return _lattice_max(np.abs, u)
    return (_power_sum(p, u) * f.grid.cell_volume) ** (1.0 / p)


def sobolev_norm(f: Field, s: float, homogeneous: bool = True) -> float:
    """Sobolev norm of order ``s`` from the frequency samples.

    The homogeneous weight ``|xi|^(2s)`` drops the zero mode (except at
    ``s = 0``, where the norm is plain ``L^2``); the inhomogeneous weight
    is ``(1+|xi|^2)^s``.
    """
    g = f.grid
    s = _require_real("s", s)
    w = partial(_symbol_values, g, _sobolev_symbol(2.0 * s, inhomogeneous=not homogeneous))
    total = _power_sum(2, f.as_frequency(), w)
    return math.sqrt(total * g.freq_cell_volume)


@dataclass(frozen=True)
class MixedNormSpec:
    """Space-time norm ``L^p_t L^q_x`` over the window ``[t_start, t_end]``."""

    p_time: float
    q_space: float
    t_start: float
    t_end: float

    def __post_init__(self) -> None:
        for name, rule in (("p_time", _require_exponent), ("q_space", _require_exponent),
                           ("t_start", _require_real), ("t_end", _require_real)):
            object.__setattr__(self, name, rule(name, getattr(self, name)))
        if not self.t_end > self.t_start:
            raise DomainError(
                f"empty time window [{self.t_start}, {self.t_end}]"
            )


def _window(samples: Sequence[tuple[float, Field]], t_start: float, t_end: float):
    tol = 1e-9 * max(1.0, abs(t_end))
    if samples[0][0] > t_start + tol or samples[-1][0] < t_end - tol:
        raise DomainError(
            f"samples cover [{samples[0][0]}, {samples[-1][0]}], "
            f"requested [{t_start}, {t_end}]"
        )
    inside = [(t, f) for t, f in samples if t_start - tol <= t <= t_end + tol]
    if len(inside) < 2:
        raise DomainError("need at least two samples inside the time window")
    return inside


def mixed_norm(traj, spec: MixedNormSpec) -> float:
    """Trapezoid ``L^p_t`` norm of the per-sample ``L^q_x`` norms."""
    inside = _window(_sample_list(traj), spec.t_start, spec.t_end)
    times = np.array([t for t, _ in inside])
    vals = np.array([lebesgue_norm(f, spec.q_space) for _, f in inside])
    if math.isinf(spec.p_time):
        return float(vals.max())
    p = spec.p_time
    return float(np.trapezoid(vals**p, times)) ** (1.0 / p)


def morawetz_quantity(traj, dim: int) -> float:
    """Space-time ``L^2`` norm of ``|D|^((3-dim)/2) |u|^2`` over the trajectory.

    In three dimensions the derivative weight is trivial and the square
    of this quantity is the ``L^4_{t,x}`` norm of ``u`` to the fourth
    power.  In two dimensions the half derivative is applied spectrally
    to the alias-free ``|u|^2``.
    """
    samples = _sample_list(traj, "a space-time norm")
    _require_same_dim("trajectory", samples[0][1].grid.dim, dim)
    times = np.array([t for t, _ in samples])
    vals = np.empty_like(times)
    for i, (_, f) in enumerate(samples):
        dens = dealiased_modulus_power(f, 2)
        if dim == 2:
            dens = fractional_derivative(dens, 0.5)
        vals[i] = lebesgue_norm(dens, 2.0) ** 2
    return math.sqrt(float(np.trapezoid(vals, times)))


def weighted_radial_sup(
    f: Field, weight_power: float, radius: float | None = None
) -> float:
    """``sup |x|^w |f(x)|`` over the lattice, or over its ball ``|x| <= radius``."""
    weight_power = _require_real("weight_power", weight_power)
    radius = math.inf if radius is None else _require_real("radius", radius, positive=True)

    def weight(r: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.where(r <= radius, r**weight_power, 0.0)

    def scaled(a: np.ndarray, w: np.ndarray) -> np.ndarray:  # 0, not NaN, for 0 under weight inf
        m = np.abs(a)
        return np.where(m > 0, w, 0.0) * m

    weights = partial(_radial, f.grid, weight, space=True)
    return _lattice_max(scaled, f.as_physical(), weights)


def strichartz_admissible(p: float, q: float, dim: int) -> bool:
    """Whether ``(p, q)`` is a Schrodinger-admissible space-time pair.

    In 2d: ``p > 2`` and ``1/p + 1/q = 1/2``.  In 3d: ``p >= 2`` and
    ``2/p = 3*(1/2 - 1/q)``, which pins ``q`` between 2 and 6.
    """
    p, q = _require_exponent("p", p), _require_exponent("q", q)
    tol = 1e-12
    if _require_dim(dim) == 2:
        return p > 2.0 and abs(1.0 / p + 1.0 / q - 0.5) <= tol
    return p >= 2.0 and abs(2.0 / p - 3.0 * (0.5 - 1.0 / q)) <= tol


@dataclass(frozen=True)
class DiagnosticSeries:
    """A named scalar time series."""

    name: str
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        if times.shape != values.shape or times.ndim != 1:
            raise DomainError("times and values must be matching 1d arrays")
        _require_increasing("times", times)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(f"t,{self.name}\n")
            for t, v in zip(self.times, self.values):
                fh.write(f"{float(t)!r},{float(v)!r}\n")

    @classmethod
    def from_csv(cls, path) -> "DiagnosticSeries":
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            if len(header) != 2 or header[0] != "t":
                raise DomainError(f"malformed series header in {path}")
            body = fh.read()
        if not body.strip():  # an empty series writes no rows
            return cls(header[1], (), ())
        try:
            data = np.loadtxt(body.splitlines(), delimiter=",", ndmin=2)
            if data.shape[1] != 2:
                raise ValueError(f"{data.shape[1]} columns, not 2")
        except ValueError as exc:  # a bad number, or rows of other than two columns
            raise DomainError(f"malformed series rows in {path}: {exc}") from None
        return cls(header[1], data[:, 0], data[:, 1])
