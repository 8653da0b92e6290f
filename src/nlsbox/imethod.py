"""Frequency-truncated energies and their almost-conservation bookkeeping.

The central object is the smoothing operator I = I_{N,s}: a radial Fourier
multiplier that is the identity below frequency N and decays like
(N/|xi|)^(1-s) above 2N.  Applying it to a rough field produces something
with finite energy, and the failure of E(Iu) to be conserved along the
flow is measured here: pointwise through the commutator (Iu)^(2k+1) -
I(u^(2k+1)), and along trajectories through an increment ledger that sums
the jumps of E(Iu) between samples.

``rescale`` dilates a datum exactly on the lattice, u_lam(x) = lam^alpha
u(lam x), the scaling the paper uses to make the truncated energy small.
"""

from __future__ import annotations

import dataclasses
import math
import warnings as _warnings
from functools import partial

from .dynamics import _TAIL_WARN_FRACTION, _sample_list, energy, linear_flow
from .errors import (
    DomainError,
    UndersamplingWarning,
    _require_equation,
    _require_integer,
    _require_real,
    _require_same_dim,
)
from .multipliers import apply_symbol, i_operator_symbol
from .norms import DiagnosticSeries, sobolev_norm
from .spectral import PHYSICAL, Field, Grid, _mass_fraction, _operands, _radial, dealiased_power

__all__ = [
    "IMethodConfig",
    "IncrementLedger",
    "commutator",
    "critical_exponent",
    "increment_ledger",
    "modified_energy",
    "rescale",
    "scattering_diagnostic",
    "vanishing_constant",
]


def critical_exponent(dim: int, k: int) -> float:
    """Scaling-critical Sobolev index: 1 - 1/k in 2d, 1/2 for the 3d cubic."""
    dim, k = _require_equation(dim, k)
    return 0.5 if dim == 3 else 1.0 - 1.0 / k


@dataclasses.dataclass(frozen=True)
class IMethodConfig:
    """Truncation frequency N, target regularity s, and the equation shape.

    The regularity must sit strictly between the scaling-critical index
    and 1: below critical nothing decays, and at s = 1 the smoothing
    operator degenerates to the identity.
    """

    N: float
    s: float
    k: int
    dim: int

    def __post_init__(self) -> None:
        for name, value in zip(("dim", "k"), _require_equation(self.dim, self.k)):
            object.__setattr__(self, name, value)
        s_c = critical_exponent(self.dim, self.k)
        object.__setattr__(self, "N", _require_real("N", self.N, positive=True))
        s = _require_real("s", self.s)
        if not s_c < s < 1.0:
            raise DomainError(
                f"s must lie in ({s_c}, 1) for dim={self.dim}, k={self.k}, got {self.s!r}"
            )
        object.__setattr__(self, "s", s)

    @property
    def critical(self) -> float:
        return critical_exponent(self.dim, self.k)


def modified_energy(f: Field, cfg: IMethodConfig) -> float:
    """Energy of the smoothed field, E(I_{N,s} u).

    The smoothing symbol must be fully resolved, so the grid has to keep
    2N strictly below its Nyquist frequency.
    """
    _require_same_dim("field", f.grid.dim, cfg.dim)
    return energy(apply_symbol(f, i_operator_symbol(cfg.N, cfg.s)), cfg.k)


def rescale(f: Field, lam: float, k: int) -> Field:
    """Dilate a field, u_lam(x) = lam^alpha u(lam x), exactly on the lattice.

    The samples are reused verbatim on a box of extent L / lam, so the
    operation is a scalar multiply with no interpolation.  The exponent
    alpha is 1 in three dimensions and 1/k in two, which makes the energy
    scale by a clean power of lam.  Only powers of two are accepted so
    that the adjusted box extent stays exact in floating point.
    """
    lam = _require_real("lam", lam, positive=True)
    if math.frexp(lam)[0] != 0.5:
        raise DomainError(f"lam must be a power of two, got {lam!r}")
    g = f.grid
    k = _require_equation(g.dim, k)[1]
    alpha = 1.0 if g.dim == 3 else 1.0 / k
    even, (held,) = _operands(f.as_physical())  # the block of an even field stays one
    return Field._adopt(Grid(g.dim, g.extent / lam, g.points), lam**alpha * held, PHYSICAL, even)


def commutator(f: Field, cfg: IMethodConfig) -> Field:
    """Smoothing defect (I u)^(2k+1) - I(u^(2k+1)).

    Both odd powers are formed alias-free, and the result is exact for
    every frequency the grid retains.  If more than 1e-4 of the input's
    spectral mass sits above Nyquist / (2k+1), the true product extends
    past the resolved band and the returned defect is its truncation; a
    warning flags that case.
    """
    _require_same_dim("field", f.grid.dim, cfg.dim)
    degree = 2 * cfg.k + 1
    cut = f.grid.nyquist / degree
    frac = _mass_fraction(f.as_frequency(), partial(_radial, f.grid, lambda r: r > cut))
    if frac > _TAIL_WARN_FRACTION:
        _warnings.warn(
            f"{frac:.3e} of the spectral mass sits above Nyquist / {degree} = "
            f"{cut:.3g}, so products pass the Nyquist frequency; the defect is truncated",
            UndersamplingWarning,
            stacklevel=2,
        )
    symbol = i_operator_symbol(cfg.N, cfg.s)
    smoothed_first = dealiased_power(apply_symbol(f, symbol), degree)
    smoothed_last = apply_symbol(dealiased_power(f, degree), symbol)
    return smoothed_first - smoothed_last


def vanishing_constant(k: int) -> float:
    """Frequency fraction c(k) under which the defect provably vanishes."""
    k = _require_integer("k", k, low=1)
    return 0.125 if k == 1 else 1.0 / (2 * k + 2)


@dataclasses.dataclass(frozen=True)
class IncrementLedger:
    """Sampled E(Iu) values with their summed jumps.

    ``total_variation`` adds up |E(Iu)(t_{i+1}) - E(Iu)(t_i)| over the
    recorded samples; it is the quantity whose decay in N the
    almost-conservation studies measure.
    """

    config: IMethodConfig
    series: DiagnosticSeries
    total_variation: float

    def to_csv(self, path: str) -> None:
        self.series.to_csv(path)


def _variation(values) -> float:
    return float(sum(abs(b - a) for a, b in zip(values, values[1:])))


def increment_ledger(traj, cfg: IMethodConfig) -> IncrementLedger:
    """Track E(Iu) along a trajectory and sum its increments.

    The sum of jumps is only trustworthy if the sampling resolves the
    variation, so it is recomputed on every other sample; a relative
    disagreement of five percent or more raises an undersampling
    warning.
    """
    pairs = _sample_list(traj, "an increment ledger")
    _require_same_dim("field", pairs[0][1].grid.dim, cfg.dim)
    times = [t for t, _ in pairs]
    values = [modified_energy(f, cfg) for _, f in pairs]
    total = _variation(values)
    idx = list(range(0, len(values), 2))
    if idx[-1] != len(values) - 1:
        idx.append(len(values) - 1)
    coarse = _variation([values[i] for i in idx])
    floor = 1e-12 * max(1.0, abs(values[0]))
    if total > floor and abs(coarse - total) >= 0.05 * total:
        _warnings.warn(
            f"halving the sampling changes the increment sum by "
            f"{abs(coarse - total) / total:.1%}; sample more densely",
            UndersamplingWarning,
            stacklevel=2,
        )
    series = DiagnosticSeries("E_Iu", tuple(times), tuple(values))
    return IncrementLedger(cfg, series, total)


def scattering_diagnostic(traj, s: float) -> DiagnosticSeries:
    """Sizes of the jumps of the free pullback e^(-it Lap) u(t).

    For a solution settling into linear behaviour the pullbacks form a
    Cauchy sequence in H^s, so the returned increments should trail off.
    The series holds |v(t_i) - v(t_{i-1})|_{H^s} at the later time of
    each pair, with v the pullback.
    """
    pairs = _sample_list(traj, "a scattering diagnostic")
    pullbacks = [linear_flow(f, -t) for t, f in pairs]
    times = [t for t, _ in pairs]
    diffs = [
        sobolev_norm(b - a, s, homogeneous=False)
        for a, b in zip(pullbacks, pullbacks[1:])
    ]
    return DiagnosticSeries("pullback_increment", tuple(times[1:]), tuple(diffs))
