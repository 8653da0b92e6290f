"""Frequency-truncated energies and their almost-conservation bookkeeping.

The central object is the smoothing operator I = I_{N,s}: a radial Fourier
multiplier that is the identity below frequency N and decays like
(N/|xi|)^(1-s) above 2N.  Applying it to a rough field produces something
with finite energy, and the failure of E(Iu) to be conserved along the
flow is measured here: pointwise through the commutator (Iu)^(2k+1) -
I(u^(2k+1)), and along trajectories through an increment ledger that sums
the jumps of E(Iu) between samples.

Rescaling helpers shrink a datum until its truncated energy falls under a
fixed threshold, mirroring how scaling arguments normalise the problem
before running the almost-conservation machinery.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import warnings as _warnings

import numpy as np

from .dynamics import energy, linear_flow
from .errors import (
    AtomicIntervalError,
    DomainError,
    ResolutionError,
    UndersamplingWarning,
    _require_k,
    _require_real,
)
from .multipliers import apply_symbol, i_operator_symbol
from .norms import DiagnosticSeries, _sample_list, lebesgue_norm, sobolev_norm
from .spectral import PHYSICAL, Field, Grid, dealiased_power

__all__ = [
    "IMethodConfig",
    "IncrementLedger",
    "LambdaChoice",
    "choose_lambda",
    "commutator",
    "critical_exponent",
    "increment_ledger",
    "interval_partition",
    "modified_energy",
    "rescale",
    "scattering_diagnostic",
    "vanishing_constant",
    "vanishing_identity_check",
]

logger = logging.getLogger(__name__)


def critical_exponent(dim: int, k: int) -> float:
    """Scaling-critical Sobolev index: 1 - 1/k in 2d, 1/2 for the 3d cubic."""
    if dim == 3:
        if k != 1:
            raise DomainError("three dimensional runs support the cubic case only")
        return 0.5
    if dim == 2:
        return 1.0 - 1.0 / _require_k(k)
    raise DomainError(f"dim must be 2 or 3, got {dim!r}")


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


def _check_dim(f: Field, cfg: IMethodConfig) -> None:
    if f.grid.dim != cfg.dim:
        raise DomainError(
            f"field lives in {f.grid.dim} dimensions but the config asks for {cfg.dim}"
        )


def modified_energy(f: Field, cfg: IMethodConfig) -> float:
    """Energy of the smoothed field, E(I_{N,s} u).

    The smoothing symbol must be fully resolved, so the grid has to keep
    2N strictly below its Nyquist frequency.
    """
    _check_dim(f, cfg)
    smoothed = apply_symbol(f, i_operator_symbol(cfg.N, cfg.s))
    return energy(smoothed, cfg.k)


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
    alpha = 1.0 if g.dim == 3 else 1.0 / _require_k(k)
    scaled_grid = Grid(g.dim, g.extent / lam, g.points)
    samples = lam**alpha * f.as_physical().samples
    return Field(scaled_grid, samples, PHYSICAL)


@dataclasses.dataclass(frozen=True)
class LambdaChoice:
    """Outcome of the dilation search: the factor, the rescaled datum,
    its truncated energy, and the power-law prediction for comparison."""

    lam: float
    rescaled: Field
    energy_value: float
    predicted_lam: float


def choose_lambda(
    f: Field,
    cfg: IMethodConfig,
    threshold: float = 0.5,
    max_halvings: int = 60,
) -> LambdaChoice:
    """Shrink the datum by powers of two until E(I u_lam) <= threshold.

    The search starts at lam = 1 and halves.  Dilation enlarges the box,
    which lowers the grid's Nyquist frequency, so a resolution error is
    raised if the smoothing cutoff 2N stops fitting before the energy
    target is met.  The accepted factor is logged next to the power law
    N^((s-1)/(s-s_c)) that scaling heuristics predict.
    """
    _check_dim(f, cfg)
    _require_real("threshold", threshold, positive=True)
    lam = 1.0
    for _ in range(max_halvings + 1):
        scaled = rescale(f, lam, cfg.k)
        try:
            value = modified_energy(scaled, cfg)
        except ResolutionError as exc:
            raise ResolutionError(
                f"dilation lam={lam!r} lowered the Nyquist frequency below the "
                f"smoothing cutoff 2N={2 * cfg.N} before reaching the energy "
                f"threshold {threshold}"
            ) from exc
        if value <= threshold:
            exponent = (cfg.s - 1.0) / (cfg.s - cfg.critical)
            predicted = cfg.N**exponent
            logger.info(
                "choose_lambda: lam=%g (predicted %g from N^%g), E(Iu)=%g",
                lam,
                predicted,
                exponent,
                value,
            )
            return LambdaChoice(lam, scaled, value, predicted)
        lam /= 2.0
    raise DomainError(
        f"energy stayed above {threshold} after {max_halvings} halvings"
    )


def _excitation_radius(f: Field, floor: float = 1e-13) -> float:
    spec = f.as_frequency()
    mag = np.abs(spec.samples)
    peak = float(mag.max())
    if peak == 0.0:
        return 0.0
    mask = mag > floor * peak
    return float(f.grid.freq_radius()[mask].max())


def commutator(f: Field, cfg: IMethodConfig) -> Field:
    """Smoothing defect (I u)^(2k+1) - I(u^(2k+1)).

    Both odd powers are formed alias-free, and the result is exact for
    every frequency the grid retains.  If the input carries significant
    content above Nyquist / (2k+1), the true product extends past the
    resolved band and the returned defect is its truncation; a warning
    flags that case.
    """
    _check_dim(f, cfg)
    degree = 2 * cfg.k + 1
    rho = _excitation_radius(f)
    if degree * rho > f.grid.nyquist:
        _warnings.warn(
            f"products reach frequency {degree * rho:.3g}, past the Nyquist "
            f"frequency {f.grid.nyquist:.3g}; the defect is truncated",
            UndersamplingWarning,
            stacklevel=2,
        )
    symbol = i_operator_symbol(cfg.N, cfg.s)
    smoothed_first = dealiased_power(apply_symbol(f, symbol), degree)
    smoothed_last = apply_symbol(dealiased_power(f, degree), symbol)
    return smoothed_first - smoothed_last


def vanishing_identity_check(f: Field, cfg: IMethodConfig) -> bool:
    """Whether the smoothing defect of f vanishes at working precision.

    When every frequency of f sits below c(k) N with c(1) = 1/8 and
    c(k) = 1/(2k+2) otherwise, all product frequencies stay below N,
    the symbol is 1 throughout, and the defect is identically zero.  The
    field is used exactly as given; no low-pass is applied on its behalf.
    The tolerance scales with |f|_inf^(2k) |f|_2, the natural size of
    the product.
    """
    defect = commutator(f, cfg)
    value = lebesgue_norm(defect, 2.0)
    scale = lebesgue_norm(f, math.inf) ** (2 * cfg.k) * lebesgue_norm(f, 2.0)
    return value <= 1e-12 * scale


def vanishing_constant(k: int) -> float:
    """Frequency fraction c(k) under which the defect provably vanishes."""
    _require_k(k)
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
    pairs = _sample_list(traj)
    if len(pairs) < 2:
        raise DomainError("an increment ledger needs at least two samples")
    _check_dim(pairs[0][1], cfg)
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


_PARTITION_EXPONENTS = {2: (4.0, 8.0), 3: (4.0, 4.0)}


def interval_partition(traj, eta: float) -> tuple:
    """Greedy cover of the time span by intervals of spacetime size <= eta.

    The controlling norm is L4 in time with L8 in space in two
    dimensions, and spacetime L4 in three.  Windows are grown sample by
    sample and cut just before the norm would pass eta; consecutive
    intervals share an endpoint.  If even a single sampling step
    overshoots, no admissible partition exists at this resolution and an
    atomic-interval error is raised.
    """
    _require_real("eta", eta, positive=True)
    pairs = _sample_list(traj)
    if len(pairs) < 2:
        raise DomainError("a partition needs at least two samples")
    dim = pairs[0][1].grid.dim
    p, q = _PARTITION_EXPONENTS[dim]
    times = [t for t, _ in pairs]
    space = np.array([lebesgue_norm(f, q) for _, f in pairs])

    def window(i: int, j: int) -> float:
        return float(
            np.trapezoid(space[i : j + 1] ** p, times[i : j + 1]) ** (1.0 / p)
        )

    bounds = []
    i = 0
    last = len(pairs) - 1
    while i < last:
        j = i + 1
        while j < last and window(i, j + 1) <= eta:
            j += 1
        if window(i, j) > eta:
            raise AtomicIntervalError(
                f"the single step [{times[i]!r}, {times[j]!r}] already has "
                f"spacetime norm {window(i, j):.3g} > eta={eta}"
            )
        bounds.append((times[i], times[j]))
        i = j
    return tuple(bounds)


def scattering_diagnostic(traj, s: float) -> DiagnosticSeries:
    """Sizes of the jumps of the free pullback e^(-it Lap) u(t).

    For a solution settling into linear behaviour the pullbacks form a
    Cauchy sequence in H^s, so the returned increments should trail off.
    The series holds |v(t_i) - v(t_{i-1})|_{H^s} at the later time of
    each pair, with v the pullback.
    """
    pairs = _sample_list(traj)
    if len(pairs) < 2:
        raise DomainError("a scattering diagnostic needs at least two samples")
    pullbacks = [linear_flow(f, -t) for t, f in pairs]
    times = [t for t, _ in pairs]
    diffs = [
        sobolev_norm(b - a, s, homogeneous=False)
        for a, b in zip(pullbacks, pullbacks[1:])
    ]
    return DiagnosticSeries("pullback_increment", tuple(times[1:]), tuple(diffs))
