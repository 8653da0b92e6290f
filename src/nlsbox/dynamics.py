"""Time stepping for the defocusing nonlinear Schrodinger equation.

The equation i u_t + Lap u = |u|^(2k) u is integrated by Strang splitting.
Each sub-flow is applied exactly: the free propagator multiplies the
spectrum by a quadratic phase, and the nonlinear step rotates every sample
by a phase built from its own modulus power.  Neither sub-flow changes the
pointwise modulus budget, so the discrete mass is conserved to rounding
while the energy drifts at second order in the step size.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
import os
import typing
import warnings as _warnings
from contextlib import contextmanager
from functools import lru_cache, partial

import numpy as np

from .errors import (
    DomainError,
    InstabilityError,
    UndersamplingWarning,
    _require_equation,
    _require_increasing,
    _require_integer,
    _require_real,
    _require_same_dim,
)
from .multipliers import _sobolev_symbol, _symbol_values
from .spectral import (
    FREQUENCY,
    Field,
    Grid,
    _forward,
    _inverse,
    _lattice_max,
    _map_physical,
    _map_spectrum,
    _mass_fraction,
    _modulus_power,
    _operands,
    _padded,
    _power_sum,
    _radial,
    _readonly,
    _require_finite,
    dealiased_modulus_power,
    read_field,
    write_field,
)

__all__ = [
    "EvolutionParams",
    "Trajectory",
    "energy",
    "evolve",
    "linear_flow",
    "mass",
    "nonlinear_phase",
    "read_checkpoint",
    "strang_step",
    "write_checkpoint",
]

_GROWTH_LIMIT = 1.0e6
# The most steps one run may take: 5,000 times the 2e4 of CONSERVE's dt-halved
# rerun, so a tiny dt is refused when the config is read, not run for ever.
_MAX_STEPS = 10**8
_TAIL_WARN_FRACTION = 1.0e-4
_TAIL_BAND_START = 2.0 / 3.0


@dataclasses.dataclass(frozen=True)
class EvolutionParams:
    """Step size, horizon, and nonlinearity degree for one run.

    The power of the nonlinearity is 2k + 1.  Three dimensional runs are
    restricted to the cubic case k = 1.  The horizon must be a whole
    number of steps so that sample times are exact multiples of dt.
    """

    dim: int
    k: int
    dt: float
    t_final: float
    sample_every: int = 1
    dealias: bool = True

    def __post_init__(self) -> None:
        if type(self.dealias) is not bool:
            raise DomainError(f"dealias must be True or False, got {self.dealias!r}")
        checked = dict(zip(("dim", "k"), _require_equation(self.dim, self.k)),
                       dt=_require_real("dt", self.dt, positive=True),
                       t_final=_require_real("t_final", self.t_final, positive=True),
                       sample_every=_require_integer("sample_every", self.sample_every, low=1))
        for name, value in checked.items():
            object.__setattr__(self, name, value)
        ratio = self.t_final / self.dt
        steps = round(ratio) if math.isfinite(ratio) else 0  # t_final / dt can overflow
        if steps < 1 or abs(steps * self.dt - self.t_final) > 1e-9 * max(1.0, self.t_final):
            raise DomainError(
                f"t_final={self.t_final!r} is not a whole number of steps of size dt={self.dt!r}"
            )
        if steps > _MAX_STEPS:
            raise DomainError(
                f"t_final={self.t_final!r} takes {steps:.3g} steps of size dt={self.dt!r}, "
                f"more than {_MAX_STEPS:.0e}"
            )

    def step_count(self) -> int:
        """Number of steps needed to reach the horizon."""
        return round(self.t_final / self.dt)


@dataclasses.dataclass(frozen=True)
class Trajectory:
    """Samples (t, field) recorded along a single run.

    The sample list is the primary payload; ``provenance`` is a short
    human readable note on how the run was produced and ``warnings``
    collects any resolution complaints raised while stepping.
    """

    params: EvolutionParams
    samples: tuple
    provenance: str = ""
    warnings: tuple = ()

    def __post_init__(self) -> None:
        samples = tuple(_sample_list(self.samples))
        if not samples:
            raise DomainError("a trajectory needs at least one sample")
        if any(f.grid != samples[0][1].grid for _, f in samples):
            raise DomainError("all samples must be fields on a single grid")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "warnings", tuple(str(w) for w in self.warnings))

    @property
    def grid(self) -> Grid:
        return self.samples[0][1].grid

    @property
    def times(self) -> tuple:
        return tuple(t for t, _ in self.samples)

    @property
    def fields(self) -> tuple:
        return tuple(f for _, f in self.samples)

    @property
    def final(self) -> Field:
        return self.samples[-1][1]

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)


def _sample_list(traj, statistic: str = "") -> list[tuple[float, Field]]:
    """``(time, Field)`` pairs of a trajectory or of a raw sample sequence,
    in strictly increasing time; a named ``statistic`` needs two or more."""
    samples = getattr(traj, "samples", traj)
    out = [(float(t), f) for t, f in samples]
    if not all(isinstance(f, Field) for _, f in out):
        raise DomainError("trajectory samples must be (time, Field) pairs")
    _require_increasing("trajectory sample times", [t for t, _ in out])
    if statistic and len(out) < 2:
        raise DomainError(f"{statistic} needs at least two samples")
    return out


# A lattice function per (grid, t): the 17 flow times of the inequality
# battery and a step's half step fit.  An entry is 16 (n/2+1)^d bytes on the
# block, 16 n^d on a whole lattice: 4 MiB at 64^3, 96 MiB for all 24.
@lru_cache(maxsize=24)
def _quadratic_phase(grid: Grid, t: float, block: bool) -> np.ndarray:
    return _readonly(_radial(grid, lambda r: np.exp(r * r * (-1j * t)), block))


def linear_flow(f: Field, t: float) -> Field:
    """Apply the free propagator exp(i t Lap).

    Exact on the grid: every spectral value picks up the unit phase
    exp(-i t |xi|^2).  The representation of the input is preserved.
    """
    phase = partial(_quadratic_phase, f.grid, _require_real("time", t))
    return _map_spectrum(f, np.multiply, phase)


def _rotate(a: np.ndarray, dt: float, w: np.ndarray) -> np.ndarray:
    """The samples ``a`` rotated by the phase ``exp(-i dt w)`` of the real ``w``."""
    return a * np.exp(-1j * dt * w)


def nonlinear_phase(f: Field, dt: float, k: int, dealias: bool = True) -> Field:
    """Advance the potential sub-flow u -> u exp(-i dt |u|^(2k)).

    With ``dealias`` set, the modulus power is formed on a padded grid so
    that the phase field is free of wrap-around products; the rotation
    itself is pointwise either way, so the modulus of every sample, and
    with it the mass, is untouched.  The representation of the input is
    preserved.
    """
    dt, k = _require_real("dt", dt), _require_integer("k", k, low=1)
    if dealias:
        return _map_physical(f, lambda a, w: _rotate(a, dt, w.real),
                             dealiased_modulus_power(f, 2 * k))
    return _map_physical(f, lambda a: _rotate(a, dt, _modulus_power(a, 2 * k)))


@contextmanager
def _stepping():
    """The context of one step: a non-finite sample's DomainError is raised
    as InstabilityError.  Overflow here means the run is blowing up; the
    resulting non-finite samples are caught where the step checks them, so
    numpy is kept quiet."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield
    except DomainError as exc:
        raise InstabilityError(f"step produced a non-finite field ({exc})") from exc


def strang_step(f: Field, params: EvolutionParams) -> Field:
    """One step of L(dt/2) N(dt) L(dt/2), in the representation of the input."""
    _require_same_dim("field", f.grid.dim, params.dim)
    half = 0.5 * params.dt
    with _stepping():
        u = linear_flow(f, half)
        u = nonlinear_phase(u, params.dt, params.k, params.dealias)
        return linear_flow(u, half)


def _strang_arrays(grid: Grid, spec: np.ndarray, params: EvolutionParams) -> np.ndarray:
    """:func:`strang_step` of the spectrum ``spec``, its samples or the
    ``[0, n/2]^d`` block of an even one, as arrays: the same operations in
    the same order, so the same bits, with no :class:`Field` made and
    finiteness checked once, on the result."""
    dt, power = params.dt, 2 * params.k
    phase = _quadratic_phase(grid, 0.5 * dt, spec.shape[0] != grid.points)
    # Each array is let go once used: holding them all to the end cost a
    # 64^3 step a quarter more page faults and made it slower than a Field step.
    with _stepping():
        u = spec * phase
        w = _padded(grid, u, power, lambda x: _modulus_power(x, power)) if params.dealias else None
        u = _inverse(grid, u)
        u = _rotate(u, dt, _modulus_power(u, power) if w is None else w)
        w = None
        u = _forward(grid, u)
        u *= phase
        _require_finite(u)
    return u


def _tail_fraction(f: Field) -> float:
    """Share of the spectral mass at ``|xi| >= 2/3`` Nyquist; 0 if that mass overflows."""
    spec = f.as_frequency()
    outer = partial(_radial, f.grid, lambda r: r >= _TAIL_BAND_START * f.grid.nyquist)
    with np.errstate(over="ignore", invalid="ignore"):  # a blowing-up run
        frac = _mass_fraction(spec, outer)
    return frac if math.isfinite(frac) else 0.0


def _check_health(u: Field, t: float, peak0: float, notes: list) -> float:
    """The peak of ``u``, checked against ``peak0``; its spectral tail until a warning."""
    peak = _lattice_max(np.abs, u)
    if peak > _GROWTH_LIMIT * peak0:
        raise InstabilityError(
            f"amplitude grew by more than {_GROWTH_LIMIT:.0e} at t={t!r}"
        )
    if not notes:
        frac = _tail_fraction(u)
        if frac > _TAIL_WARN_FRACTION:
            msg = (
                f"{frac:.3e} of the spectral mass sits above two thirds of the "
                f"resolved band at t={t!r}; the run is marginally resolved"
            )
            notes.append(msg)
            _warnings.warn(msg, UndersamplingWarning, stacklevel=3)
    return peak


def evolve(initial: Field, params: EvolutionParams) -> Trajectory:
    """March the splitting scheme over the whole horizon.

    Samples are recorded at step zero, every ``sample_every`` steps, and
    at the final step.  Health checks run at each recorded instant: the
    peak amplitude must stay within a factor 1e6 of its starting value,
    and a warning is issued once if the top third of the resolved band
    ever carries more than a 1e-4 share of the spectral mass.  Steps run
    in the frequency representation; recorded samples are physical.

    The steps strictly between samples run on plain arrays, the spectrum's
    samples or the block of an even one (:func:`_strang_arrays`), and the
    step that lands on each sample instant goes through :func:`strang_step`
    on a field holding the array, so every run calls ``strang_step``,
    ``linear_flow``, ``nonlinear_phase`` and, with ``dealias``,
    ``dealiased_modulus_power``, which the benchmark's traced expected
    calls rely on.  Both give the same bits, and a step that makes a
    non-finite sample raises InstabilityError naming its time.
    """
    if not isinstance(initial, Field):
        raise DomainError(f"initial data must be a Field, got {type(initial).__name__}")
    _require_same_dim("initial data", initial.grid.dim, params.dim)
    grid, u, spec = initial.grid, initial.as_physical(), initial.as_frequency()
    even, (held,) = _operands(spec)
    steps = params.step_count()
    notes: list = []
    # Growth from a zero datum is measured from 1.
    peak0 = _check_health(u, 0.0, math.inf, notes) or 1.0
    samples = [(0.0, u)]
    for i in range(1, steps + 1):
        t = i * params.dt
        try:
            if i % params.sample_every and i != steps:
                held = _strang_arrays(grid, held, params)
                continue
            spec = strang_step(Field._adopt(grid, held, FREQUENCY, even), params)
        except InstabilityError as exc:
            raise InstabilityError(f"{exc} near t={t!r}") from exc
        even, (held,) = _operands(spec)
        u = spec.as_physical()
        _check_health(u, t, peak0, notes)
        samples.append((t, u))
    provenance = (
        f"strang dim={params.dim} k={params.k} dt={params.dt!r} "
        f"steps={steps} dealias={params.dealias}"
    )
    return Trajectory(params, tuple(samples), provenance, tuple(notes))


def mass(f: Field) -> float:
    """Squared L2 norm, the conserved mass of the flow."""
    return _power_sum(2, f.as_physical()) * f.grid.cell_volume


def energy(f: Field, k: int) -> float:
    """Hamiltonian 0.5 |grad u|_2^2 + |u|_{2k+2}^{2k+2} / (2k + 2).

    The gradient part is summed in frequency, the potential part on the
    physical lattice.  Both terms are nonnegative, so the defocusing
    energy controls the H1 size of the field.
    """
    k = _require_integer("k", k, low=1)
    w = partial(_symbol_values, f.grid, _sobolev_symbol(2.0))
    kinetic = _power_sum(2, f.as_frequency(), w)
    potential = _power_sum(2 * k + 2, f.as_physical())
    return 0.5 * kinetic * f.grid.freq_cell_volume + potential * f.grid.cell_volume / (2 * k + 2)


def _boolean(text: str) -> bool:
    """``text`` as a boolean, by configparser's words (``true``, ``no``, ``1``, ...)."""
    states = configparser.ConfigParser.BOOLEAN_STATES
    if text.strip().lower() not in states:
        raise ValueError(f"expected one of {sorted(states)}")
    return states[text.strip().lower()]


def _field_rules(cls, *skip: str) -> dict:
    """``{name: (cast, default)}`` of the dataclass ``cls``'s fields but ``skip``: the
    INI keys of configs and manifests, read by type hint; a required default is MISSING."""
    casts = {int: int, float: float, str: str.strip, bool: _boolean}
    hints = typing.get_type_hints(cls)
    return {f.name: (casts[hints[f.name]], f.default)
            for f in dataclasses.fields(cls) if f.name not in skip}


def write_checkpoint(traj: Trajectory, directory: str) -> None:
    """Write every sample plus a manifest so a run can be reloaded."""
    os.makedirs(directory, exist_ok=True)
    manifest = configparser.ConfigParser(interpolation=None)
    manifest["evolution"] = {  # true/false for a boolean, else the repr
        name: str(v).lower() if type(v) is bool else repr(v)
        for name, v in dataclasses.asdict(traj.params).items()
    }
    manifest["run"] = {
        "provenance": traj.provenance,
        "count": str(len(traj)),
        "warning_count": str(len(traj.warnings)),
    }
    manifest["samples"] = {
        f"t_{i}": repr(t) for i, (t, _) in enumerate(traj.samples)
    }
    manifest["warnings"] = {
        f"w_{i}": text for i, text in enumerate(traj.warnings)
    }
    for i, (_, f) in enumerate(traj.samples):
        write_field(f, os.path.join(directory, f"sample_{i:04d}.dat"))
    with open(os.path.join(directory, "manifest.ini"), "w", encoding="utf-8") as fh:
        manifest.write(fh)


def read_checkpoint(directory: str) -> Trajectory:
    """Reload a trajectory written by :func:`write_checkpoint`."""
    path = os.path.join(directory, "manifest.ini")
    manifest = configparser.ConfigParser(interpolation=None)
    try:
        found = manifest.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise DomainError(f"malformed checkpoint manifest at {path}: {exc}") from exc
    if not found:
        raise DomainError(f"no checkpoint manifest at {path}")
    try:
        evo = manifest["evolution"]
        rules = _field_rules(EvolutionParams).items()
        params = EvolutionParams(**{name: cast(evo[name]) for name, (cast, _) in rules})
        run = manifest["run"]
        count, n_warn = int(run["count"]), int(run["warning_count"])
        provenance = run.get("provenance", "")
        times = [float(manifest["samples"][f"t_{i}"]) for i in range(count)]
        notes = tuple(manifest["warnings"][f"w_{i}"] for i in range(n_warn))
    except (KeyError, ValueError) as exc:
        raise DomainError(f"malformed checkpoint manifest at {path}: {exc}") from exc
    samples = []
    for i, t in enumerate(times):
        f = read_field(os.path.join(directory, f"sample_{i:04d}.dat"))
        samples.append((t, f))
    return Trajectory(params, tuple(samples), provenance, notes)
