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
import warnings as _warnings
from functools import lru_cache

import numpy as np

from .errors import (
    DomainError,
    InstabilityError,
    UndersamplingWarning,
    _require_k,
    _require_real,
)
from .spectral import (
    PHYSICAL,
    Field,
    Grid,
    _map_spectrum,
    dealiased_modulus_power,
    read_field,
    write_field,
)

__all__ = [
    "EvolutionParams",
    "Trajectory",
    "default_dt",
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
        if self.dim not in (2, 3):
            raise DomainError(f"dim must be 2 or 3, got {self.dim!r}")
        _require_k(self.k)
        if self.dim == 3 and self.k != 1:
            raise DomainError("three dimensional runs support the cubic case only")
        for name in ("dt", "t_final"):
            value = _require_real(name, getattr(self, name), positive=True)
            object.__setattr__(self, name, value)
        every = self.sample_every
        if not isinstance(every, int) or isinstance(every, bool) or every < 1:
            raise DomainError(f"sample_every must be a positive integer, got {every!r}")
        steps = round(self.t_final / self.dt)
        if steps < 1 or abs(steps * self.dt - self.t_final) > 1e-9 * max(1.0, self.t_final):
            raise DomainError(
                f"t_final={self.t_final!r} is not a whole number of steps of size dt={self.dt!r}"
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
        samples = tuple((float(t), f) for t, f in self.samples)
        if not samples:
            raise DomainError("a trajectory needs at least one sample")
        grid = samples[0][1].grid
        for _, f in samples:
            if not isinstance(f, Field) or f.grid != grid:
                raise DomainError("all samples must be fields on a single grid")
        times = [t for t, _ in samples]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise DomainError("sample times must be strictly increasing")
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


@lru_cache(maxsize=4)
def _quadratic_phase(grid: Grid, t: float) -> np.ndarray:
    r = grid.freq_radius()
    phase = np.exp(r * r * (-1j * t))
    phase.setflags(write=False)
    return phase


def linear_flow(f: Field, t: float) -> Field:
    """Apply the free propagator exp(i t Lap).

    Exact on the grid: every spectral value picks up the unit phase
    exp(-i t |xi|^2).  The representation of the input is preserved.
    """
    phase = _quadratic_phase(f.grid, _require_real("time", t))
    return _map_spectrum(f, lambda spec: spec * phase)


def nonlinear_phase(f: Field, dt: float, k: int, dealias: bool = True) -> Field:
    """Advance the potential sub-flow u -> u exp(-i dt |u|^(2k)).

    With ``dealias`` set, the modulus power is formed on a padded grid so
    that the phase field is free of wrap-around products; the rotation
    itself is pointwise either way, so the modulus of every sample, and
    with it the mass, is untouched.
    """
    dt = _require_real("dt", dt)
    _require_k(k)
    u = f.as_physical()
    if dealias:
        w = dealiased_modulus_power(u, 2 * k).samples.real
    else:
        w = np.abs(u.samples) ** (2 * k)
    return Field(u.grid, u.samples * np.exp(-1j * dt * w), PHYSICAL)


def strang_step(f: Field, params: EvolutionParams) -> Field:
    """One step of the symmetric splitting L(dt/2) N(dt) L(dt/2)."""
    if f.grid.dim != params.dim:
        raise DomainError(
            f"field lives in {f.grid.dim} dimensions but params ask for {params.dim}"
        )
    half = 0.5 * params.dt
    try:
        # Overflow here means the run is blowing up; the resulting
        # non-finite samples are caught below, so keep numpy quiet.
        with np.errstate(over="ignore", invalid="ignore"):
            u = linear_flow(f.as_physical(), half)
            u = nonlinear_phase(u, params.dt, params.k, params.dealias)
            return linear_flow(u, half)
    except DomainError as exc:
        raise InstabilityError(f"step produced a non-finite field ({exc})") from exc


def default_dt(grid: Grid) -> float:
    """Conservative step size 0.5 dx^2 matching the spatial resolution."""
    return 0.5 * grid.dx**2


def _tail_fraction(f: Field) -> float:
    spec = f.as_frequency()
    with np.errstate(over="ignore", invalid="ignore"):
        power = np.abs(spec.samples) ** 2
        total = float(power.sum())
        if total == 0.0 or not math.isfinite(total):
            return 0.0
        outer = f.grid.freq_radius() >= _TAIL_BAND_START * f.grid.nyquist
        return float(power[outer].sum()) / total


def _check_health(u: Field, t: float, peak0: float, notes: list) -> None:
    peak = float(np.max(np.abs(u.samples)))
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


def evolve(initial: Field, params: EvolutionParams) -> Trajectory:
    """March the splitting scheme over the whole horizon.

    Samples are recorded at step zero, every ``sample_every`` steps, and
    at the final step.  Health checks run at each recorded instant: the
    peak amplitude must stay within a factor 1e6 of its starting value,
    and a warning is issued once if the top third of the resolved band
    ever carries more than a 1e-4 share of the spectral mass.
    """
    if not isinstance(initial, Field):
        raise DomainError(f"initial data must be a Field, got {type(initial).__name__}")
    if initial.grid.dim != params.dim:
        raise DomainError(
            f"initial data lives in {initial.grid.dim} dimensions "
            f"but params ask for {params.dim}"
        )
    u = initial.as_physical()
    steps = params.step_count()
    peak0 = float(np.max(np.abs(u.samples)))
    if peak0 == 0.0:
        peak0 = 1.0
    notes: list = []
    _check_health(u, 0.0, peak0, notes)
    samples = [(0.0, u)]
    for i in range(1, steps + 1):
        t = i * params.dt
        try:
            u = strang_step(u, params)
        except InstabilityError as exc:
            raise InstabilityError(f"{exc} near t={t!r}") from exc
        if i % params.sample_every == 0 or i == steps:
            _check_health(u, t, peak0, notes)
            samples.append((t, u))
    provenance = (
        f"strang dim={params.dim} k={params.k} dt={params.dt!r} "
        f"steps={steps} dealias={params.dealias}"
    )
    return Trajectory(params, tuple(samples), provenance, tuple(notes))


def mass(f: Field) -> float:
    """Squared L2 norm, the conserved mass of the flow."""
    u = f.as_physical()
    return float(np.sum(np.abs(u.samples) ** 2) * f.grid.cell_volume)


def energy(f: Field, k: int) -> float:
    """Hamiltonian 0.5 |grad u|_2^2 + |u|_{2k+2}^{2k+2} / (2k + 2).

    The gradient part is summed in frequency, the potential part on the
    physical lattice.  Both terms are nonnegative, so the defocusing
    energy controls the H1 size of the field.
    """
    _require_k(k)
    spec = f.as_frequency()
    r = f.grid.freq_radius()
    kinetic = 0.5 * float(np.sum(r * r * np.abs(spec.samples) ** 2)) * f.grid.freq_cell_volume
    phys = f.as_physical()
    potential = (
        float(np.sum(np.abs(phys.samples) ** (2 * k + 2)))
        * f.grid.cell_volume
        / (2 * k + 2)
    )
    return kinetic + potential


def write_checkpoint(traj: Trajectory, directory: str) -> None:
    """Write every sample plus a manifest so a run can be reloaded."""
    os.makedirs(directory, exist_ok=True)
    p = traj.params
    manifest = configparser.ConfigParser(interpolation=None)
    manifest["evolution"] = {
        "dim": str(p.dim),
        "k": str(p.k),
        "dt": repr(p.dt),
        "t_final": repr(p.t_final),
        "sample_every": str(p.sample_every),
        "dealias": "true" if p.dealias else "false",
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
    if not manifest.read(path, encoding="utf-8"):
        raise DomainError(f"no checkpoint manifest at {path}")
    try:
        evo = manifest["evolution"]
        params = EvolutionParams(
            dim=evo.getint("dim"),
            k=evo.getint("k"),
            dt=float(evo["dt"]),
            t_final=float(evo["t_final"]),
            sample_every=evo.getint("sample_every"),
            dealias=evo.getboolean("dealias"),
        )
        count = manifest["run"].getint("count")
        provenance = manifest["run"].get("provenance", "")
        times = [float(manifest["samples"][f"t_{i}"]) for i in range(count)]
        n_warn = manifest["run"].getint("warning_count")
        notes = tuple(manifest["warnings"][f"w_{i}"] for i in range(n_warn))
    except (KeyError, ValueError) as exc:
        raise DomainError(f"malformed checkpoint manifest at {path}: {exc}") from exc
    samples = []
    for i, t in enumerate(times):
        f = read_field(os.path.join(directory, f"sample_{i:04d}.dat"))
        samples.append((t, f))
    return Trajectory(params, tuple(samples), provenance, notes)
