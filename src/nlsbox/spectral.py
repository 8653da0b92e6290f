"""Periodic-box pseudospectral core: grids, fields, transforms, products.

The box is ``[-L/2, L/2)^d`` sampled on a uniform lattice of ``n`` points
per axis.  Frequencies live on the dual lattice ``xi_m = 2*pi*m/L`` with
integer ``m`` in ``[-n/2, n/2)``.  The continuum transform pair realised
here is

    fhat(xi) = (2*pi)^(-d/2) * integral e^(-i x.xi) f(x) dx
    f(x)     = (2*pi)^(-d/2) * integral e^(+i x.xi) fhat(xi) dxi

discretised so that the forward sum carries the cell volume ``(L/n)^d``
and the inverse sum carries ``(2*pi/L)^d / (2*pi)^(d/2)``.  With this
pairing Plancherel holds on the lattice and spectral values are samples
of the continuum transform, so band embedding between grids over the
same box is a plain value copy.

Products are formed alias-free by one routine, the padding rule of
Orszag (1971): zero pad the spectrum by ``degree//2 + 1`` per axis for
``|f|^(degree-1) f`` (``power//2 + 1`` for ``|f|^power``), take the
product pointwise on the padded lattice, and truncate back to the band
``[-n/2, n/2)``.  The unpaired ``-n/2`` mode is carried one-sided: the
padded grid holds it at ``-n/2`` only, and the truncation keeps the
product's ``-n/2`` coefficient but drops its ``+n/2`` one.  The modulus
power of a field that fills the ``-n/2`` planes thus has an imaginary
part there beyond roundoff; the solver's nonlinear step keeps the real
part only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.fft as _fft

from .errors import DomainError, RepresentationError, ResolutionError

__all__ = [
    "Grid",
    "Field",
    "RadialProfile",
    "forward_transform",
    "inverse_transform",
    "dealiased_power",
    "dealiased_modulus_power",
    "make_radial_data",
    "tail_mass_fraction",
    "write_field",
    "read_field",
]

PHYSICAL = "physical"
FREQUENCY = "frequency"
_REPS = (PHYSICAL, FREQUENCY)


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on the box ``[-extent/2, extent/2)^dim``.

    Parameters
    ----------
    dim:
        Spatial dimension, 2 or 3.
    extent:
        Side length ``L`` of the box.
    points:
        Even number of samples per axis.
    """

    dim: int
    extent: float
    points: int

    def __post_init__(self) -> None:
        if self.dim not in (2, 3):
            raise DomainError(f"dim must be 2 or 3, got {self.dim}")
        if self.extent <= 0:
            raise DomainError(f"extent must be positive, got {self.extent}")
        if self.points < 4 or self.points % 2:
            raise DomainError(f"points must be even and >= 4, got {self.points}")

    @classmethod
    def default(cls, dim: int) -> "Grid":
        """Stock grid: ``256^2`` on ``L = 64`` in 2d, ``64^3`` on ``L = 32`` in 3d."""
        if dim == 2:
            return cls(2, 64.0, 256)
        if dim == 3:
            return cls(3, 32.0, 64)
        raise DomainError(f"dim must be 2 or 3, got {dim}")

    @property
    def dx(self) -> float:
        return self.extent / self.points

    @property
    def cell_volume(self) -> float:
        return self.dx**self.dim

    @property
    def freq_step(self) -> float:
        return 2.0 * math.pi / self.extent

    @property
    def freq_cell_volume(self) -> float:
        return self.freq_step**self.dim

    @property
    def nyquist(self) -> float:
        """Largest resolvable frequency magnitude per axis, ``pi*points/extent``."""
        return math.pi * self.points / self.extent

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points,) * self.dim

    @property
    def size(self) -> int:
        return self.points**self.dim

    def axis_coords(self) -> np.ndarray:
        """Sample coordinates ``-L/2 + j*dx`` along one axis (all axes agree)."""
        return _axis_coords(self)

    def freq_axis(self) -> np.ndarray:
        """Frequencies ``2*pi*m/L`` along one axis in FFT storage order."""
        return _freq_axis(self)

    def freq_radius(self) -> np.ndarray:
        """Array of ``|xi|`` over the full frequency lattice (FFT order)."""
        return _freq_radius(self)

    def space_radius(self) -> np.ndarray:
        """Array of ``|x|`` over the full spatial lattice."""
        return _space_radius(self)

    def padded(self, factor: int) -> "Grid":
        """Grid over the same box with ``factor`` times as many points per axis."""
        if factor < 1:
            raise DomainError(f"pad factor must be >= 1, got {factor}")
        return Grid(self.dim, self.extent, factor * self.points)


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=None)
def _axis_coords(grid: Grid) -> np.ndarray:
    j = np.arange(grid.points)
    return _readonly(grid.dx * (j - grid.points // 2))


@lru_cache(maxsize=None)
def _axis_modes(grid: Grid) -> np.ndarray:
    """Integer mode numbers ``j - n/2`` in physical storage order."""
    return _readonly(np.arange(grid.points, dtype=np.int64) - grid.points // 2)


@lru_cache(maxsize=None)
def _freq_axis(grid: Grid) -> np.ndarray:
    m = np.fft.fftfreq(grid.points, d=1.0 / grid.points)
    return _readonly(grid.freq_step * m)


@lru_cache(maxsize=None)
def _freq_radius(grid: Grid) -> np.ndarray:
    axes = np.meshgrid(*([_freq_axis(grid)] * grid.dim), indexing="ij", sparse=True)
    return _readonly(np.sqrt(sum(a**2 for a in axes)))


@lru_cache(maxsize=None)
def _space_radius_sq(grid: Grid) -> np.ndarray:
    # Summing the squared integer modes first keeps the radius exactly
    # invariant under axis permutations and sign flips of the lattice.
    m = _axis_modes(grid)
    axes = np.meshgrid(*([m * m] * grid.dim), indexing="ij", sparse=True)
    s = axes[0]
    for a in axes[1:]:
        s = s + a
    return _readonly(grid.dx * grid.dx * s)


@lru_cache(maxsize=None)
def _space_radius(grid: Grid) -> np.ndarray:
    return _readonly(np.sqrt(_space_radius_sq(grid)))


@lru_cache(maxsize=None)
def _checkerboard(grid: Grid) -> np.ndarray:
    """``(-1)^(j1+...+jd)`` over the lattice; converts FFT phases to box phases."""
    sign = 1.0 - 2.0 * (np.arange(grid.points) % 2)
    axes = np.meshgrid(*([sign] * grid.dim), indexing="ij", sparse=True)
    out = axes[0]
    for a in axes[1:]:
        out = out * a
    return _readonly(out)


class Field:
    """Immutable complex samples on a grid, tagged physical or frequency.

    Physical samples are stored in coordinate order (``x`` ascending from
    ``-L/2``); frequency samples are stored in FFT order matching
    :meth:`Grid.freq_axis`.
    """

    __slots__ = ("grid", "samples", "rep")

    def __init__(self, grid: Grid, samples: np.ndarray, rep: str) -> None:
        if rep not in _REPS:
            raise RepresentationError(f"rep must be one of {_REPS}, got {rep!r}")
        arr = np.asarray(samples, dtype=np.complex128)
        if arr.shape != grid.shape:
            raise DomainError(f"samples shape {arr.shape} does not match grid {grid.shape}")
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise DomainError("field samples must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "rep", rep)

    def __setattr__(self, name, value):
        raise AttributeError("Field is immutable")

    @classmethod
    def physical(cls, grid: Grid, samples: np.ndarray) -> "Field":
        return cls(grid, samples, PHYSICAL)

    @classmethod
    def frequency(cls, grid: Grid, samples: np.ndarray) -> "Field":
        return cls(grid, samples, FREQUENCY)

    @property
    def is_physical(self) -> bool:
        return self.rep == PHYSICAL

    def as_physical(self) -> "Field":
        return self if self.is_physical else inverse_transform(self)

    def as_frequency(self) -> "Field":
        return self if not self.is_physical else forward_transform(self)

    def _check_compatible(self, other: "Field") -> None:
        if self.grid != other.grid:
            raise DomainError("fields live on different grids")
        if self.rep != other.rep:
            raise RepresentationError(f"cannot combine {self.rep} with {other.rep} samples")

    def __add__(self, other: "Field") -> "Field":
        self._check_compatible(other)
        return Field(self.grid, self.samples + other.samples, self.rep)

    def __sub__(self, other: "Field") -> "Field":
        self._check_compatible(other)
        return Field(self.grid, self.samples - other.samples, self.rep)

    def __mul__(self, scalar: complex) -> "Field":
        return Field(self.grid, self.samples * scalar, self.rep)

    __rmul__ = __mul__

    def __neg__(self) -> "Field":
        return Field(self.grid, -self.samples, self.rep)

    def __repr__(self) -> str:
        return f"Field(grid={self.grid!r}, rep={self.rep!r})"


def _require_rep(f: Field, rep: str, what: str) -> None:
    if f.rep != rep:
        raise RepresentationError(f"{what} expects a {rep} field, got {f.rep}")


def _forward_scale(g: Grid) -> float:
    return (g.dx / math.sqrt(2.0 * math.pi)) ** g.dim


def _inverse_scale(g: Grid) -> float:
    return (math.sqrt(2.0 * math.pi) / g.dx) ** g.dim


def forward_transform(f: Field) -> Field:
    """Physical samples to frequency samples of the continuum transform."""
    _require_rep(f, PHYSICAL, "forward_transform")
    g = f.grid
    spec = _checkerboard(g) * _fft.fftn(f.samples)
    return Field(g, _forward_scale(g) * spec, FREQUENCY)


def inverse_transform(f: Field) -> Field:
    """Frequency samples back to physical samples; inverse of :func:`forward_transform`."""
    _require_rep(f, FREQUENCY, "inverse_transform")
    g = f.grid
    phys = _fft.ifftn(_checkerboard(g) * f.samples)
    return Field(g, _inverse_scale(g) * phys, PHYSICAL)


def _map_spectrum(f: Field, fn) -> Field:
    """``fn`` applied to the spectrum of ``f``, handed back in the rep of ``f``."""
    out = Field(f.grid, fn(f.as_frequency().samples), FREQUENCY)
    return out if f.rep == FREQUENCY else out.as_physical()


@lru_cache(maxsize=None)
def _band_slots(points: int, padded_points: int) -> np.ndarray:
    """Storage slots of the modes ``[-n/2, n/2)`` in a padded FFT-order axis."""
    half = points // 2
    return _readonly(np.r_[0:half, padded_points - half : padded_points])


def _padded_product(f: Field, factor: int, pointwise) -> np.ndarray:
    """Physical samples of ``pointwise(f)`` formed on the grid padded by
    ``factor`` and truncated to the band of ``f``.

    The box-phase checkerboards of the two grids agree on every kept
    mode, so they cancel and are never formed on the padded grid.
    """
    g = f.grid
    fine = g.padded(factor)
    band = np.ix_(*([_band_slots(g.points, fine.points)] * g.dim))
    spec = np.zeros(fine.shape, dtype=np.complex128)
    if f.is_physical:
        spec[band] = _forward_scale(g) * _fft.fftn(f.samples)
    else:
        spec[band] = _checkerboard(g) * f.samples
    u = _inverse_scale(fine) * _fft.ifftn(spec)
    # Complex even for a real |u|^power, so the padded FFT rounds as the
    # complex transform does; a real FFT would change the last bits.
    w = np.asarray(pointwise(u), dtype=np.complex128)
    prod = _forward_scale(fine) * _fft.fftn(w)[band]
    return _inverse_scale(g) * _fft.ifftn(prod)


def dealiased_power(f: Field, degree: int) -> Field:
    """Alias-free ``|f|^(degree-1) * f`` for odd ``degree >= 3``.

    Within the band of ``f`` the returned spectrum equals the exact
    polynomial product of the band-limited input.
    """
    if degree < 3 or degree % 2 == 0:
        raise DomainError(f"degree must be odd and >= 3, got {degree}")
    w = _padded_product(f, degree // 2 + 1, lambda u: np.abs(u) ** (degree - 1) * u)
    out = Field(f.grid, w, PHYSICAL)
    return out if f.is_physical else forward_transform(out)


def dealiased_modulus_power(f: Field, power: int) -> Field:
    """Alias-free real product ``|f|^power`` for even ``power >= 2``.

    Returned as a physical field.  The imaginary part is roundoff only
    when the ``-n/2`` planes of ``f`` are empty; otherwise it carries the
    unpaired Nyquist mode (see the module notes).
    """
    if power < 2 or power % 2:
        raise DomainError(f"power must be even and >= 2, got {power}")
    w = _padded_product(f, power // 2 + 1, lambda u: np.abs(u) ** power)
    return Field(f.grid, w, PHYSICAL)


@dataclass(frozen=True)
class RadialProfile:
    """Recipe for radially symmetric initial data.

    ``kind`` is one of ``gaussian``, ``smooth_bump``,
    ``random_radial_superposition``; the last one draws its shape from a
    counter-based Philox stream keyed by ``seed``.
    """

    kind: str
    amplitude: float = 1.0
    width: float = 1.0
    seed: int | None = None

    KINDS = ("gaussian", "smooth_bump", "random_radial_superposition")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise DomainError(f"kind must be one of {self.KINDS}, got {self.kind!r}")
        if self.width <= 0:
            raise DomainError(f"width must be positive, got {self.width}")


def make_radial_data(grid: Grid, profile: RadialProfile) -> Field:
    """Sample a radial profile on the grid.

    The radius is evaluated from the summed squared integer lattice
    modes, so the samples are bitwise invariant under every lattice
    symmetry (axis permutations and reflections).  Widths narrower than
    four grid cells are rejected to keep the spectral tail negligible.
    """
    if profile.width < 4.0 * grid.dx:
        raise ResolutionError(
            f"width {profile.width} is under four grid cells ({4.0 * grid.dx:.4g})"
        )
    r2 = _space_radius_sq(grid)
    amp, w = profile.amplitude, profile.width
    if profile.kind == "gaussian":
        vals = amp * np.exp(-r2 / (2.0 * w * w))
    elif profile.kind == "smooth_bump":
        t2 = r2 / (4.0 * w * w)
        vals = np.zeros(grid.shape)
        inside = t2 < 1.0
        vals[inside] = amp * np.exp(1.0 - 1.0 / (1.0 - t2[inside]))
    else:
        if profile.seed is None:
            raise DomainError("random_radial_superposition requires a seed")
        rng = np.random.Generator(np.random.Philox(key=profile.seed))
        n_terms = 6
        amps = amp * rng.uniform(0.35, 1.0, n_terms) * rng.choice([-1.0, 1.0], n_terms)
        widths = w * rng.uniform(0.8, 1.6, n_terms)
        kappas = rng.uniform(0.0, 1.5, n_terms) / w
        r = _space_radius(grid)
        vals = np.zeros(grid.shape)
        for a, wi, ka in zip(amps, widths, kappas):
            vals = vals + a * np.exp(-r2 / (2.0 * wi * wi)) * np.cos(ka * r)
    return Field(grid, vals.astype(np.complex128), PHYSICAL)


def tail_mass_fraction(f: Field) -> float:
    """Fraction of the squared L2 mass outside the ball ``|x| > extent/4``.

    A value above ``1e-6`` signals that the box is too small for the
    state and wrap-around is about to matter.
    """
    u = f.as_physical()
    dens = np.abs(u.samples) ** 2
    total = float(dens.sum())
    if total == 0.0:
        return 0.0
    outside = float(dens[_space_radius(f.grid) > f.grid.extent / 4.0].sum())
    return outside / total


def write_field(f: Field, path) -> None:
    """Serialise a field as text: header ``dim n L rep`` then ``re im`` rows.

    Samples are written in row-major order with shortest round-trip
    float formatting, so write/read is bitwise faithful.
    """
    g = f.grid
    flat = f.samples.reshape(-1)
    with open(path, "w") as fh:
        fh.write(f"{g.dim} {g.points} {float(g.extent)!r} {f.rep}\n")
        for z in flat:
            fh.write(f"{float(z.real)!r} {float(z.imag)!r}\n")


def read_field(path) -> Field:
    """Read a field written by :func:`write_field`."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 4:
            raise DomainError(f"malformed field header in {path}")
        dim, points, extent, rep = int(header[0]), int(header[1]), float(header[2]), header[3]
        if rep not in _REPS:
            raise RepresentationError(f"unknown representation tag {rep!r} in {path}")
        grid = Grid(dim, extent, points)
        data = np.loadtxt(fh, dtype=np.float64, ndmin=2)
    if data.shape != (grid.size, 2):
        raise DomainError(
            f"expected {grid.size} sample rows of two columns, got shape {data.shape}"
        )
    samples = (data[:, 0] + 1j * data[:, 1]).reshape(grid.shape)
    return Field(grid, samples, rep)
