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

Both lattices take radii from summed squared integer modes,
``|x| = dx*sqrt(|m|^2)`` and ``|xi| = (2*pi/L)*sqrt(|m|^2)``.  Every radial
function of the lattice is evaluated once per integer ``|m|^2`` and
gathered onto the lattice, so its values are bitwise invariant under
axis permutations and reflections.

Products are formed alias-free by one routine, the padding rule of
Orszag (1971): for an m-fold product (``m = degree`` for
``|f|^(degree-1) f``, ``m = power`` for ``|f|^power``) zero pad the
spectrum to ``(m+1)n/2`` points per axis, rounded up to even, take the
product pointwise on the padded lattice, and truncate back to the band
``[-n/2, n/2)``.  A real product is transformed with a real FFT.  The
unpaired ``-n/2`` mode is carried one-sided: the padded grid holds it at
``-n/2`` only, and the truncation keeps the product's ``-n/2``
coefficient but drops its ``+n/2`` one.  The modulus power of a field
that fills the ``-n/2`` planes thus has an imaginary part there beyond
roundoff; the solver's nonlinear step keeps the real part only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.fft as _fft

from .errors import DomainError, RepresentationError, ResolutionError, _require_real

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
        if type(self.dim) is not int or self.dim not in (2, 3):
            raise DomainError(f"dim must be 2 or 3, got {self.dim!r}")
        object.__setattr__(self, "extent", _require_real("extent", self.extent, positive=True))
        if type(self.points) is not int or self.points < 4 or self.points % 2:
            raise DomainError(f"points must be an even integer >= 4, got {self.points!r}")

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
        return _radial(self, lambda r: r)

    def space_radius(self) -> np.ndarray:
        """Array of ``|x|`` over the full spatial lattice."""
        return _radial(self, lambda r: r, space=True)

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
def _freq_axis(grid: Grid) -> np.ndarray:
    m = np.fft.fftfreq(grid.points, d=1.0 / grid.points)
    return _readonly(grid.freq_step * m)


@lru_cache(maxsize=None)
def _mode_norm_sq(grid: Grid, space: bool) -> np.ndarray:
    """Integer ``|m|^2`` over the lattice, in physical storage order for
    ``x`` and FFT order for ``xi``; exact, so every lattice symmetry fixes it."""
    m = np.arange(grid.points, dtype=np.int64) - grid.points // 2
    if not space:
        m = np.fft.ifftshift(m)
    axes = np.meshgrid(*([m * m] * grid.dim), indexing="ij", sparse=True)
    return _readonly(sum(axes[1:], axes[0]))


def _radial(grid: Grid, fn, space: bool = False) -> np.ndarray:
    """``fn(|xi|)`` over the frequency lattice, or ``fn(|x|)`` with ``space``.

    ``fn`` sees the radii ``step * sqrt(j)`` for every integer ``j`` up to
    the largest ``|m|^2``, once, and the table is indexed by ``|m|^2``.
    """
    step = grid.dx if space else grid.freq_step
    radii = step * np.sqrt(np.arange(grid.dim * (grid.points // 2) ** 2 + 1))
    return np.broadcast_to(fn(radii), radii.shape)[_mode_norm_sq(grid, space)]


@lru_cache(maxsize=None)
def _checkerboard(grid: Grid) -> np.ndarray:
    """``(-1)^(j1+...+jd)``, converting FFT phases to box phases; it equals
    ``(-1)^|m|^2`` in FFT order, as ``m_i = j_i`` mod 2."""
    return _readonly(1.0 - 2.0 * (_mode_norm_sq(grid, False) % 2))


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
def _padding(grid: Grid, factors: int) -> tuple:
    """The padded grid of a ``factors``-fold product, the band's index in its
    spectrum, and in its real half spectrum the indices of the band modes
    with last-axis mode ``>= 0`` and of the mirrors of the others."""
    half = grid.points // 2
    fine = Grid(grid.dim, grid.extent, 2 * -(-(factors + 1) * grid.points // 4))
    slots = _readonly(np.r_[0:half, fine.points - half : fine.points])
    mirror = _readonly((fine.points - slots) % fine.points)
    lead = grid.dim - 1
    band = np.ix_(*([slots] * grid.dim))
    upper = np.ix_(*([slots] * lead), _readonly(np.arange(half)))
    lower = np.ix_(*([mirror] * lead), _readonly(np.arange(half, 0, -1)))
    return fine, band, upper, lower


def _padded_product(f: Field, factors: int, pointwise) -> np.ndarray:
    """Physical samples of ``pointwise(f)``, a ``factors``-fold product,
    formed on the padded grid and truncated to the band of ``f``.

    The box-phase checkerboards of the two grids agree on every kept
    mode (both sizes are even), so they cancel and are never formed on
    the padded grid.  Both grid scales are applied on the band.
    """
    g = f.grid
    fine, band, upper, lower = _padding(g, factors)
    spec = np.zeros(fine.shape, dtype=np.complex128)
    if f.is_physical:
        spec[band] = (_forward_scale(g) * _inverse_scale(fine)) * _fft.fftn(f.samples)
    else:
        spec[band] = _inverse_scale(fine) * (_checkerboard(g) * f.samples)
    w = pointwise(_fft.ifftn(spec, overwrite_x=True))
    if np.isrealobj(w):
        hw = _fft.rfftn(w)
        prod = np.concatenate((hw[upper], np.conj(hw[lower])), axis=-1)
    else:
        prod = _fft.fftn(w, overwrite_x=True)[band]
    prod *= _forward_scale(fine) * _inverse_scale(g)
    return _fft.ifftn(prod, overwrite_x=True)


def dealiased_power(f: Field, degree: int) -> Field:
    """Alias-free ``|f|^(degree-1) * f`` for odd ``degree >= 3``.

    Within the band of ``f`` the returned spectrum equals the exact
    polynomial product of the band-limited input.
    """
    if degree < 3 or degree % 2 == 0:
        raise DomainError(f"degree must be odd and >= 3, got {degree}")
    w = _padded_product(f, degree, lambda u: np.abs(u) ** (degree - 1) * u)
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
    w = _padded_product(f, power, lambda u: (u.real**2 + u.imag**2) ** (power // 2))
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
        for name, positive in (("amplitude", False), ("width", True)):
            value = _require_real(name, getattr(self, name), positive)
            object.__setattr__(self, name, value)


def make_radial_data(grid: Grid, profile: RadialProfile) -> Field:
    """Sample a radial profile on the grid.

    The profile is evaluated once per summed squared integer lattice
    mode, so the samples are bitwise invariant under every lattice
    symmetry (axis permutations and reflections).  Widths narrower than
    four grid cells are rejected to keep the spectral tail negligible.
    """
    if profile.width < 4.0 * grid.dx:
        raise ResolutionError(
            f"width {profile.width} is under four grid cells ({4.0 * grid.dx:.4g})"
        )
    kind, amp, w = profile.kind, profile.amplitude, profile.width
    if kind == "random_radial_superposition" and profile.seed is None:
        raise DomainError("random_radial_superposition requires a seed")

    def fn(r: np.ndarray) -> np.ndarray:
        r2 = r * r
        if kind == "gaussian":
            return amp * np.exp(-r2 / (2.0 * w * w))
        out = np.zeros_like(r)
        if kind == "smooth_bump":
            t2 = r2 / (4.0 * w * w)
            inside = t2 < 1.0
            out[inside] = amp * np.exp(1.0 - 1.0 / (1.0 - t2[inside]))
            return out
        rng = np.random.Generator(np.random.Philox(key=profile.seed))
        n_terms = 6
        amps = amp * rng.uniform(0.35, 1.0, n_terms) * rng.choice([-1.0, 1.0], n_terms)
        widths = w * rng.uniform(0.8, 1.6, n_terms)
        kappas = rng.uniform(0.0, 1.5, n_terms) / w
        for a, wi, ka in zip(amps, widths, kappas):
            out = out + a * np.exp(-r2 / (2.0 * wi * wi)) * np.cos(ka * r)
        return out

    vals = _radial(grid, fn, space=True)
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
    far = _radial(f.grid, lambda r: r > f.grid.extent / 4.0, space=True)
    outside = float(dens[far].sum())
    return outside / total


def write_field(f: Field, path) -> None:
    """Serialise a field as text: header ``dim n L rep`` then ``re im`` rows.

    Samples are written in row-major order with shortest round-trip
    float formatting, so write/read is bitwise faithful.
    """
    g = f.grid
    flat = f.samples.reshape(-1)
    with open(path, "w") as fh:
        fh.write(f"{g.dim} {g.points} {g.extent!r} {f.rep}\n")
        fh.writelines(
            f"{re!r} {im!r}\n" for re, im in zip(flat.real.tolist(), flat.imag.tolist())
        )


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
