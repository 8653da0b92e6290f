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
product pointwise on the padded lattice, and truncate back.  The product
band is the symmetric ``[-n/2+1, n/2-1]``: the unpaired ``-n/2`` planes
are dropped from the padded input and from the truncated product, so the
padded field of an even spectrum is even and a real product's spectrum
is Hermitian.  A real product is transformed with a real FFT and
inverted from its half spectrum.

Radial data are even in every axis, ``a[j] = a[n-j]`` in either storage
order, and an even array is fixed by its ``[0, n/2]^d`` block, whose
type-I DCT is the array's DFT.  The transforms and the products test
their input for evenness and, when it holds, transform that block on
the coarse grid and on the padded grid alike, then unfold the result by
reflection.  Their outputs are then exactly even, so a radial run stays
on this path from step to step.  Arrays of fewer than 4096 points
(below ``64^2`` or ``16^3``) always take the full-grid FFTs, where the
block's fixed costs outweigh its smaller transforms.
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
        arr = np.asarray(samples, dtype=np.complex128, order="C")
        if arr.shape != grid.shape:
            raise DomainError(f"samples shape {arr.shape} does not match grid {grid.shape}")
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise DomainError("field samples must be finite")
        if arr is samples or arr.base is not None:  # the caller's buffer
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


# Fewer points than this keep the full-grid FFTs even when the array is
# even: measured per call, a Strang step on the sector breaks even at
# 64^2 and 16^3 (the crossover table is in CHANGES.md).
_SECTOR_FLOOR = 4096


def _block(a: np.ndarray) -> np.ndarray:
    """The ``[0, n/2]^d`` block of ``a``, a view."""
    return a[(slice(0, a.shape[0] // 2 + 1),) * a.ndim]


def _sector(a: np.ndarray) -> np.ndarray | None:
    """The ``[0, n/2]^d`` block of ``a`` when ``a`` has at least
    ``_SECTOR_FLOOR`` points and is even in every axis, else ``None``.

    Even means ``a[j] = a[n-j]`` along each axis.  The reflection fixes
    slots 0 and n/2 in both storage orders (``x = -L/2, 0`` physical,
    ``m = 0, -n/2`` in frequency), so the test and the block are the same
    for either representation, and the array's DFT is the type-I DCT of
    its block (Swarztrauber, Math. Comp. 47, 1986).
    """
    if a.size < _SECTOR_FLOOR:
        return None
    n, half = a.shape[0], a.shape[0] // 2
    for axis in range(a.ndim):
        lead = (slice(None),) * axis
        if not np.array_equal(a[lead + (slice(1, half),)], a[lead + (slice(n - 1, half, -1),)]):
            return None
    return _block(a)


def _unfold(block: np.ndarray, n: int) -> np.ndarray:
    """The even array on ``n`` points per axis whose ``[0, n/2]^d`` block is
    ``block``, by reflection ``a[n-j] = a[j]`` along each axis."""
    half, dim = n // 2, block.ndim
    out = np.empty((n,) * dim, dtype=block.dtype)
    _block(out)[...] = block
    for axis in range(dim):
        lead, rest = (slice(None),) * axis, (slice(0, half + 1),) * (dim - axis - 1)
        out[lead + (slice(half + 1, n),) + rest] = out[lead + (slice(half - 1, 0, -1),) + rest]
    return out


def forward_transform(f: Field) -> Field:
    """Physical samples to frequency samples of the continuum transform."""
    _require_rep(f, PHYSICAL, "forward_transform")
    g = f.grid
    sector = _sector(f.samples)
    if sector is None:
        spec = _checkerboard(g) * _fft.fftn(f.samples)
        return Field(g, _forward_scale(g) * spec, FREQUENCY)
    # Reversed, the block runs over x = 0..L/2 from the box centre, so its
    # DCT-I is the box-phase spectrum and no checkerboard is needed.
    spec = _fft.dctn(np.flip(sector), type=1)
    spec *= _forward_scale(g)
    return Field(g, _unfold(spec, g.points), FREQUENCY)


def inverse_transform(f: Field) -> Field:
    """Frequency samples back to physical samples; inverse of :func:`forward_transform`."""
    _require_rep(f, FREQUENCY, "inverse_transform")
    g = f.grid
    sector = _sector(f.samples)
    if sector is None:
        phys = _fft.ifftn(_checkerboard(g) * f.samples)
        return Field(g, _inverse_scale(g) * phys, PHYSICAL)
    phys = _fft.dctn(sector, type=1)
    phys *= _inverse_scale(g) / g.size
    return Field(g, _unfold(np.flip(phys), g.points), PHYSICAL)


def _map_spectrum(f: Field, fn) -> Field:
    """``fn`` applied to the spectrum of ``f``, handed back in the rep of ``f``."""
    out = Field(f.grid, fn(f.as_frequency().samples), FREQUENCY)
    return out if f.rep == FREQUENCY else out.as_physical()


@lru_cache(maxsize=None)
def _padding(grid: Grid, factors: int) -> tuple:
    """The padded grid of a ``factors``-fold product, and the band's index in
    its spectrum and in its real half spectrum (last-axis modes ``0..n/2``)."""
    half = grid.points // 2
    fine = Grid(grid.dim, grid.extent, 2 * -(-(factors + 1) * grid.points // 4))
    slots = _readonly(np.r_[0:half, fine.points - half : fine.points])
    band = np.ix_(*([slots] * grid.dim))
    halfband = np.ix_(*([slots] * (grid.dim - 1)), _readonly(np.arange(half + 1)))
    return fine, band, halfband


@lru_cache(maxsize=None)
def _band_factors(grid: Grid, factors: int) -> tuple:
    """Factors that carry the band of a coarse spectrum onto the padded
    grid, from physical and from frequency samples, and back from the
    product's full and half spectrum.  They hold both grid scales and are
    zero on the ``-n/2`` planes (and on a half spectrum's ``+n/2`` plane),
    which drops the unpaired mode."""
    half = grid.points // 2
    fine = _padding(grid, factors)[0]
    keep = np.ones(grid.shape)
    for axis in range(grid.dim):
        keep[(slice(None),) * axis + (half,)] = 0.0
    scale_in, scale_out = _inverse_scale(fine), _forward_scale(fine) * _inverse_scale(grid)
    carry = (
        _forward_scale(grid) * scale_in * keep,
        scale_in * _checkerboard(grid) * keep,
        scale_out * keep,
        scale_out * keep[..., : half + 1],
    )
    return tuple(_readonly(c) for c in carry)


def _padded_product(f: Field, factors: int, pointwise) -> np.ndarray:
    """Physical samples of ``pointwise(f)``, a ``factors``-fold product,
    formed on the padded grid from the band ``[-n/2+1, n/2-1]`` of ``f`` and
    truncated back to that band.

    Both grid scales are applied on the band.  An even ``f`` runs on the
    ``[0, n/2]^d`` blocks of both grids, in box phase as in
    :func:`forward_transform`; there the ``-n/2`` planes are the last slot
    of each axis and are simply not copied.  Otherwise the box-phase
    checkerboards of the two grids agree on every kept mode (both sizes
    are even), so they cancel and are never formed on the padded grid;
    and a real product's truncated spectrum is Hermitian, so it is
    inverted from its half spectrum and its samples are real.
    """
    g = f.grid
    half = g.points // 2
    fine, band, halfband = _padding(g, factors)
    sector = _sector(f.samples)
    if sector is not None:
        scale_in = _inverse_scale(fine) / fine.size
        kept = (slice(0, half),) * g.dim
        if f.is_physical:
            coarse = _fft.dctn(np.flip(sector), type=1)[kept]
            coarse *= _forward_scale(g) * scale_in
        else:
            coarse = scale_in * sector[kept]
        spec = np.zeros((fine.points // 2 + 1,) * g.dim, dtype=coarse.dtype)
        spec[kept] = coarse
        w = pointwise(_fft.dctn(spec, type=1, overwrite_x=True))
        prod = np.zeros((half + 1,) * g.dim, dtype=w.dtype)
        scale_out = _forward_scale(fine) * _inverse_scale(g) / g.size
        prod[kept] = scale_out * _fft.dctn(w, type=1, overwrite_x=True)[kept]
        return _unfold(np.flip(_fft.dctn(prod, type=1, overwrite_x=True)), g.points)
    from_phys, from_freq, to_full, to_half = _band_factors(g, factors)
    spec = np.zeros(fine.shape, dtype=np.complex128)
    if f.is_physical:
        spec[band] = from_phys * _fft.fftn(f.samples)
    else:
        spec[band] = from_freq * f.samples
    w = pointwise(_fft.ifftn(spec, overwrite_x=True))
    if np.isrealobj(w):
        return _fft.irfftn(to_half * _fft.rfftn(w)[halfband], s=g.shape, overwrite_x=True)
    return _fft.ifftn(to_full * _fft.fftn(w, overwrite_x=True)[band], overwrite_x=True)


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

    Returned as a physical field with real samples.
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
