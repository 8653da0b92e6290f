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
product pointwise on the padded lattice, and truncate back.  Every
product starts from the spectrum of its input.  The product band is the
symmetric ``[-n/2+1, n/2-1]``: the unpaired ``-n/2`` planes are dropped
from the padded input and from the truncated product, so the padded
field of an even spectrum is even and a real product's spectrum is
Hermitian; its samples keep their real part.

Radial data are even in every axis, ``a[j] = a[n-j]`` in either storage
order, and an even array is fixed by its ``[0, n/2]^d`` block, whose
type-I DCT is the array's DFT.  A field's evenness is decided where it
is made: the public constructor tests its samples once, and everything
else is made knowing the answer (see :class:`Field`).  An even field's
block is transformed on the coarse grid and on the padded grid alike,
lattice sums fold onto it, and the symbols, masks and phases an operation
is handed as functions are gathered on it alone (the phases and the
Sobolev and smoothing symbols once per grid), so a radial run stays on
the block from step to step.  Non-even input and all that is made from it
take the full-grid FFTs, on the padded grid too, box phases by ``fftshift``.
Up to a measured block side per dimension (``_DENSE_SIDE``: 50 in 2d, 57
in 3d, where the slice products of :func:`_apply` stay on one OpenBLAS
thread and beat scipy), each leg of the block path is one cached real
matrix per axis, flips, scales, zero padding and band truncation folded
in (:func:`_even_ops`, which alone picks the engine), applied in one layout
to every block, 2d and 3d (:func:`_apply`); beyond, ``scipy.fft``, loaded
like the full-grid FFTs on first use: a transform is one ``dctn``, a padded
leg one ``dct`` per axis on only the lines that carry data
(:func:`_dct1_lines`; Bowman & Roberts, SIAM J. Sci. Comput. 2011).
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import islice

import numpy as np
import scipy  # its submodules load on first use: scipy.fft only off the dense path

from .errors import (
    DomainError,
    RepresentationError,
    ResolutionError,
    _require_dim,
    _require_integer,
    _require_real,
)

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
# The largest block side per dimension whose legs run dense (:func:`_even_ops`).
_DENSE_SIDE = {2: 50, 3: 57}


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
        object.__setattr__(self, "dim", _require_dim(self.dim))
        object.__setattr__(self, "extent", _require_real("extent", self.extent, positive=True))
        object.__setattr__(self, "points", _require_integer("points", self.points, low=4))
        if self.points % 2:
            raise DomainError(f"points must be an even integer >= 4, got {self.points!r}")
        # The generated hash, once: every cache keyed by the grid asks for it.
        object.__setattr__(self, "_hash", hash((self.dim, self.extent, self.points)))

    def __hash__(self) -> int:
        return self._hash

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
        return self.dx * (np.arange(self.points) - self.points // 2)

    def freq_axis(self) -> np.ndarray:
        """Frequencies ``2*pi*m/L`` along one axis in FFT storage order."""
        return self.freq_step * np.fft.fftfreq(self.points, d=1.0 / self.points)

    def freq_radius(self) -> np.ndarray:
        """Array of ``|xi|`` over the full frequency lattice (FFT order)."""
        return _radial(self, lambda r: r)

    def space_radius(self) -> np.ndarray:
        """Array of ``|x|`` over the full spatial lattice."""
        return _radial(self, lambda r: r, space=True)


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# Four keys per grid, each 8 n^d bytes on a whole lattice (2 MiB at 64^3).
@lru_cache(maxsize=8)
def _mode_norm_sq(grid: Grid, space: bool, block: bool = False) -> np.ndarray:
    """Integer ``|m|^2`` over the lattice, or its ``[0, n/2]^d`` block, in
    physical storage order for ``x`` (``m`` from ``-n/2``) and FFT order for
    ``xi``; exact, so every lattice symmetry fixes it."""
    m = np.arange(grid.points, dtype=np.int64) - grid.points // 2
    if not space:
        m = np.fft.ifftshift(m)
    m = m[: grid.points // 2 + 1] if block else m
    axes = np.meshgrid(*([m * m] * grid.dim), indexing="ij", sparse=True)
    return _readonly(sum(axes[1:], axes[0]))


def _radial(grid: Grid, fn, block: bool = False, space: bool = False) -> np.ndarray:
    """``fn(|xi|)``, or ``fn(|x|)`` with ``space``, over the lattice or its block.

    ``fn`` sees the radii ``step * sqrt(j)`` for every integer ``j`` up to
    the largest ``|m|^2``, once, and the table is indexed by ``|m|^2``.
    """
    step = grid.dx if space else grid.freq_step
    radii = step * np.sqrt(np.arange(grid.dim * (grid.points // 2) ** 2 + 1))
    return np.broadcast_to(fn(radii), radii.shape)[_mode_norm_sq(grid, space, block)]


class Field:
    """Immutable complex samples on a grid, tagged physical or frequency.

    Physical samples are stored in coordinate order (``x`` ascending from
    ``-L/2``); frequency samples are stored in FFT order matching
    :meth:`Grid.freq_axis`.

    Evenness is decided where a field is made, never later: the constructor
    holds the ``[0, n/2]^d`` block of even samples too (:func:`_sector`), and
    what the package makes from even input or a radial profile holds only that
    block, unfolded (read-only) into ``samples`` when first read.  A physical
    field keeps the spectrum it was inverted from, or else its first
    :meth:`as_frequency`, which is where its products start.
    """

    __slots__ = ("grid", "rep", "_samples", "_half", "_spectrum")

    def __init__(self, grid: Grid, samples: np.ndarray, rep: str) -> None:
        arr = np.asarray(samples, dtype=np.complex128, order="C")
        if arr is samples or arr.base is not None:  # the caller's buffer
            arr = arr.copy()
        self._hold(grid, rep, arr, even=None)

    @classmethod
    def _adopt(cls, grid: Grid, arr: np.ndarray, rep: str, even: bool = False) -> "Field":
        """A field that takes over ``arr``, a fresh array, without a copy: as
        its samples, or with ``even`` as the ``[0, n/2]^d`` block of an even field."""
        f = object.__new__(cls)
        f._hold(grid, rep, np.asarray(arr, dtype=np.complex128, order=None if even else "C"), even)
        return f

    def _hold(self, grid: Grid, rep: str, arr: np.ndarray, even: bool | None) -> None:
        """Hold ``arr``, the block with ``even``, else the samples, tested if ``even`` is None."""
        if rep not in _REPS:
            raise RepresentationError(f"rep must be one of {_REPS}, got {rep!r}")
        shape = (grid.points // 2 + 1,) * grid.dim if even else grid.shape
        if arr.shape != shape:
            raise DomainError(f"samples shape {arr.shape} does not match grid {grid.shape}")
        _require_finite(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "rep", rep)
        object.__setattr__(self, "_samples", None if even else arr)
        object.__setattr__(self, "_half", arr if even else None if even is False else _sector(arr))
        object.__setattr__(self, "_spectrum", None)

    def __setattr__(self, name, value):
        raise AttributeError("Field is immutable")

    @property
    def samples(self) -> np.ndarray:
        if self._samples is None:
            object.__setattr__(self, "_samples", _readonly(_unfold(self._half, self.grid.points)))
        return self._samples

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
        if self.is_physical:
            return self
        u = inverse_transform(self)
        object.__setattr__(u, "_spectrum", self)
        return u

    def as_frequency(self) -> "Field":
        if not self.is_physical:
            return self
        if self._spectrum is None:
            object.__setattr__(self, "_spectrum", forward_transform(self))
        return self._spectrum

    def _check_compatible(self, other: "Field") -> None:
        if self.grid != other.grid:
            raise DomainError("fields live on different grids")
        if self.rep != other.rep:
            raise RepresentationError(f"cannot combine {self.rep} with {other.rep} samples")

    def __add__(self, other: "Field") -> "Field":
        self._check_compatible(other)
        return _pointwise(np.add, self.rep, self, other)

    def __sub__(self, other: "Field") -> "Field":
        self._check_compatible(other)
        return _pointwise(np.subtract, self.rep, self, other)

    def __mul__(self, scalar: complex) -> "Field":
        return _pointwise(lambda a: a * scalar, self.rep, self)

    __rmul__ = __mul__

    def __neg__(self) -> "Field":
        return _pointwise(np.negative, self.rep, self)

    def __repr__(self) -> str:
        return f"Field(grid={self.grid!r}, rep={self.rep!r})"


def _require_finite(a: np.ndarray) -> None:
    """Raise DomainError unless every sample of ``a`` is finite: one C pass,
    on the float64 view of C-ordered samples, twice as fast."""
    flat = a.view(np.float64) if a.flags.c_contiguous else a
    if np.count_nonzero(np.isfinite(flat)) != flat.size:
        raise DomainError("field samples must be finite")


def _require_rep(f: Field, rep: str, what: str) -> None:
    if f.rep != rep:
        raise RepresentationError(f"{what} expects a {rep} field, got {f.rep}")


def _forward_scale(g: Grid) -> float:
    return (g.dx / math.sqrt(2.0 * math.pi)) ** g.dim


def _inverse_scale(g: Grid) -> float:
    return (math.sqrt(2.0 * math.pi) / g.dx) ** g.dim


def _apply(op: tuple, x: np.ndarray) -> np.ndarray:
    """The matrix ``a`` of ``op = (a, kron(a.T, I2))``, square or not, along
    every axis of a float64 or complex128 cubic block, fresh and C-ordered, on
    the float64 view, whose (re, im) pairs stay put: each axis but the last a
    stack of ``(m' x m) @ (m x c)`` slice products (in 2d one product), the last
    a right product by ``op[1]``; OpenBLAS keeps each on one thread up to side 62."""
    (a, pairs), cplx = op, x.dtype.kind == "c"
    z, right = (np.ascontiguousarray(x).view(np.float64), pairs) if cplx else (x, a.T)
    for axis in range(x.ndim - 2):  # the swaps restore the axis order
        z = np.matmul(a, z.swapaxes(axis, -2)).swapaxes(axis, -2)
    z = a @ z  # the middle axis, unswapped; its own statement frees a block for the last product
    z = z @ right
    return z.view(np.complex128) if cplx else z


@lru_cache(maxsize=None)
def _even_ops(g: Grid, factors: int = 0) -> tuple | None:
    """The block path's legs as read-only :func:`_apply` operators, scales in:
    :func:`_forward` and :func:`_inverse`, scipy's DCT-I with columns or rows
    reversed; with ``factors``, a :func:`_padded` product's way in, the band
    of a spectrum's block to the padded inverse ``Af[:, :n/2]``, and its way
    out, band truncation, inverse and flip as one ``(n/2+1) x (nf/2+1)`` matrix.

    ``None``, for scipy, where the leg's block side ``n/2+1`` (on the padded
    grid with ``factors``) passes ``_DENSE_SIDE``: up to it the dense DCT-I
    measured faster than scipy's with every product on one OpenBLAS thread
    (:func:`_apply`).  A real product takes its spectrum's engine both ways."""
    fine = _padding(g, factors)[0] if factors else g
    if fine.points // 2 + 1 > _DENSE_SIDE[g.dim]:
        return None

    def dct1(grid):  # scipy's DCT-I of the block, angles reduced exactly; dx / sqrt(2 pi)
        j = np.arange(grid.points // 2 + 1)
        t = np.cos(np.pi * (np.outer(j, j) % grid.points) / (grid.points // 2))
        t[1:-1] *= 2.0
        return t.T, grid.dx / math.sqrt(2.0 * math.pi)

    c, step = dct1(g)
    mats = step * c[:, ::-1], c[::-1] / (step * g.points)
    if factors:
        (cf, step), inverse, half = dct1(fine), mats[1], g.points // 2
        spread = cf[:, :half] / (step * fine.points)
        mats = np.pad(spread, ((0, 0), (0, 1))), inverse[:, :half] @ (step * cf[:half])
    return tuple((_readonly(a), _readonly(np.kron(a.T, np.eye(2)))) for a in mats)


def _block(a: np.ndarray) -> np.ndarray:
    """The ``[0, n/2]^d`` block of ``a``, a view."""
    return a[(slice(0, a.shape[0] // 2 + 1),) * a.ndim]


def _sector(a: np.ndarray) -> np.ndarray | None:
    """The ``[0, n/2]^d`` block of ``a`` if ``a`` is even in every axis, else ``None``.

    Even means ``a[j] = a[n-j]`` along each axis, bit for bit: an array
    that is even by value but not in the signs of its zeros takes the
    full-grid path.  The reflection fixes slots 0 and n/2 in both storage
    orders (``x = -L/2, 0`` physical, ``m = 0, -n/2`` in frequency), so
    the test and the block are the same for either representation, and
    the array's DFT is the type-I DCT of its block (Swarztrauber, Math.
    Comp. 47, 1986).
    """
    block = _block(a)
    even = np.array_equal(_unfold(block, a.shape[0]).view(np.uint64), a.view(np.uint64))
    return block if even else None


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


@lru_cache(maxsize=None)
def _fold_weights(grid: Grid) -> np.ndarray:
    """Lattice points per slot of the ``[0, n/2]^d`` block of an even array:
    the product over axes of 1 at slots 0 and n/2 and 2 elsewhere."""
    w = np.full(grid.points // 2 + 1, 2.0)
    w[[0, -1]] = 1.0
    return _readonly(math.prod(np.meshgrid(*([w] * grid.dim), indexing="ij", sparse=True)))


def _operands(*operands) -> tuple:
    """``(even, arrays)`` of fields and lattice functions ``op(block)``
    (:func:`_radial` with the grid and ``fn`` bound, or a cache of it) on
    one grid: ``True``, the blocks and the values on the block if every
    field is even, else ``False``, the samples and ``op(False)``."""
    for op in operands:
        if isinstance(op, Field) and op._half is None:
            return False, [o.samples if isinstance(o, Field) else o(False) for o in operands]
    return True, [o._half if isinstance(o, Field) else o(True) for o in operands]


def _pointwise(fn, rep: str, *operands) -> Field:
    """The field ``fn(*arrays)`` in ``rep``, on the arrays of :func:`_operands`."""
    even, arrays = _operands(*operands)
    return Field._adopt(operands[0].grid, fn(*arrays), rep, even)


def _modulus_power(a: np.ndarray, p: float) -> np.ndarray:
    """``|a|^p`` as ``(re^2 + im^2) ** (p/2)`` for ``p >= 2``, else as ``np.abs(a) ** p``,
    where the square could underflow or overflow before ``|a|^p`` does."""
    if p < 2:
        return np.abs(a) ** p
    sq = a.real**2 + a.imag**2
    return sq if p == 2 else sq ** (p / 2)


def _power_sum(p: float, f: Field, weight=None) -> float:
    """``weight * |f|^p`` summed over the lattice, a block by :func:`_fold_weights`; ``weight``
    is none or a symbol or mask lattice function, and off a mask an infinite ``|f|^p`` adds 0."""
    even, (a, *w) = _operands(f, *([] if weight is None else [weight]))
    values = _modulus_power(a, p)
    if w:
        values = np.where(w[0], values, 0.0) if w[0].dtype == bool else w[0] * values
    return float(np.sum(_fold_weights(f.grid) * values if even else values))


def _lattice_max(fn, *operands) -> float:
    """The largest value of ``fn(*arrays)`` over the lattice (see :func:`_operands`)."""
    return float(np.max(fn(*_operands(*operands)[1])))


def _forward(g: Grid, a: np.ndarray) -> np.ndarray:
    """The spectrum of samples ``a`` on ``g``, shifted so x = 0 leads, or of the
    ``[0, n/2]^d`` block ``a`` of an even field as its block: reversed, the block
    runs over x = 0..L/2 from the box centre, so its DCT-I is the box-phase spectrum."""
    if a.shape[0] == g.points:
        return _forward_scale(g) * scipy.fft.fftn(np.fft.ifftshift(a))
    if ops := _even_ops(g):
        return _apply(ops[0], a)
    return scipy.fft.dctn(np.flip(a), type=1) * _forward_scale(g)


def _inverse(g: Grid, a: np.ndarray) -> np.ndarray:
    """The inverse of :func:`_forward`, on samples or on a block alike."""
    if a.shape[0] == g.points:
        return _inverse_scale(g) * np.fft.fftshift(scipy.fft.ifftn(a))
    if ops := _even_ops(g):
        return _apply(ops[1], a)
    return np.flip(scipy.fft.dctn(a, type=1) * (_inverse_scale(g) / g.size))


def forward_transform(f: Field) -> Field:
    """Physical samples to frequency samples of the continuum transform."""
    _require_rep(f, PHYSICAL, "forward_transform")
    return _pointwise(partial(_forward, f.grid), FREQUENCY, f)


def inverse_transform(f: Field) -> Field:
    """Frequency samples back to physical samples; inverse of :func:`forward_transform`."""
    _require_rep(f, FREQUENCY, "inverse_transform")
    return _pointwise(partial(_inverse, f.grid), PHYSICAL, f)


def _map_spectrum(f: Field, fn, *symbols) -> Field:
    """``fn(spectrum, *symbols)`` of ``f`` (lattice functions), in the rep of ``f``."""
    out = _pointwise(fn, FREQUENCY, f.as_frequency(), *symbols)
    return out if f.rep == FREQUENCY else out.as_physical()


def _map_physical(f: Field, fn, *operands) -> Field:
    """``fn(samples, *operands)`` of ``f`` (fields and lattice functions) in
    the rep of ``f``; a spectrum is inverted and transformed back as arrays."""
    if f.is_physical:
        return _pointwise(fn, PHYSICAL, f, *operands)
    even, (spec, *arrays) = _operands(f, *operands)
    out = _forward(f.grid, fn(_inverse(f.grid, spec), *arrays))
    return Field._adopt(f.grid, out, FREQUENCY, even)


@lru_cache(maxsize=None)
def _padding(grid: Grid, factors: int) -> tuple:
    """The padded grid of a ``factors``-fold product, and the band
    ``[-n/2+1, n/2-1]`` as an index into the coarse and into the padded spectrum."""
    half = grid.points // 2
    fine = Grid(grid.dim, grid.extent, 2 * -(-(factors + 1) * grid.points // 4))
    return (fine,) + tuple(np.ix_(*[_readonly(np.r_[0:half, n - half + 1 : n])] * grid.dim)
                           for n in (grid.points, fine.points))


def _padded_product(f: Field, factors: int, pointwise) -> Field:
    """The physical field :func:`_padded` makes from the spectrum of ``f``."""
    even, (spec,) = _operands(f.as_frequency())
    return Field._adopt(f.grid, _padded(f.grid, spec, factors, pointwise), PHYSICAL, even)


def _padded(g: Grid, spec: np.ndarray, factors: int, pointwise) -> np.ndarray:
    """The physical samples of ``pointwise(u)``, a ``factors``-fold product,
    formed on the padded grid from the band ``[-n/2+1, n/2-1]`` of the
    spectrum ``spec`` and truncated back to that band.

    The ``[0, n/2]^d`` block of an even spectrum runs on the blocks of both
    grids (:func:`_even_ops`), both grid scales applied on the band, and
    gives the block of the product; the samples of any other take
    :func:`_forward` and :func:`_inverse` on both grids, and a real product
    keeps the real part, so its samples are real.
    """
    fine, band, padded = _padding(g, factors)
    if spec.shape[0] == g.points:
        into = np.zeros(fine.shape, dtype=np.complex128)
        into[padded] = spec[band]
        w = pointwise(_inverse(fine, into))
        prod = np.zeros(g.shape, dtype=np.complex128)
        prod[band] = _forward(fine, w)[padded]
        out = _inverse(g, prod)
        return out.real if np.isrealobj(w) else out
    if ops := _even_ops(g, factors):
        return _apply(ops[1], pointwise(_apply(ops[0], spec)))
    side, half = fine.points // 2 + 1, g.points // 2
    kept = spec[(slice(half),) * g.dim]  # the band, [0, n/2) per axis of the block
    w = pointwise(_dct1_lines(kept * (_inverse_scale(fine) / fine.size), side))
    scale_out = _forward_scale(fine) * _inverse_scale(g) / g.size
    return np.flip(_dct1_lines(scale_out * _dct1_lines(w, side, half), half + 1))


def _dct1_lines(x: np.ndarray, side: int, keep: int | None = None) -> np.ndarray:
    """``scipy.fft.dctn(type=1)`` of ``x`` zero padded to ``side`` points per axis,
    the first ``keep`` outputs kept per axis: one ``dct`` per axis in ``dctn``'s
    order, so the same bits, with no line of padding or of cut outputs transformed.
    ``x`` may be written over."""
    for axis in range(x.ndim):
        x = scipy.fft.dct(x, type=1, n=side, axis=axis, overwrite_x=True)
        x = x[(slice(None),) * axis + (slice(keep),)]
    return x


def dealiased_power(f: Field, degree: int) -> Field:
    """Alias-free ``|f|^(degree-1) * f`` for odd ``degree >= 3``.

    Within the band of ``f`` the returned spectrum equals the exact
    polynomial product of the band-limited input.
    """
    if (degree := _require_integer("degree", degree)) < 3 or degree % 2 == 0:
        raise DomainError(f"degree must be odd and >= 3, got {degree}")
    out = _padded_product(f, degree, lambda u: _modulus_power(u, degree - 1) * u)
    return out if f.is_physical else forward_transform(out)


def dealiased_modulus_power(f: Field, power: int) -> Field:
    """Alias-free real product ``|f|^power`` for even ``power >= 2``.

    Returned as a physical field with real samples.
    """
    if (power := _require_integer("power", power)) < 2 or power % 2:
        raise DomainError(f"power must be even and >= 2, got {power}")
    return _padded_product(f, power, lambda u: _modulus_power(u, power))


@dataclass(frozen=True)
class RadialProfile:
    """Recipe for radially symmetric initial data.

    ``kind`` is one of ``gaussian``, ``smooth_bump``,
    ``random_radial_superposition``; the last one draws its shape from a
    counter-based Philox stream keyed by ``seed``, ``None`` or an integer
    in ``[0, 2^128)``.
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
        if self.seed is not None:
            object.__setattr__(self, "seed", _require_integer("seed", self.seed))
            if not 0 <= self.seed < 1 << 128:
                raise DomainError(f"seed must lie in [0, 2**128), got {self.seed!r}")


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

    return Field._adopt(grid, _radial(grid, fn, True, space=True), PHYSICAL, even=True)


def _mass_fraction(f: Field, where) -> float:
    """Share of the summed ``|f|^2`` on the lattice mask ``where``; 0 for a zero field."""
    total = _power_sum(2, f)
    return 0.0 if total == 0.0 else _power_sum(2, f, where) / total


def tail_mass_fraction(f: Field) -> float:
    """Fraction of the squared L2 mass outside the ball ``|x| > extent/4``.

    A large value means the box may be too small for the state, so that
    wrap-around matters; no threshold is calibrated for that yet.
    """
    far = partial(_radial, f.grid, lambda r: r > f.grid.extent / 4.0, space=True)
    return _mass_fraction(f.as_physical(), far)


_TEXT_CHUNK = 2**16  # floats per orjson call: bounds the text a full-grid write holds


def _text(x: np.ndarray) -> str:
    """``re im`` text rows of the float pairs ``x``, each float as ``repr`` writes it.

    orjson writes the same shortest round-trip digits in one call, in
    ``repr``'s layout but for three classes, picked by ``|x|`` at exact
    powers of ten (a double below ``float("1e-5")`` prints below 1e-5) and
    patched in the bytes: ``0.000015`` for ``1.5e-05`` on [1e-5, 1e-4),
    ``e-7`` for ``e-07`` on [1e-9, 1e-5) and ``e16`` for ``e+16`` from 1e16.
    """
    import orjson  # on the first write, not with the package

    text = np.frombuffer(orjson.dumps(x, option=orjson.OPT_SERIALIZE_NUMPY), np.uint8)[1:].copy()
    ends = np.r_[np.flatnonzero(text == ord(",")), text.size - 1]  # one past each token
    text[ends[0::2]], text[ends[1::2]] = ord(" "), ord("\n")
    a = np.abs(x)
    shift, pad, sign = (1e-5 <= a) & (a < 1e-4), (1e-9 <= a) & (a < 1e-5), a >= 1e16
    # [-]0.0000D[ddd] -> [-]D[.ddd]e-05: D over the first 0, drop "0000D" and a lone point.
    lead = (np.r_[0, ends[:-1] + 1] + np.signbit(x))[shift]
    end = ends[shift]
    text[lead] = text[lead + 6]
    keep = np.ones(text.size, bool)
    keep[lead[:, None] + np.arange(2, 7)] = False
    keep[lead[end - lead == 7] + 1] = False
    at = np.concatenate([np.repeat(end, 4), ends[pad] - 1, ends[sign] - 2 - (a[sign] >= 1e100)])
    new = np.frombuffer(b"e-05" * end.size + b"0" * np.count_nonzero(pad)
                        + b"+" * np.count_nonzero(sign), np.uint8)
    return np.insert(text, at, new)[np.insert(keep, at, True)].tobytes().decode()


def _rows(a: np.ndarray):
    """``re im`` text rows of the samples of ``a`` in row-major order, in chunks."""
    x = np.ascontiguousarray(a).reshape(-1).view(np.float64)
    return (_text(x[i:i + _TEXT_CHUNK]) for i in range(0, x.size, _TEXT_CHUNK))


def write_field(f: Field, path) -> None:
    """Serialise a field as text: header ``dim n L rep`` then ``re im`` rows.

    Samples are written in row-major order with shortest round-trip
    float formatting, so write/read is bitwise faithful, signed zeros
    included.  A field that is even bit for bit has its ``[0, n/2]^d``
    block formatted, and the text of first-axis slabs ``0..n/2`` joined
    from its rows unfolded by reflection; slab ``j > n/2`` is slab ``n-j``
    written again, which writes the same bytes.
    """
    g, block = f.grid, f._half
    if block is not None:
        lines = "".join(_rows(block)).splitlines(keepends=True)
        table = np.array(lines, dtype=object).reshape(block.shape)
        slabs = ["".join(_unfold(slab, g.points).flat) for slab in table]
        rows = slabs + slabs[-2:0:-1]
    else:
        rows = _rows(f.samples)
    with open(path, "w") as fh:
        fh.write(f"{g.dim} {g.points} {g.extent!r} {f.rep}\n")
        fh.writelines(rows)


def _block_rows(fh, n: int, dim: int) -> list | None:
    """The ``[0, n/2]^d`` block's rows of a body that is even row for row,
    else ``None``.  Slabs ``0..n/2`` of the first axis must be even in the
    other axes and slab ``j > n/2`` must repeat slab ``n-j``; equal text
    parses to equal bits, so such a body holds a bitwise-even field.  The
    rows are ``str`` or ``bytes``, as ``fh`` reads them."""
    half, width, slabs, block = n // 2, n ** (dim - 1), [], []
    join = fh.read(0).join  # "" or b"": the file's own row type
    for _ in range(half + 1):  # a short body raises ValueError here
        rows = np.fromiter(islice(fh, width), object, width).reshape((n,) * (dim - 1))
        if not np.array_equal(_unfold(_block(rows), n), rows):
            return None
        slabs.append(join(rows.ravel().tolist()))
        block.extend(_block(rows).ravel().tolist())
    mirrored = all(fh.read(len(slab)) == slab for slab in slabs[half - 1:0:-1])
    return block if mirrored and not fh.read(1) else None


_NUMBER_BYTES = b"0123456789+-.eE \n"  # the bytes of the writer's rows
_COMMAS = bytes.maketrans(b" \n", b",,")
_READ_BUFFER = 2**16  # bytes: iterating the rows of a 64^3 file is a fifth faster than at 8 KiB
_PARSE_ROWS = 2**12  # rows per orjson call: bounds the text and floats a read holds


def _parse(rows, count: int) -> np.ndarray:
    """The ``(count, 2)`` floats of ``count`` byte rows in the writer's grammar.

    Each chunk of rows is one ``orjson.loads`` of a JSON array, which is
    the text's ``float`` values: a JSON number is a Python float literal
    and orjson rounds correctly.  Only the bytes of numbers and of the
    separators reach it, each row is two tokens, one space between them
    and a newline after, and each zero takes its sign from its token's
    leading ``-``, since orjson reads the integer ``-0`` as +0.  Any other
    text, or a count of rows other than ``count``, raises ValueError.
    """
    import orjson  # on the first read, not with the package

    data, done, rows = np.empty((count, 2)), 0, iter(rows)
    while chunk := b"".join(islice(rows, _PARSE_ROWS)):
        text = np.frombuffer(chunk, np.uint8)
        seps = np.flatnonzero(text <= ord(" "))
        n = seps.size // 2
        if (chunk.translate(None, _NUMBER_BYTES) or text[-1] != ord("\n") or seps.size % 2
                or done + n > count or (text[seps.reshape(n, 2)] != (ord(" "), ord("\n"))).any()):
            raise ValueError("a row outside the writer's grammar")
        array = bytearray(b"[") + chunk
        array[-1] = ord("]")
        values = np.fromiter(orjson.loads(array.translate(_COMMAS)), np.float64, 2 * n)
        minus = text[np.r_[0, seps[:-1] + 1]] == ord("-")
        data[done:done + n] = np.copysign(values, np.where(minus, -1.0, 1.0)).reshape(n, 2)
        done += n
    if done != count:
        raise ValueError(f"expected {count} rows, got {done}")
    return data


def _read(path, binary: bool) -> Field | None:
    """Read a field file as text, or as bytes.  A binary read parses the
    rows with :func:`_parse`, and returns None where its header or body
    leaves the writer's grammar; a text read parses them with ``np.loadtxt``
    and raises on a malformed file.  Both read the same bits from a file
    the binary read accepts: its header is ASCII and has no ``\\r`` (a line
    end to text mode), and its rows are float literals."""
    with open(path, "rb", buffering=_READ_BUFFER) if binary else open(path) as fh:
        try:
            header = fh.readline()
            if binary and b"\r" in header:
                raise ValueError("a carriage return in the header")
            dim, points, extent, rep = (header.decode("ascii") if binary else header).split()
            grid, body = Grid(int(dim), float(extent), int(points)), fh.tell()
            # A row is two tokens, a separator and a line end (but the last): the
            # file's size, not its header, bounds what the read allocates.
            size, rows = os.fstat(fh.fileno()).st_size - body, math.prod(grid.shape)
            if size < 4 * rows - 1:
                raise ValueError(f"a body of {size} bytes cannot hold {rows} rows")
            block = _block_rows(fh, grid.points, grid.dim)
            shape = grid.shape if block is None else (grid.points // 2 + 1,) * grid.dim
            fh.seek(body)  # for a whole-body parse; a block read is done with fh
            if binary:
                data = _parse(block or fh, math.prod(shape))
            else:
                with warnings.catch_warnings():  # under max_rows loadtxt warns of blank rows
                    warnings.simplefilter("error", UserWarning)
                    data = np.loadtxt(block or fh, comments=None, max_rows=math.prod(shape) + 1)
        except (ValueError, UserWarning) as exc:  # a short header, a bad field or row, a blank row
            if binary:
                return None
            raise DomainError(f"malformed field file {path}: {exc}") from None
    if rep not in _REPS:
        raise RepresentationError(f"unknown representation tag {rep!r} in {path}")
    if data.shape != (math.prod(shape), 2):
        raise DomainError(f"expected {math.prod(shape)} rows of two columns, got {data.shape}")
    # A view, not re + 1j*im: that arithmetic turns -0.0 parts into +0.0.
    samples = data.view(np.complex128).reshape(shape)
    return Field._adopt(grid, samples, rep, even=block is not None)


def read_field(path) -> Field:
    """Read a field written by :func:`write_field`, bit for bit.  An even
    body is parsed from its block rows (:func:`_block_rows`), which the
    field holds.  The file is read as bytes and its rows parsed by orjson
    (:func:`_parse`); a file outside the writer's grammar is read again as
    text by ``np.loadtxt``, which accepts and rejects what it always did."""
    return _read(path, binary=True) or _read(path, binary=False)
