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
type-I DCT is the array's DFT.  A field is tested for evenness at most
once; when it holds, that block is transformed on the coarse grid and on
the padded grid alike, lattice sums fold onto it, and the symbols, masks
and phases an operation is handed as functions are gathered on it alone
(the phases and the Sobolev and smoothing symbols once per grid).  What
is made from an even field or a radial profile holds only its block (see
:class:`Field`), so a radial run stays on the block from step to step and
is never tested again.  Only non-even input takes the full-grid FFTs, on
the padded grid too.
Within ``2^18`` real multiply-adds per axis (:func:`_dense`), each leg of
the block path is one cached real matrix per axis, flips, scales, zero
padding and band truncation folded in (:func:`_even_ops`, :func:`_apply`);
beyond, ``scipy.fft.dctn``, loaded like the full-grid FFTs on first use.
"""

from __future__ import annotations

import math
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
        _require_dim(self.dim)
        object.__setattr__(self, "extent", _require_real("extent", self.extent, positive=True))
        if type(self.points) is not int or self.points < 4 or self.points % 2:
            raise DomainError(f"points must be an even integer >= 4, got {self.points!r}")

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


@lru_cache(maxsize=None)
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

    A field that the transforms, products, multipliers, phases, arithmetic,
    :func:`read_field` or :func:`make_radial_data` make from even input (or
    a radial profile) holds only its ``[0, n/2]^d`` block, and ``samples``
    unfolds it (read-only) when first read.  A physical field keeps the
    spectrum it was inverted from, or else its first :meth:`as_frequency`,
    which is where its products start.
    """

    __slots__ = ("grid", "rep", "_samples", "_half", "_spectrum")

    def __init__(self, grid: Grid, samples: np.ndarray, rep: str) -> None:
        arr = np.asarray(samples, dtype=np.complex128, order="C")
        if arr is samples or arr.base is not None:  # the caller's buffer
            arr = arr.copy()
        self._hold(grid, rep, arr, even=False)

    @classmethod
    def _adopt(cls, grid: Grid, arr: np.ndarray, rep: str, even: bool = False) -> "Field":
        """A field that takes over ``arr``, a fresh array, without a copy: as
        its samples, or with ``even`` as the ``[0, n/2]^d`` block of an even field."""
        f = object.__new__(cls)
        f._hold(grid, rep, np.asarray(arr, dtype=np.complex128, order=None if even else "C"), even)
        return f

    def _hold(self, grid: Grid, rep: str, arr: np.ndarray, even: bool) -> None:
        if rep not in _REPS:
            raise RepresentationError(f"rep must be one of {_REPS}, got {rep!r}")
        shape = (grid.points // 2 + 1,) * grid.dim if even else grid.shape
        if arr.shape != shape:
            raise DomainError(f"samples shape {arr.shape} does not match grid {grid.shape}")
        if not np.isfinite(arr if even else arr.view(np.float64)).all():
            raise DomainError("field samples must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "rep", rep)
        object.__setattr__(self, "_samples", None if even else arr)
        object.__setattr__(self, "_half", arr if even else None)
        object.__setattr__(self, "_spectrum", None)

    def __setattr__(self, name, value):
        raise AttributeError("Field is immutable")

    @property
    def samples(self) -> np.ndarray:
        if self._samples is None:
            object.__setattr__(self, "_samples", _readonly(_unfold(self._half, self.grid.points)))
        return self._samples

    def _even_block(self) -> np.ndarray | None:
        """:func:`_sector` of the samples, tested once; held blocks pass."""
        if self._half is None:
            block = _sector(self._samples)
            object.__setattr__(self, "_half", False if block is None else block)
        return None if self._half is False else self._half

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


def _require_rep(f: Field, rep: str, what: str) -> None:
    if f.rep != rep:
        raise RepresentationError(f"{what} expects a {rep} field, got {f.rep}")


def _forward_scale(g: Grid) -> float:
    return (g.dx / math.sqrt(2.0 * math.pi)) ** g.dim


def _inverse_scale(g: Grid) -> float:
    return (math.sqrt(2.0 * math.pi) / g.dx) ** g.dim


def _dense(side: int, like: np.ndarray) -> bool:
    """Whether an axis of a ``side`` cube with the dim and dtype of ``like``
    costs at most ``2^18`` real multiply-adds, complex twice: OpenBLAS keeps
    that ``gemm`` on one thread, where a dense DCT-I beats ``dctn`` 2-14x."""
    return (1 + (like.dtype.kind == "c")) * side ** (like.ndim + 1) <= 1 << 18


def _apply(op: tuple, x: np.ndarray) -> np.ndarray:
    """The matrix ``a`` of ``op = (a, kron(a.T, I2))``, square or not, along
    every axis of a float64 or complex128 cubic block, fresh and C-ordered, by
    one ``matmul`` per axis on the float64 view, whose (re, im) pairs stay put:
    a left product, a broadcast one on a 3d middle axis, a right one by ``op[1]``."""
    (a, pairs), cplx = op, x.dtype.kind == "c"
    z = np.ascontiguousarray(x).view(np.float64) if cplx else x
    z = (a @ z.reshape(a.shape[1], -1)).reshape((a.shape[0],) + z.shape[1:])
    z = np.matmul(a, z) if x.ndim == 3 else z
    z = z.reshape(-1, z.shape[-1]) @ (pairs if cplx else a.T)
    return (z.view(np.complex128) if cplx else z).reshape((a.shape[0],) * x.ndim)


@lru_cache(maxsize=None)
def _even_ops(g: Grid, factors: int = 0) -> tuple:
    """The block path's legs as read-only :func:`_apply` operators, scales in:
    :func:`_forward` and :func:`_inverse`, scipy's DCT-I with columns or rows
    reversed; with ``factors``, a :func:`_padded_product`'s way in, the band
    of a spectrum's block to the padded inverse ``Af[:, :n/2]``, and its way
    out, band truncation, inverse and flip as one ``(n/2+1) x (nf/2+1)`` matrix."""
    def dct1(grid):  # scipy's DCT-I of the block, angles reduced exactly; dx / sqrt(2 pi)
        j = np.arange(grid.points // 2 + 1)
        t = np.cos(np.pi * (np.outer(j, j) % grid.points) / (grid.points // 2))
        t[1:-1] *= 2.0
        return t.T, grid.dx / math.sqrt(2.0 * math.pi)

    c, step = dct1(g)
    mats = step * c[:, ::-1], c[::-1] / (step * g.points)
    if factors:
        fine, half = _padding(g, factors, True)[0], g.points // 2
        (cf, step), inverse = dct1(fine), mats[1]
        spread = cf[:, :half] / (step * fine.points)
        mats = spread @ np.eye(half, half + 1), inverse[:, :half] @ (step * cf[:half])
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
    """``(weights, arrays)`` of fields and lattice functions ``op(block)``
    (:func:`_radial` with the grid and ``fn`` bound, or a cache of it) on
    one grid: the blocks, the values on the block and :func:`_fold_weights`
    if every field is even, else the samples, ``op(False)`` and ``None``."""
    for op in operands:
        if isinstance(op, Field) and op._even_block() is None:
            return None, [o.samples if isinstance(o, Field) else o(False) for o in operands]
    return _fold_weights(operands[0].grid), [
        o._half if isinstance(o, Field) else o(True) for o in operands]


def _pointwise(fn, rep: str, *operands) -> Field:
    """The field ``fn(*arrays)`` in ``rep``, on the arrays of :func:`_operands`."""
    weights, arrays = _operands(*operands)
    grid, out = operands[0].grid, fn(*arrays)
    return Field._adopt(grid, out, rep, even=weights is not None)


def _lattice_sum(fn, *operands) -> float:
    """``fn(*arrays)`` summed over the lattice (see :func:`_operands`)."""
    weights, arrays = _operands(*operands)
    values = fn(*arrays)
    return float(np.sum(values if weights is None else weights * values))


def _lattice_max(fn, *operands) -> float:
    """The largest value of ``fn(*arrays)`` over the lattice (see :func:`_operands`)."""
    return float(np.max(fn(*_operands(*operands)[1])))


def _forward(g: Grid, a: np.ndarray) -> np.ndarray:
    """The spectrum of samples ``a`` on ``g``, or of the ``[0, n/2]^d`` block
    ``a`` of an even field as its block: reversed, the block runs over x = 0..L/2
    from the box centre, so its DCT-I is the box-phase spectrum."""
    if a.shape == g.shape:
        return _forward_scale(g) * (_checkerboard(g) * scipy.fft.fftn(a))
    if _dense(a.shape[0], a):
        return _apply(_even_ops(g)[0], a)
    return scipy.fft.dctn(np.flip(a), type=1) * _forward_scale(g)


def _inverse(g: Grid, a: np.ndarray) -> np.ndarray:
    """The inverse of :func:`_forward`, on samples or on a block alike."""
    if a.shape == g.shape:
        return _inverse_scale(g) * scipy.fft.ifftn(_checkerboard(g) * a)
    if _dense(a.shape[0], a):
        return _apply(_even_ops(g)[1], a)
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
    weights, (spec, *arrays) = _operands(f, *operands)
    out = _forward(f.grid, fn(_inverse(f.grid, spec), *arrays))
    return Field._adopt(f.grid, out, FREQUENCY, even=weights is not None)


@lru_cache(maxsize=None)
def _padding(grid: Grid, factors: int, even: bool) -> tuple:
    """The padded grid of a ``factors``-fold product, and the band
    ``[-n/2+1, n/2-1]`` as an index into the coarse and into the padded
    spectrum, or with ``even`` into their ``[0, n/2]^d`` blocks."""
    half = grid.points // 2
    fine = Grid(grid.dim, grid.extent, 2 * -(-(factors + 1) * grid.points // 4))
    if even:
        kept = (slice(0, half),) * grid.dim
        return fine, kept, kept
    return (fine,) + tuple(np.ix_(*[_readonly(np.r_[0:half, n - half + 1 : n])] * grid.dim)
                           for n in (grid.points, fine.points))


def _padded_product(f: Field, factors: int, pointwise) -> Field:
    """The physical field ``pointwise(f)``, a ``factors``-fold product,
    formed on the padded grid from the band ``[-n/2+1, n/2-1]`` of the
    spectrum of ``f`` and truncated back to that band.

    An even spectrum runs on the ``[0, n/2]^d`` blocks of both grids
    (:func:`_even_ops`), both grid scales applied on the band; any other
    takes :func:`_forward` and :func:`_inverse` on both grids, and a real
    product keeps the real part, so its samples are real.
    """
    g, spec = f.grid, f.as_frequency()
    sector = spec._even_block()
    fine, band, padded = _padding(g, factors, sector is not None)
    if sector is None:
        into = np.zeros(fine.shape, dtype=np.complex128)
        into[padded] = spec.samples[band]
        w = pointwise(_inverse(fine, into))
        prod = np.zeros(g.shape, dtype=np.complex128)
        prod[band] = _forward(fine, w)[padded]
        out = _inverse(g, prod)
        return Field._adopt(g, out.real if np.isrealobj(w) else out, PHYSICAL)
    side = fine.points // 2 + 1
    if _dense(side, sector):
        w = pointwise(_apply(_even_ops(g, factors)[0], sector))
    else:
        into = np.zeros((side,) * g.dim, complex)
        into[padded] = sector[band] * (_inverse_scale(fine) / fine.size)
        w = pointwise(scipy.fft.dctn(into, type=1, overwrite_x=True))
    if _dense(side, w):
        return Field._adopt(g, _apply(_even_ops(g, factors)[1], w), PHYSICAL, even=True)
    prod = np.zeros((g.points // 2 + 1,) * g.dim, dtype=w.dtype)
    scale_out = _forward_scale(fine) * _inverse_scale(g) / g.size
    prod[band] = scale_out * scipy.fft.dctn(w, type=1, overwrite_x=True)[padded]
    prod = np.flip(scipy.fft.dctn(prod, type=1, overwrite_x=True))
    return Field._adopt(g, prod, PHYSICAL, even=True)


def dealiased_power(f: Field, degree: int) -> Field:
    """Alias-free ``|f|^(degree-1) * f`` for odd ``degree >= 3``.

    Within the band of ``f`` the returned spectrum equals the exact
    polynomial product of the band-limited input.
    """
    if degree < 3 or degree % 2 == 0:
        raise DomainError(f"degree must be odd and >= 3, got {degree}")
    out = _padded_product(f, degree, lambda u: np.abs(u) ** (degree - 1) * u)
    return out if f.is_physical else forward_transform(out)


def dealiased_modulus_power(f: Field, power: int) -> Field:
    """Alias-free real product ``|f|^power`` for even ``power >= 2``.

    Returned as a physical field with real samples.
    """
    if power < 2 or power % 2:
        raise DomainError(f"power must be even and >= 2, got {power}")
    return _padded_product(f, power, lambda u: (u.real**2 + u.imag**2) ** (power // 2))


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

    return Field._adopt(grid, _radial(grid, fn, True, space=True), PHYSICAL, even=True)


def _mass_fraction(f: Field, where) -> float:
    """Share of the summed ``|f|^2`` on the lattice mask ``where``; 0 for a zero field."""
    total = _lattice_sum(lambda a: np.abs(a) ** 2, f)
    if total == 0.0:
        return 0.0
    return _lattice_sum(lambda a, m: np.where(m, np.abs(a) ** 2, 0.0), f, where) / total


def tail_mass_fraction(f: Field) -> float:
    """Fraction of the squared L2 mass outside the ball ``|x| > extent/4``.

    A large value means the box may be too small for the state, so that
    wrap-around matters; no threshold is calibrated for that yet.
    """
    far = partial(_radial, f.grid, lambda r: r > f.grid.extent / 4.0, space=True)
    return _mass_fraction(f.as_physical(), far)


def _rows(a: np.ndarray):
    """``re im`` text rows of the samples of ``a`` in row-major order."""
    flat = a.reshape(-1)
    return (f"{re!r} {im!r}\n" for re, im in zip(flat.real.tolist(), flat.imag.tolist()))


def write_field(f: Field, path) -> None:
    """Serialise a field as text: header ``dim n L rep`` then ``re im`` rows.

    Samples are written in row-major order with shortest round-trip
    float formatting, so write/read is bitwise faithful, signed zeros
    included.  A field that is even bit for bit has its ``[0, n/2]^d``
    block formatted, and the text of first-axis slabs ``0..n/2`` joined
    from its rows unfolded by reflection; slab ``j > n/2`` is slab ``n-j``
    written again, which writes the same bytes.
    """
    g = f.grid
    block = f._even_block()
    if block is not None:
        table = np.fromiter(_rows(block), dtype=object, count=block.size).reshape(block.shape)
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
    parses to equal bits, so such a body holds a bitwise-even field."""
    half, width, slabs, block = n // 2, n ** (dim - 1), [], []
    for _ in range(half + 1):  # a short body raises ValueError here
        rows = np.fromiter(islice(fh, width), object, width).reshape((n,) * (dim - 1))
        if not np.array_equal(_unfold(_block(rows), n), rows):
            return None
        slabs.append("".join(rows.flat))
        block.extend(_block(rows).flat)
    mirrored = all(fh.read(len(slab)) == slab for slab in slabs[half - 1:0:-1])
    return block if mirrored and not fh.read(1) else None


def read_field(path) -> Field:
    """Read a field written by :func:`write_field`, bit for bit.  An even
    body is parsed from its block rows (:func:`_block_rows`), which the
    field holds."""
    with open(path) as fh:
        try:
            dim, points, extent, rep = fh.readline().split()
            grid, body = Grid(int(dim), float(extent), int(points)), fh.tell()
            block = _block_rows(fh, grid.points, grid.dim)
            shape = grid.shape if block is None else (grid.points // 2 + 1,) * grid.dim
            fh.seek(body)  # for a whole-body parse; a block read is done with fh
            with warnings.catch_warnings():  # under max_rows loadtxt warns of blank rows
                warnings.simplefilter("error", UserWarning)
                data = np.loadtxt(block or fh, comments=None, max_rows=math.prod(shape) + 1)
        except (ValueError, UserWarning) as exc:  # a short header, a bad field or row, a blank row
            raise DomainError(f"malformed field file {path}: {exc}") from None
    if rep not in _REPS:
        raise RepresentationError(f"unknown representation tag {rep!r} in {path}")
    if data.shape != (math.prod(shape), 2):
        raise DomainError(f"expected {math.prod(shape)} rows of two columns, got {data.shape}")
    # A view, not re + 1j*im: that arithmetic turns -0.0 parts into +0.0.
    samples = data.view(np.complex128).reshape(shape)
    return Field._adopt(grid, samples, rep, even=block is not None)
