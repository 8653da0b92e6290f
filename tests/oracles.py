"""Independent slow-path oracles used to pin down the fast implementations.

Everything here is written against the definitions only: explicit phase
matrices for the transforms and direct integer-index convolution for
products.  No FFTs, no code under test.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.signal

from nlsbox import Field, Grid

TWO_PI = 2.0 * math.pi


def direct_forward(f: Field) -> np.ndarray:
    """Frequency samples by explicit summation over the lattice."""
    g = f.grid
    E = np.exp(-1j * np.outer(g.freq_axis(), g.axis_coords()))
    scale = (g.dx / math.sqrt(TWO_PI)) ** g.dim
    if g.dim == 2:
        out = np.einsum("aj,bk,jk->ab", E, E, f.samples)
    else:
        out = np.einsum("aj,bk,cl,jkl->abc", E, E, E, f.samples)
    return scale * out


def direct_inverse(f: Field) -> np.ndarray:
    """Physical samples by explicit summation over the frequency lattice."""
    g = f.grid
    E = np.exp(1j * np.outer(g.axis_coords(), g.freq_axis()))
    scale = (g.freq_step / math.sqrt(TWO_PI)) ** g.dim
    if g.dim == 2:
        out = np.einsum("ja,kb,ab->jk", E, E, f.samples)
    else:
        out = np.einsum("ja,kb,lc,abc->jkl", E, E, E, f.samples)
    return scale * out


def fourier_coefficients(f: Field, band: int | None = None) -> np.ndarray:
    """Plain Fourier-series coefficients on the symmetric cube ``[-b, b]^d``.

    ``b`` defaults to ``n/2``.  The cube holds the product band
    ``[-n/2+1, n/2-1]``: the unpaired ``-n/2`` planes of the grid band
    ``[-n/2, n/2)`` are dropped, and the ``+n/2`` slots are empty.
    Passing a smaller ``band`` trims the cube and asserts nothing was lost.
    """
    g = f.grid
    n, d = g.points, g.dim
    spec = f.as_frequency().samples
    coeff = spec * (g.freq_cell_volume / TWO_PI ** (d / 2.0))
    half = n // 2
    cube = np.zeros((n + 1,) * d, dtype=np.complex128)
    cube[(slice(1, n),) * d] = np.fft.fftshift(coeff)[(slice(1, n),) * d]
    if band is None:
        return cube
    assert band <= half
    lo, hi = half - band, half + band + 1
    trimmed = cube[(slice(lo, hi),) * d]
    kept = np.abs(trimmed).sum()
    total = np.abs(cube).sum()
    assert total - kept <= 1e-13 * max(total, 1.0), "band trim would drop content"
    return trimmed.copy()


def reflect_conj(cube: np.ndarray) -> np.ndarray:
    """Coefficients of the complex conjugate on a symmetric cube."""
    return np.conj(cube[(slice(None, None, -1),) * cube.ndim])


def convolve_cubes(a: np.ndarray, b: np.ndarray, reach: int | None = None) -> np.ndarray:
    """Full direct convolution; symmetric cubes stay symmetric.

    With ``reach``, for a caller that reads only the centre cube
    ``[-reach, reach]^d``: if the outputs where ``b`` lies wholly inside
    ``a`` (``mode="valid"``) cover it, only those are summed, each by the
    same terms in the same order as the full convolution.
    """
    central = reach is not None and (a.shape[0] - b.shape[0]) // 2 >= reach
    return scipy.signal.convolve(a, b, mode="valid" if central else "full", method="direct")


def odd_power_coefficients(f: Field, degree: int, band: int | None = None,
                           reach: int | None = None) -> np.ndarray:
    """Exact coefficients of ``|f|^(degree-1) f`` by repeated convolution; with
    ``reach``, at least the centre cube ``[-reach, reach]^d`` (see :func:`convolve_cubes`)."""
    k = (degree - 1) // 2
    cube = fourier_coefficients(f, band)
    flipped = reflect_conj(cube)
    out = cube
    for _ in range(k):
        out = convolve_cubes(out, cube)
    for i in range(k):
        out = convolve_cubes(out, flipped, reach if i == k - 1 else None)
    return out


def modulus_power_coefficients(f: Field, power: int, band: int | None = None,
                               reach: int | None = None) -> np.ndarray:
    """Exact coefficients of ``|f|^power`` (even ``power``) by repeated convolution
    of the product band of ``f`` and of its conjugate; ``reach`` as for
    :func:`odd_power_coefficients`."""
    k = power // 2
    cube = fourier_coefficients(f, band)
    flipped = reflect_conj(cube)
    out = flipped
    for _ in range(k - 1):
        out = convolve_cubes(out, flipped)
    for i in range(k):
        out = convolve_cubes(out, cube, reach if i == k - 1 else None)
    return out


def band_restrict(cube: np.ndarray, grid: Grid) -> np.ndarray:
    """Restrict symmetric-cube coefficients to the product band
    ``[-n/2+1, n/2-1]``, in FFT order with the ``-n/2`` slots zero."""
    n, d = grid.points, grid.dim
    size = cube.shape[0]
    center = (size - 1) // 2
    lo, hi = center - n // 2, center + n // 2
    block = np.zeros((n,) * d, dtype=cube.dtype)
    block[(slice(1, n),) * d] = cube[(slice(lo + 1, hi),) * d]
    return np.fft.ifftshift(block)


def coefficients_to_spectrum(band_coeffs: np.ndarray, grid: Grid) -> np.ndarray:
    """Convert plain Fourier coefficients back to transform samples."""
    return band_coeffs * (TWO_PI ** (grid.dim / 2.0) / grid.freq_cell_volume)


def direct_odd_power_spectrum(f: Field, degree: int, band: int | None = None) -> np.ndarray:
    """Transform samples of the alias-free odd power, restricted to the product band."""
    cube = odd_power_coefficients(f, degree, band, reach=f.grid.points // 2)
    return coefficients_to_spectrum(band_restrict(cube, f.grid), f.grid)


def random_field(grid: Grid, seed: int, band: int | None = None, decay: float = 1.5) -> Field:
    """Random complex field with power-law spectral decay, optionally band-limited.

    ``band`` bounds the max-norm of the integer mode vector.  Drawn from a
    Philox stream so corpora are reproducible.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    n, d = grid.points, grid.dim
    shape = (n,) * d
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    weight = (1.0 + grid.freq_radius() / grid.freq_step) ** (-decay)
    spec = raw * weight
    if band is not None:
        modes = np.fft.fftfreq(n, d=1.0 / n)
        axes = np.meshgrid(*([np.abs(modes)] * d), indexing="ij", sparse=True)
        maxmode = axes[0]
        for a in axes[1:]:
            maxmode = np.maximum(maxmode, a)
        spec = np.where(maxmode <= band, spec, 0.0)
    return Field(grid, spec, "frequency").as_physical()
