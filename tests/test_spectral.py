"""Spectral core: transforms against direct-summation oracles, alias-free
products against convolution oracles, radial data invariances, field IO."""

import math
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nlsbox import (
    DomainError,
    EvolutionParams,
    Field,
    Grid,
    RadialProfile,
    RadialSymbol,
    RepresentationError,
    ResolutionError,
    apply_symbol,
    dealiased_modulus_power,
    dealiased_power,
    evolve,
    forward_transform,
    inverse_transform,
    linear_flow,
    make_radial_data,
    read_field,
    smooth_cutoff,
    tail_mass_fraction,
    write_field,
)
import nlsbox
from nlsbox import dynamics, spectral
from oracles import (
    band_restrict,
    coefficients_to_spectrum,
    direct_forward,
    direct_inverse,
    direct_odd_power_spectrum,
    modulus_power_coefficients,
    random_field,
)

TWO_PI = 2.0 * math.pi


def rel_error(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


class TestGrid:
    def test_nyquist_and_cells(self):
        g = Grid(2, 64.0, 256)
        assert g.nyquist == pytest.approx(4.0 * math.pi, rel=1e-15)
        assert g.dx == pytest.approx(0.25)
        assert g.cell_volume == pytest.approx(0.0625)
        assert g.freq_step == pytest.approx(TWO_PI / 64.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            Grid(1, 10.0, 16)
        with pytest.raises(DomainError):
            Grid(2, -1.0, 16)
        with pytest.raises(DomainError):
            Grid(2, 10.0, 15)
        for extent in (math.nan, math.inf, 0.0, True, "8"):
            with pytest.raises(DomainError, match="extent"):
                Grid(2, extent, 32)
        for points in (32.0, True, np.int64(32), 2):
            with pytest.raises(DomainError, match="points"):
                Grid(2, 8.0, points)

    @pytest.mark.parametrize("dim", [2.0, 3.0, True, np.int64(2), 4])
    def test_default_grid_dim_is_validated_like_grid(self, dim):
        with pytest.raises(DomainError, match="dim"):
            Grid(dim, 8.0, 32)

    def test_freq_axis_layout(self):
        g = Grid(2, 16.0, 16)
        xi = g.freq_axis()
        assert xi[0] == 0.0
        assert xi[1] == pytest.approx(g.freq_step)
        assert xi[8] == pytest.approx(-8 * g.freq_step)


class TestField:
    def test_immutable(self, grid2d_small):
        f = Field.physical(grid2d_small, np.ones(grid2d_small.shape))
        with pytest.raises(AttributeError):
            f.rep = "frequency"
        with pytest.raises(ValueError):
            f.samples[0, 0] = 2.0

    def test_copies_input(self, grid2d_small):
        raw = np.ones(grid2d_small.shape, dtype=complex)
        f = Field.physical(grid2d_small, raw)
        raw[0, 0] = 5.0
        assert f.samples[0, 0] == 1.0

    @pytest.mark.parametrize("layout", ["complex", "buffer", "float", "float_fortran", "list"])
    def test_never_aliases_and_keeps_values(self, grid2d_small, layout):
        values = np.arange(grid2d_small.size, dtype=float).reshape(grid2d_small.shape)
        raw = {
            "complex": values.astype(complex),
            "buffer": memoryview(values.astype(complex)),
            "float": values,
            "float_fortran": np.asfortranarray(values),
            "list": values.tolist(),
        }[layout]
        f = Field.physical(grid2d_small, raw)
        assert np.array_equal(f.samples, values)
        assert f.samples.dtype == np.complex128 and f.samples.flags.c_contiguous
        if layout != "list":
            assert not np.shares_memory(f.samples, np.asarray(raw))

    def test_validation(self, grid2d_small):
        with pytest.raises(DomainError):
            Field.physical(grid2d_small, np.ones((4, 4)))
        bad = np.ones(grid2d_small.shape, dtype=complex)
        bad[3, 3] = np.nan
        with pytest.raises(DomainError):
            Field.physical(grid2d_small, bad)
        with pytest.raises(RepresentationError):
            Field(grid2d_small, np.ones(grid2d_small.shape), "spectral")

    def test_arithmetic(self, grid2d_small):
        a = Field.physical(grid2d_small, np.full(grid2d_small.shape, 2.0))
        b = Field.physical(grid2d_small, np.full(grid2d_small.shape, 1.0 + 1j))
        assert np.all((a + b).samples == 3.0 + 1j)
        assert np.all((a - b).samples == 1.0 - 1j)
        assert np.all((2.0 * a).samples == 4.0)
        assert np.all((-a).samples == -2.0)

    @staticmethod
    def random_block(grid, seed):
        rng = np.random.default_rng(seed)
        shape = (grid.points // 2 + 1,) * grid.dim
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    @pytest.mark.parametrize("grid", [Grid(2, 16.0, 64), Grid(3, 8.0, 16)], ids=["64^2", "16^3"])
    def test_block_held_samples_unfold_once_and_stay_immutable(self, grid):
        block = self.random_block(grid, seed=2)
        f = spectral.Field._adopt(grid, block.copy(), "frequency", even=True)
        assert f.samples.tobytes() == spectral._unfold(block, grid.points).tobytes()
        assert f.samples is f.samples and not f.samples.flags.writeable
        with pytest.raises(ValueError):
            f.samples[0, 0] = 2.0
        for name in ("samples", "rep", "_half", "_spectrum"):
            with pytest.raises(AttributeError):
                setattr(f, name, None)
        assert f._even_block().tobytes() == block.tobytes()

    @pytest.mark.parametrize("case", ["nan", "inf", "full_shape", "short_axis", "wrong_dim"])
    def test_block_constructor_validation(self, case):
        grid = Grid(2, 16.0, 64)
        block = np.ones((33, 33), dtype=complex)
        if case == "nan":
            block[5, 32] = complex(1.0, np.nan)
        elif case == "inf":
            block[0, 0] = -np.inf
        else:
            block = np.ones({"full_shape": (64, 64), "short_axis": (33, 32),
                             "wrong_dim": (33, 33, 33)}[case], dtype=complex)
        with pytest.raises(DomainError):
            spectral.Field._adopt(grid, block, "physical", even=True)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           grid=st.sampled_from([Grid(2, 16.0, 64), Grid(3, 8.0, 16)]))
    def test_fold_weighted_sum_matches_full_lattice_sum(self, seed, grid):
        block = self.random_block(grid, seed)
        full = spectral._unfold(block, grid.points)
        radius = partial(spectral._radial, grid, lambda r: r)  # a lattice function
        for fn, lattice in [(lambda a: np.abs(a) ** 2, ()), (lambda a: np.abs(a) ** 4, ()),
                            (lambda a, r: r * np.abs(a) ** 2, (radius,))]:
            want = float(np.sum(fn(full, *(op(False) for op in lattice))))
            for f in (spectral.Field._adopt(grid, block, "frequency", even=True),
                      Field.frequency(grid, full)):
                got = spectral._lattice_sum(fn, f, *lattice)
                assert abs(got - want) <= 1e-14 * want

    def test_rep_mismatch(self, grid2d_small):
        a = Field.physical(grid2d_small, np.ones(grid2d_small.shape))
        b = Field.frequency(grid2d_small, np.ones(grid2d_small.shape))
        with pytest.raises(RepresentationError):
            _ = a + b
        with pytest.raises(RepresentationError):
            forward_transform(b)
        with pytest.raises(RepresentationError):
            inverse_transform(a)


class TestTransforms:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_forward_matches_direct_summation(self, dim):
        grid = Grid(dim, 16.0, 16)
        f = random_field(grid, seed=11 + dim)
        impl = forward_transform(f).samples
        oracle = direct_forward(f)
        scale = np.abs(oracle).max()
        assert np.abs(impl - oracle).max() <= 1e-12 * scale

    @pytest.mark.parametrize("dim", [2, 3])
    def test_inverse_matches_direct_summation(self, dim):
        grid = Grid(dim, 16.0, 16)
        spec = random_field(grid, seed=23 + dim).as_frequency()
        impl = inverse_transform(spec).samples
        oracle = direct_inverse(spec)
        scale = np.abs(oracle).max()
        assert np.abs(impl - oracle).max() <= 1e-12 * scale

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_roundtrip_identity(self, seed):
        grid = Grid(2, 20.0, 32)
        f = random_field(grid, seed=seed)
        back = inverse_transform(forward_transform(f))
        scale = np.abs(f.samples).max()
        assert np.abs(back.samples - f.samples).max() <= 1e-13 * scale

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_plancherel(self, seed):
        grid = Grid(2, 20.0, 32)
        f = random_field(grid, seed=seed)
        spec = forward_transform(f)
        phys_mass = (np.abs(f.samples) ** 2).sum() * grid.cell_volume
        freq_mass = (np.abs(spec.samples) ** 2).sum() * grid.freq_cell_volume
        assert freq_mass == pytest.approx(phys_mass, rel=1e-12)

    def test_gaussian_closed_form(self, grid2d_medium):
        # e^(-|x|^2/2) transforms to e^(-|xi|^2/2) under this normalisation.
        f = make_radial_data(grid2d_medium, RadialProfile("gaussian", 1.0, 1.0))
        spec = forward_transform(f)
        expected = np.exp(-0.5 * grid2d_medium.freq_radius() ** 2)
        assert np.abs(spec.samples - expected).max() <= 1e-10
        assert abs(spec.samples[0, 0] - 1.0) <= 1e-12

    def test_single_mode_phase_convention(self):
        grid = Grid(2, 16.0, 16)
        amp = 0.7 - 0.3j
        mode = (3, -2)
        x = grid.axis_coords()
        xi1, xi2 = grid.freq_step * mode[0], grid.freq_step * mode[1]
        samples = amp * np.exp(1j * (xi1 * x[:, None] + xi2 * x[None, :]))
        spec = forward_transform(Field.physical(grid, samples)).samples
        expected_peak = amp * grid.extent**grid.dim / TWO_PI ** (grid.dim / 2.0)
        peak = spec[mode[0], mode[1] % grid.points]
        assert abs(peak - expected_peak) <= 1e-12 * abs(expected_peak)
        rest = spec.copy()
        rest[mode[0], mode[1] % grid.points] = 0.0
        assert np.abs(rest).max() <= 1e-12 * abs(expected_peak)


class TestDealiasedProducts:
    @staticmethod
    def as_rep(f, rep):
        # Physical samples, or a spectrum held by a fresh frequency field.
        return f if rep == "physical" else Field.frequency(f.grid, f.as_frequency().samples)

    @pytest.mark.parametrize("rep", ["physical", "frequency"])
    @pytest.mark.parametrize("degree", [3, 5])
    def test_full_band_2d_matches_convolution_oracle(self, grid2d_small, degree, rep):
        f = random_field(grid2d_small, seed=41 + degree)
        impl = dealiased_power(self.as_rep(f, rep), degree).as_frequency().samples
        oracle = direct_odd_power_spectrum(f, degree)
        scale = np.abs(oracle).max()
        assert np.abs(impl - oracle).max() <= 1e-12 * scale

    def test_band_limited_3d_matches_convolution_oracle(self, grid3d_small):
        f = random_field(grid3d_small, seed=77, band=4)
        impl = dealiased_power(f, 3).as_frequency().samples
        oracle = direct_odd_power_spectrum(f, 3, band=4)
        scale = np.abs(oracle).max()
        assert np.abs(impl - oracle).max() <= 1e-12 * scale

    def test_single_mode_closed_form(self):
        grid = Grid(2, 16.0, 16)
        amp = 1.3 - 0.4j
        x = grid.axis_coords()
        xi = grid.freq_step * 2
        samples = amp * np.exp(1j * xi * x[:, None]) * np.ones_like(x[None, :])
        f = Field.physical(grid, samples)
        cubed = dealiased_power(f, 3)
        expected = abs(amp) ** 2 * samples
        assert np.abs(cubed.samples - expected).max() <= 1e-13 * abs(amp) ** 3

    def test_rep_follows_input(self, grid2d_small):
        f = random_field(grid2d_small, seed=5)
        assert dealiased_power(f, 3).rep == "physical"
        assert dealiased_power(f.as_frequency(), 3).rep == "frequency"

    def test_degree_validation(self, grid2d_small):
        f = random_field(grid2d_small, seed=6)
        for bad in (1, 2, 4):
            with pytest.raises(DomainError):
                dealiased_power(f, bad)
        with pytest.raises(DomainError):
            dealiased_modulus_power(f, 3)

    @pytest.mark.parametrize("power", [2, 4])
    @pytest.mark.parametrize(
        "grid",
        # n/2 odd on the last two: (p+1)n/2 is odd there and is rounded up.
        [Grid(2, 16.0, 16), Grid(3, 8.0, 8), Grid(2, 10.0, 10), Grid(3, 6.0, 6)],
        ids=["2d", "3d", "2d_odd_half", "3d_odd_half"],
    )
    @pytest.mark.parametrize("rep", ["physical", "frequency"])
    def test_modulus_power_full_band_matches_convolution_oracle(self, grid, power, rep):
        # Full band: the -n/2 planes are populated, which pins that the
        # unpaired Nyquist mode is dropped from the padded product.
        f = random_field(grid, seed=90 + power + grid.dim)
        w = dealiased_modulus_power(self.as_rep(f, rep), power)
        assert not w.samples.imag.any()
        impl = w.as_frequency().samples
        cube = modulus_power_coefficients(f, power)
        oracle = coefficients_to_spectrum(band_restrict(cube, grid), grid)
        scale = np.abs(oracle).max()
        assert np.abs(impl - oracle).max() <= 1e-12 * scale

    def test_modulus_power_constant_mode(self):
        grid = Grid(2, 16.0, 16)
        amp = 0.8 + 0.6j
        x = grid.axis_coords()
        samples = amp * np.exp(1j * grid.freq_step * 3 * x[:, None]) * np.ones_like(x[None, :])
        w = dealiased_modulus_power(Field.physical(grid, samples), 2)
        assert np.abs(w.samples - 1.0).max() <= 1e-13
        assert np.abs(w.samples.imag).max() <= 1e-14


def full_grid_transforms(grid: Grid):
    """Forward and inverse transform of the spectral module, written with ``np.fft``."""
    checker = (-1.0) ** np.indices(grid.shape).sum(axis=0)
    scale = (grid.dx / math.sqrt(TWO_PI)) ** grid.dim
    return (lambda u: scale * checker * np.fft.fftn(u)), (lambda s: np.fft.ifftn(checker * s) / scale)


def full_grid_product(u: np.ndarray, factors: int, pointwise) -> np.ndarray:
    """Alias-free ``pointwise(u)`` with ``np.fft`` on the full lattice: the band
    ``[-n/2+1, n/2-1]`` of ``u`` zero padded to ``(m+1)n/2`` points per axis,
    rounded up to even, and the product truncated to the same band."""
    n, d = u.shape[0], u.ndim
    fine = 2 * -(-(factors + 1) * n // 4)
    centre = (slice(fine // 2 - n // 2 + 1, fine // 2 + n // 2),) * d
    inner = (slice(1, n),) * d
    padded = np.zeros((fine,) * d, dtype=complex)
    padded[centre] = np.fft.fftshift(np.fft.fftn(u))[inner]
    w = pointwise(np.fft.ifftn(np.fft.ifftshift(padded)) * (fine / n) ** d)
    prod = np.zeros((n,) * d, dtype=complex)
    prod[inner] = np.fft.fftshift(np.fft.fftn(w))[centre] * (n / fine) ** d
    return np.fft.ifftn(np.fft.ifftshift(prod))


class TestEvenSector:
    """Even data take type-I DCTs of the ``[0, n/2]^d`` block, by dense
    matrices on small blocks and by ``scipy.fft.dctn`` on larger ones; the
    results must agree with the full-grid FFTs to rounding."""

    @staticmethod
    def even_field(grid):
        # Radial data after a free flow: complex, and even in every axis.
        datum = make_radial_data(grid, RadialProfile("gaussian", 1.2, 4.0 * grid.dx))
        return linear_flow(datum, 0.3)

    @pytest.mark.parametrize("grid", [Grid(2, 16.0, 64), Grid(3, 8.0, 16), Grid(2, 16.0, 32),
                                      Grid(2, 16.0, 128)],
                             ids=["2d", "3d", "32^2", "128^2_dctn"])
    def test_sector_matches_full_grid_fft(self, grid):
        u = self.even_field(grid)
        spec = u.as_frequency()
        forward, inverse = full_grid_transforms(grid)
        assert rel_error(forward_transform(u).samples, forward(u.samples)) <= 1e-12
        assert rel_error(inverse_transform(spec).samples, inverse(spec.samples)) <= 1e-12
        for f in (u, spec):
            got = dealiased_modulus_power(f, 4).samples
            want = full_grid_product(u.samples, 4, lambda w: np.abs(w) ** 4)
            assert rel_error(got, want) <= 1e-12
            got = dealiased_power(f, 3).as_physical().samples
            want = full_grid_product(u.samples, 3, lambda w: np.abs(w) ** 2 * w)
            assert rel_error(got, want) <= 1e-12

    @staticmethod
    def transforms_called(monkeypatch, calls):
        # FFTs are logged by name, each dense operator application as
        # ("dense", m, complex) with m the larger side of its matrix, and each
        # scipy.fft.dctn call as ("dctn", m, complex).
        for name in ("fftn", "ifftn", "rfftn", "irfftn"):
            def counted(*args, _name=name, _fn=getattr(scipy.fft, name), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(scipy.fft, name, counted)

        def dctn(x, *args, _fn=scipy.fft.dctn, **kwargs):
            calls.append(("dctn", x.shape[0], np.iscomplexobj(x)))
            return _fn(x, *args, **kwargs)

        def apply(op, x, _fn=spectral._apply):
            calls.append(("dense", max(op[0].shape), np.iscomplexobj(x)))
            return _fn(op, x)

        monkeypatch.setattr(scipy.fft, "dctn", dctn)
        monkeypatch.setattr(spectral, "_apply", apply)

    @pytest.mark.parametrize("grid,kind,path", [
        (Grid(2, 16.0, 64), "radial", "dense"),
        (Grid(3, 8.0, 16), "radial", "dense"),
        (Grid(2, 16.0, 32), "radial", "dense"),
        (Grid(2, 16.0, 128), "radial", "dctn"),
        (Grid(3, 8.0, 40), "radial", "dctn"),
        (Grid(2, 16.0, 64), "random", "fft"),
        (Grid(2, 16.0, 64), "signed_zero", "fft"),
        (Grid(2, 16.0, 32), "radial_sector_off", "fft"),
    ], ids=["radial_64^2", "radial_16^3", "radial_32^2", "radial_128^2", "radial_40^3",
            "random_64^2", "even_by_value_odd_by_sign_64^2", "radial_32^2_sector_off"])
    def test_path_taken(self, monkeypatch, grid, kind, path):
        if kind == "signed_zero":
            # Even by value only, so its transforms and the product of the
            # same samples as a spectrum take the full grid; the spectrum of
            # the physical samples is even bit for bit.
            samples = TestSerialization.even_by_value_odd_by_sign().samples
            u, spec = Field.physical(grid, samples), Field.frequency(grid, samples)
        elif kind == "radial_sector_off":
            # Radial samples that are never recognised as even: the full grid.
            samples = self.even_field(grid).samples
            monkeypatch.setattr(spectral, "_sector", lambda a: None)
            u = Field.physical(grid, samples)
            spec = u.as_frequency()
        else:
            u = self.even_field(grid) if kind == "radial" else random_field(grid, seed=8)
            spec = u.as_frequency()
        calls = []
        self.transforms_called(monkeypatch, calls)
        forward_transform(u)
        inverse_transform(spec)
        dealiased_modulus_power(spec, 2)
        dealiased_power(u, 3)

        def leg(side, cplx, *fallback):
            # A leg whose largest block has this side is one dense operator
            # exactly when one axis of that block's DCT-I is at most 2^18 real
            # multiply-adds, complex twice; else it makes its dctn calls.
            if (1 + cplx) * side ** (grid.dim + 1) <= 1 << 18:
                return [("dense", side, cplx)]
            return [("dctn", m, cplx) for m in fallback]

        m = grid.points // 2 + 1
        mf2, mf3 = (2 * -(-(factors + 1) * grid.points // 4) // 2 + 1 for factors in (2, 3))
        # A product of a spectrum that is not even: the padded inverse and
        # forward, then the coarse inverse, all on the full grid.
        full = ["ifftn", "fftn", "ifftn"]
        if path == "fft":
            # Both products start from the spectrum, which u holds; the
            # signed-zero u has none yet, and the block of its spectrum is
            # the way in.
            cube = ["fftn"] + leg(mf3, True, mf3) + leg(mf3, True, mf3, m)
            assert calls == ["fftn", "ifftn"] + full + (cube if kind == "signed_zero" else full)
            return
        # The transforms take the path of the coarse block; |u|^2 of a
        # spectrum has a real product, |u|^2 u of physical samples starts
        # from their held spectrum and has a complex one.
        assert calls == (leg(m, True, m) * 2 + leg(mf2, True, mf2) + leg(mf2, False, mf2, m)
                         + leg(mf3, True, mf3) + leg(mf3, True, mf3, m))
        assert calls[:2] == [(path, m, True)] * 2

    def test_even_by_value_odd_by_sign_products_match_full_grid(self):
        # A radial field with one mirrored pair of zeros of opposite sign:
        # not even bit for bit, so it takes the full grid, as physical
        # samples and as a spectrum alike.
        grid = Grid(2, 16.0, 64)
        samples = self.even_field(grid).samples.copy()
        samples[3, 0], samples[61, 0] = 0.0, -0.0
        for f in (Field.physical(grid, samples), Field.frequency(grid, samples)):
            assert f._even_block() is None
            u = f.as_physical().samples
            got = dealiased_modulus_power(f, 4).samples
            assert rel_error(got, full_grid_product(u, 4, lambda w: np.abs(w) ** 4)) <= 1e-12
            got = dealiased_power(f, 3).as_physical().samples
            assert rel_error(got, full_grid_product(u, 3, lambda w: np.abs(w) ** 2 * w)) <= 1e-12

    @pytest.mark.parametrize("dim", [2, 3], ids=["2d", "3d"])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128], ids=["real", "complex"])
    def test_dense_dct1_matches_dctn(self, monkeypatch, dim, dtype):
        # The largest dense sides: (1 + complex) * m^(dim+1) <= 2^18.
        largest = {(2, np.float64): 64, (2, np.complex128): 50,
                   (3, np.float64): 22, (3, np.complex128): 19}[dim, dtype]
        sides = range(3, largest + 1)
        rng = np.random.default_rng(dim)
        blocks = [rng.standard_normal((m,) * dim) for m in sides]
        if dtype is np.complex128:
            blocks = [b + 1j * rng.standard_normal(b.shape) for b in blocks]
        # Each block also as its reversal (negative strides on every axis, as
        # the forward transform passes it) and as a read-only array.
        inputs = []
        for b in blocks:
            frozen = b.copy()
            frozen.setflags(write=False)
            inputs += [b, np.flip(b), frozen]
        want = [scipy.fft.dctn(x, type=1) for x in inputs]
        monkeypatch.setattr(scipy.fft, "dctn", None)  # the dense routine alone
        for x, ref in zip(inputs, want):
            t = scipy.fft.dct(np.eye(x.shape[0]), type=1, axis=0)  # column j: DCT-I of e_j
            before = x.copy()
            got = spectral._apply((t, np.kron(t.T, np.eye(2))), x)
            assert x.tobytes() == before.tobytes() and not np.shares_memory(got, x)
            assert got.dtype == ref.dtype and got.flags.c_contiguous and got.flags.writeable
            assert rel_error(got, ref) <= 1e-14
        # Every side here is admitted, and one side more is not.
        assert all(spectral._dense(m, x) for m, x in zip(sides, blocks))
        assert not spectral._dense(largest + 1, blocks[-1])

    def test_radial_run_within_the_cap_never_loads_scipy_fft(self):
        # A fresh interpreter: the test process has scipy.fft loaded already.
        script = """
import sys
from nlsbox import EvolutionParams, Field, Grid, RadialProfile, energy, evolve
from nlsbox import forward_transform, make_radial_data, mass
grid = Grid(2, 16.0, 32)
datum = make_radial_data(grid, RadialProfile("gaussian", 1.2, 2.0))
traj = evolve(datum, EvolutionParams(dim=2, k=1, dt=1e-3, t_final=0.01, sample_every=5))
print(len(traj), mass(traj.final) > 0.0, energy(traj.final, 1) > 0.0, "scipy.fft" in sys.modules)
forward_transform(Field.physical(grid, traj.final.samples + 1e-3 * grid.space_radius()[::-1]))
print("scipy.fft" in sys.modules)
"""
        env = {**os.environ, "PYTHONPATH": str(Path(nlsbox.__file__).parents[1])}
        run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=env, timeout=120)
        assert run.returncode == 0, run.stderr
        # Not loaded by the radial run; loaded by the first non-even transform.
        assert run.stdout.split() == ["3", "True", "True", "False", "True"]

    @pytest.mark.parametrize("grid", [Grid(2, 16.0, 32), Grid(2, 16.0, 128), Grid(3, 8.0, 16)],
                             ids=["32^2_dense", "128^2_dctn", "16^3_dense"])
    def test_held_blocks_stay_unchanged_and_read_only(self, grid):
        u = self.even_field(grid)
        spec = u.as_frequency()
        before = [f._half.tobytes() for f in (u, spec)]
        forward_transform(u)
        inverse_transform(spec)
        for f in (u, spec):
            dealiased_modulus_power(f, 2)
            dealiased_power(f, 3)
        assert [f._half.tobytes() for f in (u, spec)] == before
        assert not u._half.flags.writeable and not spec._half.flags.writeable


class TestEvenOperators:
    """Within the cap each leg of the block path is one cached operator, with
    the flips, scales, zero padding and band truncation folded in; it must
    match the composition it replaces, ``dctn`` and the glue around it."""

    @staticmethod
    def block(dim, side, cplx):
        rng = np.random.default_rng(side + 10 * dim)
        b = rng.standard_normal((side,) * dim)
        return b + 1j * rng.standard_normal(b.shape) if cplx else b

    @staticmethod
    def check(op, got, want):
        assert all(not a.flags.writeable for a in op)
        assert got.flags.c_contiguous and rel_error(got, want) <= 1e-14

    @pytest.mark.parametrize("grid", [Grid(2, 16.0, 32), Grid(3, 8.0, 16)], ids=["2d", "3d"])
    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    def test_transforms(self, grid, cplx):
        x, c = self.block(grid.dim, grid.points // 2 + 1, cplx), math.sqrt(2.0 * math.pi)
        forward, inverse = spectral._even_ops(grid)
        assert spectral._even_ops(grid) is spectral._even_ops(grid)
        want = scipy.fft.dctn(np.flip(x), type=1) * (grid.dx / c) ** grid.dim
        self.check(forward, spectral._forward(grid, x), want)
        want = np.flip(scipy.fft.dctn(x, type=1) * (c / grid.dx) ** grid.dim / grid.size)
        self.check(inverse, spectral._inverse(grid, x), want)

    @pytest.mark.parametrize("grid", [Grid(2, 16.0, 32), Grid(3, 8.0, 16)], ids=["2d", "3d"])
    @pytest.mark.parametrize("factors", [2, 3, 4])
    def test_padded_product_legs(self, grid, factors):
        n, half, c = grid.points, grid.points // 2, math.sqrt(2.0 * math.pi)
        fine = 2 * -(-(factors + 1) * n // 4)
        dxf, kept = grid.extent / fine, (slice(0, half),) * grid.dim
        scale_in = (c / dxf / fine) ** grid.dim
        into, out = spectral._even_ops(grid, factors)
        x = self.block(grid.dim, half + 1, True)
        if spectral._dense(fine // 2 + 1, x):
            spec = np.zeros((fine // 2 + 1,) * grid.dim, dtype=complex)
            spec[kept] = x[kept] * scale_in
            self.check(into, spectral._apply(into, x), scipy.fft.dctn(spec, type=1))
        for cplx in (False, True):
            w = self.block(grid.dim, fine // 2 + 1, cplx)
            if not spectral._dense(fine // 2 + 1, w):
                continue
            prod = np.zeros((half + 1,) * grid.dim, dtype=w.dtype)
            prod[kept] = scipy.fft.dctn(w, type=1)[kept] * (dxf / grid.dx / n) ** grid.dim
            self.check(out, spectral._apply(out, w), np.flip(scipy.fft.dctn(prod, type=1)))


class TestRadialData:
    @pytest.mark.parametrize("grid", [Grid(2, 16.0, 64), Grid(2, 9.0, 36), Grid(2, 8.5, 34),
                                      Grid(3, 8.0, 16), Grid(3, 9.0, 18)],
                             ids=["64^2", "36^2", "34^2", "16^3", "18^3"])
    @pytest.mark.parametrize("space", [True, False], ids=["physical", "frequency"])
    def test_block_gather_is_block_of_full_gather(self, grid, space):
        # In physical order the block runs over m = -n/2..0, in FFT order
        # over m = 0..n/2-1 and -n/2; n/2 is odd at 34^2 and 18^3.
        fn = lambda r: np.cos(r) + 1j * r  # noqa: E731
        full = spectral._radial(grid, fn, space=space)
        block = spectral._radial(grid, fn, block=True, space=space)
        assert block.shape == (grid.points // 2 + 1,) * grid.dim
        assert block.tobytes() == np.ascontiguousarray(spectral._block(full)).tobytes()

    @pytest.mark.parametrize("grid", [Grid(2, 16.0, 64), Grid(3, 8.0, 16)], ids=["64^2", "16^3"])
    @pytest.mark.parametrize("kind,seed", [("gaussian", None), ("smooth_bump", None),
                                           ("random_radial_superposition", 5)])
    def test_held_block_unfolds_to_full_gather(self, monkeypatch, grid, kind, seed):
        gather, profiles = spectral._radial, []

        def radial(grid, fn, *args, **kwargs):
            profiles.append(fn)
            return gather(grid, fn, *args, **kwargs)

        monkeypatch.setattr(spectral, "_radial", radial)
        held = make_radial_data(grid, RadialProfile(kind, 1.3, 4.0 * grid.dx, seed))
        assert held._samples is None and held._half.shape == (grid.points // 2 + 1,) * grid.dim
        # The full-lattice gather of the same profile function.
        full = np.asarray(gather(grid, profiles[0], False, space=True), dtype=np.complex128)
        assert held.samples.tobytes() == full.tobytes()

    @pytest.mark.parametrize("grid", [Grid(2, 16.0, 4), Grid(2, 16.0, 32), Grid(3, 8.0, 8)],
                             ids=["4^2", "32^2", "8^3"])
    def test_small_grids_hold_their_block(self, grid):
        f = make_radial_data(grid, RadialProfile("gaussian", 1.0, 4.0 * grid.dx))
        assert f._samples is None and f._half.shape == (grid.points // 2 + 1,) * grid.dim

    def test_gaussian_origin_value(self, grid2d_medium):
        f = make_radial_data(grid2d_medium, RadialProfile("gaussian", 3.0, 1.0))
        origin = (grid2d_medium.points // 2,) * 2
        assert f.samples[origin] == 3.0

    def test_bump_support_and_origin(self, grid2d_medium):
        w = 2.0
        f = make_radial_data(grid2d_medium, RadialProfile("smooth_bump", 2.0, w))
        origin = (grid2d_medium.points // 2,) * 2
        assert f.samples[origin] == 2.0
        r = grid2d_medium.space_radius()
        assert np.all(f.samples[r >= 2.0 * w] == 0.0)
        assert np.any(f.samples[r < 2.0 * w] != 0.0)

    @pytest.mark.parametrize("kind,seed", [
        ("gaussian", None),
        ("smooth_bump", None),
        ("random_radial_superposition", 1234),
    ])
    def test_lattice_symmetry_bitwise(self, kind, seed):
        grid = Grid(3, 16.0, 32)
        f = make_radial_data(grid, RadialProfile(kind, 1.5, 2.0, seed))
        s = f.samples
        for perm in [(1, 0, 2), (2, 1, 0), (1, 2, 0)]:
            assert np.array_equal(s, np.transpose(s, perm))
        for axis in range(3):
            assert np.array_equal(s, np.roll(np.flip(s, axis=axis), 1, axis=axis))

    def test_freq_lattice_symmetry_bitwise(self):
        grid = Grid(3, 16.0, 32)
        flat = Field.frequency(grid, np.ones(grid.shape))
        symbol = RadialSymbol("psi", lambda r: smooth_cutoff(r / (0.4 * grid.nyquist)))
        values = apply_symbol(flat, symbol).samples
        assert np.any((values != 0.0) & (values != 1.0))
        for s in (grid.freq_radius(), values):
            for perm in [(1, 0, 2), (2, 1, 0), (1, 2, 0)]:
                assert np.array_equal(s, np.transpose(s, perm))
            for axis in range(3):
                # FFT-order reflection: slot j -> (-j) mod n.
                assert np.array_equal(s, np.roll(np.flip(s, axis=axis), 1, axis=axis))

    def test_profile_validation(self):
        for width in (math.nan, math.inf, 0.0, -1.0, True):
            with pytest.raises(DomainError, match="width"):
                RadialProfile("gaussian", 1.0, width)
        for amplitude in (math.nan, -math.inf, False, "1"):
            with pytest.raises(DomainError, match="amplitude"):
                RadialProfile("gaussian", amplitude, 1.0)

    def test_superposition_deterministic(self, grid2d_medium):
        p = RadialProfile("random_radial_superposition", 1.0, 2.0, 99)
        a = make_radial_data(grid2d_medium, p)
        b = make_radial_data(grid2d_medium, p)
        assert np.array_equal(a.samples, b.samples)
        c = make_radial_data(
            grid2d_medium, RadialProfile("random_radial_superposition", 1.0, 2.0, 100)
        )
        assert not np.array_equal(a.samples, c.samples)

    def test_seed_required(self, grid2d_medium):
        with pytest.raises(DomainError):
            make_radial_data(grid2d_medium, RadialProfile("random_radial_superposition"))

    def test_unresolvable_width(self, grid2d_medium):
        with pytest.raises(ResolutionError):
            make_radial_data(grid2d_medium, RadialProfile("gaussian", 1.0, 0.5))

    @pytest.mark.parametrize("kind,width,seed,points", [
        ("gaussian", 1.0, None, 128),
        # The bump transform only decays like exp(-c*sqrt(|xi|)), so it
        # needs nyquist*width of a few hundred before the tail vanishes.
        ("smooth_bump", 3.0, None, 1024),
        ("random_radial_superposition", 1.5, 7, 128),
    ])
    def test_spectral_tail_negligible(self, kind, width, seed, points):
        grid = Grid(2, 32.0, points)
        f = make_radial_data(grid, RadialProfile(kind, 1.0, width, seed))
        spec = np.abs(forward_transform(f).samples)
        shell = grid.freq_radius() >= 0.9 * grid.nyquist
        assert spec[shell].max() <= 1e-10 * spec.max()

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            RadialProfile("plateau")


class TestTailMass:
    def test_localized_state_is_clean(self, grid2d_medium):
        f = make_radial_data(grid2d_medium, RadialProfile("gaussian", 1.0, 1.0))
        assert tail_mass_fraction(f) < 1e-6

    def test_wide_state_is_flagged(self):
        grid = Grid(2, 32.0, 128)
        f = make_radial_data(grid, RadialProfile("gaussian", 1.0, 6.0))
        assert tail_mass_fraction(f) > 1e-6

    @pytest.mark.parametrize("held", [True, False], ids=["held", "non_even"])
    def test_fractions_match_full_lattice_sums(self, held):
        # The box tail (|x| > L/4) and the spectral tail that evolve
        # checks (|xi| >= 2/3 Nyquist), each against a plain numpy sum.
        grid = Grid(2, 16.0, 64)
        if held:
            rng = np.random.Generator(np.random.Philox(key=8))
            block = rng.standard_normal((33, 33)) + 1j * rng.standard_normal((33, 33))
            f = inverse_transform(Field.frequency(grid, spectral._unfold(block, 64)))
            assert f._samples is None and f.as_frequency()._samples is None
        else:
            f = random_field(grid, seed=8)
            assert f._even_block() is None
        box, spectral_tail = tail_mass_fraction(f), dynamics._tail_fraction(f)

        def fraction(a, mask):
            w = np.abs(a) ** 2
            return w[mask].sum() / w.sum()

        want_box = fraction(f.samples, grid.space_radius() > grid.extent / 4.0)
        spec = f.as_frequency().samples
        want_spectral = fraction(spec, grid.freq_radius() >= 2.0 / 3.0 * grid.nyquist)
        assert want_box > 0.01 and want_spectral > 0.01  # neither tail is empty
        assert box == pytest.approx(want_box, rel=1e-14, abs=0.0)
        assert spectral_tail == pytest.approx(want_spectral, rel=1e-14, abs=0.0)

    def test_overflow_is_not_hidden(self):
        f = Field.physical(Grid(2, 16.0, 16), np.full((16, 16), 1e200 + 0j))
        with pytest.warns(RuntimeWarning, match="overflow"):
            tail_mass_fraction(f)
        assert dynamics._tail_fraction(f) == 0.0  # evolve's peak check raises instead


class TestSerialization:
    def test_roundtrip_bitwise(self, tmp_path, grid2d_small):
        f = random_field(grid2d_small, seed=3)
        path = tmp_path / "state.field"
        write_field(f, path)
        back = read_field(path)
        assert back.grid == f.grid
        assert back.rep == f.rep
        assert np.array_equal(back.samples, f.samples)

    def test_frequency_rep_roundtrip(self, tmp_path, grid2d_small):
        f = random_field(grid2d_small, seed=4).as_frequency()
        path = tmp_path / "state.field"
        write_field(f, path)
        assert read_field(path).rep == "frequency"

    def test_header_is_documented_format(self, tmp_path, grid2d_small):
        f = random_field(grid2d_small, seed=3)
        path = tmp_path / "state.field"
        write_field(f, path)
        header = path.read_text().splitlines()[0].split()
        assert header == ["2", "16", "16.0", "physical"]

    def test_rows_are_repr_text(self, tmp_path):
        values = [0.1, -0.0, 1e-05, 1e16, 1.0 / 3.0, -2.5e-300, 123456789.0, 0.0]
        samples = np.empty(8, dtype=np.complex128)
        samples.real, samples.imag = values, values[::-1]  # keeps the signed zeros
        f = Field.physical(Grid(2, 16.0, 4), np.tile(samples, 2).reshape(4, 4))
        path = tmp_path / "state.field"
        write_field(f, path)
        rows = path.read_text().splitlines()[1:]
        assert rows[:8] == [
            "0.1 0.0",
            "-0.0 123456789.0",
            "1e-05 -2.5e-300",
            "1e+16 0.3333333333333333",
            "0.3333333333333333 1e+16",
            "-2.5e-300 1e-05",
            "123456789.0 -0.0",
            "0.0 0.1",
        ]
        assert rows[8:] == rows[:8]

    @staticmethod
    def reference_bytes(f):
        # The file format spelled out row by row, one repr per float.
        g = f.grid
        text = f"{g.dim} {g.points} {g.extent!r} {f.rep}\n"
        rows = (f"{float(z.real)!r} {float(z.imag)!r}\n" for z in f.samples.reshape(-1))
        return (text + "".join(rows)).encode()

    @staticmethod
    def even_by_value_odd_by_sign():
        a = np.zeros((64, 64), dtype=np.complex128)
        a[3, 0], a[61, 0] = 0.0, -0.0
        return Field.physical(Grid(2, 16.0, 64), a)

    @staticmethod
    def evolved_sample():
        datum = make_radial_data(Grid(2, 16.0, 64), RadialProfile("gaussian", 1.2, 1.0))
        return evolve(datum, EvolutionParams(2, 1, 0.01, 0.04)).fields[-1]

    @pytest.mark.parametrize("case,rep,block", [
        (case, rep, block)
        for case, block in [("radial_64^2", True), ("radial_256^2", True), ("radial_16^3", True),
                            ("evolved_64^2", True), ("random_64^2", False), ("radial_32^2", True)]
        for rep in ("physical", "frequency")
    ] + [("even_by_value_odd_by_sign_64^2", "physical", False)])
    def test_bytes_match_reference_writer(self, monkeypatch, tmp_path, case, rep, block):
        grids = {"64^2": Grid(2, 16.0, 64), "256^2": Grid(2, 32.0, 256),
                 "16^3": Grid(3, 8.0, 16), "32^2": Grid(2, 16.0, 32)}
        size = case.rsplit("_", 1)[1]
        if case.startswith("radial"):
            f = TestEvenSector.even_field(grids[size])
        elif case.startswith("evolved"):
            f = self.evolved_sample()
        elif case.startswith("random"):
            f = random_field(grids[size], seed=5)
        else:
            f = self.even_by_value_odd_by_sign()
        f = f.as_frequency() if rep == "frequency" else f.as_physical()
        formatted = []

        def counted(a, _rows=spectral._rows):
            formatted.append(a.size)
            return _rows(a)

        monkeypatch.setattr(spectral, "_rows", counted)
        path = tmp_path / "state.field"
        write_field(f, path)
        assert path.read_bytes() == self.reference_bytes(f)
        half = f.grid.points // 2 + 1
        assert formatted == [half**f.grid.dim if block else f.grid.size]
        parsed = self.count_parsed_rows(monkeypatch)
        assert read_field(path).samples.tobytes() == f.samples.tobytes()
        assert parsed == [half**f.grid.dim if block else f.grid.size]

    @pytest.mark.parametrize("grid", [Grid(2, 16.0, 64), Grid(3, 8.0, 16)], ids=["64^2", "16^3"])
    @pytest.mark.parametrize("rep", ["physical", "frequency"])
    def test_block_writer_matches_full_grid_writer(self, monkeypatch, tmp_path, grid, rep):
        # Slab text from the held block against one row per sample from the
        # full grid, for the same samples; both files read back bitwise.
        f = TestEvenSector.even_field(grid)
        f = f.as_frequency() if rep == "frequency" else f.as_physical()
        write_field(f, tmp_path / "block.field")
        monkeypatch.setattr(spectral, "_sector", lambda a: None)
        full = Field(grid, f.samples, rep)
        assert full._even_block() is None
        write_field(full, tmp_path / "full.field")
        monkeypatch.undo()
        assert (tmp_path / "block.field").read_bytes() == (tmp_path / "full.field").read_bytes()
        for name in ("block.field", "full.field"):
            assert read_field(tmp_path / name).samples.tobytes() == f.samples.tobytes()

    @staticmethod
    def count_parsed_rows(monkeypatch):
        # The number of rows each np.loadtxt call is handed.
        parsed = []

        def counted(rows, *args, _loadtxt=np.loadtxt, **kwargs):
            rows = list(rows)
            parsed.append(len(rows))
            return _loadtxt(rows, *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counted)
        return parsed

    @staticmethod
    def whole_body_read(path):
        # The reader before block reads: np.loadtxt on every row of the body.
        with open(path) as fh:
            dim, points, _, _ = fh.readline().split()
            data = np.loadtxt(fh, dtype=np.float64, ndmin=2)
        shape = (int(points),) * int(dim)
        if data.shape != (math.prod(shape), 2):
            raise DomainError(f"got shape {data.shape}")
        return data.view(np.complex128).reshape(shape)

    def test_even_by_value_not_by_text_reads_whole_body(self, monkeypatch, tmp_path):
        rows = ["1.0 0.5\n"] * 64**2
        rows[3 * 64 + 5], rows[61 * 64 + 5] = "1.0 0.25\n", "1.00 0.25\n"
        rows[3 * 64 + 59], rows[61 * 64 + 59] = "1.0 0.25\n", "1.0 0.250\n"
        path = tmp_path / "state.field"
        path.write_text("2 64 16.0 physical\n" + "".join(rows))
        parsed = self.count_parsed_rows(monkeypatch)
        samples = read_field(path).samples
        assert parsed == [64**2]
        monkeypatch.undo()
        assert samples.tobytes() == self.whole_body_read(path).tobytes()
        assert np.array_equal(spectral._unfold(spectral._block(samples), 64), samples)

    @pytest.mark.parametrize("edit,outcome", [
        ("no_final_newline", "even"), ("changed_row_in_last_slab", "not_even"),
        ("extra_trailing_row", DomainError),
    ])
    def test_edited_even_file_reads_as_whole_body(self, tmp_path, edit, outcome):
        f = TestEvenSector.even_field(Grid(3, 8.0, 16))
        path = tmp_path / "state.field"
        write_field(f, path)
        text = path.read_text()
        if edit == "no_final_newline":
            text = text[:-1]
        elif edit == "changed_row_in_last_slab":
            lines = text.splitlines(keepends=True)
            lines[-20] = "0.5 -0.25\n"
            text = "".join(lines)
        else:
            text += "0.0 0.0\n"
        path.write_text(text)
        if outcome is DomainError:
            with pytest.raises(DomainError):
                self.whole_body_read(path)
            with pytest.raises(DomainError):
                read_field(path)
            return
        samples = read_field(path).samples
        assert samples.tobytes() == self.whole_body_read(path).tobytes()
        assert (samples.tobytes() == f.samples.tobytes()) == (outcome == "even")

    @pytest.mark.parametrize("line", ["\n", "  \n", "# hi\n", "0.0 0.0 # hi\n"],
                             ids=["blank", "spaces", "comment", "trailing_comment"])
    @pytest.mark.parametrize("case", ["even_64^2_extra", "even_64^2_orbit", "random_64^2_extra",
                                      "random_64^2_replaced", "zeros_4^2_extra"])
    def test_non_sample_lines_rejected(self, monkeypatch, tmp_path, case, line):
        if case.startswith("even"):
            f = TestEvenSector.even_field(Grid(2, 16.0, 64))
        elif case.startswith("random"):
            f = random_field(Grid(2, 16.0, 64), seed=5)
        else:
            f = Field.physical(Grid(2, 16.0, 4), np.zeros((4, 4)))
        path = tmp_path / "state.field"
        write_field(f, path)
        header, *rows = path.read_text().splitlines(keepends=True)
        if case.endswith("orbit"):
            # Every mirror of one row: the body stays even row for row.
            for j, k in [(3, 5), (61, 5), (3, 59), (61, 59)]:
                rows[64 * j + k] = line
        elif case.endswith("replaced"):
            rows[len(rows) // 3] = line
        else:
            rows.insert(len(rows) // 3, line)
        path.write_text(header + "".join(rows))
        parsed = self.count_parsed_rows(monkeypatch)
        with pytest.raises(DomainError):
            read_field(path)
        if case.endswith("orbit"):
            assert parsed == [33**2]

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_field_even_in_all_but_one_axis_reads_whole_body(self, monkeypatch, tmp_path, axis):
        f = TestEvenSector.even_field(Grid(3, 8.0, 16))
        ramp = np.linspace(1.0, 2.0, 16).reshape([16 if a == axis else 1 for a in range(3)])
        f = Field.physical(f.grid, f.samples * ramp)
        path = tmp_path / "state.field"
        write_field(f, path)
        parsed = self.count_parsed_rows(monkeypatch)
        assert read_field(path).samples.tobytes() == f.samples.tobytes()
        assert parsed == [16**3]

    @pytest.mark.parametrize("points", [4, 64])
    def test_empty_body_raises_without_warning(self, tmp_path, recwarn, points):
        path = tmp_path / "empty.field"
        path.write_text(f"2 {points} 16.0 physical\n")
        with pytest.raises(DomainError):
            read_field(path)
        assert not recwarn.list

    @settings(max_examples=30, deadline=None)
    @given(values=hnp.arrays(
        np.float64, (33, 33, 2),
        elements=st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
        | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]),
    ))
    def test_unfolded_block_roundtrip(self, tmp_path_factory, values):
        samples = spectral._unfold(values.view(np.complex128)[..., 0], 64)
        f = Field.physical(Grid(2, 16.0, 64), samples)
        path = tmp_path_factory.mktemp("unfold") / "state.field"
        write_field(f, path)
        assert path.read_bytes() == self.reference_bytes(f)
        assert read_field(path).samples.tobytes() == f.samples.tobytes()

    def test_signed_zeros_roundtrip(self, tmp_path):
        samples = np.ones(16, dtype=np.complex128)
        for i, (re, im) in enumerate([(-0.0, 0.0), (0.0, -0.0), (1.0, -0.0), (-0.0, -0.0)]):
            samples.real[i], samples.imag[i] = re, im
        f = Field.frequency(Grid(2, 16.0, 4), samples.reshape(4, 4))
        path = tmp_path / "state.field"
        write_field(f, path)
        assert path.read_text().splitlines()[1:5] == ["-0.0 0.0", "0.0 -0.0", "1.0 -0.0", "-0.0 -0.0"]
        assert read_field(path).samples.tobytes() == f.samples.tobytes()

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.field"
        path.write_text("2 16 16.0\n")
        with pytest.raises(DomainError):
            read_field(path)

    @pytest.mark.parametrize("text", [
        "two 4 8.0 physical\n" + "0.0 0.0\n" * 16,
        "2 4 8.0 physical\n" + "x y\n" + "0.0 0.0\n" * 15,
    ], ids=["header", "row"])
    def test_non_numeric_text(self, tmp_path, text):
        path = tmp_path / "bad.field"
        path.write_text(text)
        with pytest.raises(DomainError):
            read_field(path)

    def test_bad_rep_tag(self, tmp_path):
        path = tmp_path / "bad.field"
        path.write_text("2 4 16.0 spectral\n" + "0.0 0.0\n" * 16)
        with pytest.raises(RepresentationError):
            read_field(path)

    def test_truncated_body(self, tmp_path):
        path = tmp_path / "bad.field"
        path.write_text("2 4 16.0 physical\n" + "0.0 0.0\n" * 15)
        with pytest.raises(DomainError):
            read_field(path)
