"""Spectral core: transforms against direct-summation oracles, alias-free
products against convolution oracles, radial data invariances, field IO."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlsbox import (
    DomainError,
    Field,
    Grid,
    RadialProfile,
    RadialSymbol,
    RepresentationError,
    ResolutionError,
    apply_symbol,
    dealiased_modulus_power,
    dealiased_power,
    forward_transform,
    inverse_transform,
    linear_flow,
    make_radial_data,
    read_field,
    smooth_cutoff,
    tail_mass_fraction,
    write_field,
)
from nlsbox import spectral
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
    def test_defaults(self):
        g2 = Grid.default(2)
        assert (g2.points, g2.extent) == (256, 64.0)
        g3 = Grid.default(3)
        assert (g3.points, g3.extent) == (64, 32.0)

    def test_nyquist_and_cells(self):
        g = Grid.default(2)
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
        for dim in (2.0, True, 4):
            with pytest.raises(DomainError, match="dim"):
                Grid(dim, 8.0, 32)
        for extent in (math.nan, math.inf, 0.0, True, "8"):
            with pytest.raises(DomainError, match="extent"):
                Grid(2, extent, 32)
        for points in (32.0, True, np.int64(32), 2):
            with pytest.raises(DomainError, match="points"):
                Grid(2, 8.0, points)

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
    @pytest.mark.parametrize("degree", [3, 5])
    def test_full_band_2d_matches_convolution_oracle(self, grid2d_small, degree):
        f = random_field(grid2d_small, seed=41 + degree)
        impl = dealiased_power(f, degree).as_frequency().samples
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
    def test_modulus_power_full_band_matches_convolution_oracle(self, grid, power):
        # Full band: the -n/2 planes are populated, which pins that the
        # unpaired Nyquist mode is dropped from the padded product.
        f = random_field(grid, seed=90 + power + grid.dim)
        impl = dealiased_modulus_power(f, power).as_frequency().samples
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
    """Even data above the size floor take type-I DCTs of the ``[0, n/2]^d``
    block; the results must agree with the full-grid FFTs to rounding."""

    @staticmethod
    def even_field(grid):
        # Radial data after a free flow: complex, and even in every axis.
        datum = make_radial_data(grid, RadialProfile("gaussian", 1.2, 4.0 * grid.dx))
        return linear_flow(datum, 0.3)

    @pytest.mark.parametrize("grid", [Grid(2, 16.0, 64), Grid(3, 8.0, 16)], ids=["2d", "3d"])
    def test_sector_matches_full_grid_fft(self, grid):
        assert grid.size >= spectral._SECTOR_FLOOR
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
        for name in ("dctn", "fftn", "ifftn", "rfftn", "irfftn"):
            def counted(*args, _name=name, _fn=getattr(spectral._fft, name), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(spectral._fft, name, counted)

    @pytest.mark.parametrize("grid,radial,sector", [
        (Grid(2, 16.0, 64), True, True),
        (Grid(3, 8.0, 16), True, True),
        (Grid(2, 16.0, 32), True, False),
        (Grid(2, 16.0, 64), False, False),
    ], ids=["radial_64^2", "radial_16^3", "radial_32^2", "random_64^2"])
    def test_path_taken(self, monkeypatch, grid, radial, sector):
        u = self.even_field(grid) if radial else random_field(grid, seed=8)
        spec = u.as_frequency()
        calls = []
        self.transforms_called(monkeypatch, calls)
        forward_transform(u)
        inverse_transform(spec)
        dealiased_modulus_power(spec, 2)
        dealiased_power(u, 3)
        assert calls and all((name == "dctn") == sector for name in calls)


class TestRadialData:
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

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.field"
        path.write_text("2 16 16.0\n")
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
