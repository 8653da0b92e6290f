"""Truncated energies: config validation, exact lattice scaling laws,
commutator against a direct-convolution oracle, the vanishing identity,
increment ledgers, scattering pullbacks."""

import math
import warnings

import numpy as np
import pytest

from nlsbox import spectral
from nlsbox import (
    DiagnosticSeries,
    DomainError,
    EvolutionParams,
    Field,
    Grid,
    IMethodConfig,
    RadialProfile,
    ResolutionError,
    UndersamplingWarning,
    commutator,
    critical_exponent,
    energy,
    evolve,
    i_operator_symbol,
    increment_ledger,
    lebesgue_norm,
    linear_flow,
    make_radial_data,
    mass,
    modified_energy,
    rescale,
    scattering_diagnostic,
    sobolev_norm,
    vanishing_constant,
)
from oracles import (
    coefficients_to_spectrum,
    convolve_cubes,
    fourier_coefficients,
    random_field,
    reflect_conj,
)


def gaussian(grid, amplitude=1.0, width=1.0):
    return make_radial_data(grid, RadialProfile("gaussian", amplitude, width))


def single_mode(grid, amp, mode):
    x = grid.axis_coords()
    phase = np.zeros(grid.shape)
    for axis, m in enumerate(mode):
        shape = [1] * grid.dim
        shape[axis] = grid.points
        phase = phase + grid.freq_step * m * x.reshape(shape)
    return Field.physical(grid, amp * np.exp(1j * phase))


def mode_sum(grid, terms):
    total = np.zeros(grid.shape, dtype=np.complex128)
    for amp, mode in terms:
        total = total + single_mode(grid, amp, mode).samples
    return Field.physical(grid, total)


class TestConfig:
    def test_critical_exponents(self):
        assert critical_exponent(3, 1) == 0.5
        assert critical_exponent(2, 1) == 0.0
        assert critical_exponent(2, 2) == 0.5
        assert critical_exponent(2, 4) == 0.75
        with pytest.raises(DomainError):
            critical_exponent(3, 2)
        with pytest.raises(DomainError):
            critical_exponent(1, 1)

    @pytest.mark.parametrize("call", [
        lambda: IMethodConfig(4.0, 0.7, True, 3),
        lambda: critical_exponent(3, True),
        lambda: critical_exponent(2.0, 2),
        lambda: critical_exponent(True, 2),
        lambda: IMethodConfig(4.0, 0.7, 1, 3.0),
    ], ids=["config-bool-k-3d", "bool-k-3d", "float-dim", "bool-dim", "config-float-dim"])
    def test_equation_shape_is_validated_like_evolution_params(self, call):
        # EvolutionParams and Grid reject a bool k and a float dim; so
        # must the I-method config and the critical exponent.
        with pytest.raises(DomainError):
            call()

    def test_regularity_window(self):
        cfg = IMethodConfig(4.0, 0.75, 2, 2)
        assert cfg.critical == 0.5
        with pytest.raises(DomainError):
            IMethodConfig(4.0, 0.5, 2, 2)
        with pytest.raises(DomainError):
            IMethodConfig(4.0, 1.0, 2, 2)
        with pytest.raises(DomainError):
            IMethodConfig(4.0, 0.3, 2, 2)
        with pytest.raises(DomainError):
            IMethodConfig(0.0, 0.75, 2, 2)
        with pytest.raises(DomainError):
            IMethodConfig(-2.0, 0.75, 2, 2)

    def test_vanishing_constant(self):
        assert vanishing_constant(1) == 0.125
        assert vanishing_constant(2) == pytest.approx(1.0 / 6.0)
        assert vanishing_constant(3) == pytest.approx(1.0 / 8.0)


class TestModifiedEnergy:
    def test_identity_below_cutoff(self):
        # The symbol plateau is exactly one through frequency N, so a low
        # mode sees no smoothing at all.
        grid = Grid(2, 16.0, 32)
        f = single_mode(grid, 1.3, (2, 0))
        cfg = IMethodConfig(1.2, 0.75, 1, 2)
        assert modified_energy(f, cfg) == pytest.approx(energy(f, 1), rel=1e-13)

    def test_decay_above_twice_cutoff(self):
        grid = Grid(2, 16.0, 64)
        mode, amp = (9, 0), 1.1
        cfg = IMethodConfig(1.2, 0.75, 1, 2)
        f = single_mode(grid, amp, mode)
        r = grid.freq_step * mode[0]
        assert r > 2 * cfg.N
        m = (cfg.N / r) ** (1.0 - cfg.s)
        scaled = single_mode(grid, amp * m, mode)
        assert modified_energy(f, cfg) == pytest.approx(energy(scaled, 1), rel=1e-12)

    def test_requires_resolved_symbol(self):
        grid = Grid(2, 16.0, 16)
        f = gaussian(grid, 1.0, 4.0)
        with pytest.raises(ResolutionError):
            modified_energy(f, IMethodConfig(2.0, 0.75, 1, 2))

    def test_dimension_mismatch(self):
        grid = Grid(2, 16.0, 32)
        f = gaussian(grid, 1.0, 2.0)
        with pytest.raises(DomainError):
            modified_energy(f, IMethodConfig(1.0, 0.6, 1, 3))

    # Even 64^2 and 16^3 data take the sector transforms, a random field the FFTs.
    @pytest.mark.parametrize("case", ["gaussian_64^2", "gaussian_16^3", "random_64^2"])
    def test_frequency_input_bitwise(self, case):
        kind, size = case.split("_")
        grid = Grid(2, 16.0, 64) if size == "64^2" else Grid(3, 8.0, 16)
        f = gaussian(grid, 1.0, 2.0) if kind == "gaussian" else random_field(grid, seed=7)
        cfg = IMethodConfig(1.2, 0.75, 1, grid.dim)
        assert modified_energy(f, cfg) == modified_energy(f.as_frequency(), cfg)

    def test_physical_input_transforms_once(self, monkeypatch):
        calls = []
        for name in ("forward_transform", "inverse_transform"):
            def counted(f, _name=name, _fn=getattr(spectral, name)):
                calls.append(_name)
                return _fn(f)

            monkeypatch.setattr(spectral, name, counted)
        modified_energy(gaussian(Grid(2, 16.0, 64), 1.0, 1.5), IMethodConfig(1.2, 0.75, 1, 2))
        assert sorted(calls) == ["forward_transform", "inverse_transform"]


class TestRescale:
    def test_lattice_scaling_is_exact_3d(self):
        grid = Grid(3, 16.0, 16)
        f = random_field(grid, seed=21)
        lam = 0.25
        g = rescale(f, lam, 1)
        assert g.grid.extent == grid.extent / lam
        assert sobolev_norm(g, 0.5) == pytest.approx(sobolev_norm(f, 0.5), rel=1e-13)
        assert sobolev_norm(g, 1.0) == pytest.approx(
            math.sqrt(lam) * sobolev_norm(f, 1.0), rel=1e-13
        )
        assert lebesgue_norm(g, 2.0) == pytest.approx(
            lebesgue_norm(f, 2.0) / math.sqrt(lam), rel=1e-13
        )

    def test_energy_scaling_is_exact_2d(self):
        grid = Grid(2, 16.0, 32)
        f = random_field(grid, seed=22)
        lam, k = 0.25, 2
        g = rescale(f, lam, k)
        assert energy(g, k) == pytest.approx(lam ** (2.0 / k) * energy(f, k), rel=1e-13)
        assert mass(g) == pytest.approx(mass(f) / lam, rel=1e-13)

    def test_even_field_keeps_its_block(self, monkeypatch):
        # The block is scaled as it is held: nothing is unfolded or tested,
        # and the samples are the bits of scaling every sample.
        grid = Grid(2, 16.0, 64)
        f, lam, k = gaussian(grid, 1.3, 2.0), 0.5, 2
        want = lam ** (1.0 / k) * f.samples
        f = gaussian(grid, 1.3, 2.0)
        monkeypatch.setattr(spectral, "_sector", lambda a: pytest.fail("evenness tested"))
        g = rescale(f, lam, k)
        assert f._samples is None and g._samples is None
        assert g.grid == Grid(2, 32.0, 64) and not g._half.flags.writeable
        assert g.samples.tobytes() == want.tobytes()

    def test_rejects_general_factors(self):
        grid = Grid(2, 16.0, 16)
        f = random_field(grid, seed=1)
        with pytest.raises(DomainError):
            rescale(f, 0.3, 1)
        with pytest.raises(DomainError):
            rescale(f, -2.0, 1)
        with pytest.raises(DomainError):
            rescale(f, 0.5, 0)

    def test_rejects_non_cubic_3d(self):
        f = random_field(Grid(3, 16.0, 16), seed=1)
        with pytest.raises(DomainError, match="cubic"):
            rescale(f, 0.5, 7)


def _oracle_commutator(f, cfg, band):
    """Smoothing defect by direct convolution on coefficient cubes."""
    grid = f.grid
    degree = 2 * cfg.k + 1
    symbol = i_operator_symbol(cfg.N, cfg.s)

    def cube_radius(size):
        half = (size - 1) // 2
        m = np.arange(-half, half + 1, dtype=np.float64)
        mesh = np.meshgrid(*([m * m] * grid.dim), indexing="ij", sparse=True)
        return grid.freq_step * np.sqrt(sum(mesh))

    def odd_power(cube):
        flipped = reflect_conj(cube)
        out = cube
        for _ in range(cfg.k):
            out = convolve_cubes(out, cube)
        for _ in range(cfg.k):
            out = convolve_cubes(out, flipped)
        return out

    def cube_to_band(cube):
        # The product cube may be smaller or larger than the grid band;
        # embed or restrict to modes [-n/2, n/2) in FFT order.
        n, d = grid.points, grid.dim
        half = (cube.shape[0] - 1) // 2
        if half <= n // 2:
            big = np.zeros((n + 1,) * d, dtype=np.complex128)
            lo = n // 2 - half
            big[(slice(lo, lo + cube.shape[0]),) * d] = cube
        else:
            lo = half - n // 2
            big = cube[(slice(lo, lo + n + 1),) * d].copy()
        return np.fft.ifftshift(big[(slice(0, n),) * d])

    base = fourier_coefficients(f, band)
    smoothed = base * symbol(cube_radius(base.shape[0]))
    first = odd_power(smoothed)
    second = odd_power(base)
    second = second * symbol(cube_radius(second.shape[0]))
    diff = first - second
    return coefficients_to_spectrum(cube_to_band(diff), grid)


class TestCommutator:
    @pytest.mark.parametrize(
        "grid,band,k",
        [
            (Grid(2, 16.0, 32), 3, 1),
            (Grid(2, 16.0, 32), 2, 2),
            (Grid(3, 16.0, 32), 2, 1),
        ],
    )
    def test_matches_convolution_oracle(self, grid, band, k):
        f = random_field(grid, seed=31 + k, band=band)
        cfg = IMethodConfig(1.2, 0.75, k, grid.dim)
        got = commutator(f, cfg).as_frequency().samples
        want = _oracle_commutator(f, cfg, band)
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale

    def test_warns_when_products_leave_band(self):
        grid = Grid(2, 16.0, 16)
        f = random_field(grid, seed=2, band=6)
        cfg = IMethodConfig(1.2, 0.75, 1, 2)
        with pytest.warns(UndersamplingWarning):  # 0.227 of the mass is above Nyquist / 3
            commutator(f, cfg)

    @staticmethod
    def full_lattice_fraction(f, k):
        """Share of |fhat|^2 above Nyquist / (2k+1), read off the whole lattice."""
        power = np.abs(f.as_frequency().samples) ** 2
        outer = f.grid.freq_radius() > f.grid.nyquist / (2 * k + 1)
        return float(power[outer].sum() / power.sum())

    def test_held_field_never_unfolds(self, monkeypatch):
        # A resolved width-1 Gaussian has 2.3e-8 of its spectral mass above
        # Nyquist / 3, so its products stay in band and nothing warns.
        grid = Grid(2, 16.0, 64)
        f = gaussian(grid, 1.0, 1.0)
        assert f._samples is None and f.as_frequency()._samples is None  # held blocks
        unfolds = []
        unfold = spectral._unfold

        def counted(*args):
            unfolds.append(args[1])
            return unfold(*args)

        monkeypatch.setattr(spectral, "_unfold", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            commutator(f, IMethodConfig(4.0, 0.75, 1, 2))
        assert unfolds == []
        monkeypatch.undo()
        assert 0.0 < self.full_lattice_fraction(f, 1) < 1e-4

    @pytest.mark.parametrize("band,warns", [(9, True), (3, False)])
    def test_non_even_warning_matches_full_lattice(self, band, warns):
        f = random_field(Grid(2, 16.0, 64), seed=4, band=band)
        assert f.as_frequency()._half is None
        frac = self.full_lattice_fraction(f, 1)
        assert (frac > 1e-4) is warns
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            commutator(f, IMethodConfig(4.0, 0.75, 1, 2))
        assert [w.category for w in caught] == [UndersamplingWarning] * warns
        if warns:
            assert str(caught[0].message).startswith(f"{frac:.3e} of the spectral mass")


def defect_and_bound(f, cfg):
    """|(Iu)^(2k+1) - I(u^(2k+1))|_2 and working precision for it,
    1e-12 |f|_inf^(2k) |f|_2, the natural size of the product."""
    defect = lebesgue_norm(commutator(f, cfg), 2.0)
    scale = lebesgue_norm(f, math.inf) ** (2 * cfg.k) * lebesgue_norm(f, 2.0)
    return defect, 1e-12 * scale


class TestVanishingIdentity:
    def test_low_modes_vanish_2d(self):
        # All content below c(1) N = N/8 keeps every product below N,
        # where the symbol is one and the defect cancels identically.
        grid = Grid(2, 16.0, 64)
        cfg = IMethodConfig(4.0, 0.75, 1, 2)
        cut = vanishing_constant(1) * cfg.N
        f = mode_sum(grid, [(0.7, (1, 0)), (0.45, (0, 1))])
        assert grid.freq_step * 1 < cut
        defect, bound = defect_and_bound(f, cfg)
        assert defect <= bound

    def test_opposed_pair_above_cut_fails_2d(self):
        # Modes at 0.39 N on opposite rays combine to 3 x 0.39 N > N,
        # where the symbol dips below one and the defect survives.
        grid = Grid(2, 16.0, 64)
        cfg = IMethodConfig(4.0, 0.75, 1, 2)
        f = mode_sum(grid, [(1.0, (4, 0)), (1.0, (-4, 0))])
        assert grid.freq_step * 4 > vanishing_constant(1) * cfg.N
        defect, bound = defect_and_bound(f, cfg)
        assert defect > bound

    def test_low_modes_vanish_3d(self):
        grid = Grid(3, 32.0, 48)
        cfg = IMethodConfig(2.0, 0.75, 1, 3)
        f = mode_sum(grid, [(0.8, (1, 0, 0)), (0.5, (0, 0, 1))])
        assert grid.freq_step * 1 < vanishing_constant(1) * cfg.N
        defect, bound = defect_and_bound(f, cfg)
        assert defect <= bound

    def test_opposed_pair_above_cut_fails_3d(self):
        grid = Grid(3, 32.0, 48)
        cfg = IMethodConfig(2.0, 0.75, 1, 3)
        f = mode_sum(grid, [(1.0, (4, 0, 0)), (1.0, (-4, 0, 0))])
        defect, bound = defect_and_bound(f, cfg)
        assert defect > bound

    def test_zero_field_passes(self):
        grid = Grid(2, 16.0, 32)
        cfg = IMethodConfig(1.2, 0.75, 1, 2)
        f = Field.physical(grid, np.zeros(grid.shape))
        assert defect_and_bound(f, cfg) == (0.0, 0.0)


class TestIncrementLedger:
    def _traj(self, grid, amps, dt=0.1):
        f = gaussian(grid, 1.0, 2.0)
        return [(i * dt, Field.physical(grid, a * f.samples)) for i, a in enumerate(amps)]

    def test_total_variation_and_series(self):
        grid = Grid(2, 16.0, 32)
        cfg = IMethodConfig(2.0, 0.75, 1, 2)
        traj = self._traj(grid, [1.0, 0.95, 0.85, 0.8])
        ledger = increment_ledger(traj, cfg)
        values = [modified_energy(f, cfg) for _, f in traj]
        expected = sum(abs(b - a) for a, b in zip(values, values[1:]))
        assert ledger.total_variation == pytest.approx(expected, rel=1e-14)
        assert ledger.series.name == "E_Iu"
        assert tuple(ledger.series.times) == tuple(t for t, _ in traj)
        assert ledger.config is cfg

    def test_csv_header_and_roundtrip(self, tmp_path):
        grid = Grid(2, 16.0, 32)
        cfg = IMethodConfig(2.0, 0.75, 1, 2)
        ledger = increment_ledger(self._traj(grid, [1.0, 0.9, 0.8]), cfg)
        path = tmp_path / "ledger.csv"
        ledger.to_csv(str(path))
        assert path.read_text().splitlines()[0] == "t,E_Iu"
        back = DiagnosticSeries.from_csv(str(path))
        assert np.array_equal(back.values, ledger.series.values)

    def test_zigzag_warns_monotone_does_not(self):
        grid = Grid(2, 16.0, 32)
        cfg = IMethodConfig(2.0, 0.75, 1, 2)
        with pytest.warns(UndersamplingWarning):
            increment_ledger(self._traj(grid, [1.0, 0.8, 1.0, 0.8, 1.0]), cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            increment_ledger(self._traj(grid, [1.0, 0.9, 0.8, 0.7, 0.6]), cfg)

    def test_needs_two_samples(self):
        grid = Grid(2, 16.0, 32)
        cfg = IMethodConfig(2.0, 0.75, 1, 2)
        with pytest.raises(DomainError):
            increment_ledger(self._traj(grid, [1.0]), cfg)

    def test_raw_samples_must_increase(self):
        grid = Grid(2, 16.0, 32)
        cfg = IMethodConfig(2.0, 0.75, 1, 2)
        traj = self._traj(grid, [1.0, 0.9, 0.8])
        with pytest.raises(DomainError):  # a repeated time
            increment_ledger(traj[:2] + traj[1:], cfg)
        with pytest.raises(DomainError):  # raw arrays, not fields
            increment_ledger([(t, f.samples) for t, f in traj], cfg)


class TestScatteringDiagnostic:
    def test_free_flow_has_vanishing_increments(self):
        grid = Grid(2, 16.0, 32)
        u0 = gaussian(grid, 1.0, 2.0)
        traj = [(t, linear_flow(u0, t)) for t in (0.0, 0.2, 0.4, 0.6)]
        series = scattering_diagnostic(traj, 0.75)
        assert series.name == "pullback_increment"
        assert tuple(series.times) == (0.2, 0.4, 0.6)
        assert max(series.values) <= 1e-12

    def test_nonlinear_flow_has_finite_increments(self):
        grid = Grid(2, 16.0, 64)
        u0 = gaussian(grid, 0.8, 1.5)
        traj = evolve(u0, EvolutionParams(2, 1, 0.01, 0.1, sample_every=5))
        series = scattering_diagnostic(traj, 0.75)
        assert len(series.values) == len(traj) - 1
        assert all(v > 0 for v in series.values)
        assert all(math.isfinite(v) for v in series.values)

    def test_needs_two_samples(self):
        grid = Grid(2, 16.0, 32)
        with pytest.raises(DomainError):
            scattering_diagnostic([(0.0, gaussian(grid, 1.0, 2.0))], 0.75)
