"""Truncated energies: config validation, exact lattice scaling laws,
commutator against a direct-convolution oracle, the vanishing identity,
increment ledgers, greedy interval partitions, scattering pullbacks."""

import math
import warnings

import numpy as np
import pytest

from nlsbox import (
    AtomicIntervalError,
    DiagnosticSeries,
    DomainError,
    EvolutionParams,
    Field,
    Grid,
    IMethodConfig,
    RadialProfile,
    ResolutionError,
    UndersamplingWarning,
    choose_lambda,
    commutator,
    critical_exponent,
    energy,
    evolve,
    i_operator_symbol,
    increment_ledger,
    interval_partition,
    lebesgue_norm,
    linear_flow,
    make_radial_data,
    mass,
    mixed_norm,
    MixedNormSpec,
    modified_energy,
    rescale,
    scattering_diagnostic,
    sobolev_norm,
    vanishing_constant,
    vanishing_identity_check,
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

    def test_rejects_general_factors(self):
        grid = Grid(2, 16.0, 16)
        f = random_field(grid, seed=1)
        with pytest.raises(DomainError):
            rescale(f, 0.3, 1)
        with pytest.raises(DomainError):
            rescale(f, -2.0, 1)
        with pytest.raises(DomainError):
            rescale(f, 0.5, 0)


class TestChooseLambda:
    def test_finds_minimal_halving(self):
        grid = Grid(2, 16.0, 64)
        f = gaussian(grid, 0.65, 1.5)
        cfg = IMethodConfig(2.0, 0.75, 2, 2)
        choice = choose_lambda(f, cfg)
        assert choice.lam <= 1.0
        mantissa, _ = math.frexp(choice.lam)
        assert mantissa == 0.5
        assert choice.energy_value <= 0.5
        assert choice.energy_value == pytest.approx(
            modified_energy(choice.rescaled, cfg), rel=1e-14
        )
        if choice.lam < 1.0:
            undone = rescale(f, 2.0 * choice.lam, cfg.k)
            assert modified_energy(undone, cfg) > 0.5
        assert 0.0 < choice.predicted_lam < 1.0

    def test_resolution_runs_out(self):
        # A big datum needs many halvings, but each one enlarges the box
        # and squeezes the Nyquist frequency onto the smoothing cutoff.
        grid = Grid(2, 16.0, 64)
        f = gaussian(grid, 3.0, 1.5)
        cfg = IMethodConfig(2.0, 0.75, 2, 2)
        with pytest.raises(ResolutionError):
            choose_lambda(f, cfg)

    def test_threshold_validation(self):
        grid = Grid(2, 16.0, 64)
        f = gaussian(grid, 0.65, 1.5)
        cfg = IMethodConfig(2.0, 0.75, 2, 2)
        for bad in (True, 0.0, -0.5, float("nan"), float("inf"), 10**400):
            with pytest.raises(DomainError):
                choose_lambda(f, cfg, threshold=bad)


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
        with pytest.warns(UndersamplingWarning):
            commutator(f, cfg)


class TestVanishingIdentity:
    def test_low_modes_vanish_2d(self):
        # All content below c(1) N = N/8 keeps every product below N,
        # where the symbol is one and the defect cancels identically.
        grid = Grid(2, 16.0, 64)
        cfg = IMethodConfig(4.0, 0.75, 1, 2)
        cut = vanishing_constant(1) * cfg.N
        f = mode_sum(grid, [(0.7, (1, 0)), (0.45, (0, 1))])
        assert grid.freq_step * 1 < cut
        assert vanishing_identity_check(f, cfg)

    def test_opposed_pair_above_cut_fails_2d(self):
        # Modes at 0.39 N on opposite rays combine to 3 x 0.39 N > N,
        # where the symbol dips below one and the defect survives.
        grid = Grid(2, 16.0, 64)
        cfg = IMethodConfig(4.0, 0.75, 1, 2)
        f = mode_sum(grid, [(1.0, (4, 0)), (1.0, (-4, 0))])
        assert grid.freq_step * 4 > vanishing_constant(1) * cfg.N
        assert not vanishing_identity_check(f, cfg)

    def test_low_modes_vanish_3d(self):
        grid = Grid(3, 32.0, 48)
        cfg = IMethodConfig(2.0, 0.75, 1, 3)
        f = mode_sum(grid, [(0.8, (1, 0, 0)), (0.5, (0, 0, 1))])
        assert grid.freq_step * 1 < vanishing_constant(1) * cfg.N
        assert vanishing_identity_check(f, cfg)

    def test_opposed_pair_above_cut_fails_3d(self):
        grid = Grid(3, 32.0, 48)
        cfg = IMethodConfig(2.0, 0.75, 1, 3)
        f = mode_sum(grid, [(1.0, (4, 0, 0)), (1.0, (-4, 0, 0))])
        assert not vanishing_identity_check(f, cfg)

    def test_zero_field_passes(self):
        grid = Grid(2, 16.0, 32)
        cfg = IMethodConfig(1.2, 0.75, 1, 2)
        f = Field.physical(grid, np.zeros(grid.shape))
        assert vanishing_identity_check(f, cfg)


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


class TestIntervalPartition:
    def _constant_traj(self, grid, n=11, dt=0.1):
        f = gaussian(grid, 1.0, max(2.0, 4.0 * grid.dx))
        return [(i * dt, f) for i in range(n)]

    def test_greedy_cover_2d(self):
        grid = Grid(2, 16.0, 32)
        traj = self._constant_traj(grid)
        f = traj[0][1]
        x = lebesgue_norm(f, 8.0)
        eta = x * 0.35**0.25
        got = interval_partition(traj, eta)
        assert got[0][0] == 0.0
        assert got[-1][1] == traj[-1][0]
        for (a, b), (c, _) in zip(got, got[1:]):
            assert b == c
        for a, b in got:
            inside = [(t, u) for t, u in traj if a <= t <= b]
            norm = mixed_norm(inside, MixedNormSpec(4.0, 8.0, a, b))
            assert norm <= eta * (1.0 + 1e-12)
        assert len(got) == 4

    def test_greedy_cover_3d_uses_spacetime_l4(self):
        grid = Grid(3, 16.0, 16)
        traj = self._constant_traj(grid, n=6)
        x = lebesgue_norm(traj[0][1], 4.0)
        eta = x * 0.25**0.25
        got = interval_partition(traj, eta)
        assert got[0][0] == 0.0
        assert got[-1][1] == traj[-1][0]

    def test_atomic_interval(self):
        grid = Grid(2, 16.0, 32)
        traj = self._constant_traj(grid)
        x = lebesgue_norm(traj[0][1], 8.0)
        with pytest.raises(AtomicIntervalError):
            interval_partition(traj, x * 0.05**0.25)

    def test_validation(self):
        grid = Grid(2, 16.0, 32)
        traj = self._constant_traj(grid)
        with pytest.raises(DomainError):
            interval_partition(traj, 0.0)
        with pytest.raises(DomainError):
            interval_partition(traj[:1], 1.0)

    def test_raw_samples_must_increase(self):
        grid = Grid(2, 16.0, 32)
        traj = self._constant_traj(grid)
        with pytest.raises(DomainError):
            interval_partition(traj[:2] + traj[1:], 1.0)
        with pytest.raises(DomainError):
            interval_partition([(t, f.samples) for t, f in traj], 1.0)


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
