"""Multipliers: exact supports and telescoping of the dyadic family,
seam smoothness of the smoothing symbol, sharp-cutoff splits, Bernstein
ratios over a seeded corpus."""

import math
import warnings

import numpy as np
import pytest
import scipy.integrate

from nlsbox import (
    DomainError,
    Field,
    Grid,
    ProjectionBank,
    ResolutionError,
    apply_symbol,
    fractional_derivative,
    high_pass,
    i_operator_symbol,
    low_pass,
    lp_project,
    smooth_cutoff,
    symbol_to_csv,
)
from oracles import random_field


def hs_norm(f: Field, s: float) -> float:
    """Homogeneous Sobolev norm computed directly from the definition."""
    g = f.grid
    spec = f.as_frequency().samples
    r = g.freq_radius()
    w = np.zeros_like(r)
    nz = r > 0
    w[nz] = r[nz] ** (2.0 * s)
    return math.sqrt(float((w * np.abs(spec) ** 2).sum()) * g.freq_cell_volume)


def l2_norm(f: Field) -> float:
    u = f.as_physical()
    return math.sqrt(float((np.abs(u.samples) ** 2).sum()) * f.grid.cell_volume)


class TestSmoothCutoff:
    def test_exact_plateaus(self):
        r = np.array([0.0, 0.5, 1.0, 2.0, 2.5, 10.0])
        vals = smooth_cutoff(r)
        assert np.array_equal(vals[:3], [1.0, 1.0, 1.0])
        assert np.array_equal(vals[3:], [0.0, 0.0, 0.0])

    def test_midpoint_symmetry(self):
        # The bump is even, so the transition crosses exactly 1/2 at r = 1.5.
        assert abs(smooth_cutoff(np.array([1.5]))[0] - 0.5) <= 1e-14

    def test_against_quadrature_oracle(self):
        bump = lambda t: np.exp(-1.0 / (1.0 - t * t))

        def integrate(a, b):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
                val, _ = scipy.integrate.quad(
                    bump, a, b, epsabs=1e-15, epsrel=1e-13, limit=200
                )
            return val

        total = integrate(-1.0, 1.0)
        for r in (1.2, 1.4, 1.7, 1.9):
            expected = 1.0 - integrate(-1.0, 2.0 * r - 3.0) / total
            assert abs(smooth_cutoff(np.array([r]))[0] - expected) <= 1e-12

    def test_monotone(self):
        r = np.linspace(0.0, 3.0, 2000)
        vals = smooth_cutoff(r)
        assert np.all(np.diff(vals) <= 1e-15)

    def test_flat_seams(self):
        # All derivatives vanish at the plateau edges; values barely move.
        assert abs(smooth_cutoff(np.array([1.001]))[0] - 1.0) <= 1e-15
        assert abs(smooth_cutoff(np.array([1.999]))[0]) <= 1e-15


class TestProjectionBank:
    def test_exact_supports(self):
        bank = ProjectionBank(-2, 5)
        r = np.linspace(0.0, 80.0, 4001)
        for j in (0, 2, 4):
            phi = bank.phi(j, r)
            assert np.all(phi[(r < 2.0 ** (j - 1)) | (r > 2.0 ** (j + 1))] == 0.0)
            inside = (r > 2.0 ** (j - 0.5)) & (r < 2.0 ** (j + 0.5))
            assert phi[inside].max() > 0.5

    def test_orthogonality_of_separated_pieces(self):
        bank = ProjectionBank(-2, 6)
        r = np.linspace(0.0, 100.0, 5001)
        assert np.all(bank.phi(1, r) * bank.phi(3, r) == 0.0)
        assert np.all(bank.phi(-1, r) * bank.phi(4, r) == 0.0)
        assert (bank.phi(2, r) * bank.phi(3, r)).max() > 0.0

    def test_telescoping_exact(self):
        bank = ProjectionBank(-3, 6)
        r = np.linspace(0.0, 100.0, 5001)
        total = sum(bank.phi(j, r) for j in range(bank.j_min, bank.j_max + 1))
        expected = smooth_cutoff(np.ldexp(r, -bank.j_max)) - smooth_cutoff(
            np.ldexp(r, -bank.j_min + 1)
        )
        assert np.abs(total - expected).max() <= 1e-13

    def test_completeness_on_lattice(self):
        grid = Grid(2, 32.0, 64)
        bank = ProjectionBank.for_grid(grid)
        f = random_field(grid, seed=17)
        spec = f.as_frequency().samples
        total = np.zeros_like(spec)
        for j in range(bank.j_min, bank.j_max + 1):
            total = total + lp_project(f.as_frequency(), bank, j).samples
        residual = spec - total
        # Only the zero mode escapes the bank.
        assert abs(residual[0, 0] - spec[0, 0]) <= 1e-12 * np.abs(spec).max()
        residual[0, 0] = 0.0
        assert np.abs(residual).max() <= 1e-12 * np.abs(spec).max()

    def test_j_range_enforced(self):
        grid = Grid(2, 32.0, 64)
        bank = ProjectionBank(0, 3)
        f = random_field(grid, seed=2)
        with pytest.raises(DomainError):
            lp_project(f, bank, 4)
        with pytest.raises(DomainError):
            lp_project(f, bank, -1)
        with pytest.raises(DomainError):
            ProjectionBank(3, 0)


class TestSharpCutoffs:
    def test_exact_complement_in_frequency(self):
        grid = Grid(2, 32.0, 64)
        f = random_field(grid, seed=31).as_frequency()
        lo = low_pass(f, 2.0)
        hi = high_pass(f, 2.0)
        assert np.array_equal(lo.samples + hi.samples, f.samples)

    def test_energy_split(self):
        grid = Grid(2, 32.0, 64)
        f = random_field(grid, seed=32)
        lo, hi = low_pass(f, 3.0), high_pass(f, 3.0)
        total = l2_norm(f) ** 2
        assert lo.rep == "physical"
        assert abs(l2_norm(lo) ** 2 + l2_norm(hi) ** 2 - total) <= 1e-12 * total

    def test_cutoff_bounds(self):
        grid = Grid(2, 32.0, 64)
        f = random_field(grid, seed=33)
        for bad in (0.0, -1.0, grid.nyquist, 2.0 * grid.nyquist):
            with pytest.raises(ResolutionError):
                low_pass(f, bad)
            with pytest.raises(ResolutionError):
                high_pass(f, bad)


class TestSmoothingSymbol:
    def test_plateau_and_decay_values(self):
        m = i_operator_symbol(4.0, 0.6)
        r = np.array([0.0, 1.0, 4.0])
        assert np.array_equal(m(r), [1.0, 1.0, 1.0])
        # At r = 4N the decaying branch gives 4^(s-1).
        val = m(np.array([16.0]))[0]
        assert abs(val - 4.0 ** (0.6 - 1.0)) <= 1e-14
        val2 = m(np.array([8.0]))[0]
        assert abs(val2 - 2.0 ** (0.6 - 1.0)) <= 1e-14

    def test_monotone_and_bounded(self):
        m = i_operator_symbol(2.0, 0.85)
        r = np.linspace(0.0, 100.0, 20000)
        vals = m(r)
        assert np.all(np.diff(vals) <= 1e-15)
        assert np.all((vals > 0.0) & (vals <= 1.0))

    @pytest.mark.parametrize("s", [0.6, 0.85])
    def test_c1_seams_in_loglog(self, s):
        N = 3.0
        m = i_operator_symbol(N, s)
        h = 1e-5

        def loglog_slope(r0):
            rr = np.array([r0 * (1.0 - h), r0 * (1.0 + h)])
            y = np.log(m(rr))
            return (y[1] - y[0]) / (math.log(1.0 + h) - math.log(1.0 - h))

        assert abs(loglog_slope(N)) <= 1e-4
        assert abs(loglog_slope(2.0 * N) - (s - 1.0)) <= 1e-4

    def test_validation(self):
        with pytest.raises(DomainError):
            i_operator_symbol(-1.0, 0.5)
        for bad_n in (float("nan"), float("inf")):
            with pytest.raises(DomainError):
                i_operator_symbol(bad_n, 0.5)
        with pytest.raises(DomainError):
            i_operator_symbol(2.0, 1.0)
        with pytest.raises(DomainError):
            i_operator_symbol(2.0, 0.0)

    def test_cutoff_enforced_on_grid(self):
        grid = Grid(2, 32.0, 64)  # Nyquist = 2*pi
        f = random_field(grid, seed=4)
        with pytest.raises(ResolutionError):
            apply_symbol(f, i_operator_symbol(0.5 * grid.nyquist, 0.7))
        out = apply_symbol(f, i_operator_symbol(0.45 * grid.nyquist, 0.7))
        assert out.rep == f.rep

    def test_csv_export(self, tmp_path):
        m = i_operator_symbol(2.0, 0.7)
        path = tmp_path / "symbol.csv"
        symbol_to_csv(m, np.array([0.0, 2.0, 8.0]), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "r,m"
        assert lines[1] == "0.0,1.0"
        r, val = lines[2].split(",")
        assert float(r) == 2.0 and float(val) == 1.0
        assert abs(float(lines[3].split(",")[1]) - 4.0 ** (0.7 - 1.0)) <= 1e-14


class TestFractionalDerivative:
    def test_identity_at_zero_order(self):
        grid = Grid(2, 32.0, 64)
        f = random_field(grid, seed=8)
        assert fractional_derivative(f, 0.0) is f

    def test_single_mode_scaling(self):
        grid = Grid(2, 16.0, 16)
        x = grid.axis_coords()
        xi = grid.freq_step * 3
        samples = np.exp(1j * xi * x[:, None]) * np.ones_like(x[None, :])
        f = Field.physical(grid, samples)
        out = fractional_derivative(f, 0.5)
        assert np.abs(out.samples - xi**0.5 * samples).max() <= 1e-12 * xi**0.5

    def test_zero_mode_annihilated(self):
        grid = Grid(2, 16.0, 16)
        const = Field.physical(grid, np.full(grid.shape, 2.0 + 1.0j))
        out = fractional_derivative(const, -0.5)
        assert np.abs(out.samples).max() <= 1e-14
        inhom = fractional_derivative(const, -0.5, inhomogeneous=True)
        assert np.abs(inhom.samples - const.samples).max() <= 1e-13

    def test_matches_sobolev_norm(self):
        grid = Grid(2, 32.0, 64)
        f = random_field(grid, seed=9)
        s = 0.75
        lhs = l2_norm(fractional_derivative(f, s))
        assert lhs == pytest.approx(hs_norm(f, s), rel=1e-12)


class TestBernstein:
    """Frequency-localisation inequalities checked over a seeded corpus."""

    GRID = Grid(2, 32.0, 128)

    def corpus(self, count=30):
        return [random_field(self.GRID, seed=100 + i, decay=1.0) for i in range(count)]

    @pytest.mark.parametrize("s", [0.5, 1.0, -0.5])
    def test_low_to_high_norm_bound(self, s):
        bank = ProjectionBank.for_grid(self.GRID)
        for f in self.corpus(10):
            denom = hs_norm(f, s)
            for j in (0, 1, 2):
                lhs = l2_norm(lp_project(f, bank, j))
                assert lhs <= 2.0 ** abs(s) * 2.0 ** (-j * s) * denom * (1.0 + 1e-9)

    def test_lebesgue_upgrade_constant_stable(self):
        # || P_j f ||_inf <= C 2^(j d/2) || P_j f ||_2 with C concentrated
        # over the corpus (within 20 percent of the median).
        bank = ProjectionBank.for_grid(self.GRID)
        j = 4
        ratios = []
        for f in self.corpus(100):
            piece = lp_project(f, bank, j).as_physical()
            linf = float(np.abs(piece.samples).max())
            ratios.append(linf / (2.0 ** (j * self.GRID.dim / 2.0) * l2_norm(piece)))
        ratios = np.array(ratios)
        med = float(np.median(ratios))
        assert ratios.max() <= 1.2 * med
        assert ratios.min() >= 0.8 * med
