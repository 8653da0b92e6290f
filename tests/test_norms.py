"""Norms: closed-form Gaussians and single modes, Holder and
interpolation consistency, mixed space-time norms on synthetic
trajectories, admissibility table."""

import math
import re
import warnings

import numpy as np
import pytest

from nlsbox import (
    DiagnosticSeries,
    DomainError,
    Field,
    Grid,
    MixedNormSpec,
    RadialProfile,
    high_pass,
    lebesgue_norm,
    low_pass,
    make_radial_data,
    mixed_norm,
    morawetz_quantity,
    sobolev_norm,
    strichartz_admissible,
    weighted_radial_sup,
)
from oracles import random_field


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


class TestLebesgue:
    def test_constant_field(self, grid2d_medium):
        c = 2.0 - 1.0j
        f = Field.physical(grid2d_medium, np.full(grid2d_medium.shape, c))
        vol = grid2d_medium.extent**2
        assert lebesgue_norm(f, 2.0) == pytest.approx(abs(c) * math.sqrt(vol), rel=1e-13)
        assert lebesgue_norm(f, 4.0) == pytest.approx(abs(c) * vol**0.25, rel=1e-13)
        assert lebesgue_norm(f, math.inf) == pytest.approx(abs(c), rel=1e-15)

    def test_gaussian_l4_closed_form(self, grid2d_medium):
        A, w = 2.0, 1.0
        f = gaussian(grid2d_medium, A, w)
        expected = A * (math.pi * w**2 / 2.0) ** 0.25
        assert lebesgue_norm(f, 4.0) == pytest.approx(expected, rel=1e-10)

    def test_p_below_one_rejected(self, grid2d_medium):
        with pytest.raises(DomainError):
            lebesgue_norm(gaussian(grid2d_medium), 0.5)

    @pytest.mark.parametrize("p", [True, "2", None, 2 + 0j], ids=["bool", "str", "none", "complex"])
    def test_non_real_exponent_rejected(self, grid2d_medium, p):
        # An exponent is a real number; a bool is not one, though Python adds it as 0 or 1.
        f = gaussian(grid2d_medium)
        with pytest.raises(DomainError, match="p must"):
            lebesgue_norm(f, p)
        with pytest.raises(DomainError, match="q_space must"):
            MixedNormSpec(4.0, p, 0.0, 1.0)
        with pytest.raises(DomainError, match="q must"):
            strichartz_admissible(4.0, p, 2)
        assert lebesgue_norm(f, np.int64(2)) == lebesgue_norm(f, 2.0)

    def test_nan_exponent_rejected(self, grid2d_medium):
        f = gaussian(grid2d_medium)
        with pytest.raises(DomainError):
            lebesgue_norm(f, math.nan)
        assert lebesgue_norm(f, math.inf) == pytest.approx(1.0, rel=1e-15)

    def test_holder_interpolation(self):
        grid = Grid(2, 32.0, 64)
        for i in range(50):
            f = random_field(grid, seed=300 + i)
            l4 = lebesgue_norm(f, 4.0)
            bound = math.sqrt(lebesgue_norm(f, 2.0) * lebesgue_norm(f, math.inf))
            assert l4 <= bound * (1.0 + 1e-12)


class TestSobolev:
    def test_single_mode_value(self):
        grid = Grid(2, 16.0, 16)
        amp = 1.1 - 0.4j
        f = single_mode(grid, amp, (3, -2))
        xi = grid.freq_step * math.sqrt(3**2 + 2**2)
        vol = grid.extent**2
        for s in (0.5, 1.0, -0.5):
            expected = abs(amp) * xi**s * math.sqrt(vol)
            assert sobolev_norm(f, s) == pytest.approx(expected, rel=1e-12)

    def test_gaussian_closed_form_integer_order(self, grid2d_medium):
        # Smooth weight: the lattice sum is spectrally accurate.
        f = gaussian(grid2d_medium, 1.0, 1.0)
        assert sobolev_norm(f, 1.0) == pytest.approx(math.sqrt(math.pi), rel=1e-10)

    def test_gaussian_closed_form_fractional_order(self, grid2d_medium):
        # |xi|^(2s) has a conical kink at the origin, which limits the
        # lattice sum to a few 1e-4 of the continuum value on this grid.
        f = gaussian(grid2d_medium, 1.0, 1.0)
        s = 0.5
        expected = math.sqrt(math.pi * math.gamma(s + 1.0))
        assert sobolev_norm(f, s) == pytest.approx(expected, rel=1e-3)

    def test_zero_order_is_l2(self, grid2d_medium):
        f = random_field(grid2d_medium, seed=1)
        assert sobolev_norm(f, 0.0) == pytest.approx(lebesgue_norm(f, 2.0), rel=1e-12)

    def test_inhomogeneous_dominates_pieces(self, grid2d_medium):
        f = random_field(grid2d_medium, seed=2)
        s = 0.8
        h = sobolev_norm(f, s, homogeneous=False)
        assert h >= sobolev_norm(f, 0.0) * (1.0 - 1e-12)
        assert h >= sobolev_norm(f, s) * (1.0 - 1e-12)
        assert h <= (sobolev_norm(f, 0.0) + sobolev_norm(f, s)) * (1.0 + 1e-12)

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf, True, "0.5"])
    def test_non_finite_order_rejected(self, grid2d_medium, s):
        with pytest.raises(DomainError):
            sobolev_norm(gaussian(grid2d_medium), s)

    def test_interpolation_split_constant_one(self):
        # Sharp-cutoff splits hold with constant exactly 1:
        # low piece by Cauchy-Schwarz, high piece by |xi| > N decay.
        grid = Grid(2, 32.0, 64)
        N = 2.0
        for i in range(20):
            f = random_field(grid, seed=400 + i)
            lo, hi = low_pass(f, N), high_pass(f, N)
            lhs_lo = sobolev_norm(lo, 0.5)
            rhs_lo = math.sqrt(lebesgue_norm(lo, 2.0) * sobolev_norm(f, 1.0))
            assert lhs_lo <= rhs_lo * (1.0 + 1e-12)
            assert sobolev_norm(hi, 0.5) <= sobolev_norm(f, 1.0) / math.sqrt(N) * (1.0 + 1e-12)


class TestMixedNorm:
    def make_constant_traj(self, grid, t_final=1.0, count=5):
        f = gaussian(grid, 2.0, 1.0)
        times = np.linspace(0.0, t_final, count)
        return [(float(t), f) for t in times]

    def test_time_constant_factorises(self, grid2d_medium):
        traj = self.make_constant_traj(grid2d_medium)
        f = traj[0][1]
        spec = MixedNormSpec(4.0, 4.0, 0.0, 1.0)
        expected = lebesgue_norm(f, 4.0) * 1.0 ** (1.0 / 4.0)
        assert mixed_norm(traj, spec) == pytest.approx(expected, rel=1e-12)

    def test_sup_in_time(self, grid2d_medium):
        traj = self.make_constant_traj(grid2d_medium)
        f = traj[0][1]
        spec = MixedNormSpec(math.inf, 8.0, 0.0, 1.0)
        assert mixed_norm(traj, spec) == pytest.approx(lebesgue_norm(f, 8.0), rel=1e-12)

    def test_window_must_be_covered(self, grid2d_medium):
        traj = self.make_constant_traj(grid2d_medium)
        with pytest.raises(DomainError):
            mixed_norm(traj, MixedNormSpec(4.0, 4.0, 0.0, 2.0))

    def test_needs_two_samples(self, grid2d_medium):
        traj = self.make_constant_traj(grid2d_medium, t_final=1.0, count=5)
        with pytest.raises(DomainError):
            mixed_norm(traj, MixedNormSpec(4.0, 4.0, 0.1, 0.2))

    def test_exponent_validation(self):
        with pytest.raises(DomainError):
            MixedNormSpec(0.5, 4.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            MixedNormSpec(4.0, 4.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            MixedNormSpec(math.nan, 4.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            MixedNormSpec(4.0, math.nan, 0.0, 1.0)
        assert MixedNormSpec(math.inf, math.inf, 0.0, 1.0).p_time == math.inf


class TestMorawetz:
    def test_dimension_mismatch(self, grid2d_medium):
        traj = [(0.0, gaussian(grid2d_medium)), (1.0, gaussian(grid2d_medium))]
        with pytest.raises(DomainError):
            morawetz_quantity(traj, 3)

    @pytest.mark.parametrize("count", [0, 1])
    def test_needs_two_samples(self, grid2d_medium, count):
        traj = [(0.0, gaussian(grid2d_medium))][:count]
        with pytest.raises(DomainError, match="two samples"):
            morawetz_quantity(traj, 2)

    def test_3d_reduces_to_l4(self):
        grid = Grid(3, 16.0, 32)
        f = make_radial_data(grid, RadialProfile("gaussian", 1.5, 2.0))
        traj = [(0.0, f), (0.5, f), (1.0, f)]
        expected = math.sqrt(1.0) * lebesgue_norm(f, 4.0) ** 2
        assert morawetz_quantity(traj, 3) == pytest.approx(expected, rel=1e-9)

    def test_2d_single_mode_vanishes(self):
        grid = Grid(2, 16.0, 32)
        f = single_mode(grid, 1.3, (2, 1))
        traj = [(0.0, f), (1.0, f)]
        assert morawetz_quantity(traj, 2) <= 1e-10

    def test_2d_gaussian_closed_form(self, grid2d_medium):
        # |u|^2 of a unit Gaussian has H^{1/2} seminorm sqrt((pi/2)*sqrt(pi/2)).
        # The half-derivative weight has a kink at the origin, so the grid
        # value tracks the continuum one only to about 1e-4 here.
        f = gaussian(grid2d_medium, 1.0, 1.0)
        traj = [(0.0, f), (0.5, f), (1.0, f)]
        expected = math.sqrt((math.pi / 2.0) * math.sqrt(math.pi / 2.0))
        assert morawetz_quantity(traj, 2) == pytest.approx(expected, rel=1e-3)


class TestWeightedRadialSup:
    def test_zero_weight_is_sup(self, grid2d_medium):
        f = gaussian(grid2d_medium, 2.5, 1.0)
        assert weighted_radial_sup(f, 0.0) == pytest.approx(
            lebesgue_norm(f, math.inf), rel=1e-15
        )

    def test_gaussian_closed_form(self):
        grid = Grid(2, 32.0, 256)
        A, sigma = 1.5, 2.0
        f = gaussian(grid, A, sigma)
        expected = A * sigma * math.exp(-0.5)
        assert weighted_radial_sup(f, 1.0) == pytest.approx(expected, rel=1e-3)

    @pytest.mark.parametrize("power", [0.0, 1.0, 2.0])
    def test_radius_restricts_to_the_ball(self, power):
        grid = Grid(3, 16.0, 32)
        f = make_radial_data(
            grid, RadialProfile("random_radial_superposition", 1.0, 2.0, seed=4)
        )
        radius = grid.extent / 4.0
        r = grid.space_radius()
        inside = r <= radius
        u = np.abs(f.as_physical().samples)
        direct = float((r[inside] ** power * u[inside]).max())
        assert weighted_radial_sup(f, power, radius) == direct
        assert weighted_radial_sup(f, power, radius) <= weighted_radial_sup(f, power)

    def test_negative_power_counts_a_zero_at_the_origin_as_zero(self, grid2d_medium):
        # The origin's weight is inf: a zero there once gave inf * 0 = NaN.
        zero = Field.physical(grid2d_medium, np.zeros(grid2d_medium.shape))
        r = grid2d_medium.space_radius()
        ring = Field.physical(grid2d_medium, r**2 * np.exp(-(r**2)))
        away = r > 0
        direct = float((r[away] ** -1.0 * np.abs(ring.samples[away])).max())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert weighted_radial_sup(zero, -1.0) == 0.0
            assert weighted_radial_sup(ring, -1.0) == direct
            assert weighted_radial_sup(gaussian(grid2d_medium), -1.0) == math.inf

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf, True])
    def test_radius_validation(self, grid2d_medium, radius):
        with pytest.raises(DomainError, match="radius"):
            weighted_radial_sup(gaussian(grid2d_medium), 1.0, radius)

    @pytest.mark.parametrize("power", [math.nan, math.inf, True, 10**400, "1", None],
                             ids=["nan", "inf", "True", "10^400", "str", "None"])
    def test_weight_power_validation(self, grid2d_medium, power):
        # NaN once returned nan, True was taken as 1, and 10**400 and "1"
        # raised OverflowError and TypeError from the weight.
        with pytest.raises(DomainError, match="weight_power"):
            weighted_radial_sup(gaussian(grid2d_medium), power)


class TestAdmissibility:
    @pytest.mark.parametrize("p,q,dim,ok", [
        (4.0, 4.0, 2, True),
        (math.inf, 2.0, 2, True),
        (3.0, 6.0, 2, True),
        (2.0, math.inf, 2, False),
        (4.0, 3.0, 2, False),
        (10.0 / 3.0, 10.0 / 3.0, 3, True),
        (2.0, 6.0, 3, True),
        (math.inf, 2.0, 3, True),
        (2.0, 4.0, 3, False),
        (1.5, 6.0, 3, False),
    ])
    def test_table(self, p, q, dim, ok):
        assert strichartz_admissible(p, q, dim) is ok

    def test_validation(self):
        with pytest.raises(DomainError):
            strichartz_admissible(0.5, 4.0, 2)
        for p, q in ((math.nan, 4.0), (4.0, math.nan)):
            with pytest.raises(DomainError):
                strichartz_admissible(p, q, 2)
        with pytest.raises(DomainError):
            strichartz_admissible(4.0, 4.0, 4)

    @pytest.mark.parametrize("dim", [2.0, 3.0, True])
    def test_dim_is_validated_like_grid(self, dim):
        with pytest.raises(DomainError, match="dim"):
            strichartz_admissible(4.0, 4.0, dim)
        assert strichartz_admissible(2.0, 6.0, np.int64(3)) is True  # as Grid(np.int64(3), ...)


class TestDiagnosticSeries:
    def test_csv_roundtrip(self, tmp_path):
        s = DiagnosticSeries("mass", np.array([0.0, 0.5, 1.0]), np.array([1.0, 2.0, 4.0]))
        path = tmp_path / "mass.csv"
        s.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,mass"
        assert lines[1] == "0.0,1.0"
        back = DiagnosticSeries.from_csv(path)
        assert back.name == "mass"
        assert np.array_equal(back.times, s.times)
        assert np.array_equal(back.values, s.values)

    @pytest.mark.parametrize("body", [
        "0.0,1.0,2.0\n",  # three columns
        "0.0\n1.0\n",  # one column
        "0.0,1.0\n1.0\n",  # a one-column row after a two-column one
    ], ids=["three_columns", "one_column", "short_row"])
    def test_rows_of_other_than_two_columns_name_the_file(self, tmp_path, body):
        path = tmp_path / "series.csv"
        path.write_text("t,E\n" + body)
        with pytest.raises(DomainError, match=f"malformed series rows in {re.escape(str(path))}"):
            DiagnosticSeries.from_csv(path)

    def test_empty_series_reads_back_without_a_warning(self, tmp_path):
        path = tmp_path / "empty.csv"
        DiagnosticSeries("E", np.array([]), np.array([])).to_csv(path)
        assert path.read_text() == "t,E\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = DiagnosticSeries.from_csv(path)
        assert back.name == "E" and back.times.shape == back.values.shape == (0,)

    def test_times_must_increase(self):
        with pytest.raises(DomainError):
            DiagnosticSeries("x", np.array([0.0, 0.0, 1.0]), np.zeros(3))

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            DiagnosticSeries("x", np.array([0.0, 1.0]), np.zeros(3))
