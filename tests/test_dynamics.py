"""Time stepping: exact single-mode and constant solutions, an ODE-solver
oracle for the full semi-discrete system, splitting order checks, exact
mass conservation, reversal symmetry, health guards, checkpoint IO."""

import math
import re
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from nlsbox import (
    DomainError,
    EvolutionParams,
    Field,
    Grid,
    IMethodConfig,
    InstabilityError,
    MixedNormSpec,
    RadialProfile,
    Trajectory,
    UndersamplingWarning,
    dealiased_modulus_power,
    energy,
    evolve,
    forward_transform,
    increment_ledger,
    inverse_transform,
    linear_flow,
    make_radial_data,
    mass,
    mixed_norm,
    nonlinear_phase,
    read_checkpoint,
    strang_step,
    write_checkpoint,
)
from nlsbox import dynamics, spectral
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


class TestParams:
    def test_rejects_bad_fields(self):
        with pytest.raises(DomainError):
            EvolutionParams(4, 1, 0.01, 0.1)
        with pytest.raises(DomainError):
            EvolutionParams(2, 0, 0.01, 0.1)
        with pytest.raises(DomainError):
            EvolutionParams(3, 2, 0.01, 0.1)
        with pytest.raises(DomainError):
            EvolutionParams(2, 1, -0.01, 0.1)
        with pytest.raises(DomainError):
            EvolutionParams(2, 1, 0.01, 0.0)
        with pytest.raises(DomainError):
            EvolutionParams(2, 1, 0.01, 0.1, sample_every=0)

    @pytest.mark.parametrize("dealias", [None, "false", 0, 1, np.bool_(True)])
    def test_dealias_must_be_a_bool(self, dealias):
        with pytest.raises(DomainError, match="dealias"):
            EvolutionParams(2, 1, 0.01, 0.1, dealias=dealias)
        assert EvolutionParams(2, 1, 0.01, 0.1, dealias=False).dealias is False

    @pytest.mark.parametrize("dim", [3.0, 2.0, True])
    def test_dim_must_be_an_int(self, dim):
        with pytest.raises(DomainError, match="dim"):
            EvolutionParams(dim, 1, 0.01, 0.1)
        # numpy's integers are integers, stored as plain ints
        assert type(EvolutionParams(np.int64(2), 1, 0.01, 0.1).dim) is int

    def test_horizon_must_be_whole_steps(self):
        with pytest.raises(DomainError):
            EvolutionParams(2, 1, 0.01, 0.095)
        assert EvolutionParams(2, 1, 0.01, 0.1).step_count() == 10

    @pytest.mark.parametrize("dt", [1e-12, 1e-300])
    def test_step_count_is_bounded(self, dt):
        with pytest.raises(DomainError, match="more than 1e\\+08"):
            EvolutionParams(2, 1, dt, 1.0)
        assert EvolutionParams(2, 1, 1e-8, 1.0).step_count() == 10**8

    @pytest.mark.parametrize("dt,t_final", [(1e-320, 1.0), (5e-324, 1e300)])
    def test_overflowing_step_count_is_a_domain_error(self, dt, t_final):
        # t_final / dt is inf, which round() refused with OverflowError.
        with pytest.raises(DomainError, match="whole number of steps"):
            EvolutionParams(2, 1, dt, t_final)


class TestLinearFlow:
    def test_single_mode_picks_up_quadratic_phase(self):
        grid = Grid(2, 16.0, 32)
        mode, amp, t = (3, -2), 1.3 - 0.4j, 0.37
        f = single_mode(grid, amp, mode)
        xi_sq = sum((grid.freq_step * m) ** 2 for m in mode)
        expected = f.samples * np.exp(-1j * t * xi_sq)
        out = linear_flow(f, t)
        assert out.rep == "physical"
        assert np.max(np.abs(out.samples - expected)) <= 1e-12 * abs(amp)

    def test_gaussian_closed_form(self):
        # Free evolution keeps a Gaussian Gaussian with complex variance
        # w^2 -> w^2 + 2it.
        grid = Grid(2, 32.0, 128)
        w, t = 1.5, 0.5
        f = gaussian(grid, 1.0, w)
        denom = w**2 + 2j * t
        r_sq = grid.space_radius() ** 2
        expected = (w**2 / denom) * np.exp(-r_sq / (2.0 * denom))
        out = linear_flow(f, t)
        assert np.max(np.abs(out.samples - expected)) <= 1e-10

    def test_zero_time_is_identity_in_frequency(self):
        grid = Grid(2, 16.0, 32)
        f = random_field(grid, seed=5).as_frequency()
        out = linear_flow(f, 0.0)
        assert out.rep == "frequency"
        assert np.array_equal(out.samples, f.samples)

    def test_rejects_non_finite_time(self):
        grid = Grid(2, 16.0, 16)
        f = random_field(grid, seed=1)
        with pytest.raises(DomainError):
            linear_flow(f, math.inf)


class TestNonlinearPhase:
    @pytest.mark.parametrize("dealias", [False, True])
    def test_modulus_is_preserved(self, dealias):
        grid = Grid(2, 16.0, 32)
        f = random_field(grid, seed=9)
        out = nonlinear_phase(f, 0.3, 2, dealias=dealias)
        before = np.abs(f.samples)
        after = np.abs(out.samples)
        assert np.max(np.abs(after - before)) <= 1e-14 * np.max(before)

    def test_constant_field_exact_solution(self):
        # A constant c solves the full equation as c*exp(-i|c|^(2k) t),
        # and both sub-flows are exact on constants.
        grid = Grid(2, 16.0, 16)
        c, k, dt, steps = 0.8 + 0.3j, 2, 0.05, 10
        f = Field.physical(grid, np.full(grid.shape, c))
        params = EvolutionParams(2, k, dt, steps * dt)
        traj = evolve(f, params)
        expected = c * np.exp(-1j * abs(c) ** (2 * k) * steps * dt)
        assert np.max(np.abs(traj.final.samples - expected)) <= 1e-13

    def test_single_mode_exact_solution(self):
        # Plane waves have constant modulus, so the splitting reproduces
        # u(t) = A exp(i(xi.x - (|xi|^2 + |A|^(2k)) t)) with no error.
        grid = Grid(2, 16.0, 32)
        mode, amp, k = (2, 1), 0.7 + 0.2j, 1
        dt, steps = 0.01, 20
        f = single_mode(grid, amp, mode)
        traj = evolve(f, EvolutionParams(2, k, dt, steps * dt))
        xi_sq = sum((grid.freq_step * m) ** 2 for m in mode)
        omega = xi_sq + abs(amp) ** (2 * k)
        expected = f.samples * np.exp(-1j * omega * steps * dt)
        assert np.max(np.abs(traj.final.samples - expected)) <= 1e-12


def _ode_reference(f, k, t_final):
    """Integrate the semi-discrete system with a high-order ODE solver.

    The right-hand side uses plain FFT differentiation and the pointwise
    product, which matches the splitting scheme with dealias off.
    """
    grid = f.grid
    axis = 2.0 * math.pi * np.fft.fftfreq(grid.points, d=grid.dx)
    mesh = np.meshgrid(*([axis] * grid.dim), indexing="ij", sparse=True)
    ksq = sum(a**2 for a in mesh)
    shape = grid.shape
    m = f.samples.size

    def rhs(_, y):
        u = (y[:m] + 1j * y[m:]).reshape(shape)
        lap = np.fft.ifftn(-ksq * np.fft.fftn(u))
        dudt = 1j * (lap - np.abs(u) ** (2 * k) * u)
        return np.concatenate([dudt.real.ravel(), dudt.imag.ravel()])

    y0 = np.concatenate([f.samples.real.ravel(), f.samples.imag.ravel()])
    sol = solve_ivp(
        rhs, (0.0, t_final), y0, method="DOP853", rtol=1e-12, atol=1e-14
    )
    assert sol.success
    y = sol.y[:, -1]
    return (y[:m] + 1j * y[m:]).reshape(shape)


class TestStrangAccuracy:
    def test_matches_ode_solver_at_second_order(self):
        grid = Grid(2, 16.0, 16)
        f = random_field(grid, seed=3, band=3)
        scale = np.max(np.abs(f.samples))
        f = Field.physical(grid, f.samples / scale)
        t_final = 0.1
        ref = _ode_reference(f, 1, t_final)

        def err(dt):
            params = EvolutionParams(2, 1, dt, t_final, dealias=False)
            return np.max(np.abs(evolve(f, params).final.samples - ref))

        coarse, fine = err(2e-3), err(1e-3)
        assert fine <= 1e-5
        assert 3.3 <= coarse / fine <= 4.7

    def test_local_defect_is_third_order(self):
        # One step against two half steps: the leading defect scales as
        # dt^3, so halving dt shrinks the gap by about eight.
        grid = Grid(2, 16.0, 32)
        f = random_field(grid, seed=11, band=6)
        f = Field.physical(grid, f.samples / np.max(np.abs(f.samples)))

        def defect(dt):
            one = strang_step(f, EvolutionParams(2, 1, dt, dt))
            half = EvolutionParams(2, 1, dt / 2, dt)
            two = strang_step(strang_step(f, half), half)
            return np.max(np.abs(one.samples - two.samples))

        assert 6.0 <= defect(0.04) / defect(0.02) <= 10.0

    def test_energy_drift_quarters_when_dt_halves(self):
        grid = Grid(2, 16.0, 64)
        f = gaussian(grid, 1.2, 1.5)

        def drift(dt):
            traj = evolve(f, EvolutionParams(2, 1, dt, 0.5))
            e0 = energy(traj.fields[0], 1)
            return max(abs(energy(u, 1) - e0) for _, u in traj) / abs(e0)

        assert 3.0 <= drift(0.02) / drift(0.01) <= 5.0


class TestRepresentation:
    @pytest.mark.parametrize("dealias", [False, True])
    def test_steps_return_the_input_rep(self, dealias):
        grid = Grid(2, 16.0, 16)
        f = random_field(grid, seed=12)
        params = EvolutionParams(2, 1, 0.01, 0.01, dealias=dealias)
        for g in (f, f.as_frequency()):
            assert strang_step(g, params).rep == g.rep
            assert nonlinear_phase(g, 0.01, 1, dealias=dealias).rep == g.rep

    @pytest.mark.parametrize("dealias", [False, True])
    @pytest.mark.parametrize("grid", [Grid(2, 16.0, 32), Grid(3, 8.0, 16)], ids=["2d", "3d"])
    def test_frequency_and_physical_steps_agree(self, grid, dealias):
        f = random_field(grid, seed=13, band=grid.points // 4)
        params = EvolutionParams(grid.dim, 1, 0.02, 0.02, dealias=dealias)
        from_phys = strang_step(f, params).samples
        from_freq = strang_step(f.as_frequency(), params).as_physical().samples
        assert np.max(np.abs(from_freq - from_phys)) <= 1e-13 * np.max(np.abs(from_phys))
        phase_phys = nonlinear_phase(f, 0.3, 1, dealias=dealias).samples
        phase_freq = nonlinear_phase(f.as_frequency(), 0.3, 1, dealias=dealias)
        diff = np.abs(phase_freq.as_physical().samples - phase_phys)
        assert np.max(diff) <= 1e-13 * np.max(np.abs(phase_phys))

    def test_evolve_samples_are_physical(self):
        grid = Grid(2, 16.0, 32)
        f = gaussian(grid, 0.8, 2.0)
        for start in (f, f.as_frequency()):
            traj = evolve(start, EvolutionParams(2, 1, 0.01, 0.07, sample_every=3))
            assert all(u.rep == "physical" for _, u in traj)


# Frequency inputs on the transform paths: an even field on dense DCT-I
# matrices (32^2, padded 48^2), an even field on scipy's DCT (128^2, padded
# 192^2), an even field whose coarse legs are dense and whose padded legs run
# on scipy (72^2, blocks 37 and 55) and a non-even field on the full-grid FFTs.
STEP_PATHS = pytest.mark.parametrize("grid,even", [
    (Grid(2, 16.0, 32), True), (Grid(2, 16.0, 128), True), (Grid(2, 16.0, 72), True),
    (Grid(2, 16.0, 32), False),
], ids=["even_dense_32^2", "even_over_cap_128^2", "even_mixed_72^2", "non_even_32^2"])


def _step_input(grid, even):
    f = gaussian(grid, 1.2, 2.0) if even else random_field(grid, seed=21, band=grid.points // 8)
    spec = f.as_frequency()
    assert isinstance(spec._half, np.ndarray) == even
    return spec


class TestStepComposition:
    """The public composition of a step, L(dt/2) N(dt) L(dt/2) through
    ``linear_flow``, ``nonlinear_phase`` and ``dealiased_modulus_power``: the
    benchmark's traced expected calls rely on it."""

    @STEP_PATHS
    @pytest.mark.parametrize("dealias", [True, False], ids=["dealias", "plain"])
    def test_step_calls_the_public_sub_flows(self, monkeypatch, grid, even, dealias):
        calls = []
        for name in ("linear_flow", "nonlinear_phase", "dealiased_modulus_power"):
            def counted(*args, _name=name, _fn=getattr(dynamics, name), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(dynamics, name, counted)
        spec = _step_input(grid, even)
        step = ["linear_flow", "nonlinear_phase"]
        step += ["dealiased_modulus_power"] * dealias + ["linear_flow"]
        strang_step(spec, EvolutionParams(2, 1, 0.01, 0.01, dealias=dealias))
        assert calls == step
        calls.clear()
        evolve(spec, EvolutionParams(2, 1, 0.01, 0.03, dealias=dealias))
        assert calls == step * 3

    @STEP_PATHS
    @pytest.mark.parametrize("dealias", [True, False], ids=["dealias", "plain"])
    def test_frequency_step_builds_one_field_per_sub_flow(self, monkeypatch, grid, even, dealias):
        # Two free flows, the rotation and the modulus power: the rotation
        # turns the spectrum physical and back as arrays, not as fields.
        held = []

        def counted(field, *args, _fn=Field._hold):
            held.append(args[1])
            _fn(field, *args)

        spec = _step_input(grid, even)
        monkeypatch.setattr(Field, "_hold", counted)
        strang_step(spec, EvolutionParams(2, 1, 0.01, 0.01, dealias=dealias))
        assert held == ["frequency"] + ["physical"] * dealias + ["frequency"] * 2

    @STEP_PATHS
    @pytest.mark.parametrize("dealias", [True, False], ids=["dealias", "plain"])
    def test_frequency_rotation_is_the_explicit_composition(self, grid, even, dealias):
        # Inverse transform, pointwise rotation and forward transform, each
        # through its field, give the same bits as the rotation on arrays.
        spec, dt, k = _step_input(grid, even), 0.01, 1
        u = inverse_transform(spec)
        if dealias:
            rotate, operands = (lambda a, w: a * np.exp(-1j * dt * w.real),
                                (u, dealiased_modulus_power(spec, 2 * k)))
        else:
            rotate, operands = lambda a: a * np.exp(-1j * dt * (a.real**2 + a.imag**2) ** k), (u,)
        want = forward_transform(spectral._pointwise(rotate, "physical", *operands))
        got = nonlinear_phase(spec, dt, k, dealias=dealias)
        assert got.rep == "frequency" and isinstance(got._half, np.ndarray) == even
        assert got.samples.tobytes() == want.samples.tobytes()


# The step paths of STEP_PATHS and an even 16^3 field on dense DCT-I matrices.
EVOLVE_PATHS = pytest.mark.parametrize(
    "grid,even", STEP_PATHS.args[1] + [(Grid(3, 8.0, 16), True)],
    ids=STEP_PATHS.kwargs["ids"] + ["even_dense_16^3"])


class TestArraySteps:
    """``evolve`` steps on plain arrays between samples and takes the step
    that lands on each sample instant through ``strang_step``."""

    # A width-2 Gaussian does not fit the 16^3 box; only the bits matter here.
    @pytest.mark.filterwarnings("ignore::nlsbox.errors.UndersamplingWarning")
    @EVOLVE_PATHS
    @pytest.mark.parametrize("dealias", [True, False], ids=["dealias", "plain"])
    def test_samples_equal_a_strang_step_loop_bit_for_bit(self, grid, even, dealias):
        # Seven steps sampled every third: the last interval is partial.
        spec = _step_input(grid, even)
        params = EvolutionParams(grid.dim, 1, 0.01, 0.07, sample_every=3, dealias=dealias)
        want, u = [(0.0, spec.as_physical())], spec
        for i in range(1, 8):
            u = strang_step(u, params)
            if i % 3 == 0 or i == 7:
                want.append((i * 0.01, u.as_physical()))
        traj = evolve(spec, params)
        assert traj.times == tuple(t for t, _ in want)
        for (_, got), (_, ref) in zip(traj, want):
            assert isinstance(got._half, np.ndarray) == even
            assert got.samples.tobytes() == ref.samples.tobytes()

    @STEP_PATHS
    @pytest.mark.parametrize("dealias", [True, False], ids=["dealias", "plain"])
    def test_only_sample_steps_build_fields(self, monkeypatch, grid, even, dealias):
        # Ten steps sampled every fifth: steps 5 and 10 call the public
        # sub-flows, which the benchmark's traced expected calls rely on,
        # and no field is held in the four array steps before each.
        calls, events = [], []
        for name in ("linear_flow", "nonlinear_phase", "dealiased_modulus_power"):
            def counted(*args, _name=name, _fn=getattr(dynamics, name), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(dynamics, name, counted)

        def held(field, *args, _fn=Field._hold, **kwargs):
            events.append("H")
            _fn(field, *args, **kwargs)

        def kernel(*args, _fn=dynamics._strang_arrays):
            events.append("(")
            out = _fn(*args)
            events.append(")")
            return out

        monkeypatch.setattr(Field, "_hold", held)
        monkeypatch.setattr(dynamics, "_strang_arrays", kernel)
        spec = _step_input(grid, even)
        step = ["linear_flow", "nonlinear_phase"]
        step += ["dealiased_modulus_power"] * dealias + ["linear_flow"]
        evolve(spec, EvolutionParams(2, 1, 0.01, 0.1, sample_every=5, dealias=dealias))
        assert calls == step * 2
        assert re.fullmatch(r"H*(\(\)){4}H+(\(\)){4}H+", "".join(events))


class TestLatticeSymmetry:
    # A resolved Gaussian on 16^3 does not fit its box; the marginal
    # resolution is beside the point here.
    @pytest.mark.filterwarnings("ignore::nlsbox.errors.UndersamplingWarning")
    @pytest.mark.parametrize("dim,extent,points,width,k,block", [
        (2, 32.0, 64, 2.0, 2, True),
        (3, 10.0, 16, 3.2, 1, True),
        (2, 32.0, 128, 2.0, 1, True),
        (2, 16.0, 32, 2.0, 1, False),
    ], ids=["64^2_sector", "16^3_sector", "128^2_sector", "32^2_fft"])
    def test_dealiased_evolve_keeps_radial_data_symmetric(
            self, monkeypatch, dim, extent, points, width, k, block):
        # Radial data are even in every axis and invariant under axis swaps;
        # the dealiased flow must keep both to rounding, on the even-sector
        # path (16^3 with dense DCT matrices, 128^2 with scipy's DCT, 64^2
        # with dense coarse and scipy's padded blocks) and on the full-grid
        # path, taken here by never recognising the samples as even (32^2).
        grid = Grid(dim, extent, points)
        datum = gaussian(grid, 1.5, width)
        if not block:
            monkeypatch.setattr(spectral, "_sector", lambda a: None)
            datum = Field.physical(grid, datum.samples)
        params = EvolutionParams(dim, k, 1e-3, 0.02, sample_every=20)
        final = evolve(datum, params).final
        assert isinstance(final._half, np.ndarray) == block
        s = final.samples
        images = [np.roll(np.flip(s, axis), 1, axis) for axis in range(dim)]
        images.append(np.swapaxes(s, 0, 1))
        defect = max(np.abs(s - image).max() for image in images)
        assert defect <= 1e-12 * np.abs(s).max()

    def test_block_held_steps_never_unfold_or_retest(self, monkeypatch):
        grid = Grid(2, 16.0, 64)
        spec = gaussian(grid, 1.2, 1.5).as_frequency()
        calls = []
        for name in ("_unfold", "_sector"):
            def counted(*args, _name=name, _fn=getattr(spectral, name)):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(spectral, name, counted)
        params = EvolutionParams(2, 2, 0.01, 0.02)
        strang_step(spec, params)
        strang_step(spec.as_physical(), params)
        traj = evolve(spec, params)
        assert calls == []
        energy(traj.final, 2)
        mass(traj.final)
        assert calls == []

    def test_sector_run_repeats_bitwise(self):
        grid = Grid(2, 32.0, 64)
        params = EvolutionParams(2, 2, 1e-3, 0.01, sample_every=5)
        runs = [evolve(gaussian(grid, 1.5, 2.0), params) for _ in range(2)]
        for (_, a), (_, b) in zip(*runs):
            assert a.samples.tobytes() == b.samples.tobytes()


class TestConservation:
    def test_mass_is_conserved_to_rounding(self):
        grid = Grid(2, 16.0, 64)
        f = make_radial_data(grid, RadialProfile("random_radial_superposition", 0.8, 1.5, seed=4))
        traj = evolve(f, EvolutionParams(2, 2, 0.02, 0.5))
        m0 = mass(traj.fields[0])
        worst = max(abs(mass(u) - m0) for _, u in traj)
        assert worst <= 1e-13 * m0

    def test_energy_drift_is_small_but_present(self):
        grid = Grid(2, 16.0, 64)
        f = gaussian(grid, 1.2, 1.5)
        traj = evolve(f, EvolutionParams(2, 1, 0.01, 0.3))
        e0 = energy(traj.fields[0], 1)
        worst = max(abs(energy(u, 1) - e0) for _, u in traj)
        assert worst <= 1e-4 * abs(e0)


class TestFunctionals:
    def test_single_mode_closed_forms(self):
        grid = Grid(2, 16.0, 32)
        mode, amp, k = (3, 1), 1.4, 2
        f = single_mode(grid, amp, mode)
        vol = grid.extent**2
        xi_sq = sum((grid.freq_step * m) ** 2 for m in mode)
        assert mass(f) == pytest.approx(amp**2 * vol, rel=1e-12)
        expected = 0.5 * amp**2 * xi_sq * vol + amp ** (2 * k + 2) * vol / (2 * k + 2)
        assert energy(f, k) == pytest.approx(expected, rel=1e-12)

    def test_gaussian_mass(self):
        grid = Grid(2, 32.0, 128)
        A, w = 1.5, 1.5
        f = gaussian(grid, A, w)
        assert mass(f) == pytest.approx(A**2 * math.pi * w**2, rel=1e-12)


class TestReversal:
    def test_conjugation_reverses_plain_stepping(self):
        # With the pointwise product both sub-flows commute exactly with
        # the symmetry u -> conj(u), t -> -t, so running the conjugate of
        # the final state forward recovers the conjugate initial state.
        grid = Grid(2, 16.0, 64)
        f = gaussian(grid, 1.0, 1.5)
        params = EvolutionParams(2, 1, 0.01, 0.2, dealias=False)
        forward = evolve(f, params)
        back = evolve(Field.physical(grid, np.conj(forward.final.samples)), params)
        recovered = np.conj(back.final.samples)
        assert np.max(np.abs(recovered - f.samples)) <= 1e-11

    def test_conjugation_reverses_dealiased_stepping(self):
        # The padded modulus power breaks the symmetry only through the
        # asymmetric Nyquist row, which decayed data barely touches.
        grid = Grid(2, 16.0, 64)
        f = gaussian(grid, 1.0, 1.5)
        params = EvolutionParams(2, 1, 0.01, 0.2, dealias=True)
        forward = evolve(f, params)
        back = evolve(Field.physical(grid, np.conj(forward.final.samples)), params)
        recovered = np.conj(back.final.samples)
        assert np.max(np.abs(recovered - f.samples)) <= 1e-6


class TestGuards:
    def test_overflowing_amplitude_raises_instability(self):
        grid = Grid(2, 16.0, 16)
        f = Field.physical(grid, np.full(grid.shape, 1e200 + 0j))
        with pytest.raises(InstabilityError):
            strang_step(f, EvolutionParams(2, 2, 0.01, 0.01))
        with pytest.raises(InstabilityError):
            evolve(f, EvolutionParams(2, 2, 0.01, 0.02))

    # A constant field is even, so it runs on the [0, n/2]^d block: 16^2,
    # 32^2 and 16^3 with dense DCT matrices, 128^2 with scipy's DCT, 64^2
    # with dense coarse and scipy's padded blocks; one changed sample makes
    # it non-even, on the full-grid FFTs.  Each with and without dealiasing.
    @pytest.mark.parametrize("dim,points,k,even,dealias", [
        (2, 16, 2, True, True), (2, 32, 1, True, True), (2, 64, 2, True, True),
        (3, 16, 1, True, True), (2, 128, 1, True, True),
        (2, 16, 2, True, False), (3, 16, 1, True, False), (2, 128, 1, True, False),
        (2, 32, 1, False, True), (2, 32, 1, False, False),
    ], ids=["16", "32", "64", "16^3", "128", "16_plain", "16^3_plain", "128_plain",
            "32_non_even", "32_non_even_plain"])
    def test_instability_names_the_first_step_between_samples(self, dim, points, k, even,
                                                              dealias):
        grid = Grid(dim, 16.0, points)
        samples = np.full(grid.shape, 1e200 + 0j)
        if not even:
            samples[(0,) * (dim - 1) + (1,)] = 5e199
        f = Field.physical(grid, samples)
        assert isinstance(f._half, np.ndarray) == even
        text = r"^step produced a non-finite field \(field samples must be finite\) near t=0\.01$"
        with pytest.raises(InstabilityError, match=text):
            evolve(f, EvolutionParams(dim, k, 0.01, 0.1, sample_every=5, dealias=dealias))

    # Ten steps sampled every fifth: the array steps 1-4 and 6-9 each check
    # their result, and step 5 goes through strang_step, so the seventh
    # check is step 8's.
    @pytest.mark.parametrize("call,step", [(3, 3), (7, 8)],
                             ids=["first_interval", "second_interval"])
    def test_later_failing_step_reports_its_own_time(self, monkeypatch, call, step):
        checks = []

        def failing(a, _fn=dynamics._require_finite):
            checks.append(None)
            if len(checks) == call:
                raise DomainError("field samples must be finite")
            _fn(a)

        monkeypatch.setattr(dynamics, "_require_finite", failing)
        text = (r"^step produced a non-finite field \(field samples must be finite\) "
                rf"near t={re.escape(repr(step * 0.01))}$")
        with pytest.raises(InstabilityError, match=text):
            evolve(gaussian(Grid(2, 16.0, 32), 1.2, 2.0),
                   EvolutionParams(2, 1, 0.01, 0.1, sample_every=5))
        assert len(checks) == call

    def test_numpy_error_state_is_restored(self):
        # Numpy is kept quiet for a whole sample interval of steps, and only there.
        params = EvolutionParams(2, 1, 0.01, 0.1, sample_every=5)
        blowing = Field.physical(Grid(2, 16.0, 16), np.full((16, 16), 1e200 + 0j))
        with np.errstate(over="warn", invalid="warn"):
            before = np.geterr()
            evolve(gaussian(Grid(2, 16.0, 32), 1.2, 2.0), params)
            assert np.geterr() == before
            with pytest.raises(InstabilityError):
                evolve(blowing, params)
            assert np.geterr() == before

    @pytest.mark.parametrize("initial", [np.ones((16, 16)), None], ids=["array", "None"])
    def test_initial_data_must_be_a_field(self, initial):
        text = f"^initial data must be a Field, got {type(initial).__name__}$"
        with pytest.raises(DomainError, match=text):
            evolve(initial, EvolutionParams(2, 1, 0.01, 0.02))

    def test_marginally_resolved_data_warns_once(self):
        grid = Grid(2, 16.0, 32)
        f = single_mode(grid, 1.0, (11, 0))
        with pytest.warns(UndersamplingWarning):
            traj = evolve(f, EvolutionParams(2, 1, 0.01, 0.02))
        assert len(traj.warnings) == 1

    def test_resolved_run_stays_silent(self):
        grid = Grid(2, 16.0, 64)
        f = gaussian(grid, 1.0, 1.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = evolve(f, EvolutionParams(2, 1, 0.01, 0.02))
        assert traj.warnings == ()


class TestTrajectory:
    def test_sampling_layout(self):
        grid = Grid(2, 16.0, 32)
        f = gaussian(grid, 0.5, 2.0)
        traj = evolve(f, EvolutionParams(2, 1, 0.01, 0.1, sample_every=3))
        assert traj.times == tuple(i * 0.01 for i in (0, 3, 6, 9, 10))
        assert len(traj) == 5
        assert traj.grid == grid

    def test_feeds_mixed_norms(self):
        grid = Grid(2, 16.0, 32)
        f = gaussian(grid, 1.0, 2.0)
        traj = evolve(f, EvolutionParams(2, 1, 0.01, 0.1))
        sup_l2 = mixed_norm(traj, MixedNormSpec(math.inf, 2.0, 0.0, 0.1))
        assert sup_l2 == pytest.approx(math.sqrt(mass(f)), rel=1e-12)

    def test_validation(self):
        grid = Grid(2, 16.0, 16)
        f = gaussian(grid, 0.5, 4.0)
        params = EvolutionParams(2, 1, 0.01, 0.1)
        with pytest.raises(DomainError):
            Trajectory(params, ())
        with pytest.raises(DomainError):
            Trajectory(params, ((0.0, f), (0.0, f)))

    def test_nan_time_rejected(self):
        f = gaussian(Grid(2, 16.0, 16), 0.5, 4.0)
        samples = ((0.0, f), (math.nan, f), (1.0, f))
        with pytest.raises(DomainError, match="strictly increasing"):
            Trajectory(EvolutionParams(2, 1, 0.01, 0.1), samples)
        with pytest.raises(DomainError, match="strictly increasing"):
            mixed_norm(samples, MixedNormSpec(4.0, 4.0, 0.0, 1.0))

    def test_samples_on_two_grids(self):
        f = gaussian(Grid(2, 16.0, 16), 0.5, 4.0)
        g = gaussian(Grid(2, 16.0, 32), 0.5, 4.0)
        with pytest.raises(DomainError, match="^all samples must be fields on a single grid$"):
            Trajectory(EvolutionParams(2, 1, 0.01, 0.1), ((0.0, f), (0.05, g)))

    def test_non_field_first_sample(self):
        params = EvolutionParams(2, 1, 0.01, 0.1)
        with pytest.raises(DomainError):
            Trajectory(params, ((0.0, "x"),))


class TestCheckpoint:
    def test_roundtrip_is_bitwise(self, tmp_path):
        grid = Grid(2, 16.0, 32)
        f = make_radial_data(grid, RadialProfile("random_radial_superposition", 0.8, 2.5, seed=7))
        traj = evolve(f, EvolutionParams(2, 1, 0.02, 0.1, sample_every=2))
        target = tmp_path / "run"
        write_checkpoint(traj, str(target))
        back = read_checkpoint(str(target))
        assert back.params == traj.params
        assert back.times == traj.times
        assert back.provenance == traj.provenance
        assert back.warnings == traj.warnings
        for (ta, fa), (tb, fb) in zip(traj, back):
            assert ta == tb
            assert np.array_equal(fa.samples, fb.samples)

    @pytest.mark.parametrize("points", [32, 64], ids=["32^2_fft", "64^2_block"])
    def test_samples_transform_forward_once(self, monkeypatch, tmp_path, points):
        # Evolve samples carry the spectrum the run held, and a reloaded
        # sample keeps its first spectrum, so ledgers at several cutoffs
        # transform each sample forward at most once.  The 32^2 run is kept
        # off the block by never recognising its samples as even.
        grid = Grid(2, 16.0, points)
        datum = gaussian(grid, 1.2, 2.0)
        if points == 32:
            monkeypatch.setattr(spectral, "_sector", lambda a: None)
            datum = Field.physical(grid, datum.samples)
        traj = evolve(datum, EvolutionParams(2, 1, 0.01, 0.04, sample_every=2))
        assert isinstance(traj.final._half, np.ndarray) == (points == 64)
        write_checkpoint(traj, str(tmp_path))
        back = read_checkpoint(str(tmp_path))
        calls = []

        def counted(f, _fn=spectral.forward_transform):
            calls.append(f)
            return _fn(f)

        monkeypatch.setattr(spectral, "forward_transform", counted)
        for n in (1.0, 2.0):
            cfg = IMethodConfig(N=n, s=0.6, k=1, dim=2)
            for run in (traj, back):
                increment_ledger(run, cfg)
        assert len(calls) == len(back) and {id(f) for f in calls} == {id(f) for f in back.fields}
        assert all(f.as_frequency() is f.as_frequency() for f in back.fields)

    def test_manifest_evolution_text(self, tmp_path):
        # Every EvolutionParams field by name, in declaration order: repr
        # values and true/false, as the readers of existing checkpoints expect.
        params = EvolutionParams(2, 1, 0.01, 0.04, sample_every=2, dealias=False)
        traj = evolve(gaussian(Grid(2, 16.0, 32), 0.5, 2.0), params)
        write_checkpoint(traj, str(tmp_path))
        text = (tmp_path / "manifest.ini").read_text(encoding="utf-8")
        assert text.startswith(
            "[evolution]\ndim = 2\nk = 1\ndt = 0.01\nt_final = 0.04\n"
            "sample_every = 2\ndealias = false\n\n[run]\n"
        )
        back = read_checkpoint(str(tmp_path))
        assert back.params == params and back.params.dealias is False
        write_checkpoint(back, str(tmp_path / "again"))
        assert (tmp_path / "again" / "manifest.ini").read_text(encoding="utf-8") == text

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DomainError):
            read_checkpoint(str(tmp_path / "nowhere"))

    @pytest.mark.parametrize("text", [
        b"count = 1\n",  # no section header
        b"[run]\ncount = 1\ncount = 2\n",  # a repeated key
        b"[run]\ncount = \xff\n",  # not UTF-8
    ], ids=["no_section", "repeated_key", "not_utf8"])
    def test_unparsable_manifest(self, tmp_path, text):
        (tmp_path / "manifest.ini").write_bytes(text)
        with pytest.raises(DomainError, match="malformed checkpoint manifest"):
            read_checkpoint(str(tmp_path))

    @pytest.mark.parametrize("key", ["count", "warning_count", "dealias"])
    def test_manifest_without_run_key(self, tmp_path, key):
        grid = Grid(2, 16.0, 32)
        traj = evolve(gaussian(grid, 0.5, 2.0), EvolutionParams(2, 1, 0.01, 0.02))
        write_checkpoint(traj, str(tmp_path))
        path = tmp_path / "manifest.ini"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(ln for ln in lines if not ln.startswith(f"{key} =")))
        with pytest.raises(DomainError, match="malformed"):
            read_checkpoint(str(tmp_path))
