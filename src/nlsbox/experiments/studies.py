"""Drivers for the five numerical studies.

Each study consumes a :class:`StudyConfig`, writes CSV artifacts and a
``report.json`` into the output directory, and returns a
:class:`StudyReport` whose ``passed`` flag feeds the process exit code.
Everything runs sequentially and every random draw is keyed by the
configured seed, so rerunning a study reproduces its artifacts byte for
byte.
"""

from __future__ import annotations

import dataclasses
import math
import os
from functools import cache, partial

import numpy as np

from ..dynamics import energy, evolve, linear_flow, mass
from ..errors import ConfigError, DomainError
from ..imethod import IMethodConfig, increment_ledger, scattering_diagnostic
from ..multipliers import (
    ProjectionBank,
    apply_symbol,
    high_pass,
    i_operator_symbol,
    low_pass,
    lp_project,
)
from ..norms import (
    MixedNormSpec,
    lebesgue_norm,
    mixed_norm,
    morawetz_quantity,
    sobolev_norm,
    strichartz_admissible,
    weighted_radial_sup,
)
from ..spectral import Field, _power_sum, _radial, inverse_transform, make_radial_data
from .config import StudyConfig
from .corpus import member_seed, morawetz_families, radial_corpus
from .reports import StudyReport, stage_csv, write_report, write_rows

__all__ = ["STUDIES", "run_study"]

# Decay of the modified energy's variation: fitted slope and fit quality
# a sweep must reach to pass.
SLOPE_THRESHOLD = -0.8
R_SQUARED_THRESHOLD = 0.9

# Stability margins for fitted inequality constants over a corpus.
STABILITY_RATIO = 2.0
MORAWETZ_RATIO = 3.0
SHARP_SLACK = 1e-12

# Relative mass drift the splitting integrator must stay under, and the
# window the energy-drift ratio must fall in when the step is halved.
MASS_DRIFT_LIMIT = 1e-10
ENERGY_RATIO_WINDOW = (3.2, 4.8)


def _fit_loglog(counts, variations) -> tuple[float, float]:
    """Least-squares slope and R^2 of log(variation) against log(count)."""
    x = np.log(np.asarray(counts, dtype=np.float64))
    y = np.log(np.asarray(variations, dtype=np.float64))
    slope, intercept = np.polyfit(x, y, 1)
    residual = y - (slope * x + intercept)
    total = y - y.mean()
    ss_tot = float(total @ total)
    r_squared = 1.0 - float(residual @ residual) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(r_squared)


def _sweep_n(cfg: StudyConfig, out_dir: str) -> StudyReport:
    datum = make_radial_data(cfg.grid, cfg.datum)
    trajectory = evolve(datum, cfg.evolution)
    artifacts: list[str] = []
    rows: list[tuple] = []
    variations: list[float] = []
    for count in cfg.n_list:
        icfg = IMethodConfig(
            N=cfg.grid.freq_step * count,
            s=cfg.s,
            k=cfg.evolution.k,
            dim=cfg.grid.dim,
        )
        ledger = increment_ledger(trajectory, icfg)
        name = f"ledger_n{count}.csv"
        stage_csv(ledger.to_csv, os.path.join(out_dir, name))
        artifacts.append(name)
        variations.append(ledger.total_variation)
        if len(variations) >= 2 and min(variations) > 0.0:
            partial, _ = _fit_loglog(cfg.n_list[: len(variations)], variations)
        else:
            partial = math.nan
        rows.append((count, variations[-1], partial))

    if min(variations) > 0.0:
        slope, r_squared = _fit_loglog(cfg.n_list, variations)
    else:
        slope, r_squared = math.nan, 0.0
    passed = slope <= SLOPE_THRESHOLD and r_squared >= R_SQUARED_THRESHOLD

    write_rows(
        os.path.join(out_dir, "sweep.csv"),
        "N,total_variation,fitted_slope_so_far",
        rows,
    )
    artifacts.append("sweep.csv")
    metrics = {
        "slope": slope,
        "r_squared": r_squared,
        "slope_threshold": SLOPE_THRESHOLD,
        "r_squared_threshold": R_SQUARED_THRESHOLD,
        "total_variations": [[n, tv] for n, tv in zip(cfg.n_list, variations)],
    }
    return StudyReport("sweep-n", passed, metrics, tuple(artifacts))


def _max_relative_drift(values) -> float:
    first = values[0]
    scale = max(abs(first), np.finfo(np.float64).tiny)
    return float(max(abs(v - first) for v in values) / scale)


def _conserve(cfg: StudyConfig, out_dir: str) -> StudyReport:
    datum = make_radial_data(cfg.grid, cfg.datum)
    params = cfg.evolution
    trajectory = evolve(datum, params)
    masses = [mass(f) for f in trajectory.fields]
    energies = [energy(f, params.k) for f in trajectory.fields]
    write_rows(
        os.path.join(out_dir, "mass.csv"),
        "t,mass",
        list(zip(trajectory.times, masses)),
    )
    write_rows(
        os.path.join(out_dir, "energy.csv"),
        "t,energy",
        list(zip(trajectory.times, energies)),
    )

    halved = dataclasses.replace(
        params, dt=0.5 * params.dt, sample_every=2 * params.sample_every
    )
    fine = evolve(datum, halved)
    mass_drift = _max_relative_drift(masses)
    drift_coarse = _max_relative_drift(energies)
    drift_fine = _max_relative_drift([energy(f, params.k) for f in fine.fields])
    ratio = drift_coarse / drift_fine if drift_fine > 0 else math.inf
    low, high = ENERGY_RATIO_WINDOW
    passed = mass_drift <= MASS_DRIFT_LIMIT and low <= ratio <= high

    metrics = {
        "mass_drift": mass_drift,
        "mass_drift_limit": MASS_DRIFT_LIMIT,
        "energy_drift_coarse": drift_coarse,
        "energy_drift_fine": drift_fine,
        "energy_drift_ratio": ratio,
        "energy_ratio_window": [low, high],
        "steps": params.step_count(),
    }
    return StudyReport("conserve", passed, metrics, ("mass.csv", "energy.csv"))


def _probe_scale(bank: ProjectionBank) -> int:
    """A dyadic scale with room below and above it inside the bank."""
    return max(bank.j_min + 1, min(0, bank.j_max - 1))


def _battery(cfg: StudyConfig):
    """The probe scale, the cutoff, the ``(name, bound_kind)`` cases for the
    grid's dimension, and a function giving one field's constants in case
    order.

    ``sharp`` cases are lattice identities whose constant cannot exceed
    one; ``fitted`` cases are judged on stability across the corpus.
    """
    grid = cfg.grid
    bank = ProjectionBank.for_grid(grid)
    j = _probe_scale(bank)
    cutoff = grid.freq_step * cfg.n
    s = cfg.s
    smoothing = i_operator_symbol(cutoff, s)
    # Beyond the quarter box the periodic images interfere with the
    # outgoing radial ring, and the |x| weight amplifies the corners;
    # local norms and sups are taken where the torus still approximates
    # free space.  The ball's mask is a lattice function, gathered once.
    radius = grid.extent / 4.0
    inside = cache(partial(_radial, grid, lambda r: r <= radius, space=True))
    times = [float(t) for t in np.linspace(0.0, 1.0, 17)]
    # The low split is Cauchy-Schwarz on the lattice, so its constant
    # never exceeds one.  The high split shares that bound whenever
    # s >= 1/2, because the smoothing symbol then dominates
    # sqrt(N/|xi|) beyond the cutoff; for smaller s only stability
    # across the corpus is checked.
    high_kind = "sharp" if s >= 0.5 else "fitted"
    cases = [
        ("bernstein_l2", "fitted"),
        ("bernstein_l4", "fitted"),
        ("interpolation_low", "sharp"),
        ("interpolation_high", high_kind),
        ("local_smoothing", "fitted"),
    ]
    if grid.dim == 2:
        pairs = ((4.0, 4.0),)
        cases.append(("strichartz_4_4", "fitted"))
    else:
        pairs = ((10.0 / 3.0, 10.0 / 3.0), (2.0, 6.0))
        cases += [
            ("radial_sobolev", "fitted"),
            ("strichartz_10_3", "fitted"),
            ("strichartz_2_6", "fitted"),
        ]
    for p, q in pairs:
        if not strichartz_admissible(p, q, grid.dim):
            raise DomainError(f"Strichartz pair ({p}, {q}) is not admissible in {grid.dim}d")

    def constants(f: Field) -> list[float]:
        spec = f.as_frequency()
        piece = lp_project(spec, bank, j)
        piece_x = piece.as_physical()
        piece_l2 = lebesgue_norm(piece_x, 2.0)
        smoothed_h1 = sobolev_norm(apply_symbol(spec, smoothing), 1.0)
        low = low_pass(spec, cutoff)
        high = high_pass(spec, cutoff)
        local = np.array([_power_sum(2, inverse_transform(linear_flow(piece, t)), inside)
                          for t in times]) * grid.cell_volume
        out = [
            piece_l2 * 2.0 ** (j * s) / sobolev_norm(spec, s),
            lebesgue_norm(piece_x, 4.0) / (2.0 ** (j * grid.dim * 0.25) * piece_l2),
            sobolev_norm(low, 0.5) / math.sqrt(smoothed_h1 * lebesgue_norm(low, 2.0)),
            sobolev_norm(high, 0.5) * math.sqrt(cutoff) / smoothed_h1,
            math.sqrt(float(np.trapezoid(local, times)))
            / (2.0 ** (-0.5 * j) * math.sqrt(radius) * piece_l2),
        ]
        if grid.dim == 3:
            sup = weighted_radial_sup(piece_x, 1.0, radius)
            out.append(sup / sobolev_norm(piece, 0.5))
        # The free flow of the field, shared by the Strichartz pairs, is the largest
        # thing held: physical blocks, not the spectra the norms do not read.
        del piece, piece_x, low, high
        flow = [(t, inverse_transform(linear_flow(spec, t))) for t in times]
        l2 = lebesgue_norm(f, 2.0)
        out += [mixed_norm(flow, MixedNormSpec(p, q, 0.0, 1.0)) / l2 for p, q in pairs]
        return out

    return j, cutoff, cases, constants


def _spread(constants: list[float], limit: float) -> dict:
    """Max, median and max/median ratio of a family of constants; the family
    passes when its max is finite and the ratio is at most ``limit``."""
    top = float(max(constants))
    mid = float(np.median(constants))
    ratio = top / mid if mid > 0 else math.inf
    passed = math.isfinite(top) and ratio <= limit
    return {"max": top, "median": mid, "stability_ratio": ratio, "passed": passed}


def _case_metrics(kind: str, constants: list[float]) -> dict:
    out = {"bound": kind, **_spread(constants, STABILITY_RATIO)}
    if kind == "sharp":
        out["passed"] = math.isfinite(out["max"]) and out["max"] <= 1.0 + SHARP_SLACK
    return out


def _inequalities(cfg: StudyConfig, out_dir: str) -> StudyReport:
    corpus = radial_corpus(cfg.grid, cfg.corpus_count, cfg.seed)
    j, cutoff, cases, constants = _battery(cfg)
    # Field by field, so each field's intermediates are formed once and
    # dropped before the next; rows stay case-major.
    table = [constants(f) for f in corpus]
    rows: list[tuple] = []
    case_metrics: dict = {}
    for c, (name, kind) in enumerate(cases):
        column = [float(row[c]) for row in table]
        for i, value in enumerate(column):
            rows.append((name, member_seed(cfg.seed, i), value))
        case_metrics[name] = _case_metrics(kind, column)
    passed = all(entry["passed"] for entry in case_metrics.values())

    write_rows(os.path.join(out_dir, "constants.csv"), "inequality,seed,constant", rows)
    metrics = {
        "cases": case_metrics,
        "corpus_count": cfg.corpus_count,
        "probe_scale": j,
        "cutoff": cutoff,
        "stability_ratio_limit": STABILITY_RATIO,
    }
    return StudyReport("inequalities", passed, metrics, ("constants.csv",))


def _morawetz(cfg: StudyConfig, out_dir: str) -> StudyReport:
    rows: list[tuple] = []
    constants: list[float] = []
    for name, profile in morawetz_families(cfg.grid, cfg.seed):
        datum = make_radial_data(cfg.grid, profile)
        trajectory = evolve(datum, cfg.evolution)
        quantity = morawetz_quantity(trajectory, cfg.grid.dim) ** 2
        sup_mass = max(mass(f) for f in trajectory.fields)
        sup_half = max(sobolev_norm(f, 0.5) for f in trajectory.fields) ** 2
        bound = sup_mass * sup_half
        constant = quantity / bound
        rows.append((name, quantity, bound, constant))
        constants.append(constant)

    spread = _spread(constants, MORAWETZ_RATIO)
    passed = spread.pop("passed")

    write_rows(
        os.path.join(out_dir, "morawetz.csv"), "family,quantity,bound,constant", rows
    )
    metrics = {
        **spread,
        "stability_ratio_limit": MORAWETZ_RATIO,
        "families": [row[0] for row in rows],
    }
    return StudyReport("morawetz", passed, metrics, ("morawetz.csv",))


def _scatter(cfg: StudyConfig, out_dir: str) -> StudyReport:
    datum = make_radial_data(cfg.grid, cfg.datum)
    trajectory = evolve(datum, cfg.evolution)
    series = scattering_diagnostic(trajectory, cfg.s)
    stage_csv(series.to_csv, os.path.join(out_dir, "pullback.csv"))

    increments = [float(v) for v in series.values]
    finite = all(math.isfinite(v) for v in increments)
    passed = finite and increments[-1] <= increments[0]
    metrics = {
        "first_increment": increments[0],
        "last_increment": increments[-1],
        "max_increment": max(increments),
        "count": len(increments),
    }
    return StudyReport("scatter", passed, metrics, ("pullback.csv",))


STUDIES = {
    "sweep-n": _sweep_n,
    "conserve": _conserve,
    "inequalities": _inequalities,
    "morawetz": _morawetz,
    "scatter": _scatter,
}


def run_study(config: StudyConfig, out_dir) -> StudyReport:
    """Run one study and write its artifacts plus ``report.json``."""
    try:
        runner = STUDIES[config.name]
    except KeyError:
        raise ConfigError(f"unknown study {config.name!r}") from None
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:  # a file in the way, or no permission
        raise ConfigError(f"cannot make output directory {str(out_dir)!r}: {exc.strerror}") from None
    report = runner(config, str(out_dir))
    write_report(report, out_dir)
    return report
