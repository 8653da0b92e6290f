"""Tests for the study configs, reports, drivers, and the CLI."""

import argparse
import configparser
import csv
import json
import math
import os
import re
import subprocess
import sys
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

import nlsbox
from nlsbox import (
    MixedNormSpec,
    ProjectionBank,
    apply_symbol,
    dynamics,
    high_pass,
    i_operator_symbol,
    lebesgue_norm,
    linear_flow,
    low_pass,
    lp_project,
    mixed_norm,
    sobolev_norm,
    spectral,
    weighted_radial_sup,
)
from nlsbox.errors import ConfigError, UndersamplingWarning
from nlsbox.experiments import (
    STUDY_NAMES,
    StudyReport,
    load_config,
    morawetz_families,
    radial_corpus,
    run_study,
)
from nlsbox.experiments import cli, studies
from nlsbox.experiments.cli import main
from nlsbox.experiments.reports import write_rows
from nlsbox.spectral import Grid, make_radial_data
import test_acceptance


def write_config(path, text):
    path.write_text(text.strip() + "\n")
    return str(path)


SWEEP_TEXT = """
[study]
name = sweep-n
seed = 0

[grid]
dim = 2
extent = 16.0
points = 32

[evolution]
k = 1
dt = 0.01
t_final = 0.1
sample_every = 2

[imethod]
s = 0.85
n_list = 2 3 5

[datum]
kind = gaussian
amplitude = 1.5
width = 2.0
"""

CONSERVE_TEXT = """
[study]
name = conserve
seed = 1

[grid]
dim = 2
extent = 16.0
points = 32

[evolution]
k = 1
dt = 0.01
t_final = 0.2
sample_every = 5

[datum]
kind = gaussian
amplitude = 1.2
width = 2.0
"""

INEQ_2D_TEXT = """
[study]
name = inequalities
seed = 2

[grid]
dim = 2
extent = 16.0
points = 32

[imethod]
s = 0.85
n = 4

[corpus]
count = 8
"""

INEQ_3D_TEXT = """
[study]
name = inequalities
seed = 2

[grid]
dim = 3
extent = 16.0
points = 16

[imethod]
s = 0.7
n = 3

[corpus]
count = 4
"""

MORAWETZ_TEXT = """
[study]
name = morawetz
seed = 3

[grid]
dim = 2
extent = 16.0
points = 32

[evolution]
k = 1
dt = 0.02
t_final = 0.2
sample_every = 2
"""

SCATTER_TEXT = CONSERVE_TEXT.replace("name = conserve", "name = scatter") + (
    "\n[imethod]\ns = 0.8\n"
)

# One unit config per study, in the order the studies are declared.
STUDY_TEXTS = {
    "sweep-n": SWEEP_TEXT,
    "conserve": CONSERVE_TEXT,
    "inequalities": INEQ_2D_TEXT,
    "morawetz": MORAWETZ_TEXT,
    "scatter": SCATTER_TEXT,
}


def without_keys(text, *keys):
    """``text`` with the lines that set any of ``keys`` removed."""
    return "\n".join(
        line for line in text.splitlines() if line.split("=")[0].strip() not in keys
    )


def _per_case_constants(cfg):
    """``(case, constant)`` rows of the inequality study, case-major, each
    constant evaluated on its own from the field through public calls."""
    grid, s = cfg.grid, cfg.s
    bank = ProjectionBank.for_grid(grid)
    j = max(bank.j_min + 1, min(0, bank.j_max - 1))
    cutoff = grid.freq_step * cfg.n
    radius = grid.extent / 4.0
    r = grid.space_radius()
    inside = r <= radius
    times = np.linspace(0.0, 1.0, 17)

    def smoothed(f):
        return apply_symbol(f, i_operator_symbol(cutoff, s))

    def local_smoothing(f):
        piece = lp_project(f, bank, j).as_frequency()
        local = [
            float((np.abs(linear_flow(piece, float(t)).as_physical().samples[inside]) ** 2).sum())
            * grid.cell_volume
            for t in times
        ]
        lhs = math.sqrt(float(np.trapezoid(local, times)))
        return lhs / (2.0 ** (-0.5 * j) * math.sqrt(radius) * lebesgue_norm(piece, 2.0))

    def radial_sobolev(f):
        piece = lp_project(f, bank, j)
        sup = float((r[inside] * np.abs(piece.as_physical().samples)[inside]).max())
        return sup / sobolev_norm(piece, 0.5)

    def strichartz(p, q):
        def constant(f):
            spectrum = f.as_frequency()
            flow = [(float(t), linear_flow(spectrum, float(t))) for t in times]
            return mixed_norm(flow, MixedNormSpec(p, q, 0.0, 1.0)) / lebesgue_norm(f, 2.0)

        return constant

    cases = [
        ("bernstein_l2", lambda f: lebesgue_norm(lp_project(f, bank, j), 2.0)
         * 2.0 ** (j * s) / sobolev_norm(f, s)),
        ("bernstein_l4", lambda f: lebesgue_norm(lp_project(f, bank, j), 4.0)
         / (2.0 ** (j * grid.dim * 0.25) * lebesgue_norm(lp_project(f, bank, j), 2.0))),
        ("interpolation_low", lambda f: sobolev_norm(low_pass(f, cutoff), 0.5) / math.sqrt(
            sobolev_norm(smoothed(f), 1.0) * lebesgue_norm(low_pass(f, cutoff), 2.0))),
        ("interpolation_high", lambda f: sobolev_norm(high_pass(f, cutoff), 0.5)
         * math.sqrt(cutoff) / sobolev_norm(smoothed(f), 1.0)),
        ("local_smoothing", local_smoothing),
    ]
    if grid.dim == 2:
        cases.append(("strichartz_4_4", strichartz(4.0, 4.0)))
    else:
        cases.append(("radial_sobolev", radial_sobolev))
        cases.append(("strichartz_10_3", strichartz(10.0 / 3.0, 10.0 / 3.0)))
        cases.append(("strichartz_2_6", strichartz(2.0, 6.0)))
    corpus = radial_corpus(grid, cfg.corpus_count, cfg.seed)
    return [(name, fn(f)) for name, fn in cases for f in corpus]


class TestLoadConfig:
    def test_sweep_round_trip(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "a.ini", SWEEP_TEXT))
        assert cfg.name == "sweep-n"
        assert cfg.seed == 0
        assert cfg.grid == Grid(2, 16.0, 32)
        assert cfg.evolution.k == 1
        assert cfg.evolution.dt == 0.01
        assert cfg.evolution.sample_every == 2
        assert cfg.evolution.dealias is True
        assert cfg.s == 0.85
        assert cfg.n_list == (2, 3, 5)
        assert cfg.datum.kind == "gaussian"
        assert cfg.datum.width == 2.0

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/no/such/file.ini")

    def test_text_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "a.ini"
        path.write_bytes(SWEEP_TEXT.encode() + b"# \xff\n")
        with pytest.raises(ConfigError, match="cannot parse"):
            load_config(str(path))

    def test_step_count_that_overflows(self, tmp_path):
        text = SWEEP_TEXT.replace("dt = 0.01", "dt = 1e-320")
        with pytest.raises(ConfigError, match=r"\[evolution\]: t_final=.* whole number of steps"):
            load_config(write_config(tmp_path / "a.ini", text))

    @pytest.mark.parametrize("dt", ["1e-12", "1e-300"])
    def test_step_count_above_the_bound(self, tmp_path, dt):
        text = SWEEP_TEXT.replace("dt = 0.01", f"dt = {dt}")
        with pytest.raises(ConfigError, match=r"\[evolution\]: t_final=.* steps .* more than 1e\+08"):
            load_config(write_config(tmp_path / "a.ini", text))

    def test_conserve_rerun_step_count_above_the_bound(self, tmp_path):
        # 6e7 steps pass the bound, but conserve reruns them at dt/2 (1.2e8);
        # a sweep with the same [evolution] runs once and loads.
        evolution = "dt = 1e-8\nt_final = 0.6"
        conserve = CONSERVE_TEXT.replace("dt = 0.01\nt_final = 0.2", evolution)
        with pytest.raises(ConfigError, match=r"^\[evolution\]: the rerun at dt/2: t_final=0\.6 "
                                              r"takes 1\.2e\+08 steps .* more than 1e\+08$"):
            load_config(write_config(tmp_path / "a.ini", conserve))
        sweep = SWEEP_TEXT.replace("dt = 0.01\nt_final = 0.1", evolution)
        loaded = load_config(write_config(tmp_path / "b.ini", sweep))
        assert loaded.evolution.step_count() == 6 * 10**7

    def test_unknown_study_name(self, tmp_path):
        text = SWEEP_TEXT.replace("name = sweep-n", "name = sweeep")
        with pytest.raises(ConfigError, match="unknown study"):
            load_config(write_config(tmp_path / "a.ini", text))

    def test_unknown_key_rejected(self, tmp_path):
        text = SWEEP_TEXT.replace("width = 2.0", "width = 2.0\ncolour = red")
        with pytest.raises(ConfigError, match="colour"):
            load_config(write_config(tmp_path / "a.ini", text))

    @pytest.mark.parametrize("study,section", [
        (study, line.strip("[]"))
        for study, text in STUDY_TEXTS.items()
        for line in text.splitlines()
        if line.startswith("[")
    ])
    def test_unknown_key_names_study_and_section(self, tmp_path, study, section):
        text = STUDY_TEXTS[study].replace(f"[{section}]", f"[{section}]\ncolour = red")
        with pytest.raises(ConfigError, match="does not read") as info:
            load_config(write_config(tmp_path / "a.ini", text))
        message = str(info.value)
        assert repr(study) in message
        assert f"[{section}]" in message
        assert "colour" in message

    def test_unused_section_rejected(self, tmp_path):
        text = CONSERVE_TEXT + "\n[imethod]\ns = 0.8\n"
        with pytest.raises(ConfigError, match="does not read"):
            load_config(write_config(tmp_path / "a.ini", text))

    def test_missing_section_rejected(self, tmp_path):
        text = SWEEP_TEXT.replace("[datum]", "[was_datum]")
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path / "a.ini", text))

    def test_focusing_sign_rejected(self, tmp_path):
        text = CONSERVE_TEXT.replace("k = 1", "k = 1\nnonlinearity = focusing")
        with pytest.raises(ConfigError, match="defocusing"):
            load_config(write_config(tmp_path / "a.ini", text))

    def test_defocusing_sign_accepted(self, tmp_path):
        text = CONSERVE_TEXT.replace("k = 1", "k = 1\nnonlinearity = defocusing")
        assert load_config(write_config(tmp_path / "a.ini", text)).name == "conserve"

    def test_malformed_number(self, tmp_path):
        text = SWEEP_TEXT.replace("dt = 0.01", "dt = fast")
        with pytest.raises(ConfigError, match="dt"):
            load_config(write_config(tmp_path / "a.ini", text))

    def test_n_list_accepts_commas(self, tmp_path):
        text = SWEEP_TEXT.replace("n_list = 2 3 5", "n_list = 2, 3, 5")
        assert load_config(write_config(tmp_path / "a.ini", text)).n_list == (2, 3, 5)

    def test_n_list_must_increase(self, tmp_path):
        text = SWEEP_TEXT.replace("n_list = 2 3 5", "n_list = 5 3 2")
        with pytest.raises(ConfigError, match="increasing"):
            load_config(write_config(tmp_path / "a.ini", text))

    def test_n_list_needs_two_entries(self, tmp_path):
        text = SWEEP_TEXT.replace("n_list = 2 3 5", "n_list = 4")
        with pytest.raises(ConfigError, match="two"):
            load_config(write_config(tmp_path / "a.ini", text))

    @pytest.mark.parametrize("n_list", ["0 3 5", "-1 3 5"])
    def test_mode_counts_are_positive_integers(self, tmp_path, n_list):
        text = SWEEP_TEXT.replace("n_list = 2 3 5", f"n_list = {n_list}")
        with pytest.raises(ConfigError, match=r"\[imethod\] n_list"):
            load_config(write_config(tmp_path / "a.ini", text))

    def test_unused_imethod_key_rejected(self, tmp_path):
        text = SWEEP_TEXT.replace("s = 0.85", "s = 0.85\nn = 4")
        with pytest.raises(ConfigError, match="does not read"):
            load_config(write_config(tmp_path / "a.ini", text))

    def test_bad_grid_values(self, tmp_path):
        text = SWEEP_TEXT.replace("points = 32", "points = 31")
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path / "a.ini", text))

    def test_non_finite_extent(self, tmp_path):
        text = SWEEP_TEXT.replace("extent = 16.0", "extent = nan")
        with pytest.raises(ConfigError, match=r"\[grid\]"):
            load_config(write_config(tmp_path / "a.ini", text))

    @pytest.mark.parametrize("text,count", [(INEQ_2D_TEXT, 8), (MORAWETZ_TEXT, 3)],
                             ids=["inequalities", "morawetz"])
    def test_largest_seed(self, tmp_path, text, count):
        # The largest seed whose last corpus key, seed * 1000003 + count - 1
        # (morawetz draws index 2), stays below 2^128 loads; one more does not.
        largest = ((1 << 128) - count) // 1_000_003
        old = next(line for line in text.splitlines() if line.startswith("seed = "))

        def config(seed):
            return write_config(tmp_path / "a.ini", text.replace(old, f"seed = {seed}"))

        assert load_config(config(largest)).seed == largest
        refused = rf"\[study\] seed = {largest + 1}: must be at most {largest},"
        with pytest.raises(ConfigError, match=refused):
            load_config(config(largest + 1))

    @pytest.mark.parametrize("study,section,key", [
        ("sweep-n", "study", "seed"),
        ("sweep-n", "grid", "dim"),
        ("sweep-n", "grid", "points"),
        ("sweep-n", "evolution", "k"),
        ("sweep-n", "evolution", "sample_every"),
        ("sweep-n", "imethod", "n_list"),
        ("inequalities", "imethod", "n"),
        ("inequalities", "corpus", "count"),
    ])
    def test_integer_keys_refuse_other_values(self, tmp_path, study, section, key):
        for bad in ("True", "nan", "3.0"):
            text = re.sub(rf"(?m)^{key} = .*$", f"{key} = {bad}", STUDY_TEXTS[study])
            with pytest.raises(ConfigError, match=rf"\[{section}\] {key} = "):
                load_config(write_config(tmp_path / "a.ini", text))

    def test_negative_seed(self, tmp_path):
        text = SWEEP_TEXT.replace("seed = 0", "seed = -2")
        with pytest.raises(ConfigError, match="seed"):
            load_config(write_config(tmp_path / "a.ini", text))

    @pytest.mark.parametrize("study,section,key", [
        ("sweep-n", "study", "name"),
        ("sweep-n", "grid", "dim"),
        ("sweep-n", "grid", "extent"),
        ("sweep-n", "grid", "points"),
        ("sweep-n", "evolution", "k"),
        ("sweep-n", "evolution", "dt"),
        ("sweep-n", "evolution", "t_final"),
        ("sweep-n", "imethod", "s"),
        ("sweep-n", "imethod", "n_list"),
        ("inequalities", "imethod", "n"),
        ("sweep-n", "datum", "kind"),
    ])
    def test_missing_required_key(self, tmp_path, study, section, key):
        text = without_keys(STUDY_TEXTS[study], key)
        with pytest.raises(ConfigError) as info:
            load_config(write_config(tmp_path / "a.ini", text))
        assert f"[{section}]" in str(info.value)
        assert repr(key) in str(info.value)

    def test_optional_keys_take_documented_defaults(self, tmp_path):
        text = without_keys(SWEEP_TEXT, "seed", "sample_every", "amplitude", "width")
        cfg = load_config(write_config(tmp_path / "a.ini", text))
        assert cfg.seed == 0
        assert cfg.evolution.sample_every == 1
        assert cfg.evolution.dealias is True
        assert (cfg.datum.amplitude, cfg.datum.width) == (1.0, 1.0)
        empty_corpus = without_keys(INEQ_2D_TEXT, "count")
        no_corpus = INEQ_2D_TEXT.split("[corpus]")[0]
        for text in (empty_corpus, no_corpus):
            assert load_config(write_config(tmp_path / "b.ini", text)).corpus_count == 100


class TestCorpus:
    def test_radial_corpus_is_deterministic(self):
        grid = Grid(2, 16.0, 32)
        a = radial_corpus(grid, 3, base_seed=9)
        b = radial_corpus(grid, 3, base_seed=9)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.samples, fb.samples)

    def test_members_differ(self):
        grid = Grid(2, 16.0, 32)
        a, b = radial_corpus(grid, 2, base_seed=9)
        assert not np.array_equal(a.samples, b.samples)

    def test_seed_changes_corpus(self):
        grid = Grid(2, 16.0, 32)
        a = radial_corpus(grid, 1, base_seed=1)[0]
        b = radial_corpus(grid, 1, base_seed=2)[0]
        assert not np.array_equal(a.samples, b.samples)

    def test_morawetz_families_resolve(self):
        grid = Grid(2, 16.0, 32)
        families = morawetz_families(grid, base_seed=0)
        names = [name for name, _ in families]
        assert len(families) == 5
        assert len(set(names)) == 5
        for _, profile in families:
            make_radial_data(grid, profile)


class TestReports:
    def test_json_is_stable_and_sorted(self):
        report = StudyReport("demo", True, {"b": 1.5, "a": 2}, ("x.csv",))
        text = report.to_json()
        assert text == report.to_json()
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text)["passed"] is True

    def test_write_rows_repr_floats(self, tmp_path):
        path = tmp_path / "t.csv"
        write_rows(path, "a,b", [(1, 0.1), (2, 1.0 / 3.0)])
        lines = path.read_text().splitlines()
        assert lines[0] == "a,b"
        assert float(lines[1].split(",")[1]) == 0.1
        assert float(lines[2].split(",")[1]) == 1.0 / 3.0
        assert not (tmp_path / "t.csv.tmp").exists()

    def test_write_rows_numpy_cells_read_back(self, tmp_path):
        # numpy's floats are floats: their cells hold the plain repr, not np.float64(...)
        path = tmp_path / "t.csv"
        row = (np.float64(0.5), np.float64(1.0 / 3.0), np.int64(7), np.float32(0.25))
        write_rows(path, "a,b,c,d", [row])
        with open(path, newline="") as fh:
            header, cells = list(csv.reader(fh))
        assert header == ["a", "b", "c", "d"]
        assert [float(cell) for cell in cells] == [float(v) for v in row]


class TestStudies:
    def test_sweep_artifacts_and_metrics(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "a.ini", SWEEP_TEXT))
        report = run_study(cfg, tmp_path / "out")
        assert set(report.artifacts) == {
            "ledger_n2.csv",
            "ledger_n3.csv",
            "ledger_n5.csv",
            "sweep.csv",
        }
        sweep = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert sweep[0] == "N,total_variation,fitted_slope_so_far"
        assert sweep[1].split(",")[2] == "nan"
        ledger = (tmp_path / "out" / "ledger_n2.csv").read_text().splitlines()
        assert ledger[0] == "t,E_Iu"
        saved = json.loads((tmp_path / "out" / "report.json").read_text())
        assert saved["study"] == "sweep-n"
        assert saved["metrics"]["slope"] < 0.0

    def test_conserve_passes_in_smooth_regime(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "a.ini", CONSERVE_TEXT))
        report = run_study(cfg, tmp_path / "out")
        assert report.passed
        assert report.metrics["mass_drift"] <= 1e-10
        assert 3.2 <= report.metrics["energy_drift_ratio"] <= 4.8
        mass_lines = (tmp_path / "out" / "mass.csv").read_text().splitlines()
        assert mass_lines[0] == "t,mass"
        energy_lines = (tmp_path / "out" / "energy.csv").read_text().splitlines()
        assert energy_lines[0] == "t,energy"

    def test_inequalities_battery_2d(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "a.ini", INEQ_2D_TEXT))
        report = run_study(cfg, tmp_path / "out")
        cases = report.metrics["cases"]
        assert set(cases) == {
            "bernstein_l2",
            "bernstein_l4",
            "interpolation_low",
            "interpolation_high",
            "local_smoothing",
            "strichartz_4_4",
        }
        assert cases["interpolation_low"]["bound"] == "sharp"
        assert cases["interpolation_low"]["max"] <= 1.0 + 1e-12
        assert cases["interpolation_high"]["max"] <= 1.0 + 1e-12
        lines = (tmp_path / "out" / "constants.csv").read_text().splitlines()
        assert lines[0] == "inequality,seed,constant"
        assert len(lines) == 1 + 6 * 8

    def test_inequalities_battery_3d(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "a.ini", INEQ_3D_TEXT))
        report = run_study(cfg, tmp_path / "out")
        cases = report.metrics["cases"]
        assert {"radial_sobolev", "strichartz_10_3", "strichartz_2_6"} <= set(cases)
        assert "strichartz_4_4" not in cases

    def test_battery_forms_each_field_intermediate_once(self, tmp_path, monkeypatch):
        # One spectrum per corpus field, and 2 x 17 free flows: the dyadic
        # piece's for local smoothing and the field's, shared by both
        # Strichartz pairs.
        counts = {"forward_transform": 0, "linear_flow": 0}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(spectral, "forward_transform")
        counting(studies, "linear_flow")
        cfg = load_config(write_config(tmp_path / "a.ini", INEQ_3D_TEXT))
        run_study(cfg, tmp_path / "out")
        assert counts == {
            "forward_transform": cfg.corpus_count,
            "linear_flow": 2 * 17 * cfg.corpus_count,
        }

    def test_battery_never_unfolds_and_gathers_each_phase_once(self, tmp_path, monkeypatch):
        text = INEQ_3D_TEXT.replace("points = 16", "points = 32")
        cfg = load_config(write_config(tmp_path / "a.ini", text))
        first, second = radial_corpus(cfg.grid, 2, cfg.seed)
        assert first._samples is None and second._samples is None  # held blocks
        _, _, _, constants = studies._battery(cfg)
        unfolds = []
        unfold = spectral._unfold

        def counted(*args):
            unfolds.append(args[1])
            return unfold(*args)

        monkeypatch.setattr(spectral, "_unfold", counted)
        dynamics._quadratic_phase.cache_clear()
        constants(first)
        weighted_radial_sup(first, 1.0, cfg.grid.extent / 4.0)
        assert dynamics._quadratic_phase.cache_info().misses == 17  # one per flow time
        constants(second)
        assert dynamics._quadratic_phase.cache_info().misses == 17
        assert unfolds == []

    @pytest.mark.parametrize("text", [INEQ_2D_TEXT, INEQ_3D_TEXT], ids=["2d", "3d"])
    def test_battery_constants_match_the_per_case_formulas(self, tmp_path, text):
        cfg = load_config(write_config(tmp_path / "a.ini", text))
        run_study(cfg, tmp_path / "out")
        lines = (tmp_path / "out" / "constants.csv").read_text().splitlines()[1:]
        names = [line.split(",")[0] for line in lines]
        got = np.array([float(line.split(",")[2]) for line in lines])
        expected = _per_case_constants(cfg)
        assert names == [name for name, _ in expected]
        want = np.array([c for _, c in expected])
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    @pytest.mark.filterwarnings("ignore::nlsbox.errors.UndersamplingWarning")
    def test_morawetz_writes_five_rows(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "a.ini", MORAWETZ_TEXT))
        report = run_study(cfg, tmp_path / "out")
        lines = (tmp_path / "out" / "morawetz.csv").read_text().splitlines()
        assert lines[0] == "family,quantity,bound,constant"
        assert len(lines) == 6
        assert math.isfinite(report.metrics["stability_ratio"])

    def test_scatter_series_and_metrics(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "a.ini", SCATTER_TEXT))
        report = run_study(cfg, tmp_path / "out")
        lines = (tmp_path / "out" / "pullback.csv").read_text().splitlines()
        assert lines[0] == "t,pullback_increment"
        assert report.metrics["count"] == len(lines) - 1
        assert report.metrics["first_increment"] > 0.0

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "a.ini", SWEEP_TEXT))
        run_study(cfg, tmp_path / "one")
        run_study(cfg, tmp_path / "two")
        names = sorted(os.listdir(tmp_path / "one"))
        assert names == sorted(os.listdir(tmp_path / "two"))
        for name in names:
            first = (tmp_path / "one" / name).read_bytes()
            second = (tmp_path / "two" / name).read_bytes()
            assert first == second, name

    @pytest.mark.filterwarnings("ignore::nlsbox.errors.UndersamplingWarning")
    def test_acceptance_configs_never_reach_full_grid_ffts(self, monkeypatch, tmp_path):
        # Each acceptance config at a 4-step horizon and a 3-field corpus:
        # every transform and product these studies make is of even data, so
        # the full-grid FFTs (and the non-even product built on them) stay idle.
        calls = []

        def refuse(*args, _name, **kwargs):
            calls.append(_name)
            raise AssertionError(f"scipy.fft.{_name} was called")

        for name in ("fftn", "ifftn", "rfftn", "irfftn"):
            monkeypatch.setattr(scipy.fft, name, partial(refuse, _name=name))
        for source in ("SWEEP_2D", "SWEEP_3D", "CONSERVE", "INEQ_2D", "INEQ_3D", "MORAWETZ",
                       "REPLAY"):
            parser = configparser.ConfigParser(interpolation=None)
            parser.read_string(getattr(test_acceptance, source))
            if parser.has_section("evolution"):
                dt = float(parser["evolution"]["dt"])
                parser["evolution"].update(t_final=repr(4 * dt), sample_every="2")
            if parser.has_section("corpus"):
                parser["corpus"]["count"] = "3"
            path = tmp_path / f"{source}.ini"
            with open(path, "w") as fh:
                parser.write(fh)
            run_study(load_config(str(path)), tmp_path / source)
        assert calls == []


class TestCli:
    def test_pass_exit_code(self, tmp_path, capsys):
        config = write_config(tmp_path / "a.ini", CONSERVE_TEXT)
        code = main(["conserve", "--config", config, "--out", str(tmp_path / "out")])
        assert code == 0
        assert "conserve: pass" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, capsys):
        text = CONSERVE_TEXT.replace("kind = gaussian", "kind = gaussian\nrogue = 1")
        config = write_config(tmp_path / "a.ini", text)
        code = main(["conserve", "--config", config, "--out", str(tmp_path / "out")])
        assert code == 3
        assert "rogue" in capsys.readouterr().err

    def test_out_of_range_seed_exit_code(self, tmp_path, capsys):
        # A config seed whose corpus keys pass 2^128 is a bad config value,
        # named as the config holds it, not as the key it makes.
        seed = (1 << 128) - 1
        text = INEQ_2D_TEXT.replace("seed = 2", f"seed = {seed}")
        config = write_config(tmp_path / "a.ini", text)
        code = main(["inequalities", "--config", config, "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert f"error: [study] seed = {seed}: must be at most" in err
        assert str(seed * 1_000_003) not in err and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("body", [CONSERVE_TEXT.encode() + b"# \xff\n",
                                      CONSERVE_TEXT.replace("dt = 0.01", "dt = 1e-320").encode(),
                                      CONSERVE_TEXT.replace("dt = 0.01", "dt = 1e-12").encode()],
                             ids=["not_utf8", "dt_overflow", "too_many_steps"])
    def test_unreadable_config_exit_code(self, tmp_path, capsys, body):
        path = tmp_path / "a.ini"
        path.write_bytes(body)
        code = main(["conserve", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_conserve_rerun_above_the_bound_exits_before_a_step(self, tmp_path, capsys,
                                                                 monkeypatch):
        calls = []
        monkeypatch.setattr(studies, "evolve", lambda *a, **kw: calls.append(a))
        text = CONSERVE_TEXT.replace("dt = 0.01\nt_final = 0.2", "dt = 1e-8\nt_final = 0.6")
        config = write_config(tmp_path / "a.ini", text)
        code = main(["conserve", "--config", config, "--out", str(tmp_path / "out")])
        assert code == 3 and calls == []
        assert capsys.readouterr().err.startswith("error: [evolution]: the rerun at dt/2: ")

    @pytest.mark.parametrize("out", ["afile/sub", "afile"])
    def test_out_that_cannot_be_a_directory_exit_code(self, tmp_path, capsys, monkeypatch, out):
        # A regular file where the directory or its parent should be: refused
        # before anything is evolved.
        calls = []
        monkeypatch.setattr(studies, "evolve", lambda *a, **kw: calls.append(a))
        (tmp_path / "afile").write_text("")
        config = write_config(tmp_path / "a.ini", CONSERVE_TEXT)
        code = main(["conserve", "--config", config, "--out", str(tmp_path / out)])
        assert code == 3 and calls == []
        assert "error: cannot make output directory" in capsys.readouterr().err

    def test_mismatched_subcommand(self, tmp_path, capsys):
        config = write_config(tmp_path / "a.ini", CONSERVE_TEXT)
        code = main(["scatter", "--config", config, "--out", str(tmp_path / "out")])
        assert code == 3
        capsys.readouterr()

    def test_instability_exit_code(self, tmp_path, capsys):
        text = CONSERVE_TEXT.replace("amplitude = 1.2", "amplitude = 1e160").replace(
            "dt = 0.01", "dt = 0.05"
        )
        config = write_config(tmp_path / "a.ini", text)
        code = main(["conserve", "--config", config, "--out", str(tmp_path / "out")])
        assert code == 4
        assert "unstable" in capsys.readouterr().err

    def test_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        import nlsbox.experiments.cli as cli

        report = StudyReport("conserve", False, {}, ())
        monkeypatch.setattr(cli, "run_study", lambda config, out: report)
        config = write_config(tmp_path / "a.ini", CONSERVE_TEXT)
        code = main(["conserve", "--config", config, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "conserve: fail" in capsys.readouterr().out

    def test_quiet_run_prints_a_zero_warning_count(self, tmp_path, capsys):
        config = write_config(tmp_path / "a.ini", CONSERVE_TEXT)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["conserve", "--config", config, "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err.splitlines() == ["warnings: 0"]

    def test_warning_lines_stay_and_are_counted(self, tmp_path):
        # A child interpreter shows warnings as a user sees them, on stderr.
        config = write_config(tmp_path / "a.ini", MORAWETZ_TEXT)
        env = {**os.environ, "PYTHONPATH": str(Path(nlsbox.__file__).parents[1])}
        run = subprocess.run(
            [sys.executable, "-m", "nlsbox.experiments.cli", "morawetz",
             "--config", config, "--out", str(tmp_path / "cli")],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert run.returncode == 0 and run.stdout == "morawetz: pass\n"
        lines = run.stderr.splitlines()
        shown = [line for line in lines if "UndersamplingWarning: " in line]
        assert shown and lines[-1] == f"warnings: {len(shown)}"
        # The count goes to stderr only: the artifacts are the study's own.
        with pytest.warns(UndersamplingWarning):
            run_study(load_config(config), tmp_path / "direct")
        names = sorted(os.listdir(tmp_path / "direct"))
        assert names == sorted(os.listdir(tmp_path / "cli"))
        for name in names:
            assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "direct" / name).read_bytes()

    def test_all_studies_are_subcommands(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        text = capsys.readouterr().out
        for name in STUDY_NAMES:
            assert name in text

    def test_config_drivers_and_subcommands_name_the_same_studies(self):
        parser = cli._build_parser()
        (subcommands,) = [
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        assert tuple(subcommands.choices) == STUDY_NAMES
        assert tuple(studies.STUDIES) == STUDY_NAMES
        assert tuple(cli._HELP) == STUDY_NAMES
        assert tuple(STUDY_TEXTS) == STUDY_NAMES
