"""Tests for the study configs, reports, drivers, and the CLI."""

import json
import math
import os

import numpy as np
import pytest

from nlsbox.errors import ConfigError
from nlsbox.experiments import (
    STUDY_NAMES,
    StudyReport,
    load_config,
    morawetz_families,
    radial_corpus,
    run_study,
)
from nlsbox.experiments.cli import main
from nlsbox.experiments.reports import write_rows
from nlsbox.spectral import Grid, make_radial_data


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

    def test_unknown_study_name(self, tmp_path):
        text = SWEEP_TEXT.replace("name = sweep-n", "name = sweeep")
        with pytest.raises(ConfigError, match="unknown study"):
            load_config(write_config(tmp_path / "a.ini", text))

    def test_unknown_key_rejected(self, tmp_path):
        text = SWEEP_TEXT.replace("width = 2.0", "width = 2.0\ncolour = red")
        with pytest.raises(ConfigError, match="colour"):
            load_config(write_config(tmp_path / "a.ini", text))

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

    def test_negative_seed(self, tmp_path):
        text = SWEEP_TEXT.replace("seed = 0", "seed = -2")
        with pytest.raises(ConfigError, match="seed"):
            load_config(write_config(tmp_path / "a.ini", text))


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
        text = """
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
        cfg = load_config(write_config(tmp_path / "a.ini", text))
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
        text = """
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
        cfg = load_config(write_config(tmp_path / "a.ini", text))
        report = run_study(cfg, tmp_path / "out")
        cases = report.metrics["cases"]
        assert {"radial_sobolev", "strichartz_10_3", "strichartz_2_6"} <= set(cases)
        assert "strichartz_4_4" not in cases

    @pytest.mark.filterwarnings("ignore::nlsbox.errors.UndersamplingWarning")
    def test_morawetz_writes_five_rows(self, tmp_path):
        text = """
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
        cfg = load_config(write_config(tmp_path / "a.ini", text))
        report = run_study(cfg, tmp_path / "out")
        lines = (tmp_path / "out" / "morawetz.csv").read_text().splitlines()
        assert lines[0] == "family,quantity,bound,constant"
        assert len(lines) == 6
        assert math.isfinite(report.metrics["stability_ratio"])

    def test_scatter_series_and_metrics(self, tmp_path):
        text = CONSERVE_TEXT.replace("name = conserve", "name = scatter") + (
            "\n[imethod]\ns = 0.8\n"
        )
        cfg = load_config(write_config(tmp_path / "a.ini", text))
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

    def test_all_studies_are_subcommands(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        text = capsys.readouterr().out
        for name in STUDY_NAMES:
            assert name in text
