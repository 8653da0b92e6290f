"""The benchmark's workloads, each derived from one acceptance config.

The config text is read out of ``tests/test_acceptance.py`` with ``ast``,
so the acceptance tests stay the one source of grid sizes, ``k`` and
``dt``.  A workload changes only the horizon (``t_final`` and
``sample_every``) or the corpus count, which keeps the per-step and
per-field cost exactly that of the acceptance runs, and writes the
benchmark seed into ``[study] seed``.

A workload is used in three steps: :meth:`Workload.prepare` writes the
config and loads it (set-up), :meth:`Workload.run` makes the timed calls
and returns the verdict numbers, and :meth:`Workload.check` lists what is
wrong with one run's outputs.
"""

from __future__ import annotations

import ast
import configparser
import csv
import math
from pathlib import Path

import nlsbox
from nlsbox import experiments
from nlsbox.experiments import studies

ROOT = Path(__file__).resolve().parent.parent
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"

DEFAULT_SEED = 0


def acceptance_configs(path: Path = ACCEPTANCE) -> dict:
    """Module-level string constants of the acceptance test file, by name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    out = {}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            out[node.targets[0].id] = node.value.value
    return out


def _finite_problems(where: str, values) -> list:
    return [f"{where}: non-finite value {v!r}" for v in values if not math.isfinite(v)]


class Workload:
    """One acceptance config with a shorter horizon or a smaller corpus."""

    name = ""
    source = ""  # name of the config constant in the acceptance tests
    overrides: dict = {}
    unit = ""  # what one unit of work_per_s counts
    # Weight of the pure-Python calibration kernel (see run.Calibration):
    # the weight with which the kernels' time tracked this workload's round
    # time best over about 60 rounds on a busy host.  Workloads whose time
    # goes to FFTs use 0; those spent in interpreter loops use about 0.4.
    python_share = 0.0
    # Traced functions that every run of this workload must call.
    expected: tuple = ()

    def config_text(self, seed: int) -> str:
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(acceptance_configs()[self.source])
        parser["study"]["seed"] = str(seed)
        for section, values in self.overrides.items():
            parser[section].update(values)
        lines = []
        for section in parser.sections():
            lines.append(f"[{section}]")
            lines.extend(f"{key} = {value}" for key, value in parser[section].items())
            lines.append("")
        return "\n".join(lines)

    def prepare(self, seed: int, run_dir: Path):
        """Write this workload's config for ``seed`` and load it."""
        path = run_dir / f"{self.name}.ini"
        path.write_text(self.config_text(seed))
        return experiments.load_config(str(path))

    def work_units(self, cfg) -> int:
        raise NotImplementedError

    def largest_array_bytes(self, cfg) -> int:
        """Bytes of the largest complex field array one step or field touches."""
        grid = cfg.grid
        pad = cfg.evolution.k + 1 if cfg.evolution is not None else 1
        return 16 * (pad * grid.points) ** grid.dim

    def run(self, cfg, out_dir: Path):
        """Make the timed calls; return the verdict numbers by name and the
        outputs :meth:`check` needs."""
        raise NotImplementedError

    def check(self, verdict: dict, outputs, out_dir: Path) -> list:
        """Problems with one run's outputs that must not occur for any seed."""
        problems = _finite_problems("verdict", verdict.values())
        for path in sorted(out_dir.glob("*.csv")):
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            for column in rows[0] if rows else ():
                if column in ("inequality", "family", "fitted_slope_so_far"):
                    continue  # labels, and a partial fit that is nan on row one
                problems += _finite_problems(
                    f"{path.name}:{column}", (float(row[column]) for row in rows)
                )
        return problems


class StudyWorkload(Workload):
    """A workload that is one ``run_study`` call."""

    def run(self, cfg, out_dir: Path):
        report = experiments.run_study(cfg, out_dir)
        return self.verdict(report.metrics), report

    def verdict(self, metrics: dict) -> dict:
        raise NotImplementedError


class Sweep2d(StudyWorkload):
    name = "sweep-2d"
    source = "SWEEP_2D"
    overrides = {"evolution": {"t_final": "0.004", "sample_every": "2"}}
    unit = "steps"
    expected = (
        "spectral.forward_transform", "spectral.inverse_transform",
        "spectral.dealiased_modulus_power", "spectral.make_radial_data",
        "multipliers.apply_symbol",
        "dynamics.evolve", "dynamics.strang_step", "dynamics.linear_flow",
        "dynamics.nonlinear_phase", "dynamics.energy",
        "imethod.modified_energy", "imethod.increment_ledger",
        "experiments.run_study", "experiments.load_config",
    )

    def work_units(self, cfg) -> int:
        return cfg.evolution.step_count()

    def verdict(self, metrics: dict) -> dict:
        return {"slope": metrics["slope"], "r_squared": metrics["r_squared"]}


class ConserveSmall(StudyWorkload):
    name = "conserve-small"
    source = "CONSERVE"
    overrides = {"evolution": {"t_final": "0.4"}}
    unit = "steps"
    python_share = 0.4  # thousands of sub-millisecond calls
    expected = (
        "spectral.forward_transform", "spectral.inverse_transform",
        "spectral.dealiased_modulus_power", "spectral.make_radial_data",
        "dynamics.evolve", "dynamics.strang_step", "dynamics.linear_flow",
        "dynamics.nonlinear_phase", "dynamics.energy", "dynamics.mass",
        "experiments.run_study", "experiments.load_config",
    )

    def work_units(self, cfg) -> int:
        # The study reruns the same horizon at half the step.
        return 3 * cfg.evolution.step_count()

    def verdict(self, metrics: dict) -> dict:
        return {
            "energy_drift_ratio": metrics["energy_drift_ratio"],
            "mass_drift": metrics["mass_drift"],
        }

    def check(self, verdict: dict, outputs, out_dir: Path) -> list:
        problems = super().check(verdict, outputs, out_dir)
        if not verdict["mass_drift"] <= studies.MASS_DRIFT_LIMIT:
            problems.append(
                f"mass drift {verdict['mass_drift']:.3e} exceeds {studies.MASS_DRIFT_LIMIT:.0e}"
            )
        return problems


class Battery3d(StudyWorkload):
    name = "battery-3d"
    source = "INEQ_3D"
    overrides = {"corpus": {"count": "4"}}
    unit = "fields"
    expected = (
        "spectral.forward_transform", "spectral.inverse_transform",
        "spectral.make_radial_data",
        "multipliers.apply_symbol", "multipliers.lp_project", "multipliers.low_pass",
        "multipliers.high_pass", "multipliers.smooth_cutoff",
        "norms.lebesgue_norm", "norms.sobolev_norm", "norms.mixed_norm",
        "dynamics.linear_flow",
        "experiments.run_study", "experiments.load_config", "experiments.radial_corpus",
    )

    def work_units(self, cfg) -> int:
        return cfg.corpus_count

    def verdict(self, metrics: dict) -> dict:
        return {f"max.{name}": case["max"] for name, case in metrics["cases"].items()}

    def check(self, verdict: dict, outputs, out_dir: Path) -> list:
        problems = super().check(verdict, outputs, out_dir)
        for name, case in outputs.metrics["cases"].items():
            if case["bound"] == "sharp" and not case["max"] <= 1.0 + studies.SHARP_SLACK:
                problems.append(f"sharp constant {name} = {case['max']!r} exceeds 1")
        return problems


class Checkpoint3d(Workload):
    """Evolve the 3d sweep datum, checkpoint it, reload it, ledger the reload."""

    name = "checkpoint-3d"
    source = "SWEEP_3D"
    overrides = {"evolution": {"t_final": "0.004", "sample_every": "2"}}
    unit = "steps"
    python_share = 0.4  # write_field formats every sample in a Python loop
    expected = (
        "spectral.forward_transform", "spectral.inverse_transform",
        "spectral.dealiased_modulus_power", "spectral.make_radial_data",
        "spectral.write_field", "spectral.read_field",
        "multipliers.apply_symbol",
        "dynamics.evolve", "dynamics.strang_step", "dynamics.linear_flow",
        "dynamics.nonlinear_phase", "dynamics.energy",
        "dynamics.write_checkpoint", "dynamics.read_checkpoint",
        "imethod.modified_energy", "imethod.increment_ledger",
        "experiments.load_config",
    )

    def work_units(self, cfg) -> int:
        return cfg.evolution.step_count()

    def run(self, cfg, out_dir: Path):
        datum = nlsbox.make_radial_data(cfg.grid, cfg.datum)
        traj = nlsbox.evolve(datum, cfg.evolution)
        nlsbox.write_checkpoint(traj, str(out_dir))
        reloaded = nlsbox.read_checkpoint(str(out_dir))
        totals = {}
        for count in cfg.n_list:
            icfg = nlsbox.IMethodConfig(
                N=cfg.grid.freq_step * count, s=cfg.s, k=cfg.evolution.k, dim=cfg.grid.dim
            )
            totals[f"ledger_total.n{count}"] = nlsbox.increment_ledger(reloaded, icfg).total_variation
        return totals, (traj, reloaded)

    def check(self, verdict: dict, outputs, out_dir: Path) -> list:
        problems = super().check(verdict, outputs, out_dir)
        written, reloaded = outputs
        if written.times != reloaded.times:
            problems.append(f"reloaded times {reloaded.times} differ from {written.times}")
        for i, (a, b) in enumerate(zip(written.fields, reloaded.fields)):
            same = a.grid == b.grid and a.rep == b.rep and a.samples.tobytes() == b.samples.tobytes()
            if not same:
                problems.append(f"reloaded sample {i} is not bitwise equal to the one written")
        if len(written) != len(reloaded):
            problems.append(f"wrote {len(written)} samples, reloaded {len(reloaded)}")
        return problems


WORKLOADS = {w.name: w for w in (Sweep2d(), ConserveSmall(), Battery3d(), Checkpoint3d())}
