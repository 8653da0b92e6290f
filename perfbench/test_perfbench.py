"""Checks of the benchmark itself.

    python3 -m pytest perfbench

They cover what the numbers rest on: the workloads keep the acceptance
sizes, the tracer reaches every binding of a traced function and puts
the originals back, a traced round writes the same bytes as an untraced
one and calls every function its workload expects, and the printed
result carries exactly the metrics ``BENCHMARK.json`` declares.
"""

import configparser
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _parse(text: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    return parser


def _nlsbox_modules():
    return [m for n, m in sys.modules.items() if n == "nlsbox" or n.startswith("nlsbox.")]


def _originals() -> dict:
    return {
        tracing._label(layer, name): getattr(sys.modules[module], name)
        for layer, (module, names) in tracing.LAYERS.items()
        for name in names
    }


def test_declared_workloads_are_the_implemented_ones():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_changes_only_horizon_corpus_and_seed(name):
    workload = workloads.WORKLOADS[name]
    allowed = {("evolution", "t_final"), ("evolution", "sample_every"),
               ("corpus", "count"), ("study", "seed")}
    base = _parse(workloads.acceptance_configs()[workload.source])
    derived = _parse(workload.config_text(7))
    assert derived.sections() == base.sections()
    for section in base.sections():
        assert set(derived[section]) == set(base[section])
        for key, value in base[section].items():
            if derived[section][key] != value:
                assert (section, key) in allowed
    assert derived["study"]["seed"] == "7"


def test_install_wraps_every_binding_and_uninstall_restores_it():
    originals = _originals()
    bound = {
        (module.__name__, attr): value
        for module in _nlsbox_modules()
        for attr, value in vars(module).items()
        if any(value is o for o in originals.values())
    }
    tracer = tracing.Tracer(16)
    tracer.install()
    try:
        for module in _nlsbox_modules():
            for attr, value in vars(module).items():
                assert not any(value is o for o in originals.values()), (module.__name__, attr)
        # Re-exports and cross-module imports are reached, not only the home module.
        assert getattr(sys.modules["nlsbox"], "evolve").__wrapped__ is originals["dynamics.evolve"]
        assert sys.modules["nlsbox.experiments.studies"].lp_project.__wrapped__ \
            is originals["multipliers.lp_project"]
    finally:
        tracer.uninstall()
    for (module_name, attr), value in bound.items():
        assert getattr(sys.modules[module_name], attr) is value


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_round_writes_same_bytes_and_calls_every_expected_function(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    cfg = workload.prepare(workloads.DEFAULT_SEED, tmp_path)
    runner = run.Runner(workload, workloads.DEFAULT_SEED, tmp_path)
    tracer = tracing.Tracer(cfg.grid.points)
    calibration = run.Calibration(workload.python_share)
    _, _, metrics = run.traced_pair(runner, cfg, tracer, calibration, 0)
    # Problems include differing artifacts, missing calls and a verdict
    # that misses the default seed's reference values.
    assert runner.problems == []
    assert runner.failed == 0
    for label in workload.expected:
        assert metrics[f"{label}.calls"] > 0, label


def test_an_expected_call_that_never_happens_fails_the_round(tmp_path):
    class Unreached(workloads.Battery3d):
        expected = workloads.Battery3d.expected + ("spectral.dealiased_power",)

    workload = Unreached()
    cfg = workload.prepare(workloads.DEFAULT_SEED, tmp_path)
    runner = run.Runner(workload, workloads.DEFAULT_SEED, tmp_path)
    calibration = run.Calibration(workload.python_share)
    run.traced_pair(runner, cfg, tracing.Tracer(cfg.grid.points), calibration, 0)
    assert runner.failed == 1
    assert "spectral.dealiased_power" in runner.problems[0]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_carries_exactly_the_declared_metrics(trace, section, capsys):
    assert run.main(["--workload", "battery-3d", "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
