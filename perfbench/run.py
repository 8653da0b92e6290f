"""Benchmark for nlsbox: one workload per invocation, in a fresh process.

    python3 perfbench/run.py --workload sweep-2d --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  The workload's timed calls are repeated
back to back ("rounds"; the first is cold) until ``--seconds`` have been
spent, one call after another in this one process.  The last line of
standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``.  See
``perfbench/README.md`` for the workloads and metrics.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import filecmp  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.fft  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

_IMPORTED = time.perf_counter()

HERE = Path(__file__).resolve().parent
CAL_REF_S = {"numeric": 0.025, "python": 0.025}
CAL_SHARE = 0.1
CAL_MIN_PASSES = 4
CAL_MAX_PASSES = 16
SETUP_REPEATS = 5
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2

# Per-call times from the ROADMAP.md baseline table, in ms, by traced
# label and argument size: (low, high) of the range it gives.
BASELINE_MS = {
    ("dynamics.strang_step", "256x256 k=2"): (110.0, 140.0),
    ("dynamics.strang_step", "64x64x64 k=1"): (510.0, 530.0),
    ("spectral.forward_transform", "256x256"): (1.7, 1.7),
    ("spectral.dealiased_modulus_power", "256x256 p=4"): (96.0, 96.0),
    ("imethod.modified_energy", "256x256"): (9.0, 9.0),
}


def _process_age() -> float:
    """Seconds since this process started (10 ms resolution), or 0.0."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return max(0.0, time.clock_gettime(time.CLOCK_BOOTTIME) - started)
    except (OSError, ValueError, IndexError):
        return 0.0


def _read_first(path: Path, default: str = "unknown") -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return default


def last_level_cache() -> tuple:
    """(level, size text) of the largest cache level cpu0 reports in /sys."""
    best = (0, "unknown")
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = int(_read_first(index / "level", "0"))
        if level >= best[0]:
            best = (level, _read_first(index / "size"))
    return best


def _size_bytes(text: str) -> int:
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    if text and text[-1] in units and text[:-1].isdigit():
        return int(text[:-1]) * units[text[-1]]
    return 0


def machine_facts() -> dict:
    status = _read_first(Path("/proc/self/status"), "")
    threads = next((line.split()[1] for line in status.splitlines()
                    if line.startswith("Threads:")), "unknown")
    cpuinfo = _read_first(Path("/proc/cpuinfo"), "")
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), "unknown")
    level, size = last_level_cache()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "scipy_fft_workers": scipy.fft.get_workers(),
        "blas": f"{blas['name']} {blas['version']}",
        "thread_env": {key: os.environ.get(key, "unset") for key in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "process_threads": threads,
        "last_level_cache": f"L{level} {size}",
    }


def _percentile_ms(values: list, q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return 1000.0 * values[0]
    return 1000.0 * statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _same_files(a: Path, b: Path) -> list:
    """Names of files that differ between two output directories."""
    names = sorted(os.listdir(a))
    if names != sorted(os.listdir(b)):
        return [f"file lists {names} and {sorted(os.listdir(b))}"]
    return [n for n in names if not filecmp.cmp(a / n, b / n, shallow=False)]


class Runner:
    """Times rounds of one workload and checks every round's outputs."""

    def __init__(self, workload, seed: int, run_dir: Path):
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        spec = json.loads((HERE / "reference.json").read_text())
        entry = spec["workloads"][workload.name]
        self.rel_tol = entry["rel_tol"]
        self.reference = entry["values"] if seed == spec["seed"] else None
        self.first_verdict = None
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.warning_count = 0

    def round(self, cfg, out_dir: Path) -> tuple:
        """One timed round: (wall seconds, cpu seconds, problems with its outputs)."""
        self.attempted += 1
        out_dir.mkdir()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                verdict, outputs = self.workload.run(cfg, out_dir)
                error = None
            except Exception as exc:  # a failed operation: count it and go on
                error = f"{type(exc).__name__}: {exc}"
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        self.warning_count += len(caught)
        problems = [error] if error else self.workload.check(verdict, outputs, out_dir)
        if not error:
            problems += self._compare_verdict(verdict)
        return wall, cpu, problems

    def _compare_verdict(self, verdict: dict) -> list:
        if self.first_verdict is None:
            self.first_verdict = verdict
        elif verdict != self.first_verdict:
            return [f"verdict {verdict} differs from the first round's {self.first_verdict}"]
        if self.reference is None:
            return []
        return [
            f"{key} = {verdict.get(key)!r}, reference {want!r} (rel tol {self.rel_tol:g})"
            for key, want in self.reference.items()
            if not abs(verdict.get(key, math.nan) - want) <= self.rel_tol * abs(want)
        ]

    def record(self, problems: list) -> None:
        """Count the operation just attempted as failed if it had problems."""
        if problems:
            self.failed += 1
            self.problems += problems


class Calibration:
    """Fixed kernels that use no nlsbox code, timed next to every round.

    The host's CPU speed drifts by up to a third over tens of seconds when
    other tenants are busy, and a round's time drifts with it.  The
    kernels' time measured just before and just after a round tracks that
    drift, so :meth:`factor` scales the round to the speed at which each
    kernel takes its ``CAL_REF_S`` entry.  The ``numeric`` kernel does
    FFTs on an L2-sized and on a larger array and many small ones
    (per-call overhead); the ``python`` kernel formats and parses float
    text in the interpreter.  They are weighted by the workload's
    ``python_share``.  FFT workers are pinned to 1, so a change to the
    package's threading cannot change the kernels.  After the first round
    the kernels repeat enough passes to take about ``CAL_SHARE`` of a
    round, which averages out their own jitter.
    """

    def __init__(self, python_share: float):
        rng = np.random.default_rng(20140501)
        self.mid = rng.standard_normal((256, 256)) + 0j
        self.big = rng.standard_normal((64, 64, 64)) + 0j
        self.small = rng.standard_normal((32, 32)) + 0j
        self.floats = rng.standard_normal(2000).tolist()
        self.weights = {"numeric": 1.0 - python_share, "python": python_share}
        self.passes = CAL_MIN_PASSES
        self.slowness = [self.measure()]

    def _numeric(self) -> None:
        fftn, ifftn = scipy.fft.fftn, scipy.fft.ifftn
        for _ in range(4):
            ifftn(fftn(self.mid, workers=1) * 0.5, workers=1)
        ifftn(fftn(self.big, workers=1) * 0.5, workers=1)
        for _ in range(200):
            np.abs(fftn(self.small, workers=1))

    def _python(self) -> None:
        for _ in range(6):
            text = "\n".join(f"{x!r} {-x!r}" for x in self.floats)
            sum(float(t) for t in text.split())

    def measure(self) -> float:
        """How much slower than the reference the host runs the kernels now."""
        kernels = {"numeric": self._numeric, "python": self._python}
        slowness = 0.0
        for name, weight in self.weights.items():
            if weight:
                start = time.perf_counter()
                for _ in range(self.passes):
                    kernels[name]()
                spent = (time.perf_counter() - start) / self.passes
                slowness += weight * spent / CAL_REF_S[name]
        return slowness

    def factor(self, round_s: float) -> float:
        """Scale for a round of ``round_s`` seconds just finished."""
        if len(self.slowness) == 1:
            pass_s = self.slowness[0] * sum(
                CAL_REF_S[name] for name, weight in self.weights.items() if weight)
            self.passes = min(CAL_MAX_PASSES, max(
                CAL_MIN_PASSES, round(CAL_SHARE * round_s / pass_s)))
        self.slowness.append(self.measure())
        return 2.0 / (self.slowness[-2] + self.slowness[-1])


def measure(runner: Runner, cfg, seconds: float, calibration: Calibration) -> dict:
    """Untraced rounds until ``seconds`` have passed; end-to-end metrics."""
    walls, cpus, raw = [], [], []
    start = time.perf_counter()
    while len(walls) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        out_dir = runner.run_dir / f"round{len(walls)}"
        wall, cpu, problems = runner.round(cfg, out_dir)
        runner.record(problems)
        factor = calibration.factor(wall)
        shutil.rmtree(out_dir)
        raw.append(wall)
        walls.append(wall * factor)
        cpus.append(cpu * factor)
    wall_s = statistics.median(walls)
    return {
        "wall_s": wall_s,
        "cpu_s": statistics.median(cpus),
        "work_per_s": runner.workload.work_units(cfg) / wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rounds": len(walls),
        "round_walls": walls,
        "raw_wall_s": statistics.median(raw),
    }


def traced_pair(runner: Runner, cfg, tracer, calibration: Calibration, index: int) -> tuple:
    """An untraced round, then the same round traced.

    The traced round loads its config again under the tracer, so
    ``load_config`` is traced.  It must write the same bytes as the
    untraced round and call every function the workload expects.
    Returns (untraced wall, traced wall, per-layer metrics of the traced
    round); the walls are calibrated.
    """
    workload = runner.workload
    plain_dir = runner.run_dir / f"round{2 * index}"
    traced_dir = runner.run_dir / f"round{2 * index + 1}"
    plain, _, problems = runner.round(cfg, plain_dir)
    runner.record(problems)
    plain *= calibration.factor(plain)
    tracer.counts.clear()
    begin = len(tracer.spans)
    tracer.install()
    try:
        traced_cfg = workload.prepare(runner.seed, runner.run_dir)
        traced, _, problems = runner.round(traced_cfg, traced_dir)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(begin)
    metrics["traced_wall_s"] = traced
    traced *= calibration.factor(traced)
    differing = _same_files(plain_dir, traced_dir)
    if differing:
        problems.append(f"traced round wrote different artifacts: {differing}")
    missing = [label for label in workload.expected if not metrics[f"{label}.calls"]]
    if missing:
        problems.append(f"expected traced calls never happened: {missing}")
    runner.record(problems)
    shutil.rmtree(plain_dir)
    shutil.rmtree(traced_dir)
    return plain, traced, metrics


def measure_traced(runner: Runner, cfg, seconds: float, calibration: Calibration) -> tuple:
    """Untraced and traced rounds in turn; per-layer metrics and the tracer."""
    tracer = tracing.Tracer(cfg.grid.points)
    plain, traced, per_round = [], [], []
    start = time.perf_counter()
    while len(traced) < MIN_TRACED_ROUNDS or time.perf_counter() - start < seconds:
        wall_plain, wall_traced, metrics = traced_pair(
            runner, cfg, tracer, calibration, len(traced))
        plain.append(wall_plain)
        traced.append(wall_traced)
        per_round.append(metrics)
    metrics = {key: statistics.median(r[key] for r in per_round) for key in per_round[0]}
    steps = tracer.step_durations()
    metrics["dynamics.strang_step.p50_ms"] = _percentile_ms(steps, 50)
    metrics["dynamics.strang_step.p90_ms"] = _percentile_ms(steps, 90)
    metrics["dynamics.strang_step.samples"] = len(steps)
    metrics["tracing.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    metrics["rounds"] = len(traced)
    metrics["round_walls"] = traced
    return metrics, tracer


def share_line(metrics: dict) -> str:
    """Each module's self time as a share of the traced rounds' (uncalibrated) wall time."""
    wall = metrics["traced_wall_s"]
    shares = {
        module: sum(v for k, v in metrics.items()
                    if k.startswith(module + ".") and k.endswith(".self_s")) / wall
        for module in tracing.MODULES
    }
    return "self-time shares of traced wall: " + ", ".join(
        f"{module} {share:.3f}" for module, share in shares.items())


def baseline_lines(tracer) -> list:
    lines = []
    for (label, size), (low, high) in BASELINE_MS.items():
        durations = [d for key, d in tracer.sized[label] if key == size]
        if not durations:
            continue
        ms = 1000.0 * statistics.median(durations)
        mid = 0.5 * (low + high)
        lines.append(
            f"baseline {label} [{size}]: median {ms:.2f} ms over {len(durations)} calls, "
            f"ROADMAP {low:g}-{high:g} ms, ratio {ms / mid:.2f}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = workloads.WORKLOADS[args.workload]
    boot_s = max(0.0, _process_age() - (time.perf_counter() - _T0))

    run_dir = HERE / "_runs" / f"{workload.name}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            cfg = workload.prepare(args.seed, run_dir)
            setups.append(time.perf_counter() - t)
        setup_raw = boot_s + (_IMPORTED - _T0) + statistics.median(setups)
        calibration = Calibration(workload.python_share)
        runner = Runner(workload, args.seed, run_dir)
        if args.trace:
            measured, tracer = measure_traced(runner, cfg, args.seconds, calibration)
            declared = spec["per_layer"]
        else:
            measured = measure(runner, cfg, args.seconds, calibration)
            measured["setup_s"] = setup_raw / calibration.slowness[0]
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    facts = machine_facts()
    llc = _size_bytes(facts["last_level_cache"].split()[-1])
    largest = workload.largest_array_bytes(cfg)
    print("machine: " + json.dumps(facts, sort_keys=True))
    print(f"workload {workload.name}: seed {args.seed}, {measured['rounds']} rounds of "
          f"{workload.work_units(cfg)} {workload.unit}; largest field array "
          f"{largest / 2**20:.1f} MiB vs last-level cache {llc / 2**20:.1f} MiB")
    print("round wall times (s): " + " ".join(f"{w:.3f}" for w in measured["round_walls"]))
    if "raw_wall_s" in measured:
        print(f"uncalibrated: median round wall {measured['raw_wall_s']:.4f} s, "
              f"set-up {setup_raw:.4f} s")
    print(f"host slowness: median {statistics.median(calibration.slowness):.3f} "
          f"over {calibration.passes} kernel passes per round")
    print("verdict: " + json.dumps(runner.first_verdict, sort_keys=True)
          + (f" (checked against reference.json, rel tol {runner.rel_tol:g})"
             if runner.reference is not None else " (no reference for this seed)"))
    print(f"error_rate: {runner.failed / runner.attempted:g} "
          f"({runner.failed} of {runner.attempted} operations failed); "
          f"{runner.warning_count} warnings raised by the package")
    for problem in runner.problems:
        print(f"FAILED: {problem}")
    if args.trace:
        print(share_line(measured))
        for line in baseline_lines(tracer):
            print(line)
        spans_path = HERE / "_runs" / f"spans-{workload.name}.csv"
        tracer.write_spans(spans_path, _T0)
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")

    metrics = {}
    for entry in declared:
        value = float(measured[entry["name"]])
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']} = {value:.6g} {entry['unit']}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
