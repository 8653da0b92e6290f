"""Per-module spans and counts for the traced benchmark run.

:class:`Tracer` wraps public functions of the package from outside.  A
function is often bound under its name in several modules (``studies``
does ``from ..dynamics import evolve``, ``nlsbox`` re-exports nearly
everything, and ``spectral`` calls its own transforms through its
globals), so :meth:`Tracer.install` replaces every binding of the
original function object in every loaded ``nlsbox`` module, and
:meth:`Tracer.uninstall` puts the originals back.  Nothing under ``src/``
is edited.

Each call records one span ``(label, start, end, parent)`` in memory.  A
span's self time is its duration minus the durations of its child spans;
calls are made one after another in one thread, so children never
overlap.  Counts (transformed points, bytes written, symbol radii) are
taken at the same boundaries.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

import numpy as np

# Layer -> (module, function names).  Labels are "<layer>.<function>".
LAYERS = {
    "spectral": ("nlsbox.spectral", (
        "forward_transform", "inverse_transform", "dealiased_power",
        "dealiased_modulus_power", "make_radial_data", "write_field", "read_field",
    )),
    "multipliers": ("nlsbox.multipliers", (
        "apply_symbol", "lp_project", "low_pass", "high_pass", "smooth_cutoff",
    )),
    "norms": ("nlsbox.norms", ("lebesgue_norm", "sobolev_norm", "mixed_norm")),
    "dynamics": ("nlsbox.dynamics", (
        "evolve", "strang_step", "linear_flow", "nonlinear_phase", "energy", "mass",
        "write_checkpoint", "read_checkpoint",
    )),
    "imethod": ("nlsbox.imethod", ("modified_energy", "increment_ledger")),
    "experiments.studies": ("nlsbox.experiments.studies", ("run_study",)),
    "experiments.config": ("nlsbox.experiments.config", ("load_config",)),
    "experiments.corpus": ("nlsbox.experiments.corpus", ("radial_corpus",)),
    "experiments.reports": ("nlsbox.experiments.reports", (
        "write_rows", "stage_csv", "write_report",
    )),
}
# The submodules of ``experiments`` report under the layer name alone.
MODULES = ("spectral", "multipliers", "norms", "dynamics", "imethod", "experiments")
ARTIFACT_WRITERS = ("write_rows", "stage_csv", "write_report")

# Calls whose per-call duration is kept by argument size, for the
# comparison against the baseline table in ROADMAP.md.
SIZED = ("dynamics.strang_step", "spectral.forward_transform",
         "spectral.dealiased_modulus_power", "imethod.modified_energy")

# complex128 transforms read and write 16 bytes per point.
_FFT_BYTES_PER_POINT = 32


def _label(layer: str, name: str) -> str:
    return f"{layer.split('.')[0]}.{name}"


def traced_labels() -> list:
    return [_label(layer, name) for layer, (_, names) in LAYERS.items() for name in names]


def _size_key(label: str, args) -> str:
    shape = "x".join(str(n) for n in args[0].grid.shape)
    if label == "dynamics.strang_step":
        return f"{shape} k={args[1].k}"
    if label == "spectral.dealiased_modulus_power":
        return f"{shape} p={args[1]}"
    return shape


class Tracer:
    """Spans and counts for calls into the package, kept in memory.

    ``base_points`` is the points per axis of the workload's own grid; a
    transform on any other grid is counted as a padded-grid transform.
    """

    def __init__(self, base_points: int):
        self.base_points = base_points
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self.sized: dict = defaultdict(list)
        self._stack: list = []
        self._patches: list = []

    # -- patching -----------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every traced function in loaded nlsbox modules."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in sys.modules.items() if n == "nlsbox" or n.startswith("nlsbox.")]
        for layer, (module_name, names) in LAYERS.items():
            home = sys.modules[module_name]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(_label(layer, name), original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)
        field = sys.modules["nlsbox.spectral"].Field
        original_init = field.__init__
        counts = self.counts

        def counting_init(obj, *args, **kwargs):
            counts["spectral.Field.constructions"] += 1
            original_init(obj, *args, **kwargs)

        self._patches.append((field, "__init__", original_init))
        field.__init__ = counting_init

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, label: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        probe = self._probe(label)
        sized = self.sized[label] if label in SIZED else None

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (label, start, end, parent)
                if sized is not None:
                    sized.append((_size_key(label, args), end - start))
                if probe is not None:
                    probe(args)

        traced.__wrapped__ = fn
        return traced

    def _probe(self, label: str):
        """Counter update run after each call of ``label``, or None."""
        counts = self.counts
        name = label.split(".", 1)[1]

        def counter(key, amount):
            def probe(args):
                counts[key] += amount(args)
            return probe

        if name in ("forward_transform", "inverse_transform"):
            def probe(args):
                grid = args[0].grid
                counts["spectral.fft_points"] += grid.size
                if grid.points != self.base_points:
                    counts["spectral.padded_fft_points"] += grid.size
            return probe
        if name == "write_field":
            return counter("spectral.write_field.bytes", lambda a: os.path.getsize(a[1]))
        if name == "read_field":
            return counter("spectral.read_field.bytes", lambda a: os.path.getsize(a[0]))
        if name == "smooth_cutoff":
            return counter("multipliers.symbol_points", lambda a: np.size(a[0]))
        if name == "write_rows":
            return counter("experiments.bytes_written", lambda a: os.path.getsize(a[0]))
        if name == "stage_csv":
            return counter("experiments.bytes_written", lambda a: os.path.getsize(a[1]))
        if name == "write_report":
            return counter("experiments.bytes_written",
                           lambda a: os.path.getsize(os.path.join(a[1], "report.json")))
        return None

    # -- results ------------------------------------------------------

    def self_times(self, begin: int = 0) -> tuple:
        """(calls by label, self seconds by label) over the spans from ``begin`` on."""
        spans = self.spans
        inner = [0.0] * len(spans)
        for label, start, end, parent in spans[begin:]:
            if parent >= 0:
                inner[parent] += end - start
        calls: dict = defaultdict(int)
        self_s: dict = defaultdict(float)
        for i in range(begin, len(spans)):
            label, start, end, _ = spans[i]
            calls[label] += 1
            self_s[label] += end - start - inner[i]
        return calls, self_s

    def metrics(self, begin: int = 0) -> dict:
        """Per-layer metrics of the spans from ``begin`` on and of the counts."""
        calls, self_s = self.self_times(begin)
        out: dict = {}
        for label in traced_labels():
            if label.split(".", 1)[1] in ARTIFACT_WRITERS:
                continue
            out[f"{label}.calls"] = calls[label]
            out[f"{label}.self_s"] = self_s[label]
        out["experiments.artifacts.self_s"] = sum(
            self_s[f"experiments.{name}"] for name in ARTIFACT_WRITERS)
        counts = self.counts
        fft_points = counts["spectral.fft_points"]
        out["spectral.Field.constructions"] = counts["spectral.Field.constructions"]
        out["spectral.fft_points"] = fft_points
        out["spectral.fft_bytes_computed"] = _FFT_BYTES_PER_POINT * fft_points
        out["spectral.padded_fft_share"] = (
            counts["spectral.padded_fft_points"] / fft_points if fft_points else 0.0)
        for key in ("spectral.write_field.bytes", "spectral.read_field.bytes",
                    "multipliers.symbol_points", "experiments.bytes_written"):
            out[key] = counts[key]
        return out

    def step_durations(self) -> list:
        return [end - start for label, start, end, _ in self.spans
                if label == "dynamics.strang_step"]

    def write_spans(self, path, origin: float) -> None:
        """Write the recorded spans as CSV, times in seconds from ``origin``."""
        with open(path, "w") as fh:
            fh.write("id,parent,label,start_s,end_s\n")
            for i, (label, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{parent},{label},{start - origin:.7f},{end - origin:.7f}\n")
