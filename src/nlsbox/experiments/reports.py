"""Study reports and atomic artifact writes.

Reports serialise to JSON with sorted keys and without timestamps, so
repeating a run with the same configuration produces byte-identical
output.  Artifacts are first written next to their destination and then
moved into place with ``os.replace``; an interrupted run never leaves a
half-written file behind.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

__all__ = ["StudyReport", "write_report"]


@dataclass(frozen=True)
class StudyReport:
    """Outcome of one study run.

    ``passed`` feeds the process exit code; ``metrics`` holds only JSON
    friendly scalars and containers; ``artifacts`` lists the CSV files
    written alongside ``report.json``.
    """

    study: str
    passed: bool
    metrics: dict
    artifacts: tuple[str, ...]

    def to_json(self) -> str:
        payload = {
            "study": self.study,
            "passed": self.passed,
            "metrics": self.metrics,
            "artifacts": list(self.artifacts),
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def stage_csv(writer, path) -> None:
    """Run a ``writer(path)`` callable against a staging file, then move it."""
    tmp = f"{path}.tmp"
    writer(tmp)
    os.replace(tmp, path)


def atomic_write_text(path, text: str) -> None:
    stage_csv(lambda tmp: Path(tmp).write_text(text), path)


def _cell(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)  # numpy's floats too


def write_rows(path, header: str, rows) -> None:
    """Write a CSV atomically; floats use ``repr`` so reads round-trip."""
    lines = [header]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_report(report: StudyReport, directory) -> str:
    path = os.path.join(directory, "report.json")
    atomic_write_text(path, report.to_json())
    return path
