"""Command line front end for the studies.

``nlsbox <study> --config file.ini --out dir`` runs one study and exits
with 0 when the study's acceptance condition holds, 2 when it fails,
3 on configuration problems, and 4 when the solver detects a blow-up.
"""

from __future__ import annotations

import argparse
import sys
import warnings

from ..errors import ConfigError, DomainError, InstabilityError, ResolutionError
from .config import STUDY_NAMES, load_config
from .studies import run_study

__all__ = ["main"]

EXIT_PASS = 0
EXIT_FAIL = 2
EXIT_CONFIG = 3
EXIT_UNSTABLE = 4

_HELP = {
    "sweep-n": "decay of the modified energy's variation in the smoothing cutoff",
    "conserve": "mass and energy drift of the splitting integrator",
    "inequalities": "fitted constants for the harmonic analysis battery",
    "morawetz": "interaction bound ratios over five data families",
    "scatter": "pullback increments along a nonlinear trajectory",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlsbox",
        description="Numerical studies for the defocusing splitting solver.",
    )
    sub = parser.add_subparsers(dest="study", required=True, metavar="study")
    for name in STUDY_NAMES:
        each = sub.add_parser(name, help=_HELP[name])
        each.add_argument("--config", required=True, help="INI study description")
        each.add_argument("--out", required=True, help="directory for the artifacts")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    with warnings.catch_warnings():  # count each warning shown, and show it as before
        shown, show = [], warnings.showwarning
        warnings.showwarning = lambda *w, **kw: (shown.append(w), show(*w, **kw))
        try:
            config = load_config(args.config)
            if config.name != args.study:
                raise ConfigError(
                    f"config names study {config.name!r} but the "
                    f"{args.study!r} subcommand was invoked"
                )
            report = run_study(config, args.out)
        except (ConfigError, DomainError, ResolutionError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except InstabilityError as exc:
            print(f"unstable: {exc}", file=sys.stderr)
            return EXIT_UNSTABLE
        finally:
            print(f"warnings: {len(shown)}", file=sys.stderr)
    print(f"{report.study}: {'pass' if report.passed else 'fail'}")
    return EXIT_PASS if report.passed else EXIT_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
