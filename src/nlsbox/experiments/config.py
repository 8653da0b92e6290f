"""Study descriptions read from INI files.

A study is configured by a small INI file with a fixed vocabulary of
sections and keys.  Parsing is strict on purpose: unknown sections,
unknown or unused keys, and malformed values all raise
:class:`ConfigError`, so a typo cannot silently change an experiment.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass

from ..dynamics import EvolutionParams
from ..errors import ConfigError, DomainError, _require_count
from ..spectral import Grid, RadialProfile

__all__ = ["STUDY_NAMES", "StudyConfig", "load_config"]

_COMMON = {"study": ("name", "seed"), "grid": ("dim", "extent", "points")}
_EVOLUTION = ("k", "dt", "t_final", "sample_every", "dealias", "nonlinearity")
_DATUM = ("kind", "amplitude", "width")

# study -> {section: keys the study reads there}.  Every section listed is
# required except [corpus]; any other section or key is rejected.
_LAYOUT = {
    "sweep-n": {
        **_COMMON, "evolution": _EVOLUTION, "imethod": ("s", "n_list"), "datum": _DATUM
    },
    "conserve": {**_COMMON, "evolution": _EVOLUTION, "datum": _DATUM},
    "inequalities": {**_COMMON, "imethod": ("s", "n"), "corpus": ("count",)},
    "morawetz": {**_COMMON, "evolution": _EVOLUTION},
    "scatter": {**_COMMON, "evolution": _EVOLUTION, "imethod": ("s",), "datum": _DATUM},
}
STUDY_NAMES = tuple(_LAYOUT)


@dataclass(frozen=True)
class StudyConfig:
    """Parsed and validated study description.

    Only the fields used by ``name`` are populated; the rest keep their
    defaults.  ``n`` and the entries of ``n_list`` are integer mode
    counts, converted to raw frequency cutoffs by the studies through
    ``grid.freq_step``.
    """

    name: str
    seed: int
    grid: Grid
    evolution: EvolutionParams | None = None
    s: float | None = None
    n: int | None = None
    n_list: tuple[int, ...] = ()
    datum: RadialProfile | None = None
    corpus_count: int = 100


def _value(section: str, key: str, raw: str, caster):
    try:
        return caster(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from None


def _boolean(section: str, key: str, raw: str) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES
    try:
        return states[raw.strip().lower()]
    except KeyError:
        raise ConfigError(
            f"[{section}] {key} = {raw!r}: expected one of {sorted(states)}"
        ) from None


def _check_layout(parser: configparser.ConfigParser, name: str) -> None:
    layout = _LAYOUT[name]
    present = set(parser.sections())
    missing = set(layout) - present - {"corpus"}
    if missing:
        raise ConfigError(f"study {name!r} needs section(s) {sorted(missing)}")
    unknown = present - set(layout)
    if unknown:
        raise ConfigError(f"study {name!r} does not read section(s) {sorted(unknown)}")
    for section in parser.sections():
        extra = set(parser[section]) - set(layout[section])
        if extra:
            raise ConfigError(
                f"study {name!r} does not read key(s) {sorted(extra)} in [{section}]"
            )


def _parse_grid(section) -> Grid:
    for key in ("dim", "extent", "points"):
        if key not in section:
            raise ConfigError(f"[grid] is missing {key!r}")
    dim = _value("grid", "dim", section["dim"], int)
    extent = _value("grid", "extent", section["extent"], float)
    points = _value("grid", "points", section["points"], int)
    try:
        return Grid(dim, extent, points)
    except DomainError as exc:
        raise ConfigError(f"[grid]: {exc}") from None


def _parse_evolution(section, grid: Grid) -> EvolutionParams:
    for key in ("k", "dt", "t_final"):
        if key not in section:
            raise ConfigError(f"[evolution] is missing {key!r}")
    sign = section.get("nonlinearity", "defocusing").strip().lower()
    if sign != "defocusing":
        raise ConfigError(
            f"[evolution] nonlinearity = {sign!r}: only the defocusing sign "
            "is implemented"
        )
    try:
        return EvolutionParams(
            dim=grid.dim,
            k=_value("evolution", "k", section["k"], int),
            dt=_value("evolution", "dt", section["dt"], float),
            t_final=_value("evolution", "t_final", section["t_final"], float),
            sample_every=_value(
                "evolution", "sample_every", section.get("sample_every", "1"), int
            ),
            dealias=_boolean("evolution", "dealias", section.get("dealias", "true")),
        )
    except DomainError as exc:
        raise ConfigError(f"[evolution]: {exc}") from None


def _parse_mode_count(key: str, raw: str) -> int:
    return _value("imethod", key, raw, lambda text: _require_count(key, int(text)))


def _parse_imethod(section, name: str) -> dict:
    wanted = _LAYOUT[name]["imethod"]
    missing = set(wanted) - set(section)
    if missing:
        raise ConfigError(f"[imethod] is missing {sorted(missing)} for study {name!r}")
    out: dict = {"s": _value("imethod", "s", section["s"], float)}
    if not 0.0 < out["s"] < 1.0:
        raise ConfigError(f"[imethod] s = {out['s']} is outside (0, 1)")
    if "n" in wanted:
        out["n"] = _parse_mode_count("n", section["n"])
    if "n_list" in wanted:
        parts = section["n_list"].replace(",", " ").split()
        values = tuple(_parse_mode_count("n_list", p) for p in parts)
        if len(values) < 2:
            raise ConfigError("[imethod] n_list needs at least two mode counts")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ConfigError("[imethod] n_list must be strictly increasing")
        out["n_list"] = values
    return out


def _parse_datum(section, seed: int) -> RadialProfile:
    if "kind" not in section:
        raise ConfigError("[datum] is missing 'kind'")
    try:
        return RadialProfile(
            kind=section["kind"].strip(),
            amplitude=_value("datum", "amplitude", section.get("amplitude", "1.0"), float),
            width=_value("datum", "width", section.get("width", "1.0"), float),
            seed=seed,
        )
    except DomainError as exc:
        raise ConfigError(f"[datum]: {exc}") from None


def load_config(path) -> StudyConfig:
    """Read and validate a study description from an INI file."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        loaded = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path!r}: {exc}") from None
    if not loaded:
        raise ConfigError(f"cannot read config file {path!r}")
    if "study" not in parser:
        raise ConfigError("config needs a [study] section")
    if "name" not in parser["study"]:
        raise ConfigError("[study] is missing 'name'")
    name = parser["study"]["name"].strip()
    if name not in STUDY_NAMES:
        raise ConfigError(f"unknown study {name!r}, expected one of {STUDY_NAMES}")
    _check_layout(parser, name)

    seed = _value("study", "seed", parser["study"].get("seed", "0"), int)
    if seed < 0:
        raise ConfigError(f"[study] seed = {seed} must be nonnegative")
    grid = _parse_grid(parser["grid"])

    fields: dict = {"name": name, "seed": seed, "grid": grid}
    if "evolution" in parser:
        fields["evolution"] = _parse_evolution(parser["evolution"], grid)
    if "imethod" in parser:
        fields.update(_parse_imethod(parser["imethod"], name))
    if "datum" in parser:
        fields["datum"] = _parse_datum(parser["datum"], seed)
    if "corpus" in parser:
        count = _value("corpus", "count", parser["corpus"].get("count", "100"), int)
        if count < 2:
            raise ConfigError(f"[corpus] count = {count}: need at least two fields")
        fields["corpus_count"] = count
    return StudyConfig(**fields)
