"""Study descriptions read from INI files.

A study is configured by a small UTF-8 INI file with a fixed vocabulary of
sections and keys.  Parsing is strict on purpose: unknown sections,
unknown or unused keys, and malformed values all raise
:class:`ConfigError`, so a typo cannot silently change an experiment.
"""

from __future__ import annotations

import configparser
import dataclasses
from dataclasses import dataclass

from ..dynamics import EvolutionParams, _field_rules
from ..errors import (ConfigError, DomainError, ResolutionError, _require_increasing,
                      _require_integer)
from ..multipliers import _require_resolved, i_operator_symbol
from ..spectral import Grid, RadialProfile
from .corpus import _SEED_STRIDE, member_seed

__all__ = ["STUDY_NAMES", "StudyConfig", "load_config"]

REQUIRED = dataclasses.MISSING  # the default of a key every config must give


def _at_least(low: int, name: str = "value"):
    return lambda text: _require_integer(name, int(text), low)


_mode_count = _at_least(1, "mode count")


def _fraction(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise ValueError(f"{value} is outside (0, 1)")
    return value


def _mode_counts(text: str) -> tuple[int, ...]:
    values = tuple(_mode_count(part) for part in text.replace(",", " ").split())
    if len(values) < 2:
        raise ValueError("needs at least two mode counts")
    _require_increasing("mode counts", values)
    return values


def _defocusing(text: str) -> str:
    if text.strip().lower() != "defocusing":
        raise ValueError("only the defocusing sign is implemented")
    return "defocusing"


# study -> {section: {key: (cast, default)}} for the sections and keys the
# study reads; any other section or key is rejected.  The cast turns the
# text into a value and raises ValueError when it is out of range.  A key
# whose default is REQUIRED must be given, so a section may be left out
# only if it has none ([corpus]).  [grid], [evolution] and [datum] are the
# fields of Grid, EvolutionParams (its dim is the grid's) and RadialProfile
# (its seed is the study's), with their types and defaults.
_COMMON = {
    "study": {"name": (str.strip, REQUIRED), "seed": (_at_least(0), 0)},
    "grid": _field_rules(Grid),
}
_EVOLUTION = {**_field_rules(EvolutionParams, "dim"),
              "nonlinearity": (_defocusing, "defocusing")}
_S = {"s": (_fraction, REQUIRED)}
_DATUM = _field_rules(RadialProfile, "seed")
_LAYOUT = {
    "sweep-n": {
        **_COMMON,
        "evolution": _EVOLUTION,
        "imethod": {**_S, "n_list": (_mode_counts, REQUIRED)},
        "datum": _DATUM,
    },
    "conserve": {**_COMMON, "evolution": _EVOLUTION, "datum": _DATUM},
    "inequalities": {
        **_COMMON,
        "imethod": {**_S, "n": (_mode_count, REQUIRED)},
        "corpus": {"count": (_at_least(2), 100)},
    },
    "morawetz": {**_COMMON, "evolution": _EVOLUTION},
    "scatter": {**_COMMON, "evolution": _EVOLUTION, "imethod": _S, "datum": _DATUM},
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


def _read(parser: configparser.ConfigParser, section: str, key: str, cast, default):
    if not parser.has_option(section, key):
        if default is REQUIRED:
            raise ConfigError(f"[{section}] is missing {key!r}")
        return default
    raw = parser[section][key]
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from None


def _build(section: str, make, **kwargs):
    try:
        return make(**kwargs)
    except DomainError as exc:
        raise ConfigError(f"[{section}]: {exc}") from None


def _halved(params: EvolutionParams) -> EvolutionParams:
    """The ``conserve`` study's rerun of ``params``: the same horizon and
    sample instants at half the step, so twice the steps."""
    try:
        return dataclasses.replace(params, dt=0.5 * params.dt,
                                   sample_every=2 * params.sample_every)
    except DomainError as exc:
        raise DomainError(f"the rerun at dt/2: {exc}") from None


def _resolved(grid: Grid, s: float, count: int) -> None:
    """Refuse a mode count whose smoothing symbol the grid cannot resolve: the
    check a study's first ``apply_symbol`` would make, before any run."""
    try:
        _require_resolved(grid, i_operator_symbol(grid.freq_step * count, s))
    except ResolutionError as exc:
        raise DomainError(f"mode count {count}: {exc}") from None


def load_config(path) -> StudyConfig:
    """Read and validate a study description from an INI file."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        loaded = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path!r}: {exc}") from None
    if not loaded:
        raise ConfigError(f"cannot read config file {path!r}")
    name = _read(parser, "study", "name", str.strip, REQUIRED)
    if name not in STUDY_NAMES:
        raise ConfigError(f"unknown study {name!r}, expected one of {STUDY_NAMES}")
    layout = _LAYOUT[name]
    for section in parser.sections():
        if section not in layout:
            raise ConfigError(f"study {name!r} does not read section [{section}]")
        extra = sorted(set(parser[section]) - set(layout[section]))
        if extra:
            raise ConfigError(f"study {name!r} does not read key(s) {extra} in [{section}]")
    values = {
        section: {key: _read(parser, section, key, *rule) for key, rule in keys.items()}
        for section, keys in layout.items()
    }

    seed = values["study"]["seed"]
    # Corpus keys are member_seed(seed, index), the largest at count - 1 (morawetz: 2).
    last = values["corpus"]["count"] - 1 if "corpus" in values else {"morawetz": 2}.get(name)
    if last is not None and member_seed(seed, last) >> 128:
        limit = ((1 << 128) - 1 - last) // _SEED_STRIDE
        raise ConfigError(f"[study] seed = {seed}: must be at most {limit}, "
                          "so that its corpus keys stay below 2**128")
    grid = _build("grid", Grid, **values["grid"])
    fields: dict = {"name": name, "seed": seed, "grid": grid}
    if "evolution" in values:
        del values["evolution"]["nonlinearity"]  # checked by its cast; the only sign
        fields["evolution"] = _build("evolution", EvolutionParams, **values["evolution"],
                                     dim=grid.dim)
        if name == "conserve":  # its rerun at dt/2 is refused here, not after the first run
            _build("evolution", _halved, params=fields["evolution"])
    imethod = values.get("imethod", {})
    for count in imethod.get("n_list", [imethod["n"]] if "n" in imethod else []):
        _build("imethod", _resolved, grid=grid, s=imethod["s"], count=count)
    fields.update(imethod)
    if "datum" in values:
        fields["datum"] = _build("datum", RadialProfile, **values["datum"], seed=seed)
    if "corpus" in values:
        fields["corpus_count"] = values["corpus"]["count"]
    return StudyConfig(**fields)
