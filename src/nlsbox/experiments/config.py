"""Study descriptions read from INI files.

A study is configured by a small UTF-8 INI file with a fixed vocabulary of
sections and keys.  Parsing is strict on purpose: unknown sections,
unknown or unused keys, and malformed values all raise
:class:`ConfigError`, so a typo cannot silently change an experiment.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass

from ..dynamics import EvolutionParams
from ..errors import ConfigError, DomainError, _require_increasing, _require_integer
from ..spectral import Grid, RadialProfile
from .corpus import _SEED_STRIDE, member_seed

__all__ = ["STUDY_NAMES", "StudyConfig", "load_config"]

REQUIRED = object()  # the default of a key every config must give


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


def _boolean(text: str) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES
    if text.strip().lower() not in states:
        raise ValueError(f"expected one of {sorted(states)}")
    return states[text.strip().lower()]


def _defocusing(text: str) -> str:
    if text.strip().lower() != "defocusing":
        raise ValueError("only the defocusing sign is implemented")
    return "defocusing"


# study -> {section: {key: (cast, default)}} for the sections and keys the
# study reads; any other section or key is rejected.  The cast turns the
# text into a value and raises ValueError when it is out of range.  A key
# whose default is REQUIRED must be given, so a section may be left out
# only if it has none ([corpus]).
_COMMON = {
    "study": {"name": (str.strip, REQUIRED), "seed": (_at_least(0), 0)},
    "grid": {"dim": (int, REQUIRED), "extent": (float, REQUIRED), "points": (int, REQUIRED)},
}
_EVOLUTION = {
    "k": (int, REQUIRED),
    "dt": (float, REQUIRED),
    "t_final": (float, REQUIRED),
    "sample_every": (int, 1),
    "dealias": (_boolean, True),
    "nonlinearity": (_defocusing, "defocusing"),
}
_S = {"s": (_fraction, REQUIRED)}
_DATUM = {"kind": (str.strip, REQUIRED), "amplitude": (float, 1.0), "width": (float, 1.0)}
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


def _build(values: dict, section: str, cls, **extra):
    try:
        return cls(**values[section], **extra)
    except DomainError as exc:
        raise ConfigError(f"[{section}]: {exc}") from None


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
    grid = _build(values, "grid", Grid)
    fields: dict = {"name": name, "seed": seed, "grid": grid}
    if "evolution" in values:
        del values["evolution"]["nonlinearity"]  # checked by its cast; the only sign
        fields["evolution"] = _build(values, "evolution", EvolutionParams, dim=grid.dim)
    fields.update(values.get("imethod", {}))
    if "datum" in values:
        fields["datum"] = _build(values, "datum", RadialProfile, seed=seed)
    if "corpus" in values:
        fields["corpus_count"] = values["corpus"]["count"]
    return StudyConfig(**fields)
