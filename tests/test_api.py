"""Public API: every exported name resolves, each package's ``__all__`` is
its star-imported modules' ``__all__`` (and ``__version__``), and removed
names stay removed; every cache the package keeps has a bound or a named
reason to have none; every integer and real parameter goes through one rule,
and every modulus power through ``spectral._modulus_power``."""

import ast
import importlib
import math
import pkgutil

import numpy as np
import pytest

import nlsbox
from nlsbox import (
    DomainError,
    EvolutionParams,
    Field,
    Grid,
    IMethodConfig,
    MixedNormSpec,
    ProjectionBank,
    RadialProfile,
    critical_exponent,
    dealiased_modulus_power,
    dealiased_power,
    energy,
    high_pass,
    low_pass,
    lp_project,
    make_radial_data,
    nonlinear_phase,
    strichartz_admissible,
    vanishing_constant,
)

SUBMODULES = ("spectral", "multipliers", "dynamics", "norms", "imethod", "errors")
EXPERIMENT_MODULES = ("experiments.config", "experiments.corpus", "experiments.reports",
                      "experiments.studies")


def test_every_exported_name_resolves():
    missing = [name for name in nlsbox.__all__ if not hasattr(nlsbox, name)]
    assert missing == []
    assert len(set(nlsbox.__all__)) == len(nlsbox.__all__)


def star_imported(package) -> list:
    """The modules ``package`` re-exports by ``from .module import *``."""
    with open(package.__file__) as fh:
        tree = ast.parse(fh.read())
    return [importlib.import_module(f"{package.__name__}.{node.module}") for node in tree.body
            if isinstance(node, ast.ImportFrom) and [a.name for a in node.names] == ["*"]]


@pytest.mark.parametrize("module", SUBMODULES + EXPERIMENT_MODULES)
def test_submodule_exports_are_reexported(module):
    # The package's __all__ is the union of its star-imported modules'
    # __all__, which each of them defines, plus the version.
    package = importlib.import_module(f"nlsbox.{module}".rpartition(".")[0])
    sources = star_imported(package)
    assert [m.__name__ for m in sources].count(f"nlsbox.{module}") == 1
    assert all(isinstance(vars(m).get("__all__"), list) for m in sources)
    union = {name for m in sources for name in m.__all__}
    extra = {"__version__"} if package is nlsbox else set()
    assert sorted(package.__all__) == sorted(union | extra)
    assert len(set(package.__all__)) == len(package.__all__)


@pytest.mark.parametrize(
    "name",
    [
        "choose_lambda",
        "LambdaChoice",
        "vanishing_identity_check",
        "interval_partition",
        "AtomicIntervalError",
    ],
)
def test_removed_names_are_gone(name):
    # The dilation search and the boolean defect check had no caller
    # outside their own tests; commutator and rescale carry the behaviour.
    # The interval partition had none either, and at the acceptance
    # sampling one step already carries half the spacetime norm.
    assert name not in nlsbox.__all__
    assert not hasattr(nlsbox, name)
    assert not hasattr(nlsbox.imethod, name)
    assert not hasattr(nlsbox.errors, name)


def test_grid_has_no_stock_constructor():
    assert not hasattr(nlsbox.Grid, "default")


# Per-grid caches whose entries are block-sized or smaller, so a run's handful
# of grids bounds them: the block path's operators per padding factor, the
# fold weights, and the padded grid with the band's index arrays (n - 1
# entries per axis of each grid; only the full-grid path reads them).  Every
# other cache is bounded.
UNBOUNDED_CACHES = {
    "nlsbox.spectral._even_ops",
    "nlsbox.spectral._fold_weights",
    "nlsbox.spectral._padding",
}


def _is_cache(decorator) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "id", getattr(target, "attr", None)) in ("lru_cache", "cache")


def test_every_cache_is_bounded_or_named():
    found, decorated = {}, set()
    for info in pkgutil.walk_packages(nlsbox.__path__, "nlsbox."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_parameters") and obj.__module__ == info.name:
                found[f"{info.name}.{name}"] = obj.cache_parameters()["maxsize"]
        with open(module.__file__) as fh:
            tree = ast.parse(fh.read())
        decorated |= {f"{info.name}.{node.name}" for node in ast.walk(tree)
                      if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and any(_is_cache(d) for d in node.decorator_list)}
    # Every cache decorator in the sources is a module-level cache found above.
    assert decorated == set(found) and "nlsbox.spectral._mode_norm_sq" in found
    assert {name for name, maxsize in found.items() if maxsize is None} == UNBOUNDED_CACHES


_U = make_radial_data(Grid(2, 8.0, 16), RadialProfile("gaussian", width=2.0))
_BANK = ProjectionBank(-1, 3)

# (parameter name, call with the parameter as its argument, plain value); an
# integer parameter's plain value is an int, a real one's a float.
PARAMETERS = {
    "Grid.dim": ("dim", lambda v: Grid(v, 8.0, 32), 2),
    "Grid.points": ("points", lambda v: Grid(2, 8.0, v), 32),
    "EvolutionParams.dim": ("dim", lambda v: EvolutionParams(v, 1, 0.01, 0.1), 2),
    "EvolutionParams.k": ("k", lambda v: EvolutionParams(2, v, 0.01, 0.1), 2),
    "EvolutionParams.sample_every": (
        "sample_every", lambda v: EvolutionParams(2, 1, 0.01, 0.1, sample_every=v), 2),
    "IMethodConfig.dim": ("dim", lambda v: IMethodConfig(4.0, 0.8, 1, v), 3),
    "IMethodConfig.k": ("k", lambda v: IMethodConfig(4.0, 0.8, v, 2), 2),
    "strichartz_admissible.dim": ("dim", lambda v: strichartz_admissible(4.0, 4.0, v), 2),
    "critical_exponent.dim": ("dim", lambda v: critical_exponent(v, 1), 3),
    "critical_exponent.k": ("k", lambda v: critical_exponent(2, v), 2),
    "nonlinear_phase.k": ("k", lambda v: nonlinear_phase(_U, 0.01, v), 1),
    "energy.k": ("k", lambda v: energy(_U, v), 2),
    "vanishing_constant.k": ("k", vanishing_constant, 1),
    "RadialProfile.seed": (
        "seed", lambda v: RadialProfile("random_radial_superposition", seed=v), 7),
    "ProjectionBank.j_min": ("j_min", lambda v: ProjectionBank(v, 3), -1),
    "ProjectionBank.j_max": ("j_max", lambda v: ProjectionBank(-1, v), 3),
    "lp_project.j": ("j", lambda v: lp_project(_U, _BANK, v), 1),
    "dealiased_power.degree": ("degree", lambda v: dealiased_power(_U, v), 3),
    "dealiased_modulus_power.power": ("power", lambda v: dealiased_modulus_power(_U, v), 2),
    "low_pass.lam": ("lam", lambda v: low_pass(_U, v), 1.5),
    "high_pass.lam": ("lam", lambda v: high_pass(_U, v), 1.5),
    "MixedNormSpec.p_time": ("p_time", lambda v: MixedNormSpec(v, 4, 0.0, 1.0), 2.0),
    "MixedNormSpec.q_space": ("q_space", lambda v: MixedNormSpec(2, v, 0.0, 1.0), 4.0),
    "MixedNormSpec.t_start": ("t_start", lambda v: MixedNormSpec(2, 4, v, 1.0), 0.0),
    "MixedNormSpec.t_end": ("t_end", lambda v: MixedNormSpec(2, 4, 0.0, v), 1.0),
}


def _same(a, b) -> bool:
    """Equal results; fields bit for bit, anything else by value and repr, so a
    numpy scalar stored in place of a plain number shows."""
    if isinstance(a, Field):
        return (a.grid == b.grid and a.rep == b.rep
                and a.samples.tobytes() == b.samples.tobytes())
    return type(a) is type(b) and a == b and repr(a) == repr(b)


@pytest.mark.parametrize("name,call,plain", PARAMETERS.values(), ids=PARAMETERS.keys())
def test_numeric_parameters_share_one_rule(name, call, plain):
    # numpy scalars act as the plain number; a boolean, a string, NaN and, for
    # an integer, a float holding an integer raise DomainError naming the parameter.
    is_int = type(plain) is int
    kinds = (np.int64, np.int32) if is_int else (np.float64, np.float32)
    for kind in kinds:
        assert _same(call(kind(plain)), call(plain))
    for bad in (True, "1", math.nan) + ((float(plain),) if is_int else ()):
        with pytest.raises(DomainError, match=name):
            call(bad)


def _part_squared(node) -> str | None:
    """``"real"`` or ``"imag"`` for ``x.real ** 2`` or ``x.imag ** 2``, else ``None``."""
    squared = (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
               and getattr(node.right, "value", None) == 2)
    return getattr(node.left, "attr", None) if squared else None


def hand_formed_powers(tree) -> list:
    """Lines of ``tree`` that form a modulus power by hand, ``np.abs(x) ** p``
    or ``x.real**2 + x.imag**2``, outside a function named ``_modulus_power``."""
    exempt = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == "_modulus_power"
              for node in ast.walk(fn)}
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.BinOp) and id(node) not in exempt
        and (isinstance(node.op, ast.Pow) and isinstance(node.left, ast.Call)
             and getattr(node.left.func, "attr", None) == "abs"
             or isinstance(node.op, ast.Add)
             and {_part_squared(node.left), _part_squared(node.right)} == {"real", "imag"}))


def test_modulus_powers_follow_one_rule():
    # The rule itself is seen by the check, and only there is it exempt.
    snippet = "a = np.abs(u) ** p\nb = u.imag**2 + u.real**2\nc = np.abs(u) * u.real**2\n"
    assert hand_formed_powers(ast.parse(snippet)) == [1, 2]
    found = {}
    for info in pkgutil.walk_packages(nlsbox.__path__, "nlsbox."):
        with open(importlib.import_module(info.name).__file__) as fh:
            tree = ast.parse(fh.read())
        found[info.name] = hand_formed_powers(tree)
        if info.name == "nlsbox.spectral":
            rule = next(fn for fn in tree.body
                        if isinstance(fn, ast.FunctionDef) and fn.name == "_modulus_power")
            assert hand_formed_powers(ast.Module([rule], [])) == []
            rule.name = "elsewhere"
            assert len(hand_formed_powers(ast.Module([rule], []))) == 2
    assert {name: lines for name, lines in found.items() if lines} == {}
