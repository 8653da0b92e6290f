"""Public API: every exported name resolves, each package's ``__all__`` is
its star-imported modules' ``__all__`` (and ``__version__``), and removed
names stay removed; every cache the package keeps has a bound or a named
reason to have none."""

import ast
import importlib
import pkgutil

import pytest

import nlsbox

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
    assert decorated == set(found) and "nlsbox.spectral._checkerboard" in found
    assert {name for name, maxsize in found.items() if maxsize is None} == UNBOUNDED_CACHES
