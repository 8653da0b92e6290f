"""Public API: every exported name resolves, each submodule's exports are
re-exported by the package, and removed names stay removed."""

import importlib

import pytest

import nlsbox

SUBMODULES = ("spectral", "multipliers", "dynamics", "norms", "imethod", "errors")


def test_every_exported_name_resolves():
    missing = [name for name in nlsbox.__all__ if not hasattr(nlsbox, name)]
    assert missing == []
    assert len(set(nlsbox.__all__)) == len(nlsbox.__all__)


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_exports_are_reexported(module):
    exported = importlib.import_module(f"nlsbox.{module}").__all__
    assert sorted(set(exported) - set(nlsbox.__all__)) == []


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
