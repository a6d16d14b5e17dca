"""Export lists name only what exists, so a deleted function cannot linger in one."""

import ast
import importlib
import inspect

import pytest

import godement

MODULES = ("groups", "matfun", "fourier", "operators", "reps", "roots", "theorems")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"godement.{name}")
    missing = [sym for sym in module.__all__ if not hasattr(module, sym)]
    assert not missing, f"godement.{name}.__all__ names {missing}"
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_imports_only_exported_names():
    tree = ast.parse(inspect.getsource(godement))
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(f"godement.{node.module}")
            for alias in node.names:
                assert hasattr(module, alias.name), f"godement.{node.module} has no {alias.name}"
                assert alias.name in module.__all__, f"{alias.name} is not in godement.{node.module}.__all__"


# removed public names: each was reached only by tests
RETIRED = {
    "roots": ("poly_apply", "PolySpec"),
    "matfun": ("l1_norm",),
    "groups": ("build_trivial", "build_klein", "is_abelian"),
    "reps": ("trivial_rep", "rep_to_json"),
    "theorems": ("classify_magnitude",),
}


@pytest.mark.parametrize("name", sorted(RETIRED))
def test_retired_names_stay_out_of_the_api(name):
    module = importlib.import_module(f"godement.{name}")
    for sym in RETIRED[name]:
        assert not hasattr(module, sym) and not hasattr(godement, sym), f"godement.{name}.{sym}"
