"""Each module's __all__ is the one list of its public names: the package
re-exports them all, and a deleted function cannot linger in one."""

import ast
import importlib
import inspect
import itertools

import pytest

import godement
from godement import GroupTable, MatFun, SpectralDecomposition, UnitaryRep

MODULES = ("groups", "matfun", "fourier", "operators", "reps", "roots", "theorems")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"godement.{name}")
    missing = [sym for sym in module.__all__ if not hasattr(module, sym)]
    assert not missing, f"godement.{name}.__all__ names {missing}"
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("name", MODULES)
def test_package_exports_every_module_name(name):
    module = importlib.import_module(f"godement.{name}")
    for sym in module.__all__:
        assert getattr(godement, sym, None) is getattr(module, sym), f"godement.{sym}"


def test_package_lists_no_name_itself():
    # the package star-imports each module once and defines only __version__
    starred = []
    for node in ast.parse(inspect.getsource(godement)).body[1:]:
        if isinstance(node, ast.ImportFrom):
            assert [alias.name for alias in node.names] == ["*"], node.module
            starred.append(node.module)
        else:
            assert isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["__version__"]
    assert sorted(starred) == sorted(MODULES)


def test_module_exports_are_disjoint():
    # the package star-imports every module, so a name in two lists would be shadowed silently
    exports = {name: set(importlib.import_module(f"godement.{name}").__all__) for name in MODULES}
    for first, second in itertools.combinations(MODULES, 2):
        shared = exports[first] & exports[second]
        assert not shared, f"godement.{first} and godement.{second} both export {sorted(shared)}"


# removed public names: each was reached only by tests (dense_oracle keeps
# the ones the tests still use)
RETIRED = {
    "roots": ("poly_apply", "PolySpec", "truncation_sequence"),
    "operators": ("pd_order_leq", "right_translation_matrix", "translation_commutant_residual"),
    "matfun": ("l1_norm", "VecFun", "convolve_vec", "random_vecfun"),
    "groups": ("build_trivial", "build_klein", "is_abelian"),
    "reps": ("trivial_rep", "rep_to_json"),
    "theorems": ("classify_magnitude",),
}


@pytest.mark.parametrize("name", sorted(RETIRED))
def test_retired_names_stay_out_of_the_api(name):
    module = importlib.import_module(f"godement.{name}")
    for sym in RETIRED[name]:
        assert not hasattr(module, sym) and not hasattr(godement, sym), f"godement.{name}.{sym}"


# removed methods: each was a one-line alias of an array lookup, or a dense
# helper, that only tests called
RETIRED_METHODS = {
    GroupTable: ("mul", "invert", "elements"),
    MatFun: ("at",),
    UnitaryRep: ("at", "character"),
    SpectralDecomposition: ("projector_leq",),
}


@pytest.mark.parametrize("cls", list(RETIRED_METHODS), ids=lambda cls: cls.__name__)
def test_retired_methods_stay_out_of_the_api(cls):
    for method in RETIRED_METHODS[cls]:
        assert not hasattr(cls, method), f"{cls.__name__}.{method}"
