"""The package namespace: ``__all__`` matches what the submodules define,
and names resolve lazily without being stored in the package."""

import importlib
import inspect
from pathlib import Path

import pytest

import tailpremium

# Public definitions deliberately left out of ``__all__``.
NOT_EXPORTED = {
    "HeavyTailModel",  # a typing protocol; the models satisfy it structurally
}


def reexported_modules():
    """Submodules whose names the package's lazy table exports."""
    return sorted(tailpremium._EXPORTS)


def exported_pairs():
    """``(submodule, name)`` for every entry of the lazy table."""
    return [
        (module, name)
        for module, names in tailpremium._EXPORTS.items()
        for name in names
    ]


def test_every_export_resolves():
    missing = [name for name in tailpremium.__all__ if not hasattr(tailpremium, name)]
    assert missing == []


def test_no_export_is_listed_twice():
    assert len(tailpremium.__all__) == len(set(tailpremium.__all__))


def test_reexported_modules_found():
    assert "study" in reexported_modules()
    # Every submodule but the CLI: all seven.
    package = Path(tailpremium.__file__).parent
    submodules = {path.stem for path in package.glob("*.py")} - {"__init__", "cli"}
    assert reexported_modules() == sorted(submodules)
    assert len(submodules) == 7


def test_all_is_the_lazy_table():
    assert sorted(tailpremium.__all__) == sorted(name for _, name in exported_pairs())


def test_every_public_definition_is_exported():
    unexported = []
    for module_name in reexported_modules():
        module = importlib.import_module(f"tailpremium.{module_name}")
        for name, obj in vars(module).items():
            defined_here = (
                inspect.isclass(obj) or inspect.isfunction(obj)
            ) and obj.__module__ == module.__name__
            if (
                defined_here
                and not name.startswith("_")
                and name not in tailpremium.__all__
                and name not in NOT_EXPORTED
            ):
                unexported.append(f"{module_name}.{name}")
    assert unexported == []


def test_allow_list_names_live_definitions():
    defined = {
        name
        for module_name in reexported_modules()
        for name in vars(importlib.import_module(f"tailpremium.{module_name}"))
    }
    assert NOT_EXPORTED <= defined


def test_star_import_binds_every_export():
    namespace = {}
    exec("from tailpremium import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(tailpremium.__all__)


@pytest.mark.parametrize("module, name", exported_pairs())
def test_name_is_the_submodule_definition(module, name):
    submodule = importlib.import_module(f"tailpremium.{module}")
    assert getattr(tailpremium, name) is getattr(submodule, name)


def test_unknown_name_is_a_plain_attribute_error():
    with pytest.raises(AttributeError) as info:
        tailpremium.no_such_name
    assert str(info.value) == "module 'tailpremium' has no attribute 'no_such_name'"
    assert not hasattr(tailpremium, "no_such_name")
    # A private name of a submodule is not exported either.
    assert not hasattr(tailpremium, "_km_curve")


def test_dir_covers_all():
    listed = dir(tailpremium)
    assert set(tailpremium.__all__) <= set(listed)
    assert listed == sorted(listed)


def test_reading_names_leaves_the_namespace_unchanged():
    # Importing a submodule binds it in the package; do that first, so
    # what is left to compare is what the lazy hook itself would store.
    for module in reexported_modules():
        importlib.import_module(f"tailpremium.{module}")
    before = dict(vars(tailpremium))
    for name in tailpremium.__all__:
        getattr(tailpremium, name)
    exec("from tailpremium import *", {})
    assert vars(tailpremium) == before
    assert not set(tailpremium.__all__) & set(vars(tailpremium))
