"""The package namespace: ``__all__`` matches what the submodules define."""

import ast
import importlib
import inspect
from pathlib import Path

import tailpremium

# Public definitions deliberately left out of ``__all__``.
NOT_EXPORTED = {
    "HeavyTailModel",  # a typing protocol; the models satisfy it structurally
}


def reexported_modules():
    """Submodules that ``tailpremium/__init__.py`` imports names from."""
    tree = ast.parse(Path(tailpremium.__file__).read_text())
    return sorted(
        node.module
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
    )


def test_every_export_resolves():
    missing = [name for name in tailpremium.__all__ if not hasattr(tailpremium, name)]
    assert missing == []


def test_no_export_is_listed_twice():
    assert len(tailpremium.__all__) == len(set(tailpremium.__all__))


def test_reexported_modules_found():
    assert "study" in reexported_modules()


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
