"""Every module's ``__all__`` names what the module holds, and covers what the
package re-exports from it."""
import ast
import importlib
import pathlib
import pkgutil

import pytest

import rmedge

MODULES = [m.name for m in pkgutil.iter_modules(rmedge.__path__)]
WITH_ALL = [name for name in MODULES
            if hasattr(importlib.import_module(f"rmedge.{name}"), "__all__")]


@pytest.mark.parametrize("name", WITH_ALL)
def test_every_listed_name_exists(name):
    module = importlib.import_module(f"rmedge.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", WITH_ALL)
def test_star_import_succeeds(name):
    namespace = {}
    exec(f"from rmedge.{name} import *", namespace)
    module = importlib.import_module(f"rmedge.{name}")
    assert set(module.__all__) <= set(namespace)


def test_package_imports_only_exported_names():
    tree = ast.parse(pathlib.Path(rmedge.__file__).read_text())
    missing = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"rmedge.{node.module}")
            exported = getattr(module, "__all__", None)
            missing += [f"{node.module}.{a.name}" for a in node.names
                        if exported is None or a.name not in exported]
    assert missing == []
