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


def test_no_module_reads_another_modules_private_names():
    # ``from .m import _x`` and ``m._x`` for an rmedge module m; dunders pass, and
    # so do private modules imported by name (``from ._deferred import solve_ivp``)
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    src = pathlib.Path(rmedge.__file__).parent
    reads = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                reads += [f"{path.stem}: {node.module}.{a.name}" for a in node.names
                          if private(a.name)]
            elif (isinstance(node, ast.Attribute) and private(node.attr)
                    and isinstance(node.value, ast.Name) and node.value.id in MODULES):
                reads.append(f"{path.stem}: {node.value.id}.{node.attr}")
    assert reads == []


def test_only_the_deferred_module_imports_scipy():
    # ``import scipy...`` and ``from scipy... import`` anywhere, at module level or in
    # a function: every SciPy name is read through ``rmedge._deferred``
    src = pathlib.Path(rmedge.__file__).parent
    imports = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            imports += [f"{path.stem}: {name}" for name in names
                        if name.split(".")[0] == "scipy" and path.stem != "_deferred"]
    assert imports == []


def test_only_tw_cdf_integrates_painleve_ii():
    # one entry to the Painleve II solve, so another solver replaces the IVP in one place
    src = pathlib.Path(rmedge.__file__).parent
    callers = []
    for path in sorted(src.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(node, ast.Call) and "_integrate_pii" in ast.unparse(node.func)
                    for node in ast.walk(fn)):
                callers.append(f"{path.stem}.{fn.name}")
    assert callers == ["painleve.tw_cdf"]
