"""The benchmark's tracer patches rmedge names; every one of them must exist."""
import importlib
import pathlib
import runpy

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    # run_path compiles the source in memory, so nothing is written beside it
    return runpy.run_path(str(TRACER))


def test_every_traced_function_exists(tracer):
    missing = [f"{mod}.{name}" for mod, funcs in tracer["TARGETS"].items()
               for name in funcs
               if not callable(getattr(importlib.import_module(f"rmedge.{mod}"), name, None))]
    assert missing == []
    assert "main" in tracer["TARGETS"]["cli"]


def test_every_counted_special_function_exists(tracer):
    missing = [f"{mod}._sp.{name}" for mod, funcs in tracer["SPECIAL_FUNCTIONS"].items()
               for name in funcs
               if not callable(getattr(importlib.import_module(f"rmedge.{mod}")._sp,
                                       name, None))]
    assert missing == []
