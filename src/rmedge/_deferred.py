"""SciPy imported at its first use, so importing rmedge loads numpy only; no other module
imports SciPy.  ``scipy.special`` and ``scipy.linalg`` load at the first read of one of
their functions, ``scipy.integrate`` (with ``scipy.linalg``, ``scipy.optimize`` and
``scipy.sparse``) at the first ODE solve."""
import importlib


class _Module:
    """Stands in for a module, imported at the first read of one of its attributes;
    each attribute read is kept on the stand-in, so a later read is one lookup."""

    def __init__(self, name):
        self._name = name

    def __getattr__(self, attr):
        if attr.startswith("__"):  # probes of the stand-in itself import nothing
            raise AttributeError(attr)
        value = getattr(importlib.import_module(self._name), attr)
        setattr(self, attr, value)
        return value


special = _Module("scipy.special")
linalg = _Module("scipy.linalg")


def solve_ivp(*args, **kwargs):
    from scipy.integrate import solve_ivp
    return solve_ivp(*args, **kwargs)


def eigvalsh_tridiagonal(*args, **kwargs):
    return linalg.eigvalsh_tridiagonal(*args, **kwargs)
