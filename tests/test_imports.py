"""Start-up cost: importing rmedge loads numpy and no SciPy module.

scipy.special loads at the first special-function evaluation, so ``det`` and
``gap`` with the sine kernel load no SciPy at all.  scipy.integrate (with
scipy.linalg, scipy.optimize and scipy.sparse) loads at the first call that
needs it, so the short commands never pay for it.  ``sample`` counts its
eigenvalues above the cut by a Sturm count, with no eigensolve, so it loads
scipy.special only (for its prediction) and no scipy.linalg.  Nothing loads
scipy.interpolate, not even ``g_involution_check``, which applies the
involution by FFT; it stays in DEFERRED so every check still looks for it.
Each check runs in a fresh interpreter.
"""
import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
DEFERRED = ("scipy.integrate", "scipy.interpolate", "scipy.optimize", "scipy.sparse",
            "scipy.linalg")
# rmedge and every submodule, as the benchmark measures start-up
IMPORT_ALL = ("import importlib, pkgutil, rmedge\n"
              "for m in pkgutil.iter_modules(rmedge.__path__):\n"
              "    importlib.import_module('rmedge.' + m.name)\n")


def scipy_loaded_after(code, cwd):
    """The scipy modules a fresh interpreter holds after running ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    probe = (f"{code}\nimport json, sys\n"
             "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy']))")
    done = subprocess.run([sys.executable, "-c", probe], env=env, cwd=cwd, check=True,
                          capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def deferred_loaded_after(code, cwd):
    """Which of DEFERRED a fresh interpreter holds after running ``code``."""
    loaded = scipy_loaded_after(code, cwd)
    return [m for m in DEFERRED if m in loaded]


def test_importing_every_module_loads_no_deferred_subpackage(tmp_path):
    # no scipy module at all, so none of DEFERRED either
    assert scipy_loaded_after(IMPORT_ALL, tmp_path) == []


def test_the_first_special_function_read_binds_scipys_own(tmp_path):
    # the tracer and the tests that patch ``_sp`` see scipy.special's functions
    code = ("from rmedge import hardedge, specfun\n"
            "assert specfun._sp is hardedge._sp\n"
            "airy = specfun._sp.airy\n"
            "import scipy.special\n"
            "assert airy is scipy.special.airy is specfun._sp.airy\n"
            "assert hardedge._sp.jv is scipy.special.jv\n")
    assert "scipy.special" in scipy_loaded_after(code, tmp_path)


def test_readme_det_gap_hardedge_never_load_the_ode_solver(tmp_path):
    # the sine det and gap run first and leave no scipy module behind them
    sine = [["det", "--kernel", "sine", "--t", "1", "--interval", "0", "1", "--z", "1",
             "--n", "64"],
            ["gap", "--kernel", "sine", "--t", "1", "--interval", "0", "1", "--kmax", "8"]]
    runs = [["hardedge", "--nu", "0.5", "--a", "0.5", "--z", "1"],
            ["det", "--kernel", "bessel-hard", "--nu", "0.5", "--interval", "0", "1"]]
    code = ("import sys\nfrom rmedge.cli import main\n"
            + "".join(f"assert main({argv!r}) == 0\n" for argv in sine)
            + "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            + "".join(f"assert main({argv!r}) == 0\n" for argv in runs))
    loaded = deferred_loaded_after(code, tmp_path)
    assert "scipy.integrate" not in loaded and "scipy.optimize" not in loaded
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "det.json", "det.json.manifest.json", "gap.csv", "gap.csv.manifest.json",
        "hardedge.json", "hardedge.json.manifest.json"]


def test_hankel_involution_criterion_loads_no_interpolation(tmp_path):
    code = ("from rmedge.acceptance import CRITERIA\n"
            "ok, _ = next(c[2] for c in CRITERIA if c[0] == 10)()\n"
            "assert ok\n")
    assert "scipy.interpolate" not in deferred_loaded_after(code, tmp_path)


def test_g_involution_check_loads_no_interpolation(tmp_path):
    code = ("import numpy as np\n"
            "from rmedge.hardedge import g_involution_check\n"
            "g_involution_check(0.5, 0.0, [lambda e: np.exp(-4.0 * e * e)])\n")
    assert "scipy.interpolate" not in deferred_loaded_after(code, tmp_path)


def test_sample_loads_no_linear_algebra(tmp_path):
    code = ("from rmedge.cli import main\n"
            "assert main(['sample', '--n', '50', '--samples', '20', '--seed', '7',\n"
            "             '--alpha', '1', '--kmax', '8']) == 0\n")
    assert deferred_loaded_after(code, tmp_path) == []
