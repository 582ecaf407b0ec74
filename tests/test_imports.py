"""Start-up cost: importing rmedge loads numpy and scipy.special, nothing more.

scipy.integrate (with scipy.linalg, scipy.optimize and scipy.sparse) and
scipy.interpolate load at the first call that needs them, so the short
commands never pay for them.  Each check runs in a fresh interpreter.
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


def deferred_loaded_after(code, cwd):
    """Which of DEFERRED a fresh interpreter holds after running ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    probe = (f"{code}\nimport json, sys\n"
             f"print(json.dumps([m for m in {DEFERRED!r} if m in sys.modules]))")
    done = subprocess.run([sys.executable, "-c", probe], env=env, cwd=cwd, check=True,
                          capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_importing_every_module_loads_no_deferred_subpackage(tmp_path):
    assert deferred_loaded_after(IMPORT_ALL, tmp_path) == []


def test_readme_det_gap_hardedge_never_load_the_ode_solver(tmp_path):
    runs = [["det", "--kernel", "sine", "--t", "1", "--interval", "0", "1", "--z", "1",
             "--n", "64"],
            ["gap", "--kernel", "sine", "--t", "1", "--interval", "0", "1", "--kmax", "8"],
            ["hardedge", "--nu", "0.5", "--a", "0.5", "--z", "1"],
            ["det", "--kernel", "bessel-hard", "--nu", "0.5", "--interval", "0", "1"]]
    code = "from rmedge.cli import main\n" + "".join(
        f"assert main({argv!r}) == 0\n" for argv in runs)
    loaded = deferred_loaded_after(code, tmp_path)
    assert "scipy.integrate" not in loaded and "scipy.optimize" not in loaded
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "det.json", "det.json.manifest.json", "gap.csv", "gap.csv.manifest.json",
        "hardedge.json", "hardedge.json.manifest.json"]
