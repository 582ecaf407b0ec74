"""rmedge benchmark: run one seeded workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is imported from its
``src`` directory, so nothing needs installing.  This launcher pins
OpenBLAS/OpenMP to one thread (the plain single-threaded baseline), unsets
``RMEDGE_CACHE_DIR`` so every op computes, and measures set-up time as the
median over fresh interpreters that import ``rmedge`` and all its submodules.
The workload itself runs in ``worker.py``, in a process of its own.

The output is a table of every metric with its unit, a ``report`` line with
the machine block and run details, and as the last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
of BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
Workloads, metrics and the reasons for them are in RATIONALE.md.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_RUNS = 5
# The run must end within 180 s; the worker gets what is left of this.
RUN_LIMIT_S = 170.0
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_CODE = ("import importlib, pkgutil, rmedge\n"
              "for m in pkgutil.iter_modules(rmedge.__path__):\n"
              "    importlib.import_module('rmedge.' + m.name)\n")


def child_env():
    env = dict(os.environ)
    env.update(SINGLE_THREAD)
    env.pop("RMEDGE_CACHE_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def measure_setup(env, deadline):
    """Seconds for fresh interpreters to import rmedge and its submodules."""
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True,
                       timeout=max(1.0, deadline - t0))
        times.append(time.perf_counter() - t0)
    return times


def steal_ticks():
    """Cumulative CPU steal ticks from /proc/stat, or None where unavailable."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def unit_of(name, spec_units):
    if name in spec_units:
        return spec_units[name]
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(".bytes_written"):
        return "B"
    if name.endswith((".calls", ".points", ".entries", ".n3_sum", ".nfev", ".normals",
                      ".eigenvalues", ".spans")):
        return "count"
    return "ratio"


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description="rmedge benchmark: one workload, checked")
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(SRC, "rmedge", "__init__.py")):
        print(f"error: no rmedge sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    spec_units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    env = child_env()
    setup = [] if args.trace else measure_setup(env, deadline)
    steal_before, t_before = steal_ticks(), time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--out-dir", OUT_DIR],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.perf_counter()))
    steal_after, t_after = steal_ticks(), time.perf_counter()
    if proc.returncode != 0:
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    metrics = result["metrics"]
    if setup:
        metrics["setup_s"] = statistics.median(setup)
    metrics["fail_ratio"] = result["report"]["fail_ratio"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not produced: {', '.join(missing)}", file=sys.stderr)
        return 1

    report = result["report"]
    report["setup_runs_s"] = setup
    report["machine"] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **report.pop("machine"),
        "steal_ticks": (None if steal_before is None
                        else steal_after - steal_before),
        "run_s": t_after - t_before,
    }
    print(f"rmedge benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    for name in sorted(metrics):
        print(f"  {name:48s} {metrics[name]:>16.9g} {unit_of(name, spec_units)}")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
