"""Self-test of the benchmark: exact counters and no failed op.

    python3 perfbench/selftest.py [--seed N] [--workload NAME ...]

For each workload it runs ``run.py`` twice traced and once untraced at one
seed, each for one second (so one set of ops per kind).  It fails if a
deterministic counter (``*.calls``, ``*.points``, ``*.nfev``, ``*.n3_sum``,
``*.entries``, ``*.normals``) differs between the two traced runs, or if any
run reports a failed op, that is a ``fail_ratio`` other than 0.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
EXACT_SUFFIXES = (".calls", ".points", ".nfev", ".n3_sum", ".entries", ".normals")


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=200, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workload", nargs="*", choices=workloads, default=workloads)
    args = p.parse_args(argv)
    problems = []
    for workload in args.workload:
        first, second, plain = (run(workload, args.seed, t) for t in (1, 1, 0))
        for label, res in (("traced", first), ("traced", second), ("untraced", plain)):
            if res["failed"] or not res["correct"]:
                problems.append(f"{workload}: {res['failed']} of {res['attempted']} ops "
                                f"failed in a {label} run")
        counters = {k: v["value"] for k, v in first["metrics"].items()
                    if k.endswith(EXACT_SUFFIXES)}
        differ = [k for k, v in counters.items() if second["metrics"][k]["value"] != v]
        problems.extend(f"{workload}: {k} differs between traced runs "
                        f"({counters[k]} vs {second['metrics'][k]['value']})" for k in differ)
        reached = sum(1 for v in counters.values() if v)
        print(f"{workload}: {len(counters)} counters ({reached} nonzero), "
              f"{len(differ)} differ; failed ops {first['failed']}/{second['failed']}/"
              f"{plain['failed']}", flush=True)
    for msg in problems:
        print("FAIL " + msg)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
