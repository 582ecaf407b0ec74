"""One benchmark run of one workload, in its own process.

Started by ``run.py`` with ``src`` on PYTHONPATH and BLAS pinned to one
thread.  It builds the workload's ops from the seed and runs them as a closed
loop with one client: each op starts when the previous one has returned.  The
whole list of ops (a "set") repeats as many times as comes closest to
``--seconds``, and always at least once.  Every set is checked after it ran,
outside the timed calls.

Untraced (``--trace 0``), every set is timed for the end-to-end metrics,
which are figures of one set whose op latencies are each op's median over
the run's sets.
Traced (``--trace 1``), sets alternate untraced and traced, starting
untraced so that traced sets see warm caches; the traced sets give the
per-layer metrics and the difference between the two kinds gives the tracing
overhead.  Spans are written to ``<out-dir>/spans-<workload>-<seed>.json``.

The last line of standard output is a JSON object with the run's counts,
metrics and report.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass

import rmedge

import tracer
import workloads

# Start no set that would end after this long, so the run ends within its limit.
HARD_STOP_S = 120.0


@dataclass
class SetResult:
    traced: bool
    latencies: list    # seconds per op, in op order
    failures: list     # one message per failed op
    diagnostics: dict  # accuracy diagnostics and bytes written
    layers: dict       # per-layer metrics of a traced set, else None


def run_set(ops, trace=None):
    """Run every op once; returns latencies, outputs and error messages."""
    latencies, outputs, errors = [], [], []
    for op_id, op in enumerate(ops):
        if trace is not None:
            trace.begin_op(op_id, op.kind)
        t0 = time.perf_counter()
        try:
            out, err = op.run(), None
        except Exception as exc:  # a failing op is counted, and the loop goes on
            out, err = None, f"{op.kind}: {type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        if trace is not None:
            trace.end_op()
        outputs.append(out)
        errors.append(err)
    return latencies, outputs, errors


def check_set(ops, outputs, errors):
    """Failure messages and merged diagnostics of one set."""
    failures = []
    diag = dict.fromkeys(("cli.bytes_written", *workloads.DIAGNOSTICS), 0)
    for op, out, err in zip(ops, outputs, errors):
        if err is not None:
            failures.append(err)
            continue
        try:
            bad, d = op.check(out)
        except Exception as exc:  # an unreadable output fails its op
            bad, d = [f"{type(exc).__name__}: {exc}"], {}
        failures.extend(f"{op.kind}: {msg}" for msg in bad[:1])
        for key, value in d.items():
            if key == "cli.bytes_written":
                diag[key] += value
            else:  # accuracy diagnostics keep the worst op of the set
                diag[key] = max(diag[key], value)
    return failures, diag


def machine_info():
    """Library versions, the BLAS numpy uses and the threads each BLAS runs."""
    import ctypes

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[os.path.basename(lib)] = fn()
                break
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
            "blas_threads": threads}


def tail_latency(latencies):
    """Latency at the highest percentile with at least ten ops beyond it.

    Returns (value, percentile, ops beyond).  A set of fewer than 11 ops has
    no such percentile; its slowest op is reported as the 100th percentile.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out-dir", required=True)
    args = p.parse_args(argv)

    os.makedirs(args.out_dir, exist_ok=True)
    scratch = tempfile.TemporaryDirectory(dir=args.out_dir, prefix="ops-")
    with scratch as outdir:
        ops, probes = workloads.build(args.workload, args.seed, outdir)
        sets = []
        spans = []
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(sets) % 2 == 1
            trace = tracer.Tracer() if traced else None
            gc.collect()  # garbage of the last set is not collected in this one
            if trace is not None:
                trace.install()
            try:
                latencies, outputs, errors = run_set(ops, trace)
            finally:
                if trace is not None:
                    trace.uninstall()
            failures, diag = check_set(ops, outputs, errors)
            layers = None
            if trace is not None:
                layers = trace.summary(workloads.CRITERIA_RUN)
                spans.append(trace.spans)
            sets.append(SetResult(traced, latencies, failures, diag, layers))
            # The run holds the whole number of sets that comes closest to
            # --seconds, and at least one (two when traced).
            elapsed = time.perf_counter() - start
            mean_set = elapsed / len(sets)
            enough = not args.trace or len(sets) >= 2
            if enough and (elapsed + 0.5 * mean_set >= args.seconds
                           or elapsed + mean_set >= HARD_STOP_S):
                break
        probe_values = {name: fn() for name, fn in probes.items()} if args.trace else {}

    attempted = sum(len(s.latencies) for s in sets)
    failures = [msg for s in sets for msg in s.failures]
    report = {
        "sets": len(sets),
        "ops_per_set": len(ops),
        "set_wall_s": [sum(s.latencies) for s in sets],
        "failures": failures[:10],
        "fail_ratio": len(failures) / attempted,
        "rmedge": os.path.dirname(rmedge.__file__),
        "machine": machine_info(),
    }
    if args.trace:
        metrics = _layer_metrics(sets, probe_values)
        path = os.path.join(args.out_dir, f"spans-{args.workload}-{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "work"],
                       "sets": spans}, fh)
        report["spans_file"] = path
    else:
        metrics = _end_to_end_metrics(ops, sets, report)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"attempted": attempted, "failed": len(failures),
                      "metrics": metrics, "report": report}))
    return 0


def _end_to_end_metrics(ops, sets, report):
    # Each op's latency is its median over the run's sets, so that a stall of
    # the host during one set moves no metric; the metrics are figures of one
    # set of these latencies.
    latencies = [statistics.median(lat) for lat in zip(*(s.latencies for s in sets))]
    tail, percentile, beyond = tail_latency(latencies)
    report["op_tail_percentile"] = percentile
    report["op_tail_beyond"] = beyond
    report["op_latency_s"] = [[op.kind, lat] for op, lat in zip(ops, latencies)]
    report["diagnostics"] = sets[0].diagnostics
    return {
        "wall_s": sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail,
    }


def _layer_metrics(sets, probe_values):
    traced = [s for s in sets if s.traced]
    plain = [s for s in sets if not s.traced]
    metrics = {}
    for key in traced[0].layers:
        metrics[key] = statistics.median(s.layers[key] for s in traced)
    for key in traced[0].diagnostics:
        metrics[key] = statistics.median(s.diagnostics[key] for s in traced)
    metrics.update(probe_values)
    metrics["trace.overhead_s"] = (statistics.median(sum(s.latencies) for s in traced)
                                   - statistics.median(sum(s.latencies) for s in plain))
    return metrics


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
