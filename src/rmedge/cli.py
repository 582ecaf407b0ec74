"""Command-line surface: batch computations with reproducible manifests.

Scalar reports are JSON; curves are CSV with 17-significant-digit floats.
Every output file is paired with ``<file>.manifest.json`` recording the
command, the full parameter map, the tool version, seeds where applicable
and the wall time, so a run can be reproduced to the last printed digit.
A flat key=value config file can preset flags; explicit flags win, and a
key that no subcommand has as a flag is refused.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import sys
import time

import numpy as np

from . import __version__, ensembles, hardedge, hill, kernels, linop, painleve
from .errors import RmedgeError

_CACHE_ENV = "RMEDGE_CACHE_DIR"

# argparse takes "-1e-1" or "-inf" for a flag; any negative float is a value
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-inf(inity)?$", re.I)


def _fmt(v):
    return f"{float(v):.17g}"


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, (int, float, np.floating))
                     else str(v) for v in row) + "\n")


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --kernel name -> spec from the parsed flags
_KERNELS = {
    "sine": lambda a: kernels.sine_kernel(a.t),
    "airy": lambda a: kernels.airy_kernel(),
    "bessel-hard": lambda a: kernels.bessel_hard_kernel(a.nu),
    "airy-symbol": lambda a: kernels.airy_symbol_kernel(shift=a.shift),
    "bessel-log": lambda a: kernels.bessel_log_symbol_kernel(a.nu, ell=a.ell),
    "sine-circle": lambda a: kernels.sine_circle_kernel(a.ncirc),
}


def _operator(args):
    spec = _KERNELS[args.kernel](args)
    return linop.discretize(spec, tuple(map(float, args.interval)), args.n)  # HI may be "inf"


# Each body computes, writes its payload to ``out`` and returns the line to
# print with the keys it adds to (or overrides in) the manifest.

def _cmd_det(args, out):
    op = _operator(args)
    value = linop.fredholm_det(op, args.z)
    _write_json(out, {"determinant": value, "kernel": op.kernel_tag, "z": args.z,
                      "n": args.n, "interval": list(op.rule.interval)})
    return f"det(I - z K) = {_fmt(value)}  -> {out}", {}


def _cmd_gap(args, out):
    op = _operator(args)
    g = linop.gap_probs(linop.sym_eigen(op), args.kmax)
    if args.format == "json":
        _write_json(out, {"kernel": op.kernel_tag, "interval": list(op.rule.interval),
                          "E": [float(p) for p in g.probs]})
    else:
        _write_csv(out, ["k", "E_k"], enumerate(g.probs))
    return f"E(0..{args.kmax}) written -> {out}", {}


def _tw_cache_path(args):
    cache_dir = os.environ.get(_CACHE_ENV)
    if not cache_dir:
        return None
    os.makedirs(cache_dir, exist_ok=True)
    # repr keeps every digit of a float; the version retires tables after a
    # numerics change
    key = repr((__version__, args.t, args.xmin, args.xmax, args.step, args.n))
    return os.path.join(cache_dir, f"tw_{hashlib.sha256(key.encode()).hexdigest()}.csv")


def _cmd_tw(args, out):
    if not 0.0 < args.step < math.inf:
        raise ValueError(f"--step must be positive and finite, got {args.step}")
    cache = _tw_cache_path(args)
    if cache and os.path.exists(cache):
        shutil.copyfile(cache, out)
        # this run computed no determinant, so it knows no node counts
        return (f"cached Tracy-Widom table -> {out}",
                {"outputs": [out, cache], "cache": "hit", "det_nodes": None})
    xs = np.round(np.arange(args.xmin, args.xmax + args.step / 2, args.step), 12)
    det_curve = painleve.tw_cdf_det(args.t, xs, n=args.n)
    painleve_curve = painleve.tw_cdf(args.t, xs)
    rows = [(x, fp, fd, abs(fp - fd), w) for x, fp, fd, w in
            zip(xs, painleve_curve.F_values, det_curve.F_values,
                painleve_curve.w_values)]
    _write_csv(out, ["x", "F_painleve", "F_det", "gap", "w"], rows)
    extra = {"cache": "off", "det_nodes": det_curve.nodes.tolist()}
    if cache:
        # a reader never sees a partly written table
        tmp = f"{cache}.{os.getpid()}.tmp"
        shutil.copyfile(out, tmp)
        os.replace(tmp, cache)
        extra.update(outputs=[out, cache], cache="miss")
    return f"Tracy-Widom table (t={args.t:g}, {xs.size} points) -> {out}", extra


def _cmd_hardedge(args, out):
    cfg = hardedge.HardEdgeConfig(nu=args.nu, a=args.a)
    lhs, rhs, gap = hardedge.bessel_det_identity(cfg, args.z, n=args.n)
    _write_json(out, {"nu": args.nu, "a": args.a, "alpha": cfg.alpha, "z": args.z,
                      "det_kernel_route": lhs, "det_hankel_route": rhs, "gap": gap})
    return f"hard-edge identity gap = {gap:.3e} -> {out}", {}


def _cmd_hill(args, out):
    spectrum = hill.periodic_spectrum(args.alpha, args.count, args.scan_points)
    rows = [("root", lam, tag) for lam, tag in
            zip(spectrum.lambdas, spectrum.period_tags)]
    rows += [("scan", lam, _fmt(delta)) for lam, delta in zip(*spectrum.scan)]
    _write_csv(out, ["kind", "lambda", "tag_or_delta"], rows)
    return (f"{args.count} periodic eigenvalues + {args.scan_points} discriminant "
            f"samples -> {out}"), {}


def _cmd_mathieu(args, out):
    kernel = hill.mathieu_tw_kernel(args.alpha, args.index)
    report = hill.mathieu_eigencheck(kernel, n=args.n)
    _write_json(out, {"alpha": args.alpha, "index": args.index, "lambda": kernel.lam,
                      "checks": report["checks"],
                      "skipped_degenerate": report["skipped_degenerate"],
                      "max_residual": report["max_residual"]})
    return (f"Mathieu kernel at lambda = {kernel.lam:.9g}; worst ODE residual "
            f"{report['max_residual']:.3e} -> {out}"), {}


def _cmd_sample(args, out):
    symbol = kernels.airy_symbol_kernel(shift=args.alpha)
    res = ensembles.soft_edge_gap_counts(args.n, args.samples, args.alpha,
                                         seed=args.seed, kmax=args.kmax)
    gamma = linop.sym_eigen(linop.discretize(symbol, (0.0, math.inf), 100))
    predicted = linop.gap_probs(gamma, args.kmax, squared=True).probs
    rows = [(k, res.probs[k], res.std_errors[k], predicted[k])
            for k in range(args.kmax + 1)]
    _write_csv(out, ["k", "empirical_E_k", "std_error", "predicted_E_k"], rows)
    return (f"empirical vs predicted E(k), n={args.n}, {args.samples} samples -> {out}",
            {"seed": args.seed, "model": res.manifest["model"]})


def _cmd_verify(args):
    from .acceptance import run_all
    results = run_all(verbose=True)
    return 0 if all(r["passed"] for r in results) else 1


# subcommand -> extension of its default output file; verify writes none
_EXTENSIONS = {"det": "json", "gap": "csv", "tw": "csv", "hardedge": "json",
               "hill": "csv", "mathieu": "json", "sample": "csv"}


def _params(args):
    skip = {"func", "config"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def _run(args):
    """Run one subcommand: time its body, write the manifest, print its line."""
    if args.command not in _EXTENSIONS:
        return args.func(args)
    t0 = time.perf_counter()
    out = args.out or f"{args.command}.{_EXTENSIONS[args.command]}"
    message, extra = args.func(args, out)
    _write_json(out + ".manifest.json", {
        "command": args.command, "parameters": _params(args), "version": __version__,
        "seed": None, "wall_time_s": time.perf_counter() - t0, "outputs": [out], **extra})
    print(message)
    return 0


def _build_parser():
    p = argparse.ArgumentParser(
        prog="rmedge",
        description="Random-matrix edge statistics from integrable kernels")
    p.add_argument("--config", help="key=value file with flag defaults")
    sub = p.add_subparsers(dest="command", required=True)

    def add_kernel_flags(sp):
        sp.add_argument("--kernel", required=True, choices=list(_KERNELS))
        sp.add_argument("--t", type=float, default=1.0, help="sine kernel density")
        sp.add_argument("--nu", type=float, default=0.5, help="Bessel order")
        sp.add_argument("--ell", type=float, default=0.0, help="log-variable shift")
        sp.add_argument("--shift", type=float, default=0.0, help="Airy symbol shift")
        sp.add_argument("--ncirc", type=int, default=3, help="circular kernel index")
        sp.add_argument("--interval", nargs=2, required=True,
                        metavar=("LO", "HI"), help="interval; HI may be 'inf'")
        sp.add_argument("--n", type=int, default=64, help="quadrature nodes")

    sp = sub.add_parser("det", help="Fredholm determinant det(I - zK) (JSON)")
    add_kernel_flags(sp)
    sp.add_argument("--z", type=float, default=1.0)
    sp.set_defaults(func=_cmd_det)

    sp = sub.add_parser("gap", help="gap probabilities E(0..kmax) (CSV/JSON)")
    add_kernel_flags(sp)
    sp.add_argument("--kmax", type=int, default=8)
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    sp.set_defaults(func=_cmd_gap)

    sp = sub.add_parser("tw", help="Tracy-Widom table, both routes (CSV)")
    sp.add_argument("--t", type=float, default=1.0)
    sp.add_argument("--xmin", type=float, default=-5.0)
    sp.add_argument("--xmax", type=float, default=2.0)
    sp.add_argument("--step", type=float, default=0.1)
    sp.add_argument("--n", type=int, default=None,
                    help="determinant-route nodes at every shift (default: chosen per "
                         "shift by refinement, rungs 32, 48, ... up to 400)")
    sp.set_defaults(func=_cmd_tw)

    sp = sub.add_parser("hardedge", help="hard-edge determinant identity (JSON)")
    sp.add_argument("--nu", type=float, required=True)
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--z", type=float, default=1.0)
    sp.add_argument("--n", type=int, default=80)
    sp.set_defaults(func=_cmd_hardedge)

    sp = sub.add_parser("hill", help="periodic spectrum + discriminant scan (CSV)")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--count", type=int, default=9)
    sp.add_argument("--scan-points", type=int, default=120)
    sp.set_defaults(func=_cmd_hill)

    sp = sub.add_parser("mathieu", help="Mathieu kernel eigen-report (JSON)")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--index", type=int, required=True)
    sp.add_argument("--n", type=int, default=256)
    sp.set_defaults(func=_cmd_mathieu)

    sp = sub.add_parser("sample", help="empirical vs predicted E(k) (CSV)")
    sp.add_argument("--ensemble", choices=["gue"], default="gue")
    sp.add_argument("--n", type=int, default=200)
    sp.add_argument("--samples", type=int, default=500)
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--alpha", type=float, default=0.0)
    sp.add_argument("--kmax", type=int, default=6)
    sp.set_defaults(func=_cmd_sample)

    sp = sub.add_parser("verify", help="run the acceptance suite")
    sp.set_defaults(func=_cmd_verify)
    for name in _EXTENSIONS:
        sub.choices[name].add_argument("--out", help="output path")
    for q in (p, *sub.choices.values()):
        q._negative_number_matcher = _NEGATIVE_NUMBER
    return p, list(sub.choices.values())


def _apply_config(subparsers, argv):
    """Install a --config file's key=value pairs as flag defaults.

    A key must name a flag of some subcommand; each subcommand takes the keys
    it has, so one file can serve several commands.
    """
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    known, _ = probe.parse_known_args(argv)
    if not known.config:
        return
    defaults = {}
    with open(known.config) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {line!r}")
            key, value = line.split("=", 1)
            defaults[key.strip().replace("-", "_")] = value.strip()
    flags = {a.dest for sp in subparsers for a in sp._actions}
    unknown = sorted(set(defaults) - flags)
    if unknown:
        raise ValueError(f"config keys match no flag: {', '.join(unknown)}")
    for sp in subparsers:
        for a in sp._actions:
            if a.dest in defaults:
                text = defaults[a.dest]
                words = text.split() if a.nargs else [text]  # e.g. interval=0 1
                if len(words) != (a.nargs or 1):
                    raise ValueError(f"config {known.config}: {a.dest}={text!r} needs "
                                     f"{a.nargs} values")
                try:
                    value = [w if a.type is None else a.type(w) for w in words]
                except ValueError:
                    raise ValueError(f"config {known.config}: {a.dest}={text!r} is not "
                                     f"a valid {a.type.__name__}") from None
                # argparse checks choices on flags only, never on defaults
                if a.choices is not None and any(v not in a.choices for v in value):
                    raise ValueError(f"config {known.config}: {a.dest}={text!r} is not "
                                     f"one of {', '.join(a.choices)}")
                a.default = value if a.nargs else value[0]
                a.required = False  # the file satisfies a required flag


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = _build_parser()
    try:
        _apply_config(subparsers, argv)
        return _run(parser.parse_args(argv))
    except (RmedgeError, ValueError, OSError) as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
