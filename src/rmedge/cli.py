"""Command-line surface: batch computations with reproducible manifests.

Scalar reports are JSON; curves are CSV with 17-significant-digit floats.
Every output file is paired with ``<file>.manifest.json`` recording the
command, the full parameter map, the tool version, seeds where applicable
and the wall time, so a run can be reproduced to the last printed digit.
A flat key=value config file can preset flags; explicit flags win.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import sys
import time

import numpy as np

from . import __version__
from .errors import RmedgeError

_CACHE_ENV = "RMEDGE_CACHE_DIR"


def _fmt(v):
    return f"{float(v):.17g}"


def _write_manifest(path, command, params, seed=None, wall=None, outputs=(), **extra):
    manifest = {
        "command": command,
        "parameters": params,
        "version": __version__,
        "seed": seed,
        "wall_time_s": wall,
        "outputs": list(outputs),
        **extra,
    }
    with open(path + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


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


def _parse_hi(text):
    if text in ("inf", "+inf", "infinity"):
        return math.inf
    return float(text)


def _kernel_from_args(args):
    from . import kernels
    name = args.kernel
    if name == "sine":
        return kernels.sine_kernel(args.t)
    if name == "airy":
        return kernels.airy_kernel()
    if name == "bessel-hard":
        return kernels.bessel_hard_kernel(args.nu)
    if name == "airy-symbol":
        return kernels.airy_symbol_kernel(shift=args.shift)
    if name == "bessel-log":
        return kernels.bessel_log_symbol_kernel(args.nu, ell=args.ell)
    if name == "sine-circle":
        return kernels.sine_circle_kernel(args.ncirc)
    raise ValueError(f"unknown kernel {name!r}")


def _cmd_det(args):
    from .linop import discretize, fredholm_det
    t0 = time.time()
    spec = _kernel_from_args(args)
    op = discretize(spec, (args.interval[0], _parse_hi(args.interval[1])), args.n)
    value = fredholm_det(op, args.z)
    payload = {"determinant": value, "kernel": spec.tag, "z": args.z, "n": args.n,
               "interval": [op.rule.interval[0], op.rule.interval[1]]}
    out = args.out or "det.json"
    _write_json(out, payload)
    _write_manifest(out, "det", _params(args), wall=time.time() - t0, outputs=[out])
    print(f"det(I - z K) = {_fmt(value)}  -> {out}")
    return 0


def _cmd_gap(args):
    from .linop import discretize, gap_probs
    t0 = time.time()
    spec = _kernel_from_args(args)
    op = discretize(spec, (args.interval[0], _parse_hi(args.interval[1])), args.n)
    g = gap_probs(op, args.kmax)
    out = args.out or "gap.csv"
    if args.format == "json":
        _write_json(out, {"kernel": spec.tag, "interval": list(op.rule.interval),
                          "E": [float(p) for p in g.probs]})
    else:
        _write_csv(out, ["k", "E_k"], list(enumerate(g.probs)))
    _write_manifest(out, "gap", _params(args), wall=time.time() - t0, outputs=[out])
    print(f"E(0..{args.kmax}) written -> {out}")
    return 0


def _tw_cache_path(args):
    cache_dir = os.environ.get(_CACHE_ENV)
    if not cache_dir:
        return None
    os.makedirs(cache_dir, exist_ok=True)
    # repr keeps every digit of a float; the version retires tables after a
    # numerics change
    key = repr((__version__, args.t, args.xmin, args.xmax, args.step, args.n))
    return os.path.join(cache_dir, f"tw_{hashlib.sha256(key.encode()).hexdigest()}.csv")


def _cmd_tw(args):
    from .painleve import tw_cdf, tw_cdf_det
    t0 = time.time()
    out = args.out or "tw.csv"
    cache = _tw_cache_path(args)
    if cache and os.path.exists(cache):
        with open(cache) as fh, open(out, "w") as dst:
            dst.write(fh.read())
        _write_manifest(out, "tw", _params(args), wall=time.time() - t0,
                        outputs=[out, cache], cache="hit")
        print(f"cached Tracy-Widom table -> {out}")
        return 0
    xs = np.round(np.arange(args.xmin, args.xmax + args.step / 2, args.step), 12)
    painleve_curve = tw_cdf(args.t, xs)
    det_curve = tw_cdf_det(args.t, xs, n=args.n)
    rows = [(x, fp, fd, abs(fp - fd), w) for x, fp, fd, w in
            zip(xs, painleve_curve.F_values, det_curve.F_values,
                painleve_curve.w_values)]
    _write_csv(out, ["x", "F_painleve", "F_det", "gap", "w"], rows)
    outputs = [out]
    if cache:
        # a reader never sees a partly written table
        tmp = f"{cache}.{os.getpid()}.tmp"
        shutil.copyfile(out, tmp)
        os.replace(tmp, cache)
        outputs.append(cache)
    _write_manifest(out, "tw", _params(args), wall=time.time() - t0, outputs=outputs,
                    cache="miss" if cache else "off")
    print(f"Tracy-Widom table (t={args.t:g}, {xs.size} points) -> {out}")
    return 0


def _cmd_hardedge(args):
    from .hardedge import HardEdgeConfig, bessel_det_identity
    t0 = time.time()
    cfg = HardEdgeConfig(nu=args.nu, a=args.a)
    lhs, rhs, gap = bessel_det_identity(cfg, args.z, n=args.n)
    payload = {"nu": args.nu, "a": args.a, "alpha": cfg.alpha, "z": args.z,
               "det_kernel_route": lhs, "det_hankel_route": rhs, "gap": gap}
    out = args.out or "hardedge.json"
    _write_json(out, payload)
    _write_manifest(out, "hardedge", _params(args), wall=time.time() - t0,
                    outputs=[out])
    print(f"hard-edge identity gap = {gap:.3e} -> {out}")
    return 0


def _cmd_hill(args):
    from .hill import _discriminants_batch, periodic_spectrum
    t0 = time.time()
    spectrum = periodic_spectrum(args.alpha, args.count)
    out = args.out or "hill.csv"
    rows = [("root", lam, tag) for lam, tag in
            zip(spectrum.lambdas, spectrum.period_tags)]
    top = float(spectrum.lambdas[-1]) + 2.0
    scan = np.linspace(-abs(args.alpha) - 1.0, top, args.scan_points)
    rows += [("scan", lam, _fmt(delta))
             for lam, delta in zip(scan, _discriminants_batch(args.alpha, scan))]
    _write_csv(out, ["kind", "lambda", "tag_or_delta"], rows)
    _write_manifest(out, "hill", _params(args), wall=time.time() - t0, outputs=[out])
    print(f"{args.count} periodic eigenvalues + {args.scan_points} discriminant "
          f"samples -> {out}")
    return 0


def _cmd_mathieu(args):
    from .hill import mathieu_eigencheck, mathieu_tw_kernel
    t0 = time.time()
    kernel = mathieu_tw_kernel(args.alpha, args.index)
    report = mathieu_eigencheck(kernel, n=args.n)
    payload = {"alpha": args.alpha, "index": args.index, "lambda": kernel.lam,
               "checks": report["checks"],
               "skipped_degenerate": report["skipped_degenerate"],
               "max_residual": report["max_residual"]}
    out = args.out or "mathieu.json"
    _write_json(out, payload)
    _write_manifest(out, "mathieu", _params(args), wall=time.time() - t0,
                    outputs=[out])
    print(f"Mathieu kernel at lambda = {kernel.lam:.9g}; worst ODE residual "
          f"{report['max_residual']:.3e} -> {out}")
    return 0


def _cmd_sample(args):
    from .ensembles import soft_edge_gap_counts
    from .kernels import airy_symbol_kernel
    from .linop import discretize, gap_probs, operator_square
    t0 = time.time()
    if args.ensemble != "gue":
        raise ValueError("soft-edge counts are defined for the gue ensemble")
    res = soft_edge_gap_counts(args.n, args.samples, args.alpha, seed=args.seed,
                               kmax=args.kmax)
    predicted = gap_probs(
        operator_square(discretize(airy_symbol_kernel(shift=args.alpha),
                                   (0.0, math.inf), 100)), args.kmax).probs
    out = args.out or "sample.csv"
    rows = [(k, res.probs[k], res.std_errors[k], predicted[k])
            for k in range(args.kmax + 1)]
    _write_csv(out, ["k", "empirical_E_k", "std_error", "predicted_E_k"], rows)
    _write_manifest(out, "sample", _params(args), seed=args.seed,
                    wall=time.time() - t0, outputs=[out], model=res.manifest["model"])
    print(f"empirical vs predicted E(k), n={args.n}, {args.samples} samples -> {out}")
    return 0


def _cmd_verify(args):
    from .acceptance import run_all
    results = run_all(verbose=True)
    return 0 if all(r["passed"] for r in results) else 1


def _params(args):
    skip = {"func", "config"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def _build_parser():
    p = argparse.ArgumentParser(
        prog="rmedge",
        description="Random-matrix edge statistics from integrable kernels")
    p.add_argument("--config", help="key=value file with flag defaults")
    sub = p.add_subparsers(dest="command", required=True)

    def add_kernel_flags(sp):
        sp.add_argument("--kernel", required=True,
                        choices=["sine", "airy", "bessel-hard", "airy-symbol",
                                 "bessel-log", "sine-circle"])
        sp.add_argument("--t", type=float, default=1.0, help="sine kernel density")
        sp.add_argument("--nu", type=float, default=0.5, help="Bessel order")
        sp.add_argument("--ell", type=float, default=0.0, help="log-variable shift")
        sp.add_argument("--shift", type=float, default=0.0, help="Airy symbol shift")
        sp.add_argument("--ncirc", type=int, default=3, help="circular kernel index")
        sp.add_argument("--interval", nargs=2, required=True,
                        metavar=("LO", "HI"), help="interval; HI may be 'inf'")
        sp.add_argument("--n", type=int, default=64, help="quadrature nodes")
        sp.add_argument("--out", help="output path")

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
    sp.add_argument("--n", type=int, default=100, help="determinant-route nodes")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_tw)

    sp = sub.add_parser("hardedge", help="hard-edge determinant identity (JSON)")
    sp.add_argument("--nu", type=float, required=True)
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--z", type=float, default=1.0)
    sp.add_argument("--n", type=int, default=80)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_hardedge)

    sp = sub.add_parser("hill", help="periodic spectrum + discriminant scan (CSV)")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--count", type=int, default=9)
    sp.add_argument("--scan-points", type=int, default=120)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_hill)

    sp = sub.add_parser("mathieu", help="Mathieu kernel eigen-report (JSON)")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--index", type=int, required=True)
    sp.add_argument("--n", type=int, default=256)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_mathieu)

    sp = sub.add_parser("sample", help="empirical vs predicted E(k) (CSV)")
    sp.add_argument("--ensemble", choices=["gue"], default="gue")
    sp.add_argument("--n", type=int, default=200)
    sp.add_argument("--samples", type=int, default=500)
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--alpha", type=float, default=0.0)
    sp.add_argument("--kmax", type=int, default=6)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_sample)

    sp = sub.add_parser("verify", help="run the acceptance suite")
    sp.set_defaults(func=_cmd_verify)
    return p


def _apply_config(parser, argv):
    # pre-scan for --config, then install its key=value pairs as defaults
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    known, _ = probe.parse_known_args(argv)
    if not known.config:
        return argv
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
    for action in parser._subparsers._group_actions[0].choices.values():
        usable = {k: v for k, v in defaults.items()
                  if any(a.dest == k for a in action._actions)}
        for k, v in list(usable.items()):
            act = next(a for a in action._actions if a.dest == k)
            if act.type is not None:
                usable[k] = act.type(v)
        action.set_defaults(**usable)
    return argv


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        argv = _apply_config(parser, argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except RmedgeError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
