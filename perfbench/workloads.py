"""The seeded workloads of the rmedge benchmark and the checks of their ops.

A workload is a fixed list of ops built from the seed; the program sees only
the generated inputs.  An op is one call at rmedge's public boundary:
``rmedge.cli.main([...])`` writing into a scratch directory, a public library
function, or an ``acceptance.CRITERIA`` entry.  Each op carries the check of
its output at the acceptance tolerance.  Checks run after the set of ops,
outside the timed calls and outside tracing.
"""

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import rmedge.cli
from rmedge import acceptance, ensembles, twfactor

# Acceptance criteria that some workload runs; 3 and 9 are covered at reduced
# size by tw-table and mc-edge instead.
CRITERIA_RUN = (1, 2, 4, 5, 6, 7, 8, 10)

# Accuracy diagnostics the checks report, as 0 where a workload has none.
DIAGNOSTICS = (
    "check.tw_route_gap", "check.hardedge_gap", "check.hill_oracle_dev",
    "check.hill_oracle_dev_first7", "check.mathieu_residual", "check.mc_e0_sigma",
    "check.mc_semicircle_supbin", "check.mc_mp_supbin", "check.mathieu_residual_alpha0.5",
)

# Acceptance tolerances the checks apply (README, criteria 3, 4, 6, 7, 8, 9).
TW_GAP_TOL = 1e-6
HARDEDGE_GAP_TOL = 1e-6
FACTORIZATION_TOL = 1e-8
HILL_ORACLE_TOL = 1e-7
HILL_ORACLE_ENTRIES = 7
MATHIEU_RESIDUAL_TOL = 1e-4
GAP_SUM_TOL = 1e-10
SEMICIRCLE_TOL = 0.05
MARCHENKO_PASTUR_TOL = 0.07
# Criterion 9 gates E(0) at 3 sigma for one fixed seed.  Here the seed varies
# from run to run, and 3 sigma would fail about 0.3% of honest seeds, so the
# seeded limit is 5 sigma.
MC_SIGMA_LIMIT = 5.0

MC_N = 200
MC_SAMPLES = 150       # `rmedge sample` draws, each scanned for the soft edge
MC_GUE_DRAWS = 60      # bulk draws against the semicircle
MC_WISHART_DRAWS = 150  # draws against Marchenko-Pastur


@dataclass
class Op:
    kind: str                         # name of the op's root span
    run: Callable[[], object]         # the timed call
    check: Callable[[object], tuple]  # output -> (failures, diagnostics)


def build(name, seed, outdir):
    """The ops of workload ``name`` and its untimed probes, from ``seed``."""
    rng = np.random.default_rng(seed)
    if name == "tw-table":
        return _tw_table(rng, outdir), {}
    if name == "fredholm-mix":
        return _fredholm_mix(rng, outdir), {}
    if name == "hill-spectrum":
        return _hill_spectrum(rng, outdir)
    if name == "mc-edge":
        return _mc_edge(rng, outdir), {}
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# op builders


def _cli_op(outdir, label, argv, check_file):
    path = os.path.join(outdir, label)

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            code = rmedge.cli.main([*argv, "--out", path])
        if code != 0:
            raise RuntimeError(f"rmedge {' '.join(argv)} exited with code {code}")
        return path

    def check(out):
        written = [out, out + ".manifest.json"]
        try:
            failures, diag = check_file(out)
            diag["cli.bytes_written"] = sum(os.path.getsize(p) for p in written)
        finally:
            for p in written:
                if os.path.exists(p):
                    os.remove(p)
        return failures, diag

    return Op("cli." + argv[0], run, check)


def _criterion_op(num):
    fn = next(c[2] for c in acceptance.CRITERIA if c[0] == num)

    def check(out):
        passed, detail = out
        return ([] if passed else [f"criterion {num}: {detail}"]), {}

    return Op(f"acceptance.criterion_{num}", fn, check)


def _tw_table(rng, outdir):
    # the shifted README grid: 71 points from -5 + delta in steps of 0.1
    xmin = round(float(rng.uniform(-0.05, 0.05)) - 5.0, 6)
    grid = ["--xmin", f"{xmin:.6f}", "--xmax", f"{xmin + 7.0:.6f}", "--step", "0.1"]
    return [_cli_op(outdir, f"tw_t{t:g}.csv", ["tw", "--t", f"{t:g}", *grid], _check_tw)
            for t in (1.0, 0.5)]


def _stratified(rng, lo, hi, k):
    """``k`` draws from [lo, hi), one in each of ``k`` equal strata, shuffled.

    Op cost depends on these parameters (an Airy ``det`` at a = 0.3 costs
    twice one at a = -3.5), so each seed covers the whole range evenly and
    seeds differ in the values they draw, not in how much work they ask for.
    """
    return lo + (hi - lo) * rng.permutation((np.arange(k) + rng.uniform(size=k)) / k)


def _fredholm_mix(rng, outdir):
    ops = [_criterion_op(num) for num in (1, 2, 4, 5, 6, 8, 10)]
    ops.append(Op("twfactor.verify_factorization",
                  lambda: twfactor.verify_factorization(
                      twfactor.scaled_airy_system(), (0.0, 3.0), 10),
                  _check_factorization))
    # s stays below 8, where the sine gap raises the documented
    # NearSingularError
    for n in (200, 400):
        for i, s in enumerate(_stratified(rng, 0.5, 6.0, 18)):
            ops.append(_cli_op(outdir, f"gap{n}_{i}.csv",
                               ["gap", "--kernel", "sine", "--t", "1", "--interval", "0",
                                f"{s:.6f}", "--n", str(n), "--kmax", "40"], _check_gap))
    for i, a in enumerate(_stratified(rng, -4.0, 1.0, 20)):
        ops.append(_cli_op(outdir, f"airy{i}.json",
                           ["det", "--kernel", "airy", "--interval", f"{a:.6f}", "inf",
                            "--n", "200"], _check_det))
    for nu in (0.5, 2.0):
        for i, s in enumerate(_stratified(rng, 1.0, 12.0, 8)):
            ops.append(_cli_op(outdir, f"bessel{nu:g}_{i}.json",
                               ["det", "--kernel", "bessel-hard", "--nu", f"{nu:g}",
                                "--interval", "0", f"{s:.6f}", "--n", "64"], _check_det))
    for nu in (0.5, 2.0):
        for z in (0.8, 1.0):
            for i, a in enumerate(_stratified(rng, 0.2, 0.6, 5)):
                ops.append(_cli_op(outdir, f"hardedge{nu:g}_{z:g}_{i}.json",
                                   ["hardedge", "--nu", f"{nu:g}", "--a", f"{a:.6f}",
                                    "--z", f"{z:g}"], _check_hardedge))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def _hill_spectrum(rng, outdir):
    alpha = float(rng.choice([0.5, 1.0, 1.5, 2.0]))
    # At alpha = 0.5, `rmedge mathieu --index 1` reports a residual of 1.07e-4
    # (n = 256), above the 1e-4 tolerance, which criterion 7 pins at alpha = 1
    # only.  So the gated Mathieu op draws from {1, 1.5, 2}, and the probe
    # below keeps the alpha = 0.5 residual visible, ungated.
    alpha_mathieu = float(rng.choice([1.0, 1.5, 2.0]))
    ops = [
        _criterion_op(7),
        _cli_op(outdir, "hill.csv", ["hill", "--alpha", f"{alpha:g}", "--count", "40"],
                lambda path: _check_hill(path, alpha)),
        _cli_op(outdir, "mathieu.json",
                ["mathieu", "--alpha", f"{alpha_mathieu:g}", "--index", "1"], _check_mathieu),
    ]
    probe = _cli_op(outdir, "mathieu_probe.json",
                    ["mathieu", "--alpha", "0.5", "--index", "1"], _check_mathieu)

    def mathieu_alpha05():
        return probe.check(probe.run())[1]["check.mathieu_residual"]

    return ops, {"check.mathieu_residual_alpha0.5": mathieu_alpha05}


def _mc_edge(rng, outdir):
    seed = int(rng.integers(1, 2 ** 31))
    redraw = int(rng.integers(MC_GUE_DRAWS))

    def gue_bulk():
        return [ensembles.sample_gue_eigs(MC_N, seed + 1, i).eigenvalues
                for i in range(MC_GUE_DRAWS)]

    def wishart_bulk():
        return [ensembles.sample_wishart_eigs(MC_N, seed + 2, i).eigenvalues
                for i in range(MC_WISHART_DRAWS)]

    def check_gue(out):
        failures, diag = _check_bulk(out, _semicircle, (-2.0, 2.0), SEMICIRCLE_TOL,
                                     "check.mc_semicircle_supbin")
        again = ensembles.sample_gue_eigs(MC_N, seed + 1, redraw).eigenvalues
        if not np.array_equal(again, out[redraw]):
            failures.append(f"GUE draw {redraw} is not bit-reproducible")
        return failures, diag

    return [
        _cli_op(outdir, "sample.csv",
                ["sample", "--ensemble", "gue", "--n", str(MC_N), "--samples",
                 str(MC_SAMPLES), "--seed", str(seed), "--alpha", "0"], _check_sample),
        Op("ensembles.gue_bulk", gue_bulk, check_gue),
        Op("ensembles.wishart_bulk", wishart_bulk,
           lambda out: _check_bulk(out, _marchenko_pastur, (0.0, 4.0),
                                   MARCHENKO_PASTUR_TOL, "check.mc_mp_supbin")),
    ]


# ---------------------------------------------------------------------------
# checks


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _column(rows, name):
    return np.array([float(r[name]) for r in rows])


def _check_tw(path):
    rows = _read_csv(path)
    gap = _column(rows, "gap")
    failures = []
    if len(rows) != 71:
        failures.append(f"tw table has {len(rows)} rows, expected 71")
    if gap.max() > TW_GAP_TOL:
        failures.append(f"dual-route gap {gap.max():.3e} > {TW_GAP_TOL:g}")
    for name in ("F_painleve", "F_det"):
        F = _column(rows, name)
        if np.any(np.diff(F) < 0):
            failures.append(f"{name} is not monotone in x")
        if F.min() < 0.0 or F.max() > 1.0:
            failures.append(f"{name} leaves [0, 1]")
    return failures, {"check.tw_route_gap": float(gap.max())}


def _check_gap(path):
    probs = _column(_read_csv(path), "E_k")
    dev = abs(float(probs.sum()) - 1.0)
    return ([f"sum of E(k) is off 1 by {dev:.3e}"] if dev > GAP_SUM_TOL else []), {}


def _check_det(path):
    with open(path) as fh:
        value = json.load(fh)["determinant"]
    return ([] if 0.0 <= value <= 1.0 else [f"determinant {value!r} outside [0, 1]"]), {}


def _check_hardedge(path):
    with open(path) as fh:
        gap = json.load(fh)["gap"]
    failures = [] if gap <= HARDEDGE_GAP_TOL else [f"hard-edge gap {gap:.3e}"]
    return failures, {"check.hardedge_gap": gap}


def _check_factorization(residual):
    failures = [] if residual < FACTORIZATION_TOL else [f"residual {residual:.3e}"]
    return failures, {}


def _fourier_oracle(alpha, count, modes=32):
    # -y'' - alpha cos(2x) y in the basis e^{imx}, |m| <= modes
    m = np.arange(-modes, modes + 1)
    H = np.diag(m.astype(float) ** 2)
    idx = np.arange(m.size - 2)
    H[idx, idx + 2] = H[idx + 2, idx] = -0.5 * alpha
    return np.sort(np.linalg.eigvalsh(H))[:count]


def _check_hill(path, alpha):
    roots = [float(r["lambda"]) for r in _read_csv(path) if r["kind"] == "root"]
    if len(roots) != 40:
        return [f"hill returned {len(roots)} eigenvalues, expected 40"], {}
    dev = np.abs(np.array(roots) - _fourier_oracle(alpha, 40))
    head = float(dev[:HILL_ORACLE_ENTRIES].max())
    failures = [] if head < HILL_ORACLE_TOL else [
        f"first {HILL_ORACLE_ENTRIES} entries off the Fourier oracle by {head:.3e}"]
    return failures, {"check.hill_oracle_dev": float(dev.max()),
                      "check.hill_oracle_dev_first7": head}


def _check_mathieu(path):
    with open(path) as fh:
        report = json.load(fh)
    resid = report["max_residual"]
    failures = []
    if not report["checks"]:
        failures.append("no eigenfunction was checked")
    if not resid < MATHIEU_RESIDUAL_TOL:
        failures.append(f"Mathieu residual {resid:.3e}")
    return failures, {"check.mathieu_residual": resid}


def _check_sample(path):
    first = _read_csv(path)[0]
    emp = float(first["empirical_E_k"])
    pred = float(first["predicted_E_k"])
    # binomial error at the determinant value: the empirical one vanishes
    # when every draw leaves (0, inf) empty
    sigma = math.sqrt(pred * (1.0 - pred) / MC_SAMPLES)
    dist = abs(emp - pred) / sigma
    failures = [] if dist <= MC_SIGMA_LIMIT else [f"E(0) off by {dist:.2f} sigma"]
    return failures, {"check.mc_e0_sigma": dist}


def _semicircle(x):
    return np.sqrt(np.clip(4.0 - x * x, 0.0, None)) / (2.0 * np.pi)


def _marchenko_pastur(x):
    return np.sqrt(np.clip((4.0 - x) / x, 0.0, None)) / (2.0 * np.pi)


def _check_bulk(draws, density, interval, tol, key):
    edges = np.linspace(*interval, 41)
    hist, _ = np.histogram(np.concatenate(draws), bins=edges, density=True)
    # bin averages of the density by 24-point Gauss-Legendre, as criterion 9
    x, w = np.polynomial.legendre.leggauss(24)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    avg = density(mid[:, None] + half[:, None] * x[None, :]) @ w / 2.0
    dev = float(np.abs(hist - avg).max())
    return ([] if dev < tol else [f"sup-bin deviation {dev:.3f} >= {tol:g}"]), {key: dev}
