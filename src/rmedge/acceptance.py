"""Acceptance suite: each criterion exercises two independent routes to the
same number at a pinned tolerance and a wall-time budget.

Every check returns a dict with ``passed``, a human-readable ``detail`` and
the elapsed time; :func:`run_all` prints one pass/fail line per criterion.
The suite is deterministic (fixed seeds) and runs from scratch in a few
minutes on a laptop-class machine.
"""

import math
import time

import numpy as np

from . import ensembles, hardedge, hill, marchenko, painleve, twfactor
from .kernels import (airy_kernel, airy_symbol_kernel, hankel_square_grid,
                      hankel_symbol_kernel, kernel_matrix, sine_kernel)
from .linop import checked_log_det, discretize, gap_probs, nystrom, stacked_spectrum, sym_eigen
from .specfun import airy, gauss_legendre, periodic_rule

__all__ = ["CRITERIA", "run_all"]

MC_SEED = 20260811


def _airy_product_identity():
    spec = airy_symbol_kernel()
    ak = airy_kernel()
    xs = np.linspace(0.0, 3.0, 12)
    H = hankel_square_grid(spec, xs, xs)
    K = kernel_matrix(ak, xs)
    worst = float(np.abs(H - K).max())
    return worst < 1e-8, f"max grid residual {worst:.3e} (tol 1e-8)"


def _soft_edge_det_identity():
    worst = 0.0
    for alpha in (0.0, 1.0):
        kernel = sym_eigen(discretize(airy_kernel(), (alpha, math.inf), 80))
        hankel = sym_eigen(discretize(airy_symbol_kernel(shift=alpha),
                                      (0.0, math.inf), 80))
        for z in (0.5, 1.0):
            lhs = checked_log_det(kernel, z).value
            rhs = checked_log_det(hankel, z, squared=True).value
            worst = max(worst, abs(lhs - rhs))
    return worst < 1e-8, f"max |lhs - rhs| {worst:.3e} over alpha in {{0,1}}, z in {{0.5,1}} (tol 1e-8)"


def _tw_dual_route():
    xs = np.round(np.arange(-5.0, 2.0001, 0.1), 10)
    # second-derivative identity w^2 = -d^2/dx^2 log det on a 0.05 grid
    h = 0.05
    xs2 = np.round(np.arange(-2.0, 1.0001, h), 10)
    wide = np.round(np.arange(xs2[0] - 2 * h, xs2[-1] + 2 * h + 1e-12, h), 10)
    # one Airy Hankel spectrum per shift of both grids, read at t = 0.5 and 1
    shifts = np.union1d(xs, wide)
    hankel = stacked_spectrum(airy_symbol_kernel(shifts), (0.0, math.inf), 100)
    grid = np.union1d(xs, xs2)  # one Painleve II solve per t: F on xs, w on xs2
    worst = worst2 = 0.0
    for t in (0.5, 1.0):
        F = np.array([ld.value for ld in checked_log_det(hankel, t, squared=True)])
        curve = painleve.tw_cdf(t, grid)
        gap = np.abs(curve.F_values[np.searchsorted(grid, xs)] - F[np.searchsorted(shifts, xs)])
        worst = max(worst, float(gap.max()))
        ld = np.log(F[np.searchsorted(shifts, wide)])
        w2 = curve.w_values[np.searchsorted(grid, xs2)] ** 2
        d2 = (-ld[4:] + 16 * ld[3:-1] - 30 * ld[2:-2] + 16 * ld[1:-3] - ld[:-4]) / (12 * h * h)
        worst2 = max(worst2, float(np.abs(w2 + d2).max()))
    ok = worst < 1e-6 and worst2 < 1e-4
    return ok, (f"sup|F_painleve - F_det| {worst:.3e} (tol 1e-6); "
                f"second-derivative residual {worst2:.3e} (tol 1e-4)")


def _hard_edge_identity():
    worst = 0.0
    for nu in (0.5, 2.0):
        for a in (0.25, 0.5):
            cfg = hardedge.HardEdgeConfig(nu=nu, a=a)
            for _, _, gap in hardedge.bessel_det_identity(cfg, (0.8, 1.0), n=80):
                worst = max(worst, gap)
    return worst < 1e-6, f"max determinant gap {worst:.3e} over 8 configs (tol 1e-6)"


def _marchenko_identity():
    expsym = hankel_symbol_kernel(
        lambda s: np.exp(-np.asarray(s, dtype=float)), 16.0, family="exp_symbol")
    kappa, x = 0.5, 1.0
    lhs, rhs, _ = marchenko.verify_logdet_slope(expsym, kappa, x)
    analytic = (kappa ** 2 * math.exp(-2 * x) / 2) / (1 - kappa ** 2 * math.exp(-2 * x) / 4)
    rank_one = max(abs(lhs - analytic), abs(rhs - analytic))
    asym = airy_symbol_kernel()
    worst = 0.0
    for kap in (0.5, 0.9):
        for xx in (0.0, 1.0):
            _, _, gap = marchenko.verify_logdet_slope(asym, kap, xx)
            worst = max(worst, gap)
    ok = rank_one < 1e-7 and worst < 1e-6
    return ok, (f"rank-one vs analytic {rank_one:.3e} (tol 1e-7); "
                f"Airy finite-difference gap {worst:.3e} (tol 1e-6)")


def _factorization_machinery():
    sys = twfactor.airy_system()
    pair = twfactor.factorize(sys)
    pts = np.linspace(0.0, 3.0, 7)
    F, G = pair.symbols(pts)
    f_err = float(np.abs(F - airy(pts)[0]).max())
    g_err = float(np.abs(G).max())
    params_ok = (abs(pair.lambda1 - 1.0) < 1e-12 and abs(pair.lambda2) < 1e-12
                 and abs(pair.theta) < 1e-12 and f_err < 1e-12 and g_err < 1e-12)
    resid = twfactor.verify_factorization(sys, (0.0, 3.0), 10)
    bracket = max(twfactor.bessel_bracket_residual(0.5, xi, eta)
                  for xi, eta in [(0.2, 0.9), (-0.4, 1.3), (2.0, -1.0)])
    ok = params_ok and resid < 1e-8 and bracket < 1e-10
    return ok, (f"(lam1,lam2,theta)=(1,0,0) and F=Ai, G=0: {params_ok}; "
                f"factorization residual {resid:.3e} (tol 1e-8); "
                f"bracket identity {bracket:.3e} (tol 1e-10)")


def _hill_mathieu():
    details = []
    ok = True
    # q = 0 spectrum
    s0 = hill.periodic_spectrum(0.0, 13)
    target = np.array([0, 1, 1, 4, 4, 9, 9, 16, 16, 25, 25, 36, 36], dtype=float)
    dev0 = float(np.abs(s0.lambdas - target).max())
    ok &= dev0 < 1e-8
    details.append(f"q=0 spectrum dev {dev0:.2e} (tol 1e-8)")
    # det S = 1
    S = hill.monodromy(hill.HillModel(1.0, np.array([0.0, 5.0, 30.0])))
    worst_det = float(np.abs(np.linalg.det(S) - 1.0).max())
    ok &= worst_det < 1e-10
    details.append(f"|det S - 1| {worst_det:.2e} (tol 1e-10)")
    # alpha = 1 spectrum vs the 64-mode Fourier truncation (first 7 entries:
    # beyond the fourth gap the double-precision discriminant cannot resolve
    # the factorially narrow gap endpoints); the same spectrum serves the
    # Hochstadt trend below
    s2 = hill.periodic_spectrum(1.0, 26)
    modes = np.arange(-32, 33)
    H = np.diag(modes.astype(float) ** 2)
    for i in range(len(modes) - 2):
        H[i, i + 2] = H[i + 2, i] = -0.5
    oracle = np.sort(np.linalg.eigvalsh(H))[:7]
    dev1 = float(np.abs(s2.lambdas[:7] - oracle).max())
    ok &= dev1 < 1e-7
    details.append(f"alpha=1 vs Fourier oracle {dev1:.2e} (tol 1e-7)")
    # Hochstadt asymptotic trend
    lp = [l for l, t in zip(s2.lambdas, s2.period_tags) if t == "2pi-periodic"]
    devs = [abs(lp[2 * n - 2] - ((2 * n - 1) ** 2 + 1.0 / (32 * n * n)))
            for n in range(3, 7)]
    trend = all(devs[i + 1] < devs[i] for i in range(3))
    ok &= trend
    details.append(f"Hochstadt deviations decreasing over n=3..6: {trend}")
    # eigenfunction ODE residuals for alpha=1
    k1 = hill.mathieu_tw_kernel(1.0, 1)
    rep = hill.mathieu_eigencheck(k1, n=256)
    ok &= rep["max_residual"] < 1e-4 and len(rep["checks"]) >= 3
    details.append(f"alpha=1 eigenfunction residual {rep['max_residual']:.2e} (tol 1e-4)")
    # alpha=0, n=3 circular kernel eigenvalue 2 pi 3 with multiplicity 3
    k0 = hill.mathieu_tw_kernel(0.0, 5)
    rule = periodic_rule(48, 0.0, 2 * math.pi)
    K = np.asarray(k0.spec.evaluator(rule.nodes[:, None], rule.nodes[None, :]))
    ev = sym_eigen(nystrom(rule, K)).eigenvalues
    mult_dev = float(max(np.abs(ev[:3] - 6 * math.pi).max(), abs(ev[3])))
    ok &= mult_dev < 1e-8
    details.append(f"circular kernel eigenvalue 6pi x3 dev {mult_dev:.2e} (tol 1e-8)")
    return bool(ok), "; ".join(details)


def _gap_probabilities():
    spectrum = sym_eigen(discretize(sine_kernel(1.0), (0.0, 1.0), 60))
    g = gap_probs(spectrum, 60)
    sum_dev_sine = abs(float(g.probs.sum()) - 1.0)
    gamma = sym_eigen(discretize(airy_symbol_kernel(), (0.0, math.inf), 60))
    g2 = gap_probs(gamma, 60, squared=True)
    sum_dev_airy = abs(float(g2.probs.sum()) - 1.0)
    # z-differentiation oracle: E(k) = (-1)^k / k! d^k/dz^k det(I - zK) at z = 1,
    # which is (-1)^k times the k-th coefficient of a polynomial fit around z = 1
    zs = np.linspace(0.4, 1.6, 25)
    dets = np.array([checked_log_det(spectrum, z).value for z in zs])
    coef = np.polynomial.polynomial.polyfit(zs - 1.0, dets, 12)
    deriv_dev = np.abs((-1.0) ** np.arange(4) * coef[:4] - g.probs[:4]).max()
    ok = sum_dev_sine < 1e-10 and sum_dev_airy < 1e-10 and deriv_dev < 1e-7
    return ok, (f"sum E(k) deviation: sine {sum_dev_sine:.2e}, Airy-square "
                f"{sum_dev_airy:.2e} (tol 1e-10); z-derivative match {deriv_dev:.2e} (tol 1e-7)")


def _monte_carlo_soft_edge():
    n, samples = 200, 2000
    res = ensembles.soft_edge_gap_counts(n, samples, 0.0, seed=MC_SEED)
    target = painleve.tw_cdf_det(1.0, [0.0]).F_values[0]
    dev_se = abs(res.probs[0] - target) / res.std_errors[0]
    # reproducibility
    again = ensembles.sample_gue_eigs(n, MC_SEED, 0)
    first = ensembles.sample_gue_eigs(n, MC_SEED, 0)
    reproducible = np.array_equal(again.eigenvalues, first.eigenvalues)
    # bulk histograms, 500 samples
    allv = np.concatenate([ensembles.sample_gue_eigs(n, MC_SEED + 1, i).eigenvalues
                           for i in range(500)])
    bins = np.linspace(-2.0, 2.0, 41)
    hist, _ = np.histogram(allv, bins=bins, density=True)
    pred = _bin_averages(ensembles.semicircle_density, bins)
    sc_dev = float(np.abs(hist - pred).max())
    allw = np.concatenate([ensembles.sample_wishart_eigs(n, MC_SEED + 2, i).eigenvalues
                           for i in range(500)])
    binsw = np.linspace(0.0, 4.0, 41)
    histw, _ = np.histogram(allw, bins=binsw, density=True)
    predw = _bin_averages(ensembles.marchenko_pastur_density, binsw)
    mp_dev = float(np.abs(histw - predw).max())
    ok = dev_se < 3.0 and sc_dev < 0.05 and mp_dev < 0.07 and reproducible
    return ok, (f"E(0) off TW target by {dev_se:.2f} sigma (limit 3); semicircle "
                f"sup-bin {sc_dev:.3f} (tol 0.05); MP sup-bin {mp_dev:.3f} (tol 0.07); "
                f"seed-reproducible: {reproducible}")


def _bin_averages(density, bins):
    out = []
    for lo, hi in zip(bins[:-1], bins[1:]):
        r = gauss_legendre(24, lo, hi)
        out.append(r.integrate(density(r.nodes)) / (hi - lo))
    return np.array(out)


def _hankel_involution():
    worst = max(hardedge.hankel_involution_check(nu, [lambda y: y ** nu * np.exp(-y * y)])
                for nu in (0.5, 1.5))
    grid = np.linspace(-10.0, 10.0, 50)
    u_dev = 0.0
    for nu in (0.3, 1.0):
        mods = np.abs(hardedge.u_nu_eval(nu, grid))
        u_dev = max(u_dev, float(np.abs(mods - 1.0).max()))
    ok = worst < 1e-6 and u_dev < 1e-10
    return ok, (f"double-transform recovery {worst:.3e} (tol 1e-6); "
                f"max ||u_nu| - 1| {u_dev:.3e} on 50-point grid (tol 1e-10)")


CRITERIA = [
    (1, "Airy product identity (Hankel square = Airy kernel)", _airy_product_identity, 5.0),
    (2, "soft-edge determinant identity (two discretizations)", _soft_edge_det_identity, 10.0),
    (3, "Tracy-Widom dual route (Painleve vs determinant)", _tw_dual_route, 60.0),
    (4, "hard-edge determinant identity (Bessel vs Hankel square)", _hard_edge_identity, 20.0),
    (5, "Marchenko log-determinant slope", _marchenko_identity, 10.0),
    (6, "ODE-system factorization machinery", _factorization_machinery, None),
    (7, "Hill/Mathieu spectra and kernels", _hill_mathieu, 30.0),
    (8, "gap probabilities (sums and z-derivatives)", _gap_probabilities, None),
    (9, "Monte Carlo soft edge and bulk laws", _monte_carlo_soft_edge, 300.0),
    (10, "Hankel-transform involution and unimodular symbol", _hankel_involution, None),
]


def run_all(verbose=True):
    """Run every acceptance criterion; returns the list of result dicts."""
    results = []
    for num, name, fn, budget in CRITERIA:
        t0 = time.perf_counter()
        passed, detail = fn()
        elapsed = time.perf_counter() - t0
        if budget is not None and elapsed > budget:
            passed = False
            detail += f"; exceeded time budget ({elapsed:.1f}s > {budget:.0f}s)"
        results.append({"id": num, "name": name, "passed": bool(passed),
                        "detail": detail, "seconds": elapsed})
        if verbose:
            status = "PASS" if passed else "FAIL"
            print(f"[{status}] {num:2d} {name}  ({elapsed:.1f}s)\n        {detail}")
    if verbose:
        n_ok = sum(r["passed"] for r in results)
        print(f"{n_ok}/{len(results)} acceptance criteria passed")
    return results
