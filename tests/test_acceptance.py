"""Acceptance gate: every criterion at its stated tolerance and time budget.

Run with ``pytest -s tests/test_acceptance.py`` to see one pass/fail line per
criterion; the same table is printed by ``rmedge verify``.
"""

import time

import numpy as np
import pytest

from rmedge import acceptance, ensembles, hardedge, hill, kernels, linop, painleve
from rmedge.acceptance import CRITERIA
from rmedge.specfun import airy


@pytest.mark.parametrize("num,name,check,budget", CRITERIA,
                         ids=[f"criterion_{c[0]:02d}" for c in CRITERIA])
def test_acceptance_criterion(num, name, check, budget):
    t0 = time.perf_counter()
    passed, detail = check()
    elapsed = time.perf_counter() - t0
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {num}: {name} ({elapsed:.1f}s) - {detail}")
    assert passed, f"criterion {num} failed: {detail}"
    if budget is not None:
        assert elapsed < budget, (
            f"criterion {num} exceeded its time budget: {elapsed:.1f}s > {budget}s")


def test_criteria_eigensolve_each_operator_once(monkeypatch):
    # criterion 8 solves the sine operator once for gap_probs and its 25 values of
    # z, and the Airy symbol once; criterion 2 solves each of its four operators once
    calls = []
    sym_eigen = linop.sym_eigen

    def counted(op):
        calls.append(len(op.rule))
        return sym_eigen(op)

    for module in (linop, acceptance):
        monkeypatch.setattr(module, "sym_eigen", counted)
    assert acceptance._gap_probabilities()[0]
    assert calls == [60, 60]
    calls.clear()
    assert acceptance._soft_edge_det_identity()[0]
    assert calls == [80, 80, 80, 80]


def test_hard_edge_identity_eigensolves_each_operator_once(monkeypatch):
    # criterion 4 reads both z from one spectrum per operator: per (nu, a) the
    # Bessel kernel at 80 nodes and the Hankel symbol at 120, where one per z made 16
    calls = []
    sym_eigen = linop.sym_eigen

    def counted(op):
        calls.append(len(op.rule))
        return sym_eigen(op)

    for module in (linop, hardedge):
        monkeypatch.setattr(module, "sym_eigen", counted)
    passed, detail = acceptance._hard_edge_identity()
    assert passed and detail.endswith("over 8 configs (tol 1e-6)")
    assert calls == [80, 120] * 4


def test_tw_dual_route_eigensolves_each_shift_once(monkeypatch):
    # criterion 3 reads t = 0.5 and 1 from one stack over the 103 shifts of its two
    # grids, eigensolved in blocks of at most 26 members at 100 nodes
    shapes = []
    sym_eigen = linop.sym_eigen

    def counted(op):
        shapes.append(op.matrix.shape[:-1])
        return sym_eigen(op)

    for module in (linop, acceptance):
        monkeypatch.setattr(module, "sym_eigen", counted)
    assert acceptance._tw_dual_route()[0]
    assert shapes == [(26, 100)] * 3 + [(25, 100)]


def test_tw_dual_route_is_the_public_determinant_route(monkeypatch):
    # every value criterion 3 reads from its stack is, bit for bit, what tw_cdf_det
    # gives on each grid, and the criterion returns what four such calls give
    reads = {}

    def recorded(spectrum, z, squared=False):
        lds = linop.checked_log_det(spectrum, z, squared)
        reads[z] = np.array([ld.value for ld in lds])
        return lds

    monkeypatch.setattr(acceptance, "checked_log_det", recorded)
    got = acceptance._tw_dual_route()
    xs = np.round(np.arange(-5.0, 2.0001, 0.1), 10)
    h = 0.05
    xs2 = np.round(np.arange(-2.0, 1.0001, h), 10)
    wide = np.round(np.arange(xs2[0] - 2 * h, xs2[-1] + 2 * h + 1e-12, h), 10)
    shifts = np.union1d(xs, wide)
    assert shifts.size == 103
    worst = worst2 = 0.0
    for t in (0.5, 1.0):
        F, F_wide = painleve.tw_cdf_det(t, xs).F_values, painleve.tw_cdf_det(t, wide).F_values
        assert np.array_equal(reads[t][np.searchsorted(shifts, xs)], F)
        assert np.array_equal(reads[t][np.searchsorted(shifts, wide)], F_wide)
        worst = max(worst, float(np.abs(painleve.tw_cdf(t, xs).F_values - F).max()))
        ld = np.log(F_wide)
        w2 = painleve.tw_cdf(t, xs2).w_values ** 2
        d2 = (-ld[4:] + 16 * ld[3:-1] - 30 * ld[2:-2] + 16 * ld[1:-3] - ld[:-4]) / (12 * h * h)
        worst2 = max(worst2, float(np.abs(w2 + d2).max()))
    assert got == (worst < 1e-6 and worst2 < 1e-4,
                   f"sup|F_painleve - F_det| {worst:.3e} (tol 1e-6); "
                   f"second-derivative residual {worst2:.3e} (tol 1e-4)")


@pytest.mark.parametrize("module,check,solves", [
    # criterion 7: three spectra (the alpha = 1 one serves the Fourier oracle and
    # the Hochstadt trend), the |det S - 1| stack and the two kernels' spectra
    (hill, acceptance._hill_mathieu, 5),
    # criterion 3: one Painleve II solve per t for F on xs and w on xs2
    (painleve, acceptance._tw_dual_route, 2),
], ids=["criterion_07", "criterion_03"])
def test_ode_solves_per_criterion(monkeypatch, module, check, solves):
    calls = []
    solve_ivp = module.solve_ivp

    def counted(*args, **kwargs):
        calls.append(args[1])
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(module, "solve_ivp", counted)
    assert check()[0]
    assert len(calls) == solves


def test_airy_product_identity_reads_the_kernel_at_its_nodes(monkeypatch):
    # the kernel side assembles like discretize does: (Ai, Ai') once per grid point
    points = []

    def counted(x):
        points.append(np.size(x))
        return airy(x)

    monkeypatch.setattr(kernels, "airy", counted)
    assert acceptance._airy_product_identity()[0]
    assert sum(points) == 12


def test_monte_carlo_eigensolves_only_the_bulk_draws(monkeypatch):
    # criterion 9 counts its 2000 soft-edge draws by Sturm counts; its tridiagonal
    # eigensolves are the 2 reproducibility draws and the 1000 bulk draws, all full spectra
    calls = []
    solve = ensembles.eigvalsh_tridiagonal

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return solve(*args, **kwargs)

    monkeypatch.setattr(ensembles, "eigvalsh_tridiagonal", counted)
    assert acceptance._monte_carlo_soft_edge()[0]
    assert len(calls) == 1002 and not any(calls)
