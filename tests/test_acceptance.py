"""Acceptance gate: every criterion at its stated tolerance and time budget.

Run with ``pytest -s tests/test_acceptance.py`` to see one pass/fail line per
criterion; the same table is printed by ``rmedge verify``.
"""

import time

import numpy as np
import pytest

from rmedge import acceptance, hardedge, kernels, linop
from rmedge.acceptance import CRITERIA
from rmedge.specfun import airy


@pytest.mark.parametrize("num,name,check,budget", CRITERIA,
                         ids=[f"criterion_{c[0]:02d}" for c in CRITERIA])
def test_acceptance_criterion(num, name, check, budget):
    t0 = time.time()
    passed, detail = check()
    elapsed = time.time() - t0
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


def test_airy_product_identity_reads_the_kernel_at_its_nodes(monkeypatch):
    # the kernel side assembles like discretize does: (Ai, Ai') once per grid point
    points = []

    def counted(x):
        points.append(np.size(x))
        return airy(x)

    monkeypatch.setattr(kernels, "airy", counted)
    assert acceptance._airy_product_identity()[0]
    assert sum(points) == 12
