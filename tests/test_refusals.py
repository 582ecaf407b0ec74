"""Arguments outside a routine's declared window raise a plain ValueError."""
import re

import numpy as np
import pytest

from rmedge import (ensembles, hardedge, hill, kernels, linop, marchenko, painleve, specfun,
                    twfactor)
from rmedge.errors import NearSingularError


def _op(matrix):
    return linop.DiscretizedOp(rule=specfun.gauss_legendre(2, 0.0, 1.0), matrix=matrix)


def _rule(weights):
    return specfun.QuadRule(nodes=np.array([0.25, 0.75]), weights=np.array(weights),
                            interval=(0.0, 1.0))


# name -> (call, a piece of its message)
REFUSALS = {
    "wishart-n1": (lambda: ensembles.sample_wishart_eigs(1, 0), "need n >= 2"),
    "gap-counts-n1": (lambda: ensembles.soft_edge_gap_counts(1, 5, 0.0, seed=0),
                      "need n >= 2"),
    "gap-counts-no-samples": (lambda: ensembles.soft_edge_gap_counts(20, 0, 0.0, seed=0),
                              "at least one sample"),
    "periodic-rule-no-nodes": (lambda: specfun.periodic_rule(0, 0.0, 1.0),
                               "at least one quadrature node"),
    "periodic-rule-empty-interval": (lambda: specfun.periodic_rule(4, 1.0, 1.0),
                                     "empty interval"),
    "weights-off-length": (lambda: _rule([0.5, 0.6]), "sum to the interval length"),
    "op-wrong-shape": (lambda: _op(np.eye(3)), "size must match"),
    "op-nan-entry": (lambda: _op(np.array([[1.0, np.nan], [np.nan, 1.0]])),
                     "must be finite"),
    "gap-probs-negative-kmax": (
        lambda: linop.gap_probs(linop.sym_eigen(_op(0.1 * np.eye(2))), -1),
        "kmax must be nonnegative"),
    "bessel-log-order": (lambda: kernels.bessel_log_symbol_kernel(-0.5),
                         "order must exceed -1/2"),
    "u-nu-order": (lambda: hardedge.u_nu_eval(-0.5, 1.0), "order must exceed -1/2"),
    "bessel-hard-order": (lambda: kernels.bessel_hard_kernel(-0.5), "order must exceed -1/2"),
    "qbessel-order": (lambda: kernels.qbessel_kernel(-0.5), "order must exceed -1/2"),
    "product-formula-short-spectrum": (
        lambda: hill.product_formula_check(1.0, 0.3, 3,
                                           spectrum=hill.periodic_spectrum(1.0, 5)),
        "spectrum holds too few entries for n_terms"),
    "bracket-order": (lambda: twfactor.bessel_bracket_residual(-0.5, 0.0, 1.0),
                      "order must exceed -1/2"),
    "sine-t0": (lambda: kernels.sine_kernel(0), "needs t > 0"),
    "sine-circle-fractional-n": (lambda: kernels.sine_circle_kernel(2.5), "positive integer"),
    "tw-cdf-det-t-above-1": (lambda: painleve.tw_cdf_det(1.5, [0.0]), "t must lie in (0, 1]"),
    # the t check comes first, then the grid, before any work
    "tw-cdf-det-t-before-grid": (lambda: painleve.tw_cdf_det(1.5, [[0.0]]),
                                 "t must lie in (0, 1]"),
    "tw-cdf-det-2d-grid": (lambda: painleve.tw_cdf_det(1.0, [[0.0]]),
                           "xs must be a 1-D grid"),
    "tw-cdf-det-scalar-grid": (lambda: painleve.tw_cdf_det(1.0, 0.5), "xs must be a 1-D grid"),
    "tw-cdf-det-shift-nan": (lambda: painleve.tw_cdf_det(1.0, [0.0, np.nan]),
                             "shift must be finite"),
    "airy-symbol-stack-two-cuts": (lambda: kernels.airy_symbol_kernel(np.array([-8.0, 0.0])),
                                   "one cut"),
    "airy-symbol-shift-minus-inf": (lambda: kernels.airy_symbol_kernel(-np.inf),
                                    "shift must be finite"),
    "airy-symbol-shift-inf": (lambda: kernels.airy_symbol_kernel(np.inf),
                              "shift must be finite"),
    "airy-symbol-shift-nan": (lambda: kernels.airy_symbol_kernel(np.nan),
                              "shift must be finite"),
    # the contraction test kappa^2 norm >= 1 is False for NaN, so these returned NaN
    "marchenko-diag-kappa-nan": (
        lambda: marchenko.marchenko_diag(kernels.airy_symbol_kernel(), np.nan, 0.0),
        "kappa must be finite"),
    "marchenko-diag-x-nan": (
        lambda: marchenko.marchenko_diag(kernels.airy_symbol_kernel(), 0.5, np.nan),
        "x must be finite"),
    "solve-marchenko-kappa-inf": (
        lambda: marchenko.solve_marchenko(kernels.airy_symbol_kernel(), np.inf, 0.0),
        "kappa must be finite"),
    "solve-marchenko-x-minus-inf": (
        lambda: marchenko.solve_marchenko(kernels.airy_symbol_kernel(), 0.5, -np.inf),
        "x must be finite"),
    "diag-from-expansion-x-nan": (
        lambda: marchenko.diag_from_expansion(kernels.airy_symbol_kernel(), 0.5, np.nan),
        "x must be finite"),
    "diag-from-expansion-kappa-nan": (
        lambda: marchenko.diag_from_expansion(kernels.airy_symbol_kernel(), np.nan, 0.0),
        "kappa must be finite"),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refused_with_a_value_error(call, message):
    with pytest.raises(ValueError, match=re.escape(message)) as info:
        call()
    assert info.type is ValueError


# ODE entry points that looped without end on a non-finite input
NON_FINITE = {
    "monodromy-alpha-inf": (lambda: hill.monodromy(hill.HillModel(np.inf, 1.0)),
                            "alpha and every lambda must be finite"),
    "discriminant-lambda-nan": (lambda: hill.discriminant(hill.HillModel(1.0, np.nan)),
                                "alpha and every lambda must be finite"),
    "product-formula-lambda-nan": (lambda: hill.product_formula_check(1.0, np.nan, 3),
                                   "alpha and every lambda must be finite"),
    "periodic-spectrum-alpha-nan": (lambda: hill.periodic_spectrum(np.nan, 3),
                                    "alpha must be finite"),
    "tw-cdf-minus-inf": (lambda: painleve.tw_cdf(1.0, [-np.inf, 0.0]), "x_min must be finite"),
    "solve-pii-minus-inf": (lambda: painleve.solve_pii(1.0, -np.inf, 8.0),
                            "x_min must be finite"),
    "factorization-inf": (lambda: twfactor.verify_factorization(
        twfactor.scaled_airy_system(), (0.0, np.inf), 10), "range must be finite"),
    "factorization-nan": (lambda: twfactor.verify_factorization(
        twfactor.scaled_airy_system(), (0.0, np.nan), 10), "range must be finite"),
}


@pytest.mark.parametrize("call, message", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_non_finite_ode_input_refused_before_integrating(call, message, deadline):
    with pytest.raises(ValueError, match=re.escape(message)) as info:
        call()
    assert info.type is ValueError


@pytest.mark.parametrize("n", [None, 100])
def test_tw_grid_holding_a_shift_past_the_rounding_level_is_refused(n):
    # x = -12 at t = 1 refuses on its own; among other shifts its stack still does
    with pytest.raises(NearSingularError, match=r"\(airy_symbol\(shift=-12\)\)\^2"):
        painleve.tw_cdf_det(1.0, [0.0, -12.0, 1.0], n=n)
