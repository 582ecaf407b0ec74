"""Arguments outside a routine's declared window raise a plain ValueError."""
import re

import numpy as np
import pytest

from rmedge import ensembles, hardedge, kernels, linop, painleve, specfun, twfactor


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
    "gap-probs-negative-kmax": (lambda: linop.gap_probs(_op(0.1 * np.eye(2)), -1),
                                "kmax must be nonnegative"),
    "bessel-log-order": (lambda: kernels.bessel_log_symbol_kernel(-0.5),
                         "order must exceed -1/2"),
    "u-nu-order": (lambda: hardedge.u_nu_eval(-0.5, 1.0), "order must exceed -1/2"),
    "bracket-order": (lambda: twfactor.bessel_bracket_residual(-0.5, 0.0, 1.0),
                      "order must exceed -1/2"),
    "sine-t0": (lambda: kernels.sine_kernel(0), "needs t > 0"),
    "sine-circle-fractional-n": (lambda: kernels.sine_circle_kernel(2.5), "positive integer"),
    "tw-cdf-det-t-above-1": (lambda: painleve.tw_cdf_det(1.5, [0.0]), "t must lie in (0, 1]"),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refused_with_a_value_error(call, message):
    with pytest.raises(ValueError, match=re.escape(message)) as info:
        call()
    assert info.type is ValueError
