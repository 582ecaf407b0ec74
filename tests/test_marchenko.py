import math

import numpy as np
import pytest

from rmedge.errors import ContractionError, NearSingularError
from rmedge.kernels import (airy_symbol_kernel, hankel_square_grid,
                            hankel_symbol_kernel)
from rmedge.marchenko import (diag_from_expansion, hs_expansion, log_det_tail,
                              marchenko_diag, resolvent_series_values,
                              solve_marchenko, symbol_weighted_norm,
                              verify_logdet_slope)
from rmedge.specfun import airy, gauss_legendre


def exp_symbol(scale=1.0):
    return hankel_symbol_kernel(
        lambda s: scale * np.exp(-np.asarray(s, dtype=float)), 16.0,
        family="exp_symbol", params={"scale": scale})


class TestRankOneOracle:
    # A(u) = e^{-u} gives W(x, y) = e^{-x-y}/2 with a single eigenvalue
    # e^{-2x}/4 on (x, inf), so everything is analytic

    def test_weighted_norm(self):
        assert abs(symbol_weighted_norm(exp_symbol()) - 0.25) < 1e-10

    def test_solution_matches_closed_form(self):
        kappa, x = 0.5, 1.0
        sol = solve_marchenko(exp_symbol(), kappa, x, n=120)
        exact = kappa * np.exp(-x - sol.z_grid) / (2 - kappa ** 2 * math.exp(-2 * x) / 2)
        assert np.abs(sol.K_values - exact).max() < 1e-9

    def test_zero_coupling_gives_zero(self):
        sol = solve_marchenko(exp_symbol(), 0.0, 1.0, n=40)
        assert np.abs(sol.K_values).max() == 0.0
        assert sol.K_diag == 0.0

    def test_resolvent_series_route(self):
        kappa, x = 0.5, 1.0
        sol = solve_marchenko(exp_symbol(), kappa, x, n=120)
        series = resolvent_series_values(exp_symbol(), kappa, x,
                                         sol.z_grid[:10], n=120)
        assert np.abs(series - sol.K_values[:10]).max() < 1e-8

    def test_logdet_slope_analytic(self):
        kappa, x = 0.5, 1.0
        lhs, rhs, gap = verify_logdet_slope(exp_symbol(), kappa, x)
        analytic = (kappa ** 2 * math.exp(-2 * x) / 2) \
            / (1 - kappa ** 2 * math.exp(-2 * x) / 4)
        assert abs(lhs - analytic) < 1e-7
        assert abs(rhs - analytic) < 1e-7
        assert gap < 1e-7

    def test_logdet_slope_zero_coupling(self):
        lhs, rhs, gap = verify_logdet_slope(exp_symbol(), 0.0, 1.0)
        assert lhs == 0.0 and rhs == 0.0 and gap == 0.0


class TestAirySymbol:
    def test_equation_residual(self):
        spec = airy_symbol_kernel()
        kappa, x = 0.9, 0.0
        sol = solve_marchenko(spec, kappa, x, n=140)
        rule = gauss_legendre(140, x, x + spec.tail_length)
        W = hankel_square_grid(spec, rule.nodes, rule.nodes)
        lhs = sol.K_values - kappa ** 2 * (W * rule.weights[None, :]) @ sol.K_values
        rhs = kappa * hankel_square_grid(spec, np.array([x]), rule.nodes)[0]
        assert np.abs(lhs - rhs).max() < 1e-8

    def test_logdet_slope_at_full_coupling(self):
        _, _, gap = verify_logdet_slope(airy_symbol_kernel(), 1.0, 1.0)
        assert gap < 1e-6

    @pytest.mark.parametrize("kappa", [0.3, 0.9])
    @pytest.mark.parametrize("x", [0.0, 1.0])
    def test_route_equivalence(self, kappa, x):
        spec = airy_symbol_kernel()
        d1 = marchenko_diag(spec, kappa, x)
        d2 = diag_from_expansion(spec, kappa, x)
        assert abs(d1 - d2) < 1e-7


class TestHsExpansion:
    def test_exponential_symbol_gamma_sum(self):
        gam, _, _ = hs_expansion(exp_symbol(), 0.0, 200, n=200)
        assert abs(float(np.sum(gam ** 2)) - 0.25) < 1e-6

    def test_airy_gamma_sum_against_quadrature(self):
        spec = airy_symbol_kernel()
        gam, _, _ = hs_expansion(spec, 0.0, 200, n=200)
        rule = gauss_legendre(200, 0.0, 14.0)
        ai = airy(rule.nodes)[0]
        want = rule.integrate(rule.nodes * ai * ai)
        assert abs(float(np.sum(gam ** 2)) - want) < 1e-6

    def test_tail_matrix_vanishes_far_out(self):
        _, Phi, _ = hs_expansion(exp_symbol(), 12.0, 6)
        assert np.abs(Phi).max() < 1e-9

    def test_hilbert_schmidt_bound(self):
        spec = airy_symbol_kernel()
        gam_all, _, _ = hs_expansion(spec, 0.0, 200, n=200)
        for x in (0.0, 0.5, 2.0):
            _, Phi, _ = hs_expansion(spec, x, 20)
            assert np.linalg.norm(Phi) <= float(np.sum(gam_all ** 2)) + 1e-12

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            hs_expansion(exp_symbol(), 0.0, 500, n=100)


def test_contraction_violation_detected():
    # kappa^2 int u A^2 du = 0.64 * 9/4 = 1.44 >= 1
    with pytest.raises(ContractionError):
        solve_marchenko(exp_symbol(scale=3.0), 0.8, 0.5)


def test_resolvent_series_refuses_the_same_non_contraction():
    # this returned K = (2.816, 1.708) at z = (0.5, 1) without the check
    with pytest.raises(ContractionError):
        resolvent_series_values(exp_symbol(scale=3.0), 0.8, 0.5, [0.5, 1.0])


def test_log_det_tail_refuses_a_negative_determinant():
    # the one Hankel eigenvalue 3/2 gives det(I - Gamma^2) = 1 - 9/4 < 0
    with pytest.raises(ContractionError, match="<= 0"):
        log_det_tail(exp_symbol(scale=3.0), 1.0, 0.0)


def test_log_det_tail_refuses_a_factor_below_the_rounding_level():
    # 1 - gamma^2 = 2.29e-14 is below n eps max gamma^2 = 3.55e-14 (n = 160):
    # this returned -31.409 against the exact log(1 - (1 - e^-32)^2) = -31.307
    spec = hankel_symbol_kernel(lambda s: 2.0 * np.exp(-s), 16.0)
    with pytest.raises(NearSingularError, match="rounding level"):
        log_det_tail(spec, 1.0, 0.0)


def test_determinant_is_polynomial_in_coupling_squared():
    # smoothness proxy for analytic continuation: det(I - k^2 Gamma_x^2) as a
    # function of k^2 matches a degree-8 polynomial fit on |k| <= 1/2
    spec = airy_symbol_kernel()
    k2 = np.linspace(0.0, 0.25, 24)
    vals = np.array([math.exp(log_det_tail(spec, math.sqrt(v), 0.5)) for v in k2])
    coef = np.polynomial.polynomial.polyfit(k2, vals, 8)
    fit = np.polynomial.polynomial.polyval(k2, coef)
    assert np.abs(fit - vals).max() < 1e-8
