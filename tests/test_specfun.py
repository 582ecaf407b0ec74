import math

import numpy as np
import pytest
from scipy import special as sp

from rmedge import specfun
from rmedge.hardedge import u_nu_eval
from rmedge.specfun import (QuadRule, airy, airy_ai, bessel_j, bessel_jv, gauss_legendre,
                            gauss_legendre_sqrt, log_gamma_complex, periodic_rule)


def _newton_rule(n, lo, hi):
    # the uncached rule: Newton on P_n from the Chebyshev-like guess, mapped
    k = np.arange(n)
    x = np.cos(np.pi * (4 * k + 3) / (4 * n + 2))

    def legendre(x):
        p_prev, p = np.ones_like(x), x.copy()
        for j in range(2, n + 1):
            p, p_prev = ((2 * j - 1) * x * p - (j - 1) * p_prev) / j, p
        dp = np.ones_like(x) if n == 1 else n * (p_prev - x * p) / (1.0 - x * x)
        return p, dp

    for _ in range(100):
        p, dp = legendre(x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    dp = legendre(x)[1]
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    half = 0.5 * (hi - lo)
    return (0.5 * (lo + hi) + half * x)[::-1], (half * w)[::-1]


class TestGaussLegendre:
    def test_single_node_is_midpoint(self):
        r = gauss_legendre(1, -1.0, 1.0)
        assert abs(r.nodes[0]) < 1e-15
        assert abs(r.weights[0] - 2.0) < 1e-15

    def test_two_nodes(self):
        r = gauss_legendre(2, -1.0, 1.0)
        assert np.allclose(r.nodes, [-1/math.sqrt(3), 1/math.sqrt(3)], atol=1e-15)
        assert np.allclose(r.weights, [1.0, 1.0], atol=1e-15)

    def test_weight_sum_unit_interval(self):
        r = gauss_legendre(16, 0.0, 1.0)
        assert abs(r.weights.sum() - 1.0) < 1e-14

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 31])
    def test_polynomial_exactness(self, n):
        # exact for degree <= 2n-1; compare against the analytic integral
        lo, hi = -0.3, 1.7
        r = gauss_legendre(n, lo, hi)
        for k in range(2 * n):
            exact = (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
            got = r.integrate(r.nodes ** k)
            assert abs(got - exact) <= 1e-11 * max(1.0, abs(exact))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            gauss_legendre(0, 0.0, 1.0)
        with pytest.raises(ValueError):
            gauss_legendre(4, 1.0, 1.0)

    def test_rule_invariants(self):
        r = gauss_legendre(40, 2.0, 9.0)
        assert np.all(r.weights > 0)
        assert abs(r.weights.sum() - 7.0) < 1e-12 * 7
        assert np.all(np.diff(r.nodes) > 0)
        assert r.nodes[0] > 2.0 and r.nodes[-1] < 9.0

    @pytest.mark.parametrize("n", [1, 2, 8, 100, 2000])
    def test_cached_rule_equals_newton_rule(self, n):
        for lo, hi in ((-1.0, 1.0), (-0.3, 14.2)):
            for _ in range(2):  # the second call is served from the cache
                r = gauss_legendre(n, lo, hi)
                nodes, weights = _newton_rule(n, lo, hi)
                assert np.array_equal(r.nodes, nodes)
                assert np.array_equal(r.weights, weights)

    def test_mutating_a_rule_leaves_the_next_one_intact(self):
        first = gauss_legendre(8, 0.0, 1.0)
        first.nodes[:] = 0.5
        first.weights[:] = 2.0 * first.weights
        again = gauss_legendre(8, 0.0, 1.0)
        nodes, weights = _newton_rule(8, 0.0, 1.0)
        assert np.array_equal(again.nodes, nodes)
        assert np.array_equal(again.weights, weights)

    def test_every_returned_rule_is_validated(self, monkeypatch):
        x, w = specfun._legendre_reference(4)
        monkeypatch.setattr(specfun, "_legendre_reference",
                            lambda n: (x, np.where(w > w.min(), w, -w)))
        with pytest.raises(ValueError):
            gauss_legendre(4, 0.0, 1.0)

    def test_bad_rule_rejected(self):
        with pytest.raises(ValueError):
            QuadRule(nodes=np.array([0.5, 0.4]), weights=np.array([0.5, 0.5]),
                     interval=(0.0, 1.0))
        with pytest.raises(ValueError):
            QuadRule(nodes=np.array([0.4, 0.5]), weights=np.array([-0.5, 1.5]),
                     interval=(0.0, 1.0))


class TestGaussLegendreSqrt:
    @pytest.mark.parametrize("s", [1.0, 12.0])
    def test_half_integer_powers_exact(self, s):
        # x^{1/2} and x^{3/2} are polynomials in u = sqrt(x); in x they are not
        root = gauss_legendre_sqrt(4, 0.0, s)
        plain = gauss_legendre(4, 0.0, s)
        for p in (0.5, 1.5):
            exact = s ** (p + 1.0) / (p + 1.0)
            assert abs(root.integrate(root.nodes ** p) - exact) <= 1e-15 * exact
            assert abs(plain.integrate(plain.nodes ** p) - exact) > 1e-6 * exact

    def test_nodes_are_squares_of_the_u_rule(self):
        r = gauss_legendre_sqrt(10, 0.5, 3.0)
        u = gauss_legendre(10, math.sqrt(0.5), math.sqrt(3.0))
        assert np.array_equal(r.nodes, u.nodes * u.nodes)
        assert np.array_equal(r.weights, 2.0 * u.nodes * u.weights)
        assert r.interval == (0.5, 3.0)

    def test_negative_lower_end_refused(self):
        with pytest.raises(ValueError, match="lo >= 0"):
            gauss_legendre_sqrt(4, -1.0, 1.0)


class TestPeriodicRule:
    def test_midpoint_layout(self):
        r = periodic_rule(8, 0.0, 2 * math.pi)
        assert np.allclose(np.diff(r.nodes), 2 * math.pi / 8)
        assert np.allclose(r.weights, 2 * math.pi / 8)
        assert abs(r.weights.sum() - 2 * math.pi) < 1e-12 * 2 * math.pi

    def test_trig_exactness(self):
        # spectrally exact on low trigonometric polynomials
        r = periodic_rule(24, 0.0, 2 * math.pi)
        assert abs(r.integrate(np.cos(3 * r.nodes) ** 2) - math.pi) < 1e-12


class TestAiry:
    def test_value_at_zero_series_oracle(self):
        # Maclaurin leading coefficient: Ai(0) = 3^(-2/3) / Gamma(2/3)
        ai0, _ = airy(0.0)
        assert abs(ai0 - 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)) < 1e-14

    def test_defining_ode_by_finite_differences(self):
        # 4th-order five-point stencil keeps both truncation and roundoff
        # below the tolerance
        h = 1e-3
        x = 1.0
        v = airy(x + h * np.arange(-2, 3))[0]
        second = (-v[4] + 16 * v[3] - 30 * v[2] + 16 * v[1] - v[0]) / (12 * h * h)
        assert abs(second - x * v[2]) < 1e-8

    def test_large_argument_asymptotics(self):
        # Ai(x) ~ exp(-(2/3) x^(3/2)) / (2 sqrt(pi) x^(1/4)) (1 + O(x^(-3/2)))
        ai, _ = airy(10.0)
        ratio = ai * 2 * math.sqrt(math.pi) * 10 ** 0.25 * math.exp(2 / 3 * 10 ** 1.5)
        assert 0.99 <= ratio <= 1.01

    def test_underflow_is_clean(self):
        ai, aip = airy(120.0)
        assert ai == 0.0 and aip == 0.0

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            airy(float("nan"))
        with pytest.raises(ValueError):
            airy(float("inf"))

    def test_cross_product_antisymmetry(self):
        rng = np.random.default_rng(5)
        for x, y in rng.uniform(-3, 3, size=(20, 2)):
            ax, apx = airy(x)
            ay, apy = airy(y)
            assert abs((ax * apy - apx * ay) + (ay * apx - apy * ax)) < 1e-15


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


class TestAiryAboveTen:
    """Above x = 10 airy forms Ai, Ai' from K_{1/3}, K_{2/3} as AMOS ZAIRY does."""

    def _assert_matches_scipy(self, x):
        ai, aip = airy(x)
        want_ai, want_aip, _, _ = sp.airy(x)
        assert np.array_equal(_bits(ai), _bits(want_ai))
        assert np.array_equal(_bits(aip), _bits(want_aip))

    def test_bit_identical_at_the_switch(self):
        for x in (np.nextafter(10.0, 0.0), 10.0, np.nextafter(10.0, np.inf)):
            self._assert_matches_scipy(x)

    def test_bit_identical_on_seeded_draws(self):
        rng = np.random.default_rng(2024)
        self._assert_matches_scipy(rng.uniform(10.0, 104.0, 20000))

    def test_underflow_matches_scipy_with_positive_zero(self):
        x = np.array([104.0, 110.0, 150.0, 1e3, 1e5])
        self._assert_matches_scipy(x)
        assert not np.any(np.signbit(airy(x)[1]))

    def test_mixed_array_across_the_switch(self):
        rng = np.random.default_rng(7)
        x = rng.permutation(np.concatenate([rng.uniform(-8.0, 10.0, 500),
                                            rng.uniform(10.0, 120.0, 500), [10.0]]))
        self._assert_matches_scipy(x.reshape(7, 143))

    def test_huge_arguments_underflow_to_zero(self):
        # ZAIRY fails here and scipy returns NaN
        for x in (1e8, [1e15, 1e300]):
            ai, aip = airy(x)
            assert np.all(ai == 0.0) and np.all(aip == 0.0)

    @pytest.mark.parametrize("x", [12.0, np.float64(3.0), np.array(11.5), 7])
    def test_scalar_inputs_give_scalars(self, x):
        for value in airy(x):
            assert type(value) is np.float64

    def test_array_inputs_keep_their_shape(self):
        for x, shape in (([1.0, 20.0, -3.0], (3,)), (np.full((2, 3), 11.0), (2, 3)),
                         (np.linspace(5.0, 15.0, 8).reshape(2, 2, 2), (2, 2, 2))):
            ai, aip = airy(x)
            assert ai.shape == aip.shape == shape


class TestAiryAi:
    """airy_ai is airy(x)[0] bit for bit, without the K_{2/3} call above 10."""

    def test_bit_identical_to_the_pair_on_a_grid(self):
        x = np.concatenate([np.linspace(-30.0, 250.0, 5601),
                            [10.0, np.nextafter(10.0, np.inf), 104.0, 200.0]])
        got, want = airy_ai(x), airy(x)[0]
        assert type(got) is type(want) and got.shape == want.shape
        assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("x", [-3.5, 10.0, 12.0, 150.0])
    def test_scalar_bit_identical_to_the_pair(self, x):
        got, want = airy_ai(x), airy(x)[0]
        assert type(got) is type(want) is np.float64
        assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf, [1.0, np.nan]])
    def test_nonfinite_rejected(self, x):
        with pytest.raises(ValueError, match="finite"):
            airy_ai(x)


class TestBesselJ:
    def test_values_at_origin(self):
        assert bessel_j(0.0, 0.0)[0] == 1.0
        assert bessel_j(1.0, 0.0)[0] == 0.0

    def test_three_term_recurrence(self):
        nu, x = 1.0, 2.0
        j0 = bessel_j(nu - 1, x)[0]
        j2 = bessel_j(nu + 1, x)[0]
        j1 = bessel_j(nu, x)[0]
        assert abs(j0 + j2 - (2 * nu / x) * j1) < 1e-10

    def test_half_order_series_oracle(self):
        # ascending series for J_{1/2} against the closed form sqrt(2/(pi x)) sin x
        x = 1.5
        total = 0.0
        for k in range(40):
            total += (-1.0) ** k / (math.gamma(k + 1) * math.gamma(k + 1.5)) \
                * (x / 2.0) ** (2 * k + 0.5)
        closed = math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
        got = bessel_j(0.5, x)[0]
        assert abs(got - total) < 1e-10
        assert abs(got - closed) < 1e-10

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            bessel_j(0.5, -1.0)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            bessel_j(-0.75, 1.0)

    def test_bessel_ode_residual(self):
        # (x J')' + (x - nu^2/x) J = 0 via Richardson-improved differences of
        # the returned (J, J') pair
        def d_xjp(nu, x, h):
            jpp = bessel_j(nu, x + h)[1]
            jpm = bessel_j(nu, x - h)[1]
            return ((x + h) * jpp - (x - h) * jpm) / (2 * h)

        h = 1e-3
        for nu in (0.5, 2.0):
            for x in np.linspace(0.1, 20.0, 25):
                d = (4 * d_xjp(nu, x, h / 2) - d_xjp(nu, x, h)) / 3
                j0 = bessel_j(nu, x)[0]
                assert abs(d + (x - nu * nu / x) * j0) < 1e-8


class TestBesselJv:
    def test_matches_the_pair_api(self):
        x = np.linspace(0.0, 30.0, 301)
        for nu in (0.0, 0.5, 2.0, 7.25):
            assert np.array_equal(bessel_jv(nu, x), bessel_j(nu, x)[0])

    def test_shares_the_domain_checks(self):
        with pytest.raises(ValueError):
            bessel_jv(0.5, -1.0)
        with pytest.raises(ValueError):
            bessel_jv(-0.75, 1.0)

    def test_library_never_evaluates_the_derivative(self, monkeypatch):
        # the hard-edge and Bessel-kernel routes read J_nu only
        from rmedge.hardedge import HardEdgeConfig, bessel_det_identity, phi_eigen_correspondence
        from rmedge.kernels import bessel_hard_kernel
        from rmedge.linop import discretize

        def no_jvp(*args, **kwargs):
            raise AssertionError("jvp evaluated")

        monkeypatch.setattr(specfun._sp, "jvp", no_jvp)
        bessel_det_identity(HardEdgeConfig(0.5, 0.5), 1.0)
        phi_eigen_correspondence(0.5, 0.5, n=20, top=2)
        discretize(bessel_hard_kernel(2.0), (0.0, 4.0), 16)


class TestLogGamma:
    def test_at_one(self):
        assert abs(log_gamma_complex(1.0)) < 1e-15

    def test_at_half(self):
        assert abs(log_gamma_complex(0.5) - math.log(math.sqrt(math.pi))) < 1e-12

    def test_exponential_reproduces_gamma(self):
        for z in (0.7, 1.3, 4.2, 9.5):
            assert abs(np.exp(log_gamma_complex(z)) - math.gamma(z)) \
                < 1e-13 * math.gamma(z)

    def test_complex_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        for z in (0.75 + 1.0j, 2.0 - 3.0j, 0.25 + 0.1j):
            ref = complex(mpmath.loggamma(z))
            assert abs(log_gamma_complex(z) - ref) < 1e-12 * (1 + abs(ref))

    def test_left_half_plane_rejected(self):
        with pytest.raises(ValueError):
            log_gamma_complex(-1.0 + 2.0j)

    def test_array_is_the_scalar_calls_bit_for_bit(self):
        z = np.array([0.75 + 1.0j, 2.0 - 3.0j, 0.25 + 0.1j, 4.2])
        lg = log_gamma_complex(z)
        assert np.array_equal(lg, [log_gamma_complex(w) for w in z])
        assert type(log_gamma_complex(0.75 + 1.0j)) is complex

    @pytest.mark.parametrize("bad", [0.0 + 2.0j, -1.0 + 2.0j])
    def test_array_with_any_point_off_the_half_plane_rejected(self, bad):
        with pytest.raises(ValueError, match="restricted to Re z > 0"):
            log_gamma_complex(np.array([1.0 + 1.0j, bad, 2.0]))

    def test_unimodular_ratio(self):
        # |2^{ix} Gamma((1+nu+ix)/2) / Gamma((1+nu-ix)/2)| = 1 on the real line
        assert abs(abs(u_nu_eval(0.5, 2.0)) - 1.0) < 1e-12

    def test_ratio_inverse_symmetry(self):
        # u_nu(-x) u_nu(x) = 1 on a grid of real x
        for nu in (0.5, 1.0):
            for x in np.linspace(-6.0, 6.0, 13):
                u = u_nu_eval(nu, x) * u_nu_eval(nu, -x)
                assert abs(u - 1.0) < 1e-12
