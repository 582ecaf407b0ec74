import cmath
import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import special

from rmedge import hardedge
from rmedge.errors import TruncationError
from rmedge.hardedge import (HardEdgeConfig, apply_g, bessel_det_identity,
                             g_involution_check, hankel_involution_check,
                             hankel_transform, phi_eigen_correspondence, u_nu_eval)
from rmedge.kernels import qbessel_kernel, symmetric_grid
from rmedge.linop import discretize
from rmedge.specfun import bessel_j, gauss_legendre


class TestHankelTransform:
    def test_zero_function(self):
        _, v = hankel_transform(lambda y: np.zeros_like(y), 0.5, 10.0)
        assert np.all(v == 0.0)

    def test_weber_closed_form(self):
        # int J_nu(xy) y^{nu+1} e^{-y^2} dy = x^nu e^{-x^2/4} / 2^{nu+1}
        nu = 0.5
        x, v = hankel_transform(lambda y: y ** nu * np.exp(-y * y), nu, 12.0)
        want = x ** nu * np.exp(-x * x / 4) / 2 ** (nu + 1)
        assert np.abs(v - want).max() < 1e-12

    @pytest.mark.parametrize("nu", [0.5, 1.5])
    def test_involution_on_gaussian_type(self, nu):
        def f(y):
            return y ** nu * np.exp(-y * y)
        assert hankel_involution_check(nu, [f]) < 1e-7

    @pytest.mark.parametrize("nu", [0.5, 1.5])
    def test_involution_check_is_two_transforms(self, nu):
        def f(y):
            return y ** nu * np.exp(-y * y)
        y, hf = hankel_transform(f, nu, 12.0)
        _, hhf = hankel_transform(lambda _: hf, nu, 12.0)
        assert hankel_involution_check(nu, [f]) == np.abs(hhf - f(y)).max()

    def test_half_order_reduces_to_sine_transform(self):
        # J_{1/2}(xy) = sqrt(2/(pi x y)) sin(xy); for f = y^{1/2} e^{-y^2} the
        # transform is sqrt(2/(pi x)) int y e^{-y^2} sin(xy) dy
        # = sqrt(2/(pi x)) (sqrt(pi) x / 4) e^{-x^2/4}
        x, v = hankel_transform(lambda y: np.sqrt(y) * np.exp(-y * y), 0.5, 12.0)
        want = np.sqrt(2 / (np.pi * x)) * (np.sqrt(np.pi) * x / 4) * np.exp(-x * x / 4)
        assert np.abs(v - want).max() < 1e-12

    def test_insufficient_decay_raises(self):
        with pytest.raises(TruncationError):
            hankel_transform(lambda y: np.exp(-0.01 * y), 0.5, 10.0)
        with pytest.raises(TruncationError):
            hankel_involution_check(0.5, [lambda y: np.exp(-0.01 * y)])

    def test_involution_check_refuses_a_transform_that_has_not_decayed(self):
        # f = y^nu e^{-a y^2} has decayed by 12, but H f = x^nu e^{-x^2/(4a)}/(2a)^{nu+1}
        # with a = 1/0.09 still holds 11% of its scale there
        nu = 0.5

        def f(y):
            return y ** nu * np.exp(-y * y / 0.09)
        hankel_transform(f, nu, 12.0)
        with pytest.raises(TruncationError):
            hankel_involution_check(nu, [f])

    @pytest.mark.parametrize("nu", [0.5, 1.5])
    def test_default_grid_evaluates_each_pair_once(self, monkeypatch, nu):
        # J_nu(y_i y_j) once per unordered pair, the same bits as the full product
        points = []

        def jv(order, x):
            points.append(np.size(x))
            return special.jv(order, x)

        def f(y):
            return y ** nu * np.exp(-y * y)

        n, cutoff = 120, 12.0
        rule = gauss_legendre(n, 0.0, cutoff)
        y = rule.nodes
        rect = special.jv(nu, y[:, None] * y[None, :]) @ (f(y) * y * rule.weights)
        monkeypatch.setattr(hardedge, "_sp", SimpleNamespace(jv=jv))
        x, v = hankel_transform(f, nu, cutoff, n=n)
        assert points == [n * (n + 1) // 2]
        assert np.array_equal(x, y) and np.array_equal(v, rect)
        grid = symmetric_grid(lambda a, b: special.jv(nu, a * b), y)
        assert np.array_equal(grid, special.jv(nu, y[:, None] * y[None, :]))

    @pytest.mark.parametrize("nu", [0.5, 1.5])
    def test_involution_check_builds_one_grid(self, monkeypatch, nu):
        # H(H f) applies one J_nu(y_i y_j) grid twice: 400 * 401 / 2 points
        points = []

        def jv(order, x):
            points.append(np.size(x))
            return special.jv(order, x)

        monkeypatch.setattr(hardedge, "_sp", SimpleNamespace(jv=jv))
        hankel_involution_check(nu, [lambda y: y ** nu * np.exp(-y * y)])
        assert points == [80200]


class TestGInvolution:
    def test_gaussian_bump(self):
        dev = g_involution_check(
            0.5, 0.0, [lambda e: np.exp(-4.0 * np.asarray(e, dtype=float) ** 2)])
        assert dev < 1e-6

    def test_shifted_operator(self):
        dev = g_involution_check(
            0.5, 0.7, [lambda e: np.exp(-4.0 * np.asarray(e, dtype=float) ** 2)])
        assert dev < 1e-6

    def test_linearity(self):
        f1 = lambda e: np.exp(-4.0 * np.asarray(e, dtype=float) ** 2)
        f2 = lambda e: np.exp(-2.0 * (np.asarray(e, dtype=float) - 0.5) ** 2)
        pts = np.array([0.0, 0.8, 2.0])
        lhs = apply_g(0.5, 0.0, lambda e: f1(e) + f2(e), pts, 1e-9, 20.0)
        rhs = apply_g(0.5, 0.0, f1, pts, 1e-9, 20.0) \
            + apply_g(0.5, 0.0, f2, pts, 1e-9, 20.0)
        assert np.abs(lhs - rhs).max() < 1e-10


class TestBesselDetIdentity:
    def test_z_zero(self):
        lhs, rhs, gap = bessel_det_identity(HardEdgeConfig(nu=0.5, a=0.5), 0.0, n=40)
        assert (lhs, rhs, gap) == (1.0, 1.0, 0.0)

    @pytest.mark.parametrize("nu,a,z", [(0.5, 0.5, 1.0), (2.0, 0.25, 0.8)])
    def test_dual_route(self, nu, a, z):
        _, _, gap = bessel_det_identity(HardEdgeConfig(nu=nu, a=a), z, n=60)
        assert gap < 1e-6

    @pytest.mark.parametrize("nu,a,z,want", [(0.5, 0.5, 1.0, 0.9764418079479565),
                                             (2.0, 0.25, 0.8, 0.99999470033684)])
    def test_hankel_route_pinned(self, nu, a, z, want):
        # det(I - z Phi^2) from the Hankel spectrum, as computed by the
        # product over the spectrum before it moved to the log domain
        _, rhs, _ = bessel_det_identity(HardEdgeConfig(nu=nu, a=a), z)
        assert abs(rhs - want) <= 1e-14 * want

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HardEdgeConfig(nu=-0.6, a=0.5)
        with pytest.raises(ValueError):
            HardEdgeConfig(nu=0.5, a=1.5)

    def test_alpha_sign_convention(self):
        cfg = HardEdgeConfig(nu=0.5, a=0.25)
        assert cfg.alpha == pytest.approx(-0.5 * math.log(0.25))
        assert cfg.alpha > 0


class TestEigenCorrespondence:
    def test_full_interval(self):
        res = phi_eigen_correspondence(0.5, 1.0, n=60)
        assert res["eig_gap"] < 1e-6
        assert res["vector_residual"] < 1e-5

    def test_generic_parameters(self):
        res = phi_eigen_correspondence(2.0, 0.6, n=60)
        assert res["eig_gap"] < 1e-6
        assert res["vector_residual"] < 1e-5

    def test_small_s_limit(self):
        res = phi_eigen_correspondence(0.5, 1e-6, n=40)
        assert np.abs(res["kernel_eigs"]).max() < 1e-3

    def test_s_validation(self):
        with pytest.raises(ValueError):
            phi_eigen_correspondence(0.5, 1.5)


class TestUnimodularSymbol:
    def test_value_at_zero(self):
        assert abs(u_nu_eval(0.7, 0.0) - 1.0) < 1e-14

    def test_reflection_product(self):
        u = u_nu_eval(1.0, 3.0) * u_nu_eval(1.0, -3.0)
        assert abs(u - 1.0) < 1e-12

    def test_unimodular(self):
        assert abs(abs(u_nu_eval(0.3, 2.7)) - 1.0) < 1e-10

    def test_matches_gamma_definition(self):
        nu, x = 0.8, 1.9
        from scipy.special import loggamma
        want = cmath.exp(1j * x * math.log(2)
                         + loggamma((1 + nu + 1j * x) / 2)
                         - loggamma((1 + nu - 1j * x) / 2))
        assert abs(u_nu_eval(nu, x) - want) < 1e-13


def test_hilbert_schmidt_substitution_identity():
    # double integral of the kernel square equals the u-weighted line integral
    nu, ell = 0.5, 0.3
    L = 18.0
    r = gauss_legendre(220, 0.0, L)

    def sym(s):
        arg = np.exp(-ell - s)
        return arg * bessel_j(nu, arg)[0]

    K = sym(r.nodes[:, None] + r.nodes[None, :])
    lhs = float(r.weights @ (K * K) @ r.weights)
    u = r.nodes
    rhs = float(r.weights @ (u * sym(u) ** 2))
    assert abs(lhs - rhs) < 1e-8


def test_projection_defect_shrinks_under_refinement():
    # ||M^2 - M|| / ||M|| of the discretized hard-edge projection: compression
    # to a finite box breaks idempotence, so only the refinement trend counts
    defects = []
    for box, n in [((-1.0, 8.0), 30), ((-1.5, 10.0), 60), ((-2.0, 12.0), 120)]:
        M = discretize(qbessel_kernel(0.5, 0.0), box, n).matrix
        defects.append(np.linalg.norm(M @ M - M) / np.linalg.norm(M))
    assert defects[1] < defects[0]
    assert defects[2] < defects[1]


def test_log_variable_eigenfunction_ode():
    # phi(xi) = e^{-xi-l-eta} J_nu(e^{-xi-l-eta}) satisfies
    # -(e^{2xi} phi')' + (nu^2 - 1) e^{2xi} phi = e^{-2l-2eta} phi; expand the
    # divergence form and check pointwise with Richardson differences
    nu, ell, eta = 0.5, 0.2, 0.4

    def phi(xi):
        arg = np.exp(-xi - ell - eta)
        return arg * bessel_j(nu, arg)[0]

    def residual(xi, h):
        p = phi(np.array([xi - h, xi, xi + h]))
        d1 = (p[2] - p[0]) / (2 * h)
        d2 = (p[2] - 2 * p[1] + p[0]) / h ** 2
        lhs = -math.exp(2 * xi) * (d2 + 2 * d1 - (nu * nu - 1) * p[1])
        return lhs - math.exp(-2 * (ell + eta)) * p[1]

    for xi in (-0.5, 0.3, 1.1):
        r = (4 * residual(xi, 5e-4) - residual(xi, 1e-3)) / 3
        assert abs(r) < 1e-7
