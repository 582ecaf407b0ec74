import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from rmedge import twfactor
from rmedge.errors import HypothesisViolationError
from rmedge.kernels import kernel_matrix, system_kernel
from rmedge.specfun import airy
from rmedge.twfactor import (OdeSystem, airy_system, bessel_bracket_residual,
                             build_c_matrix, factorize, scaled_airy_system,
                             sine_system, tw_kernel_values,
                             verify_factorization)


class TestCMatrix:
    def test_airy_system(self):
        C = build_c_matrix(airy_system())
        assert np.allclose(C, [[-1.0, 0.0], [0.0, 0.0]], atol=0)

    def test_sine_system_constant_coefficients(self):
        assert np.all(build_c_matrix(sine_system()) == 0.0)

    def test_synthetic_slopes(self):
        sys = OdeSystem(alpha=(0.0, -0.5), beta=(-1.0, 0.0), gamma=(0.0, -2.0),
                        A0=1.0, B0=0.0, x0=0.0)
        assert np.allclose(build_c_matrix(sys), [[-2.0, -0.5], [-0.5, 0.0]], atol=0)


class TestFactorize:
    def test_airy_rank_one_factorization(self):
        pair = factorize(airy_system())
        assert pair.lambda1 == pytest.approx(1.0, abs=1e-14)
        assert pair.lambda2 == pytest.approx(0.0, abs=1e-14)
        assert pair.theta == pytest.approx(0.0, abs=1e-14)
        xs = np.linspace(0.0, 3.0, 9)
        assert np.abs(pair.F(xs) - airy(xs)[0]).max() < 1e-14
        assert np.abs(pair.G(xs)).max() == 0.0

    def test_zero_c_matrix_gives_zero_symbols(self):
        pair = factorize(sine_system())
        xs = np.linspace(0.0, 2.0, 5)
        assert np.abs(pair.F(xs)).max() == 0.0
        assert np.abs(pair.G(xs)).max() == 0.0

    def test_square_root_of_psd_case(self):
        # -C = [[2, 1], [1, 1]] is positive definite; verify X^2 = -C against
        # the direct 2x2 eigendecomposition
        sys = OdeSystem(alpha=(0.0, -1.0), beta=(0.5, -1.0), gamma=(0.3, -2.0),
                        A0=1.0, B0=0.0, x0=0.0)
        pair = factorize(sys)
        assert np.abs(pair.X @ pair.X + pair.C).max() < 1e-12
        vals = np.linalg.eigvalsh(-pair.C)
        assert pair.lambda1 == pytest.approx(np.sqrt(vals[1]), abs=1e-13)
        assert pair.lambda2 == pytest.approx(np.sqrt(vals[0]), abs=1e-13)

    def test_indefinite_slope_matrix_rejected(self):
        # the difference-quotient matrix [[-2, -1/2], [-1/2, 0]] is indefinite
        sys = OdeSystem(alpha=(0.0, -0.5), beta=(-1.0, 0.0), gamma=(0.0, -2.0),
                        A0=1.0, B0=0.0, x0=0.0)
        with pytest.raises(HypothesisViolationError):
            factorize(sys)


class TestVerifyFactorization:
    def test_airy_identity(self):
        assert verify_factorization(airy_system(), (0.0, 3.0), 10) < 1e-8

    def test_zero_system(self):
        sys = OdeSystem(alpha=(0.0, 0.0), beta=(1.0, 0.0), gamma=(0.0, -1.0),
                        A0=0.0, B0=0.0, x0=0.0,
                        closed_form=lambda x: (np.zeros_like(np.asarray(x, dtype=float)),
                                               np.zeros_like(np.asarray(x, dtype=float))))
        assert verify_factorization(sys, (0.0, 2.0), 5) == 0.0

    def test_numerically_integrated_decaying_system(self):
        # rescaled equation A'' = 4 x A without a registered closed form: the
        # solutions come from the backward renormalized integrator
        resid = verify_factorization(scaled_airy_system(), (0.0, 2.0), 8)
        assert resid < 1e-6

    def test_numeric_route_against_closed_form(self):
        r_closed = verify_factorization(scaled_airy_system(closed_form=True),
                                        (0.0, 2.0), 8)
        assert r_closed < 1e-10

    def test_sine_system_rejected_for_nondecay(self):
        with pytest.raises(HypothesisViolationError):
            verify_factorization(sine_system(), (0.0, 2.0), 5)

    def test_system_integrated_once(self, monkeypatch):
        # the symbols F, G and the kernel share one numerical solution, so no
        # chunk of the backward integration runs twice
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return solve_ivp(*args, **kwargs)

        monkeypatch.setattr(twfactor, "solve_ivp", counted)
        verify_factorization(scaled_airy_system(), (0.0, 2.0), 8)
        tops = [span[0] for span in calls]
        assert len(set(tops)) == len(tops)


def test_numerical_solution_refuses_points_outside_its_range():
    # the integrated (A, B) exists on [x0, x_hi] only: points outside are
    # refused, not read as 0
    sys = scaled_airy_system()
    with pytest.raises(ValueError, match="integrated range"):
        tw_kernel_values(sys, -0.5, 1.0)
    with pytest.raises(ValueError, match="integrated range"):
        factorize(sys).F(np.array([1.0, 85.0]))


def test_kernel_derivative_identity():
    # (d/dx + d/dy) W(x, y) = -F(x)F(y) - G(x)G(y) for accepted systems
    for sys in (airy_system(), scaled_airy_system(closed_form=True)):
        pair = factorize(sys)
        h = 1e-5
        for x, y in [(0.3, 1.2), (0.8, 0.81), (2.0, 0.1)]:
            d = (tw_kernel_values(sys, x + h, y + h)
                 - tw_kernel_values(sys, x - h, y - h)) / (2 * h)
            resid = d + pair.F(x) * pair.F(y) + pair.G(x) * pair.G(y)
            assert abs(resid) < 1e-7


def test_kernel_diagonal_from_ode_coefficients():
    # the diagonal closed form gamma A^2 + 2 alpha A B + beta B^2 agrees with
    # the near-diagonal quotient
    sys = airy_system()
    for x in (0.2, 1.5):
        d = tw_kernel_values(sys, x, x)
        near = tw_kernel_values(sys, x - 5e-6, x + 5e-6)
        assert abs(d - near) < 1e-9


@pytest.mark.parametrize("nu", [0.5, 2.0])
@pytest.mark.parametrize("xi,eta", [(0.2, 0.9), (-0.5, 1.3), (2.0, -1.0)])
def test_bessel_bracket_identity(nu, xi, eta):
    # the commutator identity behind the log-variable Bessel system holds
    # entrywise (constant skew part [[0, 2], [-2, 0]])
    assert bessel_bracket_residual(nu, xi, eta) < 1e-10


def test_verify_factorization_integrates_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(twfactor, "solve_ivp", counted)
    assert verify_factorization(scaled_airy_system(), (0.0, 3.0), 10) < 1e-8
    assert len(calls) == 1


@settings(max_examples=25, deadline=None)
@given(st.floats(0.8, 2.0))
def test_integrated_solution_matches_closed_form(c):
    # one backward solve carries log|(A, B)|, so the relative accuracy holds
    # down to Ai(20) ~ 1e-27
    ab = twfactor._solution(scaled_airy_system(c), 13.0)
    x = np.linspace(0.0, 10.0, 201)
    A, B = ab(x)
    a, ap = airy(c * x)
    assert np.max(np.abs(A / a - 1.0)) < 1e-9
    assert np.max(np.abs(B / (c * ap) - 1.0)) < 1e-9


def test_initial_data_off_the_decaying_direction_rejected():
    # the scaled-Airy coefficients with (A0, B0) = (1, 0): a growing part
    sys = OdeSystem(alpha=(0.0, 0.0), beta=(1.0, 0.0), gamma=(0.0, -4.0),
                    A0=1.0, B0=0.0, x0=0.0)
    with pytest.raises(HypothesisViolationError, match="decaying direction"):
        twfactor._solution(sys, 13.0)


def test_verify_factorization_evaluates_each_point_once():
    # n nodes for the kernel, 240 n shifted nodes for F and G together, and
    # the tail probe
    points = []

    def cf(x):
        points.append(np.size(x))
        return airy(x)

    sys = dataclasses.replace(airy_system(), closed_form=cf)
    n = 10
    verify_factorization(sys, (0.0, 3.0), n)
    assert sum(points) == n + 240 * n + 1


@pytest.mark.parametrize("sys", [airy_system(), scaled_airy_system()],
                         ids=["closed_form", "integrated"])
def test_system_kernel_matrix_equals_meshgrid_values(sys):
    ab = twfactor._solution(sys, 4.0)
    xs = np.linspace(0.0, 3.0, 12)
    want = tw_kernel_values(sys, xs[:, None], xs[None, :], ab=ab)
    assert np.array_equal(kernel_matrix(system_kernel(sys, ab), xs), want)
