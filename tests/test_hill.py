import math

import numpy as np
import pytest
from scipy.special import mathieu_a, mathieu_b

from rmedge import hill
from rmedge.cli import main
from rmedge.errors import ResolutionError, WrongPeriodError
from rmedge.hill import (HillModel, PeriodicSpectrum, _spectrum_entries,
                         discriminant, discriminant_and_derivative,
                         mathieu_eigencheck, mathieu_tw_kernel, monodromy,
                         periodic_spectrum, product_formula_check)
from rmedge.specfun import periodic_rule


class TestMonodromy:
    def test_free_rotation(self):
        S = monodromy(HillModel(0.0, 1.0))
        assert np.abs(S + np.eye(2)).max() < 1e-10

    def test_free_periodic(self):
        S = monodromy(HillModel(0.0, 4.0))
        assert np.abs(S - np.eye(2)).max() < 1e-10

    def test_wronskian_conservation(self):
        for lam in (0.0, 5.0, 30.0):
            S = monodromy(HillModel(1.0, lam))
            assert abs(np.linalg.det(S) - 1.0) < 1e-10

    def test_wronskian_along_the_interval(self):
        # det S(x) = 1 at interior points too
        from rmedge.hill import _propagate
        for x_end in (0.7, 1.5, 2.8):
            y = _propagate(1.0, 2.0, x_end=x_end)
            det = y[0] * y[3] - y[1] * y[2]
            assert abs(det - 1.0) < 1e-10


class TestDiscriminant:
    def test_free_closed_form(self):
        for lam in (0.25, 1.0, 2.7, 4.0):
            want = 2.0 * math.cos(math.pi * math.sqrt(lam))
            assert abs(discriminant(HillModel(0.0, lam)) - want) < 1e-10

    def test_large_lambda_perturbation(self):
        got = discriminant(HillModel(1.0, 100.0))
        free = 2.0 * math.cos(math.pi * 10.0)
        assert abs(got - free) < 0.05

    def test_derivative_against_differences(self):
        d, dp = discriminant_and_derivative(1.0, 2.0)
        h = 1e-6
        fd = (discriminant(HillModel(1.0, 2.0 + h))
              - discriminant(HillModel(1.0, 2.0 - h))) / (2 * h)
        assert abs(dp - fd) < 1e-6


class TestPeriodicSpectrum:
    def test_free_case_squares(self):
        s = periodic_spectrum(0.0, 13)
        want = [0, 1, 1, 4, 4, 9, 9, 16, 16, 25, 25, 36, 36]
        assert np.abs(s.lambdas - want).max() < 1e-8

    def test_tags_alternate(self):
        s = periodic_spectrum(0.0, 5)
        assert s.period_tags == ("pi-periodic", "2pi-periodic", "2pi-periodic",
                                 "pi-periodic", "pi-periodic")

    def test_interlacing(self):
        s = periodic_spectrum(1.0, 13)
        assert np.all(np.diff(s.lambdas) > -1e-12)
        assert s.lambdas[0] < s.lambdas[1]

    def test_discriminant_squared_is_four(self):
        s = periodic_spectrum(1.0, 9)
        for lam in s.lambdas:
            d = discriminant(HillModel(1.0, lam))
            assert abs(d * d - 4.0) < 1e-8

    def test_against_fourier_truncation_oracle(self):
        # tridiagonal Fourier-mode truncation of -d^2/dx^2 - alpha cos 2x on
        # the 2 pi circle; eigenvalues (with multiplicity) = periodic spectrum
        s = periodic_spectrum(1.0, 7)
        modes = np.arange(-32, 33)
        H = np.diag(modes.astype(float) ** 2)
        for i in range(len(modes) - 2):
            H[i, i + 2] = H[i + 2, i] = -0.5
        oracle = np.sort(np.linalg.eigvalsh(H))[:7]
        assert np.abs(s.lambdas - oracle).max() < 1e-7

    def test_hochstadt_asymptotics_trend(self):
        # lambda'_{2n-1} - ((2n-1)^2 + alpha^2/(32 n^2)) -> 0 over n = 3..6
        s = periodic_spectrum(1.0, 26)
        lp = [l for l, t in zip(s.lambdas, s.period_tags) if t == "2pi-periodic"]
        devs = [abs(lp[2 * n - 2] - ((2 * n - 1) ** 2 + 1.0 / (32 * n * n)))
                for n in range(3, 7)]
        assert all(devs[i + 1] < devs[i] for i in range(3))

    def test_count_validation(self):
        with pytest.raises(ValueError):
            periodic_spectrum(1.0, 0)
        with pytest.raises(ValueError):
            periodic_spectrum(1.0, 41)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_against_scipy_characteristic_values(self, alpha):
        # y'' + (a - 2q cos 2x) y = 0 with q = -alpha/2: the periodic spectrum
        # is {a_0..a_20} and {b_1..b_20}, all 40 entries, narrow gaps included
        q = -alpha / 2
        want = np.sort([mathieu_a(m, q) for m in range(21)]
                       + [mathieu_b(m, q) for m in range(1, 21)])[:40]
        s = periodic_spectrum(alpha, 40)
        assert np.abs(s.lambdas - want).max() < 1e-10

    @pytest.mark.parametrize("alpha", [60.0, 120.0])
    def test_large_alpha_certified_above_rounding_floor(self, alpha):
        # |Delta| - 2 carries rounding of about 1e-12 max|S(pi)| (7.6e7 at
        # alpha = 60, 4.7e11 at 120), far above the absolute 1e-8
        q = -alpha / 2
        want = np.sort([mathieu_a(m, q) for m in range(3)]
                       + [mathieu_b(m, q) for m in range(1, 3)])[:3]
        s = periodic_spectrum(alpha, 3)
        assert np.abs(s.lambdas - want).max() < 1e-10

    def test_certificate_failure_is_typed(self, monkeypatch, tmp_path, capsys):
        # a discriminant off +-2 at the returned eigenvalues refuses the
        # spectrum, in the library and in the CLI: rows s11, s21, s12, s22
        # of S(pi) with s11 + s22 = 1.5
        monkeypatch.setattr(hill, "_monodromy_batch",
                            lambda alpha, lams: np.outer([0.75, 0.0, 0.0, 0.75],
                                                         np.ones(np.size(lams))))
        with pytest.raises(ResolutionError):
            periodic_spectrum(1.0, 5)
        monkeypatch.chdir(tmp_path)
        assert main(["hill", "--alpha", "1", "--count", "5"]) == 1
        assert "error [ResolutionError]" in capsys.readouterr().err
        assert not (tmp_path / "hill.csv").exists()

    def test_band_structure_sign_scan(self):
        # Delta^2 >= 4 exactly off the bands located by the spectrum
        s = periodic_spectrum(1.0, 5)
        l0, l1, l2, l3, l4 = s.lambdas
        for lam, inside in [((l0 + l1) / 2, True), ((l1 + l2) / 2, False),
                            ((l2 + l3) / 2, True), ((l3 + l4) / 2, False)]:
            d = discriminant(HillModel(1.0, lam))
            assert (d * d < 4.0) == inside


@pytest.fixture(scope="module")
def spectra():
    ev0, tg0 = _spectrum_entries(0.0, 41)
    ev1, tg1 = _spectrum_entries(1.0, 41)
    return (PeriodicSpectrum(ev0, tg0, 0.0), PeriodicSpectrum(ev1, tg1, 1.0))


class TestProductFormula:

    def test_vanishes_at_lowest_eigenvalue(self, spectra):
        _, s1 = spectra
        lhs, rhs, _ = product_formula_check(1.0, float(s1.lambdas[0]), 5,
                                            spectrum=s1)
        assert abs(lhs) < 1e-10 and rhs == 0.0

    def test_free_case_gap_shrinks(self, spectra):
        s0, _ = spectra
        gaps = [product_formula_check(0.0, 0.5, nt, spectrum=s0)[2]
                for nt in (5, 10, 20)]
        assert gaps[1] < gaps[0] and gaps[2] < gaps[1]
        # truncation behaves like 2 lam / n of the value
        lhs = product_formula_check(0.0, 0.5, 5, spectrum=s0)[0]
        assert gaps[2] / abs(lhs) < 0.06

    def test_mathieu_case_truncation(self, spectra):
        # frozen from the direct-discriminant oracle: the 20-term truncation
        # deficit at lam = 0.3 is exp(2 lam sum_{j>20} j^-2) - 1 ~ 0.0297
        _, s1 = spectra
        lhs, _, gap = product_formula_check(1.0, 0.3, 20, spectrum=s1)
        assert gap / abs(lhs) < 0.035

    def test_default_spectrum_is_the_certified_one(self):
        # without a spectrum the check reads the same 2 n + 1 Fourier eigenvalues
        n = 5
        given = product_formula_check(1.0, 0.3, n, spectrum=periodic_spectrum(1.0, 2 * n + 1))
        assert product_formula_check(1.0, 0.3, n) == given


class TestMathieuKernel:
    def test_free_kernel_closed_form(self):
        # spectral index 5 of the free spectrum is lambda = 9, A = sin 3x
        k = mathieu_tw_kernel(0.0, 5)
        assert abs(k.lam - 9.0) < 1e-9
        assert np.abs(k.A_values - np.sin(3 * k.x_grid)).max() < 1e-10
        xs = np.linspace(0.2, 5.9, 7)
        X, Y = np.meshgrid(xs, xs + 0.4, indexing="ij")
        want = 3 * np.sin(3 * (X - Y)) / np.sin(X - Y)
        assert np.abs(k.spec.evaluator(X, Y) - want).max() < 1e-9

    def test_free_kernel_eigenvalue_multiplicity(self):
        # Fourier expansion: sin 3d / sin d is three exponentials, so the
        # operator has eigenvalue 2 pi 3 with multiplicity 3 and nothing else
        k = mathieu_tw_kernel(0.0, 5)
        rule = periodic_rule(48, 0.0, 2 * math.pi)
        K = np.asarray(k.spec.evaluator(rule.nodes[:, None], rule.nodes[None, :]))
        ev = np.sort(np.linalg.eigvalsh(0.5 * (K + K.T) * rule.weights[0]))[::-1]
        assert np.abs(ev[:3] - 6 * math.pi).max() < 1e-8
        assert abs(ev[3]) < 1e-8

    def test_cosine_mode_sign_is_fixed_by_its_largest_value(self):
        # index 5 at alpha = 1 is a cosine mode, so A'(0) = 0 and the sign is
        # fixed by the largest |A|, which the Fourier eigenvector has negative
        k = mathieu_tw_kernel(1.0, 5)
        assert k.A_prime_values[0] == 0.0
        assert k.A_values[np.argmax(np.abs(k.A_values))] > 0

    def test_wrong_period_rejected(self):
        with pytest.raises(WrongPeriodError):
            mathieu_tw_kernel(0.0, 3)   # lambda = 4 carries sin 2x, pi-periodic

    def test_solution_quality(self):
        k = mathieu_tw_kernel(1.0, 1)
        # solution solves the equation: residual via the stored derivative grid
        xs, a, ap = k.x_grid, k.A_values, k.A_prime_values
        h = xs[1] - xs[0]
        second = (a[2:] - 2 * a[1:-1] + a[:-2]) / h ** 2
        resid = second + (k.lam + np.cos(2 * xs[1:-1])) * a[1:-1]
        assert np.abs(resid).max() < 1e-4 * (1 + k.lam)  # h^2-limited stencil
        # the stored derivative is consistent with the values
        fd = (a[2:] - a[:-2]) / (2 * h)
        assert np.abs(fd - ap[1:-1]).max() < 1e-5
        # periodicity of the solution pair
        assert abs(a[-1] - a[0]) < 1e-8
        assert abs(ap[-1] - ap[0]) < 1e-8

    def test_kernel_symmetry_and_double_periodicity(self):
        k = mathieu_tw_kernel(1.0, 1)
        W = lambda u, v: float(k.spec.evaluator(np.array([u]), np.array([v]))[0])
        for (x, y) in [(0.9, 2.0), (3.3, 5.1)]:
            assert abs(W(x, y) - W(y, x)) < 1e-10
            assert abs(W(x + 2 * math.pi, y) - W(x, y)) < 1e-10
            assert abs(W(x, y + 2 * math.pi) - W(x, y)) < 1e-10

    def test_derivative_sum_identity(self):
        # (d/dx + d/dy) W + 2 alpha sin(x+y) A(x) A(y) = 0
        k = mathieu_tw_kernel(1.0, 1)
        W = lambda u, v: float(k.spec.evaluator(np.array([u]), np.array([v]))[0])
        h = 1e-5
        for (x, y) in [(0.7, 1.9), (2.2, 4.4)]:
            dsum = (W(x + h, y + h) - W(x - h, y - h)) / (2 * h)
            ax = float(np.interp(x, k.x_grid, k.A_values))
            ay = float(np.interp(y, k.x_grid, k.A_values))
            assert abs(dsum + 2 * 1.0 * math.sin(x + y) * ax * ay) < 1e-6

    def test_wave_identity(self):
        # (dxx - dyy) W = alpha (cos 2y - cos 2x) W: the hyperbolic identity
        # the kernel inherits from the equation
        k = mathieu_tw_kernel(1.0, 1)
        W = lambda u, v: float(k.spec.evaluator(np.array([u]), np.array([v]))[0])
        h = 1e-4
        for (x, y) in [(0.7, 1.9), (2.4, 0.3)]:
            dxx = (W(x + h, y) - 2 * W(x, y) + W(x - h, y)) / h ** 2
            dyy = (W(x, y + h) - 2 * W(x, y) + W(x, y - h)) / h ** 2
            want = 1.0 * (math.cos(2 * y) - math.cos(2 * x)) * W(x, y)
            assert abs((dxx - dyy) - want) < 1e-6

    def test_diagonal_values_across_singular_lines(self):
        # removable singularities at x - y = 0 and pi are bridged by the limit
        k = mathieu_tw_kernel(0.0, 5)
        assert float(k.spec.evaluator(np.array([1.0]),
                                      np.array([1.0 + 1e-9]))[0]) \
            == pytest.approx(9.0, abs=1e-8)
        assert float(k.spec.evaluator(np.array([1.0 + math.pi]),
                                      np.array([1.0]))[0]) \
            == pytest.approx(9.0, abs=1e-8)


class TestMathieuEigencheck:
    def test_free_simple_eigenfunction(self):
        # lambda = 1 gives the constant kernel, one simple eigenvalue 2 pi with
        # a trigonometric (constant) eigenfunction solving the free equation
        k = mathieu_tw_kernel(0.0, 1)
        rep = mathieu_eigencheck(k, n=128)
        assert len(rep["checks"]) >= 1
        assert rep["max_residual"] < 1e-8

    def test_free_degenerate_eigenvalues_skipped(self):
        k = mathieu_tw_kernel(0.0, 5)
        rep = mathieu_eigencheck(k, n=128)
        assert rep["skipped_degenerate"] >= 3
        assert rep["max_residual"] < 1e-8

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_mathieu_eigenfunctions_solve_the_equation(self, alpha):
        k = mathieu_tw_kernel(alpha, 1)
        rep = mathieu_eigencheck(k, n=256)
        assert len(rep["checks"]) >= 3
        assert rep["max_residual"] < 1e-4
