import math

import numpy as np
import pytest

from rmedge.errors import NearSingularError
from rmedge.kernels import (KernelSpec, airy_kernel, airy_symbol_kernel,
                            bessel_log_symbol_kernel, kernel_eval, sine_kernel)
from rmedge.linop import (DiscretizedOp, discretize, fredholm_det, gap_probs, log_det,
                          nystrom, operator_square, sym_eigen)
from rmedge.specfun import gauss_legendre


def _const_kernel(c):
    return KernelSpec("const", {"c": c}, (-math.inf, math.inf),
                      lambda x, y: np.full(np.broadcast(x, y).shape, c),
                      diag=lambda x: np.full(np.shape(x), c))


class TestDiscretize:
    def test_zero_kernel_gives_zero_matrix(self):
        op = discretize(_const_kernel(0.0), (0.0, 1.0), 8)
        assert np.all(op.matrix == 0.0)

    def test_sine_diagonal_entries(self):
        # symmetrized form: M_ii = w_i K(x_i, x_i) = w_i * t
        op = discretize(sine_kernel(1.0), (0.0, 1.0), 12)
        assert np.allclose(np.diag(op.matrix), op.rule.weights, atol=1e-14)

    def test_trace_against_independent_quadrature(self):
        op = discretize(airy_kernel(), (0.0, 4.0), 40)
        probe = gauss_legendre(200, 0.0, 4.0)
        diag = kernel_eval(airy_kernel(), probe.nodes, probe.nodes)
        want = probe.integrate(diag)
        got = float(np.trace(op.matrix))
        assert abs(got - want) < 1e-8 * abs(want)

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            discretize(sine_kernel(1.0), (0.0, 1.0), 1)
        from rmedge.kernels import bessel_hard_kernel
        with pytest.raises(ValueError):
            discretize(bessel_hard_kernel(0.5), (-1.0, 1.0), 8)

    def test_semi_infinite_needs_tail_length(self):
        with pytest.raises(ValueError):
            discretize(sine_kernel(1.0), (0.0, math.inf), 8)

    def test_semi_infinite_truncation(self):
        op = discretize(airy_kernel(), (0.0, math.inf), 30)
        assert op.rule.interval == (0.0, 14.0)


class TestSymEigen:
    def test_identity_matrix(self):
        rule = gauss_legendre(5, 0.0, 1.0)
        op = DiscretizedOp(rule=rule, matrix=np.eye(5), kernel_tag="id")
        assert np.allclose(sym_eigen(op).eigenvalues, 1.0, atol=1e-15)

    def test_swap_matrix(self):
        rule = gauss_legendre(2, 0.0, 1.0)
        op = DiscretizedOp(rule=rule, matrix=np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(sym_eigen(op).eigenvalues, [1.0, -1.0], atol=1e-15)

    def test_against_characteristic_polynomial_roots(self):
        rng = np.random.default_rng(7)
        M = rng.standard_normal((6, 6))
        M = 0.5 * (M + M.T)
        rule = gauss_legendre(6, 0.0, 1.0)
        got = sym_eigen(DiscretizedOp(rule=rule, matrix=M)).eigenvalues
        # brute-force oracle: roots of det(M - x I) as a polynomial
        coeffs = np.poly(M)
        roots = np.sort(np.real(np.roots(coeffs)))[::-1]
        assert np.abs(got - roots).max() < 1e-9

    def test_reconstruction_residual(self):
        op = discretize(sine_kernel(1.0), (0.0, 1.0), 40)
        vals, vecs = np.linalg.eigh(op.matrix)
        resid = np.linalg.norm(op.matrix - (vecs * vals) @ vecs.T)
        assert resid < 1e-10 * np.linalg.norm(op.matrix)

    def test_sorted_descending(self):
        op = discretize(sine_kernel(1.0), (0.0, 1.0), 24)
        ev = sym_eigen(op).eigenvalues
        assert np.all(np.diff(ev) <= 0)


class TestNystrom:
    def test_matrix_is_weighted_kernel(self):
        rule = gauss_legendre(10, 0.0, 2.0)
        K = np.asarray(kernel_eval(sine_kernel(1.0), rule.nodes[:, None], rule.nodes[None, :]))
        op = nystrom(rule, K, "sine")
        sw = np.sqrt(rule.weights)
        assert np.allclose(op.matrix, sw[:, None] * K * sw[None, :], rtol=1e-15, atol=0)
        assert np.array_equal(op.matrix, op.matrix.T)
        assert op.kernel_tag == "sine"

    @pytest.mark.parametrize("spec,interval", [
        (sine_kernel(1.0), (0.0, 1.5)),
        (airy_symbol_kernel(), (0.0, math.inf)),
    ], ids=["sine", "airy-symbol"])
    def test_eigenpairs_are_nystrom_eigenfunctions(self, spec, interval):
        op = discretize(spec, interval, 40)
        lam, phi = op.eigenpairs(6)
        assert np.all(np.diff(np.abs(lam)) <= 0)
        w = op.rule.weights
        # orthonormal in the rule's weights
        assert np.abs((phi * w[:, None]).T @ phi - np.eye(6)).max() < 1e-12
        # sum_j w_j K(x_i, x_j) phi(x_j) = lam phi(x_i)
        x = op.rule.nodes
        K = np.asarray(kernel_eval(spec, x[:, None], x[None, :]))
        resid = K @ (w[:, None] * phi) - phi * lam
        assert np.abs(resid).max() < 1e-12 * np.abs(phi).max()

    def test_eigenpairs_default_is_full_spectrum(self):
        op = discretize(sine_kernel(1.0), (0.0, 1.0), 12)
        lam, phi = op.eigenpairs()
        assert phi.shape == (12, 12)
        assert np.allclose(np.sort(lam), np.sort(sym_eigen(op).eigenvalues), atol=1e-15)


class TestLogDet:
    @pytest.mark.parametrize("z", [0.5, 1.7])
    def test_against_slogdet(self, z):
        # at z = 1.7 one factor 1 - z lam is negative: the sign is -1
        op = discretize(sine_kernel(1.0), (0.0, 1.5), 32)
        sign, logabs = log_det(sym_eigen(op).eigenvalues, z)
        want = np.linalg.slogdet(np.eye(32) - z * op.matrix)
        assert sign == want.sign
        assert abs(logabs - want.logabsdet) < 1e-13

    def test_zero_factor(self):
        assert log_det(np.array([0.5, 0.25]), 2.0) == (0.0, -math.inf)

    def test_small_factors_keep_relative_accuracy(self):
        # log(1 - 1e-17) is -1e-17, not 0
        sign, logabs = log_det(np.array([1e-17]), 1.0)
        assert sign == 1.0 and logabs == -1e-17


class TestFredholmDet:
    def test_z_zero(self):
        op = discretize(sine_kernel(1.0), (0.0, 1.0), 16)
        assert fredholm_det(op, 0.0) == 1.0

    def test_rank_one_kernel(self):
        # K(x, y) = 1 on (0, 1): single eigenvalue int 1 = 1, det = 1 - z
        op = discretize(_const_kernel(1.0), (0.0, 1.0), 16)
        for z in (0.25, 0.9, 2.0):
            assert abs(fredholm_det(op, z) - (1.0 - z)) < 1e-12

    def test_against_lu_determinant(self):
        op = discretize(sine_kernel(1.0), (0.0, 1.0), 32)
        for z in (0.5, 1.0, 1.7):
            direct = float(np.linalg.det(np.eye(32) - z * op.matrix))
            assert abs(fredholm_det(op, z) - direct) < 1e-10

    @pytest.mark.parametrize("spec,interval", [
        (sine_kernel(1.0), (0.0, 1.0)),
        (airy_kernel(), (0.0, math.inf)),
        (bessel_log_symbol_kernel(0.5), (0.0, math.inf)),
    ], ids=["sine", "airy", "bessel-log"])
    def test_discretization_independence(self, spec, interval):
        # doubling the node count leaves the determinant fixed to 1e-8
        d1 = fredholm_det(discretize(spec, interval, 40), 1.0)
        d2 = fredholm_det(discretize(spec, interval, 80), 1.0)
        assert abs(d1 - d2) < 1e-8


class TestGapProbs:
    def test_single_eigenvalue(self):
        rule = gauss_legendre(1, 0.0, 1.0)
        op = DiscretizedOp(rule=rule, matrix=np.array([[0.3]]))
        g = gap_probs(op, 2)
        assert np.allclose(g.probs, [0.7, 0.3, 0.0], atol=1e-15)

    def test_total_probability(self):
        op = discretize(sine_kernel(1.0), (0.0, 1.0), 48)
        g = gap_probs(op, 48)
        assert abs(g.probs.sum() - 1.0) < 1e-10
        assert g.probs.min() > -1e-9

    def test_airy_square_total_probability(self):
        op = operator_square(discretize(airy_symbol_kernel(), (0.0, math.inf), 48))
        g = gap_probs(op, 48)
        assert abs(g.probs.sum() - 1.0) < 1e-10
        assert g.probs.min() > -1e-9

    def test_matches_numerical_z_derivatives(self):
        # polynomial fit of det(I - zK) around z = 1, derivatives at 1
        op = discretize(sine_kernel(1.0), (0.0, 1.0), 48)
        g = gap_probs(op, 3)
        zs = np.linspace(0.4, 1.6, 25)
        dets = np.array([fredholm_det(op, z) for z in zs])
        coef = np.polynomial.polynomial.polyfit(zs - 1.0, dets, 12)
        fact = 1.0
        for k in range(4):
            if k:
                fact *= k
            want = (-1.0) ** k / fact * (coef[k] * fact)
            assert abs(want - g.probs[k]) < 1e-7

    @pytest.mark.parametrize("n,kmax", [(60, 40), (60, 5), (12, 20), (12, 0)])
    def test_recurrence_matches_scalar_loop(self, n, kmax):
        # the elementary symmetric functions of mu, one k at a time, descending
        op = discretize(sine_kernel(1.0), (0.0, 3.0), n)
        lam = sym_eigen(op).eigenvalues
        mu = lam / (1.0 - lam)
        e = np.zeros(kmax + 1)
        e[0] = 1.0
        for m in mu:
            for k in range(min(kmax, len(mu)), 0, -1):
                e[k] += m * e[k - 1]
        want = float(np.prod(1.0 - lam)) * e
        assert np.array_equal(gap_probs(op, kmax).probs, want)

    def test_near_singular_eigenvalue_reported(self):
        rule = gauss_legendre(2, 0.0, 1.0)
        op = DiscretizedOp(rule=rule,
                           matrix=np.diag([1.0 - 1e-9, 0.2]), kernel_tag="toy")
        with pytest.raises(NearSingularError) as err:
            gap_probs(op, 2)
        assert "0.999999999" in str(err.value)


def test_spectral_equality_of_compressed_products():
    # spec(P G G P) = spec(G P G) for the Hankel matrix G and a cut projection
    op = discretize(airy_symbol_kernel(), (0.0, math.inf), 60)
    G = op.matrix
    P = np.diag((op.rule.nodes > 1.0).astype(float))
    a = np.sort(np.linalg.eigvalsh(P @ G @ G @ P))
    b = np.sort(np.linalg.eigvalsh(G @ P @ G))
    nonzero = np.abs(a) > 1e-12
    assert np.abs(a[nonzero] - b[nonzero]).max() < 1e-9
