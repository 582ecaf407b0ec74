import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmedge import hardedge, linop, marchenko, painleve
from rmedge.errors import NearSingularError, ResolutionError, TruncationError
from rmedge.kernels import (KernelSpec, airy_kernel, airy_symbol_kernel,
                            bessel_log_symbol_kernel, hankel_symbol_kernel,
                            kernel_eval, kernel_matrix, sine_kernel)
from rmedge.linop import (DiscretizedOp, LogDet, Spectrum, checked_log_det, discretize,
                          fredholm_det, gap_probs, log_det, nystrom, refined_log_det,
                          stacked_log_det, sym_eigen)
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

    def test_slowly_decaying_tail_refused(self):
        # the trace beyond 5 of e^{-0.1 (x + y)} is 5 (e^{-1} - e^{-2.2}) = 1.29
        spec = hankel_symbol_kernel(lambda s: np.exp(-0.1 * np.asarray(s)), 5.0)
        with pytest.raises(TruncationError, match=r"1\.29e\+00"):
            discretize(spec, (0.0, math.inf), 20)


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

    def test_factor_below_rounding_level_raises(self):
        # top eigenvalue 1 + 4.4e-16: printed as det = -1.08e-183 before
        op = discretize(sine_kernel(1.0), (0.0, 20.0), 120)
        with pytest.raises(NearSingularError):
            fredholm_det(op, 1.0)

    def test_factor_above_rounding_level_is_computed(self):
        # min |1 - lam| is 23 times n eps max|lam| here
        op = discretize(sine_kernel(1.0), (0.0, 10.0), 120)
        assert 0.0 < fredholm_det(op, 1.0) < 1e-50

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_non_finite_z_is_refused(self, z):
        op = discretize(sine_kernel(1.0), (0.0, 1.0), 16)
        with pytest.raises(ValueError, match="z must be finite"):
            fredholm_det(op, z)

    def test_against_lu_determinant(self):
        op = discretize(sine_kernel(1.0), (0.0, 1.0), 32)
        for z in (0.5, 1.0, 1.7):
            direct = float(np.linalg.det(np.eye(32) - z * op.matrix))
            assert abs(fredholm_det(op, z) - direct) < 1e-10

    def test_squared_is_the_checked_hankel_square_value(self):
        op = discretize(airy_symbol_kernel(shift=-2.0), (0.0, math.inf), 48)
        for z in (0.5, 1.0):
            want = checked_log_det(sym_eigen(op), z, squared=True).value
            assert fredholm_det(op, z, squared=True) == want
            direct = float(np.linalg.det(np.eye(48) - z * op.matrix @ op.matrix))
            assert abs(want - direct) < 1e-12

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


class TestCheckedLogDet:
    def test_matches_log_det_above_the_rounding_level(self):
        lam = np.array([0.9, 0.5, -0.25, 1e-12])
        spectrum = Spectrum(eigenvalues=lam, rule_size=4, kernel_tag="toy")
        for z in (0.5, 1.0, -2.0):
            ld = checked_log_det(spectrum, z)
            assert (ld.sign, ld.log_abs) == log_det(lam, z)
            ld = checked_log_det(spectrum, z, squared=True)
            assert (ld.sign, ld.log_abs) == log_det(lam * lam, z)

    def test_record_fields_on_a_hand_made_spectrum(self):
        lam = np.array([0.9, 0.5, -0.25, 1e-12])
        spectrum = Spectrum(eigenvalues=lam, rule_size=4, kernel_tag="toy")
        eps = np.finfo(float).eps
        for z in (0.5, -2.0):
            ld = checked_log_det(spectrum, z)
            assert isinstance(ld, LogDet)
            factors = [abs(1.0 - z * v) for v in lam]
            assert ld.closest == min(factors)
            assert ld.weyl == pytest.approx(4 * eps * abs(z) * 0.9, rel=1e-15, abs=0.0)
            assert ld.bound == pytest.approx(
                4 * eps * 0.9 * sum(abs(z) / f for f in factors), rel=1e-14, abs=0.0)
            # det(I - z K^2): each factor 1 - z mu^2 moves by 2 |z| |mu| d mu
            ld = checked_log_det(spectrum, z, squared=True)
            factors = [abs(1.0 - z * v * v) for v in lam]
            assert ld.closest == min(factors)
            assert ld.weyl == pytest.approx(4 * eps * abs(z) * 0.81, rel=1e-15, abs=0.0)
            assert ld.bound == pytest.approx(
                4 * eps * 0.9 * sum(2 * abs(z) * abs(v) / f
                                    for v, f in zip(lam, factors)), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("squared", [False, True])
    @pytest.mark.parametrize("z", [1.0, 0.5])
    def test_refusal_sits_where_the_weyl_level_put_it(self, z, squared):
        # factors 1 - z lam of k half-ulps of 1 around the level n eps |z| max|lam|
        eps = np.finfo(float).eps
        seen = set()
        for k in range(1, 13):
            lam = (1.0 - k * eps / 2) / z
            mu = math.sqrt(lam) if squared else lam
            spectrum = Spectrum(eigenvalues=np.array([mu, 0.5]), rule_size=2,
                                kernel_tag="toy")
            lam2 = np.array([mu, 0.5]) ** 2 if squared else np.array([mu, 0.5])
            closest = float(np.min(np.abs(1.0 - z * lam2)))
            refused = closest <= lam2.size * eps * abs(z) * np.max(np.abs(lam2))
            seen.add(refused)
            if refused:
                with pytest.raises(NearSingularError):
                    checked_log_det(spectrum, z, squared=squared)
            else:
                ld = checked_log_det(spectrum, z, squared=squared)
                assert ld.closest == closest > ld.weyl
        assert seen == {False, True}

    @pytest.mark.parametrize("below", [1e-8, math.inf])
    def test_bound_covers_perturbed_airy_entries(self, below):
        # F(-4.6) from the symbol matrix with every entry below 1e-8 (or every
        # entry) moved by 1e-14 relative, with random signs kept symmetric; the
        # second moves log F by 2.1e-12 against a bound of 2.1e-11
        spec = airy_symbol_kernel(shift=-4.6)
        op = discretize(spec, (0.0, math.inf), 100)
        K = kernel_matrix(spec, op.rule.nodes)
        ld = checked_log_det(sym_eigen(nystrom(op.rule, K)), 1.0, squared=True)
        rng = np.random.default_rng(46)
        moves = []
        for _ in range(4):
            r = np.triu(rng.choice([-1.0, 1.0], size=K.shape))
            r = r + np.triu(r, 1).T
            moved = np.where(np.abs(K) < below, K * (1.0 + 1e-14 * r), K)
            assert not np.array_equal(moved, K)
            ld2 = checked_log_det(sym_eigen(nystrom(op.rule, moved)), 1.0, squared=True)
            moves.append(abs(ld2.log_abs - ld.log_abs))
        assert max(moves) <= ld.bound
        if math.isinf(below):
            assert max(moves) > 1e-13

    def test_value_carries_a_negative_sign(self):
        # factors 1 - 2 = -1 and 1 - 1/2; squared, 1 - 9/4 and 1 - 1/4
        spectrum = Spectrum(eigenvalues=np.array([2.0, 0.5]), rule_size=2, kernel_tag="toy")
        ld = checked_log_det(spectrum, 1.0)
        assert ld.sign == -1.0 and ld.value == -math.exp(ld.log_abs)
        assert ld.value == pytest.approx(-0.5, rel=1e-15, abs=0.0)
        spectrum = replace(spectrum, eigenvalues=np.array([1.5, 0.5]))
        assert checked_log_det(spectrum, 1.0, squared=True).value == pytest.approx(
            -0.9375, rel=1e-15, abs=0.0)

    def test_zero_factor_raises_where_log_det_gives_minus_infinity(self):
        assert log_det([1.0, 0.5], 1.0) == (0.0, -math.inf)
        spectrum = Spectrum(eigenvalues=np.array([1.0, 0.5]), rule_size=2, kernel_tag="toy")
        with pytest.raises(NearSingularError, match="of toy at z = 1"):
            checked_log_det(spectrum, 1.0)
        with pytest.raises(NearSingularError, match=r"of \(toy\)\^2 at z = 1"):
            checked_log_det(spectrum, 1.0, squared=True)


class TestRefinedLogDet:
    def test_rungs_go_through_the_module_names(self, monkeypatch):
        # the benchmark tracer wraps linop.discretize and linop.sym_eigen where
        # they are bound, so every rung must reach them
        sizes = []
        discretize_, sym_eigen_ = linop.discretize, linop.sym_eigen

        def counted_discretize(spec, interval, n):
            sizes.append(n)
            return discretize_(spec, interval, n)

        def counted_sym_eigen(op):
            sizes.append(-len(op.rule))
            return sym_eigen_(op)

        monkeypatch.setattr(linop, "discretize", counted_discretize)
        monkeypatch.setattr(linop, "sym_eigen", counted_sym_eigen)
        n, ld = refined_log_det(airy_symbol_kernel(shift=-2.0), (0.0, math.inf), 1.0,
                                squared=True)
        assert (n, sizes) == (48, [32, -32, 48, -48])
        op = discretize(airy_symbol_kernel(shift=-2.0), (0.0, math.inf), 48)
        assert ld == checked_log_det(sym_eigen(op), 1.0, squared=True)

    def test_keeps_the_finer_rung_of_a_settled_pair(self):
        # sine kernel on (0, 2): rungs 32 and 48 agree far below 1e-12
        n, ld = refined_log_det(sine_kernel(1.0), (0.0, 2.0), 1.0)
        assert n == 48
        assert ld == checked_log_det(sym_eigen(discretize(sine_kernel(1.0), (0.0, 2.0),
                                                          48)), 1.0)

    def test_rungs_of_opposite_sign_do_not_settle(self, monkeypatch):
        # equal log|det| with the sign flipped at 32 nodes: 48 must meet 72
        checked = linop.checked_log_det

        def flipped(spectrum, z, squared=False):
            ld = checked(spectrum, z, squared)
            return replace(ld, sign=-ld.sign) if spectrum.rule_size == 32 else ld

        monkeypatch.setattr(linop, "checked_log_det", flipped)
        assert refined_log_det(sine_kernel(1.0), (0.0, 2.0), 1.0)[0] == 72

    def test_walks_the_ladder_until_two_rungs_agree(self):
        # Ai(shift + s + t) oscillates over (0, 8 - shift) at shift -30: the ladder
        # 32, 48, 72, 108 does not resolve it and 162 agrees with 108
        n, _ = refined_log_det(airy_symbol_kernel(shift=-30.0), (0.0, math.inf), 0.5,
                               squared=True)
        assert n == 162

    def test_cap_raises_resolution_error(self, monkeypatch):
        monkeypatch.setattr(linop, "_MAX_NODES", 40)
        with pytest.raises(ResolutionError, match="next rung, 48, passes the cap of 40"):
            refined_log_det(sine_kernel(1.0), (0.0, 2.0), 1.0)

    def test_near_singular_rung_propagates(self):
        with pytest.raises(NearSingularError, match="rounding level"):
            refined_log_det(airy_symbol_kernel(shift=-12.0), (0.0, math.inf), 1.0,
                            squared=True)


class TestStack:
    SHIFTS = [-4.0, -1.0, 0.0, 1.5]

    def test_stacked_log_det_is_each_members_log_det(self):
        got = stacked_log_det(airy_symbol_kernel(np.array(self.SHIFTS)), (0.0, math.inf),
                              48, 0.7, squared=True)
        want = [checked_log_det(sym_eigen(discretize(airy_symbol_kernel(x),
                                                     (0.0, math.inf), 48)), 0.7, squared=True)
                for x in self.SHIFTS]
        assert got == want

    def test_nystrom_and_sym_eigen_take_the_last_two_axes(self):
        rule = gauss_legendre(6, 0.0, 1.0)
        K = np.random.default_rng(3).normal(size=(3, 6, 6))
        stack = nystrom(rule, K)
        assert all(np.array_equal(stack.matrix[k], nystrom(rule, K[k]).matrix)
                   for k in range(3))
        vals = sym_eigen(stack).eigenvalues
        assert vals.shape == (3, 6)
        assert all(np.array_equal(vals[k], sym_eigen(nystrom(rule, K[k])).eigenvalues)
                   for k in range(3))

    def test_a_near_singular_member_refuses_the_stack(self):
        spectrum = Spectrum(eigenvalues=np.array([[0.5, 0.1], [1.0, 0.5]]), rule_size=2,
                            kernel_tag="toy")
        with pytest.raises(NearSingularError, match=r"= 0 of \(toy\)\^2 at z = 1"):
            checked_log_det(spectrum, 1.0, squared=True)

    def test_each_member_keeps_its_own_first_settled_pair(self, monkeypatch):
        # the sign of member 0 flips at 32 nodes: it settles at 72 and member 1 at
        # 48, and only member 0 climbs to 72
        checked, sym_eigen_ = linop.checked_log_det, linop.sym_eigen
        shapes = []

        def flipped(spectrum, z, squared=False):
            lds = checked(spectrum, z, squared)
            if spectrum.rule_size == 32:
                lds[0] = replace(lds[0], sign=-lds[0].sign)
            return lds

        def counted(op):
            shapes.append(op.matrix.shape[:-1])
            return sym_eigen_(op)

        monkeypatch.setattr(linop, "checked_log_det", flipped)
        monkeypatch.setattr(linop, "sym_eigen", counted)
        nodes, lds = refined_log_det(airy_symbol_kernel(np.array([0.0, 1.0])),
                                     (0.0, math.inf), 1.0, squared=True)
        assert nodes.tolist() == [72, 48]
        assert shapes == [(2, 32), (2, 48), (1, 72)]
        monkeypatch.undo()
        for x, n, ld in zip([0.0, 1.0], nodes, lds):
            op = discretize(airy_symbol_kernel(x), (0.0, math.inf), n)
            assert ld == checked_log_det(sym_eigen(op), 1.0, squared=True)

    def test_a_stack_past_its_cap_names_the_open_members(self, monkeypatch):
        monkeypatch.setattr(linop, "_MAX_NODES", 40)
        with pytest.raises(ResolutionError, match=r"airy_symbol\(shift=0\|1\)"):
            refined_log_det(airy_symbol_kernel(np.array([0.0, 1.0])), (0.0, math.inf), 1.0,
                            squared=True)


@pytest.mark.parametrize("module,call", [
    (linop, lambda: painleve.tw_cdf_det(1.0, [0.0], n=20)),
    (linop, lambda: hardedge.bessel_det_identity(hardedge.HardEdgeConfig(0.5, 0.5), 1.0,
                                                 n=20)),
    (marchenko, lambda: marchenko.log_det_tail(airy_symbol_kernel(), 1.0, 0.5, n=20)),
], ids=["tw_cdf_det", "bessel_det_identity", "log_det_tail"])
def test_hankel_square_determinants_refuse_a_factor_at_zero(monkeypatch, module, call):
    # gamma = 1 exactly for the Hankel operator: det(I - Gamma^2) = 0, whose sign no
    # spectrum resolves; unguarded, log_det gives (0, -inf) and each caller F = 0
    def unit_spectrum(op):
        if "symbol" not in op.kernel_tag:
            return sym_eigen(op)
        return Spectrum(eigenvalues=np.array([1.0, 0.5]), rule_size=2,
                        kernel_tag=op.kernel_tag)

    monkeypatch.setattr(module, "sym_eigen", unit_spectrum)
    with pytest.raises(NearSingularError, match=r"\)\^2 at z = 1 "):
        call()


class TestGapProbs:
    def test_single_eigenvalue(self):
        rule = gauss_legendre(1, 0.0, 1.0)
        op = DiscretizedOp(rule=rule, matrix=np.array([[0.3]]))
        g = gap_probs(sym_eigen(op), 2)
        assert np.allclose(g.probs, [0.7, 0.3, 0.0], atol=1e-15)

    def test_total_probability(self):
        op = discretize(sine_kernel(1.0), (0.0, 1.0), 48)
        g = gap_probs(sym_eigen(op), 48)
        assert abs(g.probs.sum() - 1.0) < 1e-10
        assert g.probs.min() > -1e-9

    def test_airy_square_total_probability(self):
        gamma = sym_eigen(discretize(airy_symbol_kernel(), (0.0, math.inf), 48))
        g = gap_probs(gamma, 48, squared=True)
        assert abs(g.probs.sum() - 1.0) < 1e-10
        assert g.probs.min() > -1e-9

    def test_matches_numerical_z_derivatives(self):
        # polynomial fit of det(I - zK) around z = 1, derivatives at 1
        op = discretize(sine_kernel(1.0), (0.0, 1.0), 48)
        g = gap_probs(sym_eigen(op), 3)
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
        assert np.array_equal(gap_probs(sym_eigen(op), kmax).probs, want)

    def test_near_singular_eigenvalue_reported(self):
        rule = gauss_legendre(2, 0.0, 1.0)
        op = DiscretizedOp(rule=rule,
                           matrix=np.diag([1.0 - 1e-9, 0.2]), kernel_tag="toy")
        with pytest.raises(NearSingularError) as err:
            gap_probs(sym_eigen(op), 2)
        assert "0.999999999" in str(err.value)

    def test_eigenvalue_above_one_names_the_bound(self):
        # an under-resolved interval: the top eigenvalue is 1.46, not near 1
        op = discretize(sine_kernel(1.5), (0.0, 6.0), 12)
        with pytest.raises(NearSingularError) as err:
            gap_probs(sym_eigen(op), 2)
        assert "1.46" in str(err.value) and ">= 1 - 1e-8" in str(err.value)
        assert "--n" in str(err.value)

    @pytest.mark.parametrize("alpha,kmax", [(0.0, 7), (1.0, 6)])
    def test_airy_square_converges_in_n(self, alpha, kmax):
        # E(k) from mu^2 at n = 100 against n = 200 (4.2e-9 and 2.5e-9 at worst;
        # 9.9e-8 at alpha = 1, k = 7).  Eigenvalues of the squared Nystrom matrix
        # at n = 100 were 219% (alpha = 0) and 1100% (alpha = 1) off at k = 7.
        spec = airy_symbol_kernel(shift=alpha)
        e100, e200 = (gap_probs(sym_eigen(discretize(spec, (0.0, math.inf), n)), kmax,
                                squared=True).probs for n in (100, 200))
        assert np.all(np.abs(e100 / e200 - 1.0) <= 1e-8)


@settings(max_examples=20, deadline=None)
@given(st.floats(-3.0, 3.0))
def test_airy_square_gap_probs_are_a_distribution(alpha):
    # lam = mu^2 >= 0 makes every term of the recurrence nonnegative
    gamma = sym_eigen(discretize(airy_symbol_kernel(shift=alpha), (0.0, math.inf), 60))
    probs = gap_probs(gamma, 40, squared=True).probs
    assert probs.min() >= 0.0
    assert abs(probs.sum() - 1.0) <= 1e-10


def test_spectral_equality_of_compressed_products():
    # spec(P G G P) = spec(G P G) for the Hankel matrix G and a cut projection
    op = discretize(airy_symbol_kernel(), (0.0, math.inf), 60)
    G = op.matrix
    P = np.diag((op.rule.nodes > 1.0).astype(float))
    a = np.sort(np.linalg.eigvalsh(P @ G @ G @ P))
    b = np.sort(np.linalg.eigvalsh(G @ P @ G))
    nonzero = np.abs(a) > 1e-12
    assert np.abs(a[nonzero] - b[nonzero]).max() < 1e-9
