import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scipy.linalg import eigvalsh_tridiagonal
from scipy.stats import ks_2samp

from rmedge import ensembles
from rmedge.acceptance import MC_SEED
from rmedge.ensembles import (gaussian_stream, gue_matrix, hermite_tridiagonal,
                              marchenko_pastur_density, sample_gue_eigs,
                              sample_wishart_eigs, semicircle_density,
                              soft_edge_gap_counts)
from rmedge.specfun import gauss_legendre


def dense_gue_eigs(n, seed, sample_index):
    A, B = gue_matrix(n, seed, sample_index)
    return np.linalg.eigvalsh(A + 1j * B)


def dense_wishart_eigs(n, seed, sample_index):
    Y = gaussian_stream(seed, sample_index, n * n).reshape(n, n) / math.sqrt(n)
    return np.linalg.eigvalsh(Y.T @ Y)


def two_by_two_eigs(d0, d1, e):
    """(d0 + d1)/2 -+ sqrt(((d0 - d1)/2)^2 + e^2), the spectrum of [[d0, e], [e, d1]]."""
    disc = math.sqrt(((d0 - d1) / 2) ** 2 + e * e)
    return np.array([(d0 + d1) / 2 - disc, (d0 + d1) / 2 + disc])


class TestGaussianStream:
    def test_deterministic(self):
        assert np.array_equal(gaussian_stream(5, 2, 100), gaussian_stream(5, 2, 100))

    def test_streams_differ_across_indices(self):
        assert not np.array_equal(gaussian_stream(5, 2, 100),
                                  gaussian_stream(5, 3, 100))

    def test_moments(self):
        z = gaussian_stream(1, 0, 200_000)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01


class TestGue:
    def test_bit_reproducible(self):
        a = sample_gue_eigs(16, 42, 0)
        b = sample_gue_eigs(16, 42, 0)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)

    def test_two_by_two_closed_form(self):
        A, B = gue_matrix(2, 7, 3)
        H = A + 1j * B
        tr = float(np.trace(H).real)
        det = float(np.linalg.det(H).real)
        disc = math.sqrt(tr * tr / 4 - det)
        want = np.array([tr / 2 - disc, tr / 2 + disc])
        got = dense_gue_eigs(2, 7, 3)
        assert np.abs(np.sort(got) - want).max() < 1e-14

    def test_trace_invariance(self):
        A, _ = gue_matrix(9, 3, 1)
        assert abs(np.trace(A) - dense_gue_eigs(9, 3, 1).sum()) < 1e-10

    def test_embedding_matches_complex_eigensolver(self):
        A, B = gue_matrix(20, 11, 4)
        embedded = np.linalg.eigvalsh(np.block([[A, -B], [B, A]]))[0::2]
        direct = np.sort(dense_gue_eigs(20, 11, 4))
        assert np.abs(embedded - direct).max() < 1e-9

    def test_draw_is_the_hermite_model(self):
        for n, seed, idx in ((2, 7, 3), (9, 3, 1), (200, MC_SEED + 1, 0)):
            want = eigvalsh_tridiagonal(*hermite_tridiagonal(n, seed, idx))
            assert np.array_equal(sample_gue_eigs(n, seed, idx).eigenvalues, want)

    def test_draw_trace_is_the_diagonal_sum(self):
        d, _ = hermite_tridiagonal(9, 3, 1)
        assert abs(d.sum() - sample_gue_eigs(9, 3, 1).eigenvalues.sum()) < 1e-10

    def test_draw_two_by_two_closed_form(self):
        d, e = hermite_tridiagonal(2, 7, 3)
        got = sample_gue_eigs(2, 7, 3).eigenvalues
        assert np.abs(got - two_by_two_eigs(d[0], d[1], e[0])).max() < 1e-14

    def test_embedding_pairs_agree(self):
        # the doubled spectrum must consist of near-identical pairs
        A, B = gue_matrix(25, 13, 0)
        M = np.block([[A, -B], [B, A]])
        ev = np.linalg.eigvalsh(M)
        assert np.abs(ev[0::2] - ev[1::2]).max() < 1e-9

    def test_edge_scaling(self):
        s = sample_gue_eigs(50, 1, 0)
        want = 50.0 ** (2.0 / 3.0) * (s.eigenvalues - 2.0)
        assert np.array_equal(s.scaled_edge, want)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            sample_gue_eigs(1, 0)

    def test_semicircle_histogram(self):
        # reduced-scale smoke version of the bulk-law comparison
        vals = np.concatenate([sample_gue_eigs(100, 11, i).eigenvalues
                               for i in range(150)])
        bins = np.linspace(-2.0, 2.0, 31)
        hist, _ = np.histogram(vals, bins=bins, density=True)
        pred = []
        for lo, hi in zip(bins[:-1], bins[1:]):
            r = gauss_legendre(16, lo, hi)
            pred.append(r.integrate(semicircle_density(r.nodes)) / (hi - lo))
        assert np.abs(hist - np.array(pred)).max() < 0.08


class TestWishart:
    def test_nonnegative(self):
        for n in (30, 200):
            s = sample_wishart_eigs(n, 5, 0)
            assert s.eigenvalues.min() > -1e-10

    def test_two_by_two_closed_form(self):
        Y = gaussian_stream(9, 2, 4).reshape(2, 2) / math.sqrt(2)
        G = Y.T @ Y
        tr, det = float(np.trace(G)), float(np.linalg.det(G))
        disc = math.sqrt(max(tr * tr / 4 - det, 0.0))
        want = np.array([tr / 2 - disc, tr / 2 + disc])
        got = dense_wishart_eigs(2, 9, 2)
        assert np.abs(np.sort(got) - want).max() < 1e-13

    def test_laguerre_two_by_two_closed_form(self):
        # B = [[a1, 0], [b1, a2]] from the documented layout: a1^2, b1^2, a2^2
        # of degrees 2, 1, 1, read from 2 + 1 uniforms
        u = ensembles._philox(9, 2).random(3)
        a1, b1, a2 = ensembles._chi2(u, np.array([2, 1, 1])) / 2
        want = two_by_two_eigs(a1, b1 + a2, math.sqrt(a1 * b1))
        got = sample_wishart_eigs(2, 9, 2).eigenvalues
        assert np.abs(got - want).max() < 1e-13

    def test_extreme_eigenvalue_laws_match_dense_wishart(self):
        n, draws = 8, 4000
        tri = np.array([sample_wishart_eigs(n, 101, i).eigenvalues for i in range(draws)])
        dense = np.array([dense_wishart_eigs(n, 202, i) for i in range(draws)])
        assert ks_2samp(tri[:, -1], dense[:, -1]).pvalue >= 0.01
        assert ks_2samp(tri[:, 0], dense[:, 0]).pvalue >= 0.01

    def test_trace_moments(self):
        # tr Y^T Y = chi^2_{n^2} / n: E tr = n and Var tr = 2, as for the dense draw
        n, draws = 10, 2000
        tr = np.array([sample_wishart_eigs(n, 6, i).eigenvalues.sum() for i in range(draws)])
        assert abs(tr.mean() - n) < 4.0 * math.sqrt(2.0 / draws)
        # the sample variance of near-normal data has standard error 2 sqrt(2 / draws)
        assert abs(tr.var(ddof=1) - 2.0) < 4.0 * 2.0 * math.sqrt(2.0 / draws)

    def test_marchenko_pastur_histogram(self):
        vals = np.concatenate([sample_wishart_eigs(100, 13, i).eigenvalues
                               for i in range(150)])
        bins = np.linspace(0.0, 4.0, 31)
        hist, _ = np.histogram(vals, bins=bins, density=True)
        pred = []
        for lo, hi in zip(bins[:-1], bins[1:]):
            r = gauss_legendre(24, lo, hi)
            pred.append(r.integrate(marchenko_pastur_density(r.nodes)) / (hi - lo))
        assert np.abs(hist - np.array(pred)).max() < 0.1


class TestGapCounts:
    def test_far_cut_sees_nothing(self):
        res = soft_edge_gap_counts(20, 50, 1e6, seed=2)
        assert res.probs[0] == 1.0

    def test_frequencies_partition(self):
        res = soft_edge_gap_counts(30, 80, 0.0, seed=3)
        total = res.probs.sum() + res.manifest["overflow_count"] / 80
        assert total == 1.0

    def test_manifest_fields(self):
        res = soft_edge_gap_counts(20, 10, 0.0, seed=4)
        for key in ("ensemble", "n", "samples", "alpha", "seed", "wall_time_s"):
            assert key in res.manifest
        assert res.manifest["seed"] == 4

    def test_standard_errors(self):
        res = soft_edge_gap_counts(30, 100, 0.0, seed=5)
        p = res.probs
        assert np.allclose(res.std_errors, np.sqrt(p * (1 - p) / 100))


class TestHermiteTridiagonal:
    def test_shapes_and_positive_off_diagonal(self):
        d, e = hermite_tridiagonal(12, 3, 5)
        assert d.shape == (12,) and e.shape == (11,)
        assert np.all(e > 0)

    def test_bit_reproducible(self):
        a = hermite_tridiagonal(40, 9, 17)
        b = hermite_tridiagonal(40, 9, 17)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_draws_do_not_depend_on_the_sample_count(self):
        # draw idx is pinned by (seed, idx), so a longer run only appends draws
        n, seed = 30, 21
        cut = 2.0 + 0.5 * n ** (-2.0 / 3.0)
        ks = [int(np.count_nonzero(eigvalsh_tridiagonal(*hermite_tridiagonal(n, seed, i))
                                   > cut)) for i in range(40)]
        for samples in (7, 40):
            res = soft_edge_gap_counts(n, samples, 0.5, seed=seed)
            want = np.bincount(ks[:samples], minlength=9)[:9] / samples
            assert np.array_equal(res.probs, want)

    def test_selected_count_matches_full_spectrum(self):
        # the Sturm count below the cut leaves the eigenvalues above it
        rng = np.random.default_rng(0)
        for idx in range(30):
            n = int(rng.integers(2, 60))
            d, e = hermite_tridiagonal(n, 4, idx)
            cut = float(rng.uniform(1.5, 2.3))
            full = eigvalsh_tridiagonal(d, e)
            assert n - ensembles._count_below(d, e, cut) == np.count_nonzero(full > cut)

    def test_trace_moments(self):
        # E tr H = 0 and E tr H^2 = n, as for the dense GUE draw
        n, draws = 10, 2000
        tr = np.empty(draws)
        tr2 = np.empty(draws)
        for i in range(draws):
            d, e = hermite_tridiagonal(n, 6, i)
            tr[i] = d.sum()
            tr2[i] = (d * d).sum() + 2.0 * (e * e).sum()
        # Var tr H = 1 and Var tr H^2 = 2 for this normalization
        assert abs(tr.mean()) < 4.0 / math.sqrt(draws)
        assert abs(tr2.mean() - n) < 4.0 * math.sqrt(2.0 / draws)

    def test_top_eigenvalue_law_matches_dense_gue(self):
        n, draws = 8, 4000
        tri = [eigvalsh_tridiagonal(*hermite_tridiagonal(n, 101, i))[-1]
               for i in range(draws)]
        dense = [dense_gue_eigs(n, 202, i)[-1] for i in range(draws)]
        assert ks_2samp(tri, dense).pvalue >= 0.01

    def test_size_validation(self):
        with pytest.raises(ValueError):
            hermite_tridiagonal(1, 0)

    @pytest.mark.parametrize("alpha", [-2.0, 0.0, 1.0])
    def test_bulk_draw_counts_what_the_soft_edge_counts(self, alpha):
        # with kmax = n nothing overflows, so the tally is every draw's count
        n, seed, samples = 40, 17, 30
        cut = 2.0 + alpha * float(n) ** (-2.0 / 3.0)
        bulk = [int(np.count_nonzero(sample_gue_eigs(n, seed, i).eigenvalues > cut))
                for i in range(samples)]
        tally = soft_edge_gap_counts(n, samples, alpha, seed=seed, kmax=n).probs * samples
        assert np.array_equal(tally, np.bincount(bulk, minlength=n + 1))


class TestCountBelow:
    def test_counts_of_criterion_9_draws_match_the_full_spectrum(self):
        # the first 200 of criterion 9's soft-edge draws (n = 200), at its cut 2
        for idx in range(200):
            d, e = hermite_tridiagonal(200, MC_SEED, idx)
            want = np.count_nonzero(eigvalsh_tridiagonal(d, e) < 2.0)
            assert ensembles._count_below(d, e, 2.0) == want

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
               st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n),
               st.lists(st.floats(0.01, 3.0) | st.floats(-3.0, -0.01),
                        min_size=n - 1, max_size=n - 1))),
           st.floats(-5.0, 5.0))
    def test_small_tridiagonals_match_lapack(self, de, s):
        d, e = np.array(de[0]), np.array(de[1])
        lam = eigvalsh_tridiagonal(d, e)
        assume(np.abs(lam - s).min() > 1e-9 * (1.0 + np.abs(lam).max()))
        assert ensembles._count_below(d, e, s) == np.count_nonzero(lam < s)

    @pytest.mark.parametrize("d, e, s", [([1.0, 2.0, 0.5], [0.7, 0.3], 1.0),
                                         ([3.0, 3.0, 1.0], [1.0, 1.0], 2.0)])
    def test_exact_zero_pivot_counts_as_negative(self, d, e, s):
        # the first pivot d0 - s, or the second d1 - e0^2 / q0 - s, is exactly 0
        d, e = np.array(d), np.array(e)
        got = ensembles._count_below(d, e, s)
        lapack = eigvalsh_tridiagonal(d, e, select="v", select_range=(-math.inf, s)).size
        assert got == lapack == np.count_nonzero(eigvalsh_tridiagonal(d, e) < s)

    def test_infinite_shifts_count_nothing_or_everything(self):
        d, e = hermite_tridiagonal(30, 8, 2)
        assert ensembles._count_below(d, e, math.inf) == 30
        assert ensembles._count_below(d, e, -math.inf) == 0


class TestChi2:
    @pytest.mark.parametrize("n, seed, idx", [(2, 0, 0), (7, 3, 1), (33, 2 ** 63, 9),
                                              (200, MC_SEED, 0), (200, MC_SEED, 1999)])
    def test_hermite_draw_is_pinned(self, n, seed, idx):
        # the formula hermite_tridiagonal had before it shared _chi2, bit for bit
        head = 2 * ((n + 1) // 2)
        u = ensembles._philox(seed, idx).random(head + n * (n - 1) // 2)
        scale = 1.0 / math.sqrt(2.0 * n)
        d = ensembles._box_muller(u[:head], n) * (math.sqrt(2.0) * scale)
        sizes = np.arange(n - 1, 0, -1)
        starts = np.concatenate(([0], np.cumsum(sizes[:-1])))
        e = np.sqrt(np.add.reduceat(-2.0 * np.log(1.0 - u[head:]), starts)) * scale
        got_d, got_e = hermite_tridiagonal(n, seed, idx)
        assert np.array_equal(got_d, d) and np.array_equal(got_e, e)

    @pytest.mark.parametrize("degrees", [[3, 1, 4, 1, 2, 5], [1], [2, 2], [5, 4, 4, 1, 1]])
    def test_layout_matches_a_loop(self, degrees):
        degrees = np.array(degrees)
        m = int(np.sum(degrees % 2))
        head = 2 * ((m + 1) // 2)
        u = ensembles._philox(5, len(degrees)).random(head + int(np.sum(degrees // 2)))
        z = ensembles._box_muller(u[:head], m)
        want, pos, j = [], head, 0
        for k in degrees:
            x = float(np.sum(-2.0 * np.log(1.0 - u[pos:pos + k // 2])))
            pos += k // 2
            if k % 2:
                x += z[j] ** 2
                j += 1
            want.append(x)
        assert np.allclose(ensembles._chi2(u, degrees), want, rtol=1e-14, atol=0.0)


class TestGapCountArguments:
    def test_nan_alpha_rejected(self):
        with pytest.raises(ValueError):
            soft_edge_gap_counts(20, 10, math.nan, seed=1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            soft_edge_gap_counts(20, 10, 0.0, seed=-1)
        with pytest.raises(ValueError):
            soft_edge_gap_counts(20, 10, math.inf, seed=-1)

    def test_negative_key_rejected_by_every_sampler(self):
        draws = (lambda seed, idx: gaussian_stream(seed, idx, 4),
                 lambda seed, idx: hermite_tridiagonal(4, seed, idx),
                 lambda seed, idx: sample_gue_eigs(4, seed, idx),
                 lambda seed, idx: sample_wishart_eigs(4, seed, idx))
        for draw in draws:
            # a float key would be truncated to another draw's key
            for seed, idx in ((-1, 0), (0, -1), (2 ** 64, 0), (1.5, 0), (0, 2.0)):
                with pytest.raises(ValueError):
                    draw(seed, idx)

    @pytest.mark.parametrize("kmax", [-1, 2.5])
    def test_meaningless_kmax_rejected_before_any_draw(self, monkeypatch, kmax):
        def no_draw(*args, **kwargs):
            raise AssertionError("a draw was made")

        monkeypatch.setattr(ensembles, "hermite_tridiagonal", no_draw)
        with pytest.raises(ValueError, match="kmax must be nonnegative"):
            soft_edge_gap_counts(20, 5, 0.0, seed=1, kmax=kmax)

    @pytest.mark.parametrize("alpha", [math.inf, 0.0, -2.0])
    def test_every_cut_counts_without_lapack(self, monkeypatch, alpha):
        # every cut, +inf included, takes the one Sturm count per draw
        def no_lapack(*args, **kwargs):
            raise AssertionError("eigensolver called")

        monkeypatch.setattr(ensembles, "eigvalsh_tridiagonal", no_lapack)
        res = soft_edge_gap_counts(20, 10, alpha, seed=1, kmax=20)
        monkeypatch.undo()
        cut = 2.0 + alpha * 20.0 ** (-2.0 / 3.0)
        above = [np.count_nonzero(sample_gue_eigs(20, 1, i).eigenvalues > cut)
                 for i in range(10)]
        assert np.array_equal(res.probs, np.bincount(above, minlength=21) / 10)

    def test_minus_infinity_counts_every_eigenvalue(self):
        res = soft_edge_gap_counts(6, 10, -math.inf, seed=1)
        assert res.probs[6] == 1.0
        res = soft_edge_gap_counts(20, 10, -math.inf, seed=1, kmax=8)
        assert res.probs.sum() == 0.0 and res.manifest["overflow_count"] == 10

    def test_manifest_names_the_model(self):
        res = soft_edge_gap_counts(20, 3, 0.0, seed=4)
        assert res.manifest["model"] == "hermite-tridiagonal"
        assert res.manifest["ensemble"] == "gue"

    def test_never_forms_a_dense_matrix(self, monkeypatch):
        def dense(*args, **kwargs):
            raise AssertionError("dense GUE draw")

        monkeypatch.setattr(ensembles, "gue_matrix", dense)
        monkeypatch.setattr(ensembles, "gaussian_stream", dense)
        res = soft_edge_gap_counts(50, 20, 0.0, seed=8)
        assert res.probs.sum() + res.manifest["overflow_count"] / 20 == 1.0

    def test_bulk_draws_never_form_a_dense_matrix(self, monkeypatch):
        def dense(*args, **kwargs):
            raise AssertionError("dense draw")

        monkeypatch.setattr(ensembles, "gue_matrix", dense)
        monkeypatch.setattr(ensembles, "gaussian_stream", dense)
        assert sample_gue_eigs(50, 8, 0).eigenvalues.shape == (50,)
        assert sample_wishart_eigs(50, 8, 0).eigenvalues.shape == (50,)


def test_density_normalizations():
    r = gauss_legendre(400, -2.0, 2.0)
    assert abs(r.integrate(semicircle_density(r.nodes)) - 1.0) < 1e-6
    r2 = gauss_legendre(2000, 1e-12, 4.0)
    assert abs(r2.integrate(marchenko_pastur_density(r2.nodes)) - 1.0) < 1e-3
