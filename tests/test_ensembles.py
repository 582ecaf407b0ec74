import math

import numpy as np
import pytest

from scipy.linalg import eigvalsh_tridiagonal
from scipy.stats import ks_2samp

from rmedge import ensembles
from rmedge.ensembles import (gaussian_stream, gue_matrix, hermite_tridiagonal,
                              marchenko_pastur_density, sample_gue_eigs,
                              sample_wishart_eigs, semicircle_density,
                              soft_edge_gap_counts)
from rmedge.specfun import gauss_legendre


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
        got = sample_gue_eigs(2, 7, 3).eigenvalues
        assert np.abs(np.sort(got) - want).max() < 1e-14

    def test_trace_invariance(self):
        A, _ = gue_matrix(9, 3, 1)
        s = sample_gue_eigs(9, 3, 1)
        assert abs(np.trace(A) - s.eigenvalues.sum()) < 1e-10

    def test_embedding_matches_complex_eigensolver(self):
        A, B = gue_matrix(20, 11, 4)
        s = sample_gue_eigs(20, 11, 4)
        direct = np.sort(np.linalg.eigvalsh(A + 1j * B))
        assert np.abs(np.sort(s.eigenvalues) - direct).max() < 1e-9

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
        s = sample_wishart_eigs(30, 5, 0)
        assert s.eigenvalues.min() > -1e-10

    def test_two_by_two_closed_form(self):
        Y = gaussian_stream(9, 2, 4).reshape(2, 2) / math.sqrt(2)
        G = Y.T @ Y
        tr, det = float(np.trace(G)), float(np.linalg.det(G))
        disc = math.sqrt(max(tr * tr / 4 - det, 0.0))
        want = np.array([tr / 2 - disc, tr / 2 + disc])
        got = sample_wishart_eigs(2, 9, 2).eigenvalues
        assert np.abs(np.sort(got) - want).max() < 1e-13

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
        rng = np.random.default_rng(0)
        for idx in range(30):
            n = int(rng.integers(2, 60))
            d, e = hermite_tridiagonal(n, 4, idx)
            cut = float(rng.uniform(1.5, 2.3))
            sel = eigvalsh_tridiagonal(d, e, select="v", select_range=(cut, math.inf))
            full = eigvalsh_tridiagonal(d, e)
            assert sel.size == np.count_nonzero(full > cut)

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
        dense = [sample_gue_eigs(n, 202, i).eigenvalues[-1] for i in range(draws)]
        assert ks_2samp(tri, dense).pvalue >= 0.01

    def test_size_validation(self):
        with pytest.raises(ValueError):
            hermite_tridiagonal(1, 0)


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

    def test_infinite_cut_sees_nothing_without_lapack(self, monkeypatch):
        def no_lapack(*args, **kwargs):
            raise AssertionError("eigensolver called")

        monkeypatch.setattr(ensembles, "eigvalsh_tridiagonal", no_lapack)
        res = soft_edge_gap_counts(20, 10, math.inf, seed=1)
        assert res.probs[0] == 1.0

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


def test_density_normalizations():
    r = gauss_legendre(400, -2.0, 2.0)
    assert abs(r.integrate(semicircle_density(r.nodes)) - 1.0) < 1e-6
    r2 = gauss_legendre(2000, 1e-12, 4.0)
    assert abs(r2.integrate(marchenko_pastur_density(r2.nodes)) - 1.0) < 1e-3
