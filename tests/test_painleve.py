import math

import numpy as np
import pytest

from rmedge import kernels, linop, painleve, specfun
from rmedge.errors import NearSingularError
from rmedge.kernels import airy_symbol_kernel
from rmedge.linop import discretize, fredholm_det, refined_log_det
from rmedge.painleve import solve_pii, tw_cdf, tw_cdf_det
from rmedge.specfun import airy, airy_ai, gauss_legendre


class TestSolvePii:
    def test_validation(self):
        with pytest.raises(ValueError):
            solve_pii(0.0, -5.0, 8.0)
        with pytest.raises(ValueError):
            solve_pii(1.2, -5.0, 8.0)
        with pytest.raises(ValueError):
            solve_pii(1.0, -5.0, 5.0)   # x_max too small for the Airy anchor
        with pytest.raises(ValueError):
            solve_pii(1.0, 7.0, 6.5)

    def test_vanishing_coupling_limit(self):
        # w scales like -sqrt(t) Ai, so tiny t gives a tiny solution
        sol = solve_pii(1e-10, -4.0, 6.0)
        assert np.abs(sol.w).max() < 1e-4

    def test_airy_anchor_ratio(self):
        for t in (0.5, 1.0):
            sol = solve_pii(t, -4.0, 6.0)
            ratio = sol.w_at(6.0) / (-math.sqrt(t) * airy(6.0)[0])
            assert abs(ratio - 1.0) < 1e-6

    def test_ode_residual_on_grid(self):
        sol = solve_pii(1.0, -4.0, 6.0)
        h = 1e-4
        for x in (-3.0, -1.0, 0.0, 2.0):
            w = sol.w_at(np.array([x - h, x, x + h]))
            second = (w[2] - 2 * w[1] + w[0]) / h ** 2
            assert abs(second - 2 * w[1] ** 3 - x * w[1]) < 1e-7

    def test_sign_convention_at_right_end(self):
        sol = solve_pii(1.0, -2.0, 6.0)
        assert sol.w_at(6.0) < 0  # matches -sqrt(t) Ai > 0 flipped


class TestTwCdf:
    def test_validation(self):
        with pytest.raises(ValueError):
            tw_cdf(1.0, np.array([0.5, 0.2]))

    @pytest.mark.parametrize("t", [2.0, -1.0, 0.0])
    def test_t_outside_unit_interval_rejected(self, t):
        # as solve_pii and tw_cdf_det: no distribution is computed for t
        # outside (0, 1], where sqrt(t) Ai would be complex or not a CDF
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            tw_cdf(t, np.array([-1.0, 0.0]))

    def test_right_tail_is_one(self):
        c = tw_cdf(1.0, np.array([2.0, 6.0]))
        assert abs(c.F_values[-1] - 1.0) < 1e-10

    def test_value_at_zero_against_determinant(self):
        # soft-edge probability of no scaled eigenvalue above 0
        xs = np.array([0.0])
        fp = tw_cdf(1.0, xs).F_values[0]
        fd = tw_cdf_det(1.0, xs).F_values[0]
        assert abs(fp - fd) < 1e-6

    def test_dual_route_at_negative_x(self):
        xs = np.array([-2.0])
        fp = tw_cdf(0.5, xs).F_values[0]
        fd = tw_cdf_det(0.5, xs).F_values[0]
        assert abs(fp - fd) < 1e-6

    @pytest.mark.parametrize("t,want", [
        (1.0, [2.135996984742415e-05, 0.08031955293933518, 0.8072142419992863,
               0.9905446073837165, 0.9998875536983092]),
        (0.5, [0.20841537671486693, 0.4955123605471564, 0.9035286444113416,
               0.9952722728136677, 0.9999437768479518]),
    ])
    def test_determinant_route_pinned(self, t, want):
        # README grid points, as computed by the product over the spectrum
        # before it moved to the log domain
        got = tw_cdf_det(t, np.array([-5.0, -3.0, -1.0, 0.5, 2.0])).F_values
        assert np.all(np.abs(got - want) <= 1e-14 * np.array(want))

    @pytest.mark.parametrize("t", [0.5, 0.999])
    def test_determinant_route_truncation_follows_the_shift(self, t):
        # with the Airy symbol cut at a fixed 14 the routes part by 0.053 and
        # 4.27 in log F at x = -14
        xs = np.array([-14.0])
        gap = math.log(tw_cdf_det(t, xs).F_values[0]) - math.log(tw_cdf(t, xs).F_values[0])
        assert abs(gap) < 1e-4

    def test_determinant_route_refuses_past_rounding_level(self):
        # at t = 1, x = -12 the factor 1 - lambda^2 closest to 0 is ~1e-15
        with pytest.raises(NearSingularError):
            tw_cdf_det(1.0, np.array([-12.0]))

    def test_monotone_in_x_and_in_t(self):
        xs = np.round(np.arange(-4.0, 2.01, 0.25), 10)
        c1 = tw_cdf(0.5, xs)
        c2 = tw_cdf(1.0, xs)
        assert np.all(np.diff(c1.F_values) >= 0)
        assert np.all(np.diff(c2.F_values) >= 0)
        # more mass is pushed down as the coupling grows
        assert np.all(c2.F_values <= c1.F_values + 1e-12)

    def test_values_in_unit_interval(self):
        xs = np.round(np.arange(-5.0, 2.01, 0.5), 10)
        for t in (0.5, 1.0):
            F = tw_cdf(t, xs).F_values
            assert np.all(F >= 0.0) and np.all(F <= 1.0)

    def test_one_pass_moments_match_per_point_quadrature(self):
        # reference: a panel rule of its own from each x to the anchor, and the
        # Airy tail beyond it, per grid point
        xs = np.round(np.arange(-5.0, 2.01, 0.1), 12)
        for t in (0.5, 1.0):
            anchor = max(xs[-1] + 2.0, 8.0)
            sol = painleve._integrate_pii(t, xs[0], anchor)
            panel = gauss_legendre(10, 0.0, 1.0)
            tail = gauss_legendre(60, anchor, anchor + 12.0)
            tail_w = tail.weights * airy(tail.nodes)[0] ** 2
            want = []
            for x in xs:
                bounds = np.linspace(x, anchor, max(40, int((anchor - x) / 0.2)) + 1)
                ys = (bounds[:-1, None] + np.diff(bounds)[:, None] * panel.nodes).ravel()
                wts = (np.diff(bounds)[:, None] * panel.weights).ravel()
                inner = np.dot(wts, (ys - x) * sol.sol(ys)[0] ** 2)
                want.append(np.exp(-inner - t * np.dot(tail_w, tail.nodes - x)))
            got = tw_cdf(t, xs).F_values
            assert np.abs(got / np.array(want) - 1.0).max() < 1e-13

    def test_determinant_route_evaluates_each_airy_point_once(self, monkeypatch):
        # n(n+1)/2 node sums per grid point, plus the 8-point trace-tail probe;
        # the symbol reads Ai alone, so none of them goes through the (Ai, Ai') pair
        points, pair_points = [], []

        def counted(x):
            points.append(np.size(x))
            return airy_ai(x)

        def counted_pair(x):
            pair_points.append(np.size(x))
            return airy(x)

        monkeypatch.setattr(kernels, "airy_ai", counted)
        monkeypatch.setattr(kernels, "airy", counted_pair)
        n, xs = 100, np.array([-2.0, 0.0, 1.5])
        tw_cdf_det(1.0, xs, n=n)
        assert sum(points) == xs.size * (n * (n + 1) // 2 + 8)
        assert sum(pair_points) == 0

    def test_determinant_route_reads_only_k_one_third_above_ten(self, monkeypatch):
        # above x = 10, Ai alone is sqrt(x) K_{1/3}(zeta) c: one K_{1/3} per point
        # and no K_{2/3}, which only Ai' needs
        calls = []
        kv = specfun._sp.kv

        def recorded(nu, z):
            calls.append((nu, np.size(z)))
            return kv(nu, z)

        monkeypatch.setattr(specfun._sp, "kv", recorded)
        xs, n = [-5.0, 2.0], 100
        tw_cdf_det(1.0, xs, n=n)
        i, j = np.triu_indices(n)
        above = 0
        for x in xs:
            hi = max(14.0, 8.0 - x)
            nodes = gauss_legendre(n, 0.0, hi).nodes
            probe = gauss_legendre(8, hi, hi + 6.0).nodes
            above += np.count_nonzero(x + (nodes[i] + nodes[j]) > 10.0)
            above += np.count_nonzero(x + (probe + probe) > 10.0)
        assert calls and all(nu == 1.0 / 3.0 for nu, _ in calls)
        assert sum(size for _, size in calls) == above

    def test_determinant_route_sends_nothing_above_ten_to_scipy_airy(self, monkeypatch):
        # above x = 10 specfun.airy reads K_{1/3}, K_{2/3} and never computes Bi
        seen = []
        scipy_airy = specfun._sp.airy

        def recorded(x):
            seen.append(np.max(x, initial=-np.inf))
            return scipy_airy(x)

        monkeypatch.setattr(specfun._sp, "airy", recorded)
        tw_cdf_det(1.0, [-5.0, 2.0])
        assert seen and max(seen) <= 10.0

    def test_fixed_n_is_recorded_at_every_shift(self):
        assert tw_cdf_det(1.0, [-1.0, 0.0, 1.0], n=40).nodes.tolist() == [40, 40, 40]
        assert tw_cdf(1.0, [-1.0, 0.0]).nodes is None

    def test_curve_routes_are_tagged(self):
        xs = np.array([-1.0, 0.0])
        assert tw_cdf(1.0, xs).route == "painleve"
        assert tw_cdf_det(1.0, xs).route == "determinant"


README_GRID = np.round(np.arange(-5.0, 2.0 + 0.05, 0.1), 12)


class TestChosenNodes:
    @pytest.mark.parametrize("t", [0.5, 1.0])
    def test_readme_grid_stops_at_48_and_matches_200_nodes(self, t):
        got = tw_cdf_det(t, README_GRID, n=None)
        assert got.nodes.tolist() == [48] * README_GRID.size
        want = np.log(tw_cdf_det(t, README_GRID, n=200).F_values)
        err = np.abs(np.log(got.F_values) - want)
        assert np.all(err <= 1e-12 * np.maximum(1.0, np.abs(want)))

    def test_one_table_reads_the_symbol_at_two_rungs(self, monkeypatch):
        # per shift: 32 * 33 / 2 + 48 * 49 / 2 node sums and two 8-point tail probes
        points = []

        def counted(x):
            points.append(np.size(x))
            return airy_ai(x)

        monkeypatch.setattr(kernels, "airy_ai", counted)
        tw_cdf_det(1.0, README_GRID, n=None)
        assert README_GRID.size == 71
        assert sum(points) == 122120 == 71 * (528 + 1176 + 16)

    def test_rounding_floor_stops_the_deep_left_tail(self):
        # at t = 1, x = -10 the factors 1 - mu^2 reach ~1e-13 and log F moves by
        # ~1e-4 from rung to rung with rounding alone: only the LogDet bounds in
        # the stopping rule end the ladder before the cap
        got = tw_cdf_det(1.0, [-10.0, -8.0], n=None)
        assert got.nodes.tolist() == [72, 48]


class TestStackedRoute:
    MIXED = np.array([-10.0, -8.0, -6.5, -5.0, 0.0, 3.0])
    UNSORTED = np.array([1.0, -3.0, -8.0, 0.5, -6.5, 2.0, -3.0])

    @staticmethod
    def one_shift_at_a_time(t, xs, n):
        if n is None:
            return [refined_log_det(airy_symbol_kernel(x), (0.0, math.inf), t,
                                    squared=True)[1].value for x in xs]
        return [fredholm_det(discretize(airy_symbol_kernel(x), (0.0, math.inf), n), t,
                             squared=True) for x in xs]

    @pytest.mark.parametrize("n", [None, 100])
    @pytest.mark.parametrize("t,grid", [(0.5, "README"), (1.0, "README"), (1.0, "MIXED"),
                                        (0.9, "UNSORTED")])
    def test_bit_identical_to_one_shift_at_a_time(self, t, grid, n):
        # the stacks read the Airy symbol at the same points, so every value keeps
        # its bits, in the order of the input grid
        xs = README_GRID if grid == "README" else getattr(self, grid)
        got = tw_cdf_det(t, xs, n=n)
        assert np.array_equal(got.F_values, self.one_shift_at_a_time(t, xs, n))
        assert np.array_equal(got.xs, xs)

    def test_mixed_grid_stops_where_each_shift_does(self):
        got = tw_cdf_det(1.0, self.MIXED, n=None)
        assert got.nodes.tolist() == [72, 48, 48, 48, 48, 48]

    def test_one_table_makes_one_eigensolve_per_rung(self, monkeypatch):
        # 71 shifts share the cut at 14: one stacked eigensolve at 32 nodes and one
        # at 48, where one per shift and rung made 142; the Airy points are the same
        shapes, points = [], []
        sym_eigen = linop.sym_eigen

        def counted_eigen(op):
            spectrum = sym_eigen(op)
            shapes.append(spectrum.eigenvalues.shape)
            return spectrum

        def counted_airy(x):
            points.append(np.size(x))
            return airy_ai(x)

        monkeypatch.setattr(linop, "sym_eigen", counted_eigen)
        monkeypatch.setattr(kernels, "airy_ai", counted_airy)
        tw_cdf_det(1.0, README_GRID, n=None)
        assert shapes == [(71, 32), (71, 48)]
        assert sum(points) == 122120

    @pytest.mark.parametrize("n,want", [(100, [(26, 100), (26, 100), (19, 100)]),
                                        (400, [(1, 400)] * 3)])
    def test_a_stack_holds_a_bounded_matrix(self, monkeypatch, n, want):
        # at most ~2 MB of matrix per stack: 26 shifts at 100 nodes, one at 400
        shapes = []
        sym_eigen = linop.sym_eigen

        def counted(op):
            assert op.matrix.nbytes <= linop._STACK_BYTES
            shapes.append(op.matrix.shape[:-1])
            return sym_eigen(op)

        monkeypatch.setattr(linop, "sym_eigen", counted)
        xs = README_GRID if n == 100 else np.array([-2.0, 0.0, 1.5])
        tw_cdf_det(1.0, xs, n=n)
        assert shapes == want


def test_second_derivative_identity():
    # w(x;t)^2 = -d^2/dx^2 log det(I - t Gamma_x^2), five-point stencil
    h = 0.05
    xs = np.round(np.arange(-2.0, 1.01, h), 10)
    for t in (0.5, 1.0):
        wide = np.round(np.arange(xs[0] - 2 * h, xs[-1] + 2 * h + 1e-9, h), 10)
        ld = np.log(tw_cdf_det(t, wide).F_values)
        sol = solve_pii(t, float(xs[0]), 8.0)
        w2 = sol.w_at(xs) ** 2
        d2 = (-ld[4:] + 16 * ld[3:-1] - 30 * ld[2:-2] + 16 * ld[1:-3] - ld[:-4]) \
            / (12 * h * h)
        assert np.abs(w2 + d2).max() < 1e-4


def test_pii_value_recovered_from_determinant_curvature():
    # |w(0;1)| from the determinant route, second x-derivative of log det
    h = 0.05
    xs5 = np.array([-2 * h, -h, 0.0, h, 2 * h])
    ld = np.log(tw_cdf_det(1.0, xs5).F_values)
    d2 = (-ld[4] + 16 * ld[3] - 30 * ld[2] + 16 * ld[1] - ld[0]) / (12 * h * h)
    sol = solve_pii(1.0, -1.0, 8.0)
    assert abs(abs(sol.w_at(0.0)) - math.sqrt(-d2)) < 1e-5
