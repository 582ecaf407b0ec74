import dataclasses
import math

import mpmath
import numpy as np
import pytest

from rmedge import kernels
from rmedge.errors import TruncationError
from rmedge.kernels import (KernelSpec, airy_kernel, airy_symbol_kernel,
                            bessel_hard_kernel, bessel_log_symbol_kernel,
                            hankel_square_eval, hankel_square_grid,
                            hankel_symbol_kernel, kernel_eval, kernel_matrix,
                            qbessel_kernel, sine_circle_kernel, sine_kernel)
from rmedge.linop import discretize, fredholm_det, sym_eigen
from rmedge.specfun import airy, bessel_j, gauss_legendre

ALL_SPECS = [
    sine_kernel(1.0),
    sine_kernel(2.0),
    airy_kernel(),
    bessel_hard_kernel(0.5),
    airy_symbol_kernel(shift=0.5),
    bessel_log_symbol_kernel(0.5),
    qbessel_kernel(0.5),
    sine_circle_kernel(3),
]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.tag)
def test_symmetry(spec):
    rng = np.random.default_rng(11)
    lo = 0.05 if spec.domain[0] == 0.0 else -2.0
    pts = rng.uniform(lo, 3.0, size=(25, 2))
    for x, y in pts:
        if abs(x - y) < 1e-5:
            continue
        assert abs(kernel_eval(spec, x, y) - kernel_eval(spec, y, x)) \
            <= 1e-12 * max(1.0, abs(kernel_eval(spec, x, y)))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.tag)
def test_diagonal_rule_matches_near_diagonal_limit(spec):
    # Richardson check: K(x, x+h) must approach the diagonal rule as h -> 0
    for x in (0.3, 1.4):
        diag = kernel_eval(spec, x, x)
        h = 1e-5
        k1 = kernel_eval(spec, x - h, x + h)
        k2 = kernel_eval(spec, x - h / 2, x + h / 2)
        richardson = (4 * k2 - k1) / 3
        assert abs(diag - richardson) < 1e-8 * max(1.0, abs(diag))


class TestDiagonalValues:
    def test_sine_diagonal_is_density(self):
        assert kernel_eval(sine_kernel(2.0), 0.7, 0.7) == pytest.approx(2.0, abs=1e-14)

    def test_airy_diagonal_at_zero(self):
        # l'Hopital on the Airy kernel: Ai'(0)^2 - 0 * Ai(0)^2, cross-checked
        # against near-diagonal extrapolation
        got = kernel_eval(airy_kernel(), 0.0, 0.0)
        _, aip = airy(0.0)
        assert abs(got - aip * aip) < 1e-12
        # symmetric near-diagonal extrapolation (even in h)
        h = 1e-4
        near = kernel_eval(airy_kernel(), -h / 2, h / 2) * 4 / 3 \
            - kernel_eval(airy_kernel(), -h, h) / 3
        assert abs(got - near) < 1e-9

    def test_sine_circle_diagonal(self):
        assert kernel_eval(sine_circle_kernel(3), 1.0, 1.0 + 1e-9) \
            == pytest.approx(9.0, abs=1e-9)

    def test_near_diagonal_switch(self):
        spec = sine_kernel(1.0)
        assert abs(kernel_eval(spec, 0.5, 0.5 + 5e-7) - 1.0) < 1e-9

    def test_domain_violation(self):
        with pytest.raises(ValueError):
            kernel_eval(bessel_hard_kernel(0.5), -0.5, 1.0)

    @pytest.mark.parametrize("spec", [bessel_hard_kernel(0.5), airy_symbol_kernel()],
                             ids=lambda s: s.tag)
    def test_domain_violation_on_every_path(self, spec):
        # off the diagonal, on it, and through the Hankel-symbol assembly
        for x, y in ((-0.5, 1.0), (-0.5, -0.5), (np.array([-0.5, 1.0]), 1.0)):
            with pytest.raises(ValueError):
                kernel_eval(spec, x, y)
        with pytest.raises(ValueError):
            kernel_matrix(spec, np.array([-0.5, 0.5, 1.0]))


_MATRIX_SPECS = [
    (airy_symbol_kernel(shift=-1.5), 0.0, 14.0),
    (bessel_log_symbol_kernel(2.0, ell=0.3), 0.0, 18.0),
    (hankel_symbol_kernel(lambda s: np.exp(-np.asarray(s)) * np.cos(s), 20.0),
     0.0, 20.0),
    (airy_kernel(), -3.0, 11.0),
    (sine_kernel(1.5), -2.0, 4.0),
    (bessel_hard_kernel(2.0), 0.0, 5.0),
    (qbessel_kernel(0.5, ell=0.3), 0.0, 18.0),
    (sine_circle_kernel(3), -1.0, 2.0),
    (KernelSpec("evaluator_only", {}, (-math.inf, math.inf),
                lambda x, y: np.exp(-(x - y) ** 2) * np.cos(x * y)), -1.0, 3.0),
]


@pytest.mark.parametrize("spec,lo,hi", _MATRIX_SPECS, ids=lambda v: getattr(v, "tag", ""))
def test_kernel_matrix_equals_elementwise_evaluation(spec, lo, hi):
    # the symbol path fills each unordered pair once and mirrors it; the
    # diagonal rule runs only on the diagonal: the same bits either way
    nodes = gauss_legendre(40, lo, hi).nodes
    want = np.array([[kernel_eval(spec, x, y) for y in nodes] for x in nodes])
    assert np.array_equal(kernel_matrix(spec, nodes), want)


# Upper triangle of the Airy kernel matrix on these nodes, bit for bit, as the
# elementwise assembly from meshgrids gave it; the pair 0.3, 0.3 + 4e-7 takes
# the diagonal rule at its midpoint.
_AIRY_NODES = np.array([-2.0, 0.3, 0.3 + 4e-7, 1.6, 9.0])
_AIRY_PINNED = [
    '0x1.f15421512190dp-2', '0x1.9641bf0834c74p-4', '0x1.9641b27025329p-4',
    '0x1.0a004cd9a5ffbp-6', '0x1.42c11351818d0p-32', '0x1.2d4696d047b2ap-5',
    '0x1.2d468e77920d6p-5', '0x1.c1e55cc76109fp-8', '0x1.760cb5b99ecf0p-33',
    '0x1.2d46861edc994p-5', '0x1.c1e5509460334p-8', '0x1.760cac1214019p-33',
    '0x1.57a54c9df90f8p-10', '0x1.2c88e4202cf75p-35', '0x1.2720f173b87c0p-60',
]


def test_airy_kernel_matrix_is_pinned():
    i, j = np.triu_indices(_AIRY_NODES.size)
    want = np.empty((_AIRY_NODES.size,) * 2)
    want[i, j] = want[j, i] = [float.fromhex(v) for v in _AIRY_PINNED]
    assert np.array_equal(kernel_matrix(airy_kernel(), _AIRY_NODES), want)


# Upper triangle of the Airy-symbol matrix Ai(-2 + x + y) on these nodes, bit for
# bit, as scipy.special.airy and K_{1/3}, K_{2/3} gave it; the arguments run from
# -1 to 16 and meet the switch at 10 exactly (6 + 6 and 3 + 9).
_SYMBOL_NODES = np.array([0.5, 3.0, 6.0, 6.05, 9.0])
_SYMBOL_PINNED = [
    '0x1.1235093d83da6p-1', '0x1.25e2ccf277db8p-4', '0x1.5a4ae56c7e078p-12',
    '0x1.368aa86b80481p-12', '0x1.9bba4458fb5a2p-23', '0x1.f2e4bcf7c4975p-11',
    '0x1.923b08f805991p-21', '0x1.5fb32987ec937p-21', '0x1.e5e028a1f8cc1p-34',
    '0x1.e5e028a1f8cc1p-34', '0x1.9e3a82989e606p-34', '0x1.1eeacde5a022ep-48',
    '0x1.610268b270a3ep-34', '0x1.dea31ad04fe40p-49', '0x1.889b6799d2c8cp-65',
]


def test_airy_symbol_matrix_is_pinned():
    i, j = np.triu_indices(_SYMBOL_NODES.size)
    want = np.empty((_SYMBOL_NODES.size,) * 2)
    want[i, j] = want[j, i] = [float.fromhex(v) for v in _SYMBOL_PINNED]
    got = kernel_matrix(airy_symbol_kernel(shift=-2.0), _SYMBOL_NODES)
    assert np.array_equal(got, want)


# Upper triangle of the sine kernel matrix (t = 1) on these nodes, bit for bit,
# as the elementwise assembly from meshgrids gave it; the pair 0.2, 0.2 + 3e-7
# takes the diagonal value.
_SINE_NODES = np.array([-1.3, 0.2, 0.2 + 3e-7, 0.9, 4.75])
_SINE_PINNED = [
    '0x1.0000000000000p+0', '-0x1.b2995e7b7b604p-3', '-0x1.b29958c934d6dp-3',
    '0x1.5c5799dc8dbf7p-4', '0x1.0db297d5e46f4p-7', '0x1.0000000000000p+0',
    '0x1.0000000000000p+0', '0x1.78b652eca3a0ap-2', '0x1.1b055de352c97p-4',
    '0x1.0000000000000p+0', '0x1.78b66e6908e1ep-2', '0x1.1b0561e1319acp-4',
    '0x1.0000000000000p+0', '-0x1.337c8dbb3cf76p-5', '0x1.0000000000000p+0',
]


def test_sine_kernel_matrix_is_pinned():
    i, j = np.triu_indices(_SINE_NODES.size)
    want = np.empty((_SINE_NODES.size,) * 2)
    want[i, j] = want[j, i] = [float.fromhex(v) for v in _SINE_PINNED]
    assert np.array_equal(kernel_matrix(sine_kernel(1.0), _SINE_NODES), want)


def test_evaluator_only_matrix_evaluates_each_pair_once():
    # the evaluator serves the diagonal too, as the spec carries no diag rule
    points = []

    def ev(x, y):
        points.append(np.size(x))
        return np.exp(-(x - y) ** 2)

    n = 50
    spec = KernelSpec("counted", {}, (-math.inf, math.inf), ev)
    kernel_matrix(spec, gauss_legendre(n, 0.0, 3.0).nodes)
    assert sum(points) == n * (n + 1) // 2


def test_airy_discretize_evaluates_each_node_once(monkeypatch):
    # A and B once per node, plus the 8-point trace-tail probe
    points = []

    def counted(x):
        points.append(np.size(x))
        return airy(x)

    monkeypatch.setattr(kernels, "airy", counted)
    n = 60
    discretize(airy_kernel(), (-1.5, math.inf), n)
    assert sum(points) == n + 8


def _bessel_bracket(nu, s):
    # J_nu^2 - J_{nu+1} J_{nu-1} at 30 digits
    s = mpmath.mpf(s)
    return mpmath.besselj(nu, s) ** 2 - mpmath.besselj(nu + 1, s) * mpmath.besselj(nu - 1, s)


class TestExactDiagonals:
    @pytest.mark.parametrize("nu", [0.5, 2.0])
    def test_bessel_hard(self, nu):
        with mpmath.workdps(30):
            for x in (0.5, 2.0, 9.0):
                want = _bessel_bracket(nu, mpmath.sqrt(x)) / 4
                got = kernel_eval(bessel_hard_kernel(nu), x, x)
                assert abs(got - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("nu,ell", [(0.5, 0.0), (2.0, 0.3)])
    def test_qbessel(self, nu, ell):
        with mpmath.workdps(30):
            for x in (-1.5, -0.5, 0.5):
                r = mpmath.exp(-(mpmath.mpf(x) + ell))
                want = r * r * _bessel_bracket(nu, r) / 2
                got = kernel_eval(qbessel_kernel(nu, ell), x, x)
                assert abs(got - want) <= 1e-13 * abs(want)

    def test_bessel_small_argument(self):
        # the Bessel argument near 0, where a diagonal built from J_nu' cancels
        with mpmath.workdps(30):
            for x in (8.0, 15.0):
                r = mpmath.exp(-(mpmath.mpf(x) + 0.3))
                want = r * r * _bessel_bracket(2.0, r) / 2
                got = kernel_eval(qbessel_kernel(2.0, 0.3), x, x)
                assert abs(got - want) <= 1e-13 * abs(want)
            want = _bessel_bracket(2.0, mpmath.sqrt(1e-6)) / 4
            got = kernel_eval(bessel_hard_kernel(2.0), 1e-6, 1e-6)
            assert abs(got - want) <= 1e-13 * abs(want)

    def test_airy(self):
        with mpmath.workdps(30):
            for x in (-4.0, 0.5, 3.0):
                xm = mpmath.mpf(x)
                want = mpmath.airyai(xm, 1) ** 2 - xm * mpmath.airyai(xm) ** 2
                got = kernel_eval(airy_kernel(), x, x)
                assert abs(got - want) <= 1e-13 * abs(want)


class TestHankelSquares:
    def test_zero_symbol(self):
        spec = hankel_symbol_kernel(lambda s: np.zeros_like(np.asarray(s)), 10.0)
        assert hankel_square_eval(spec, 0.5, 1.0) == 0.0

    def test_airy_square_is_airy_kernel(self):
        spec = airy_symbol_kernel()
        got = hankel_square_eval(spec, 0.5, 1.0, L=14.0)
        want = kernel_eval(airy_kernel(), 0.5, 1.0)
        assert abs(got - want) < 1e-9

    def test_bessel_log_square_is_projection_kernel(self):
        got = hankel_square_eval(bessel_log_symbol_kernel(0.5), 0.2, 0.7, L=18.0)
        want = kernel_eval(qbessel_kernel(0.5), 0.2, 0.7)
        assert abs(got - want) < 1e-8

    def test_insufficient_cutoff_raises(self):
        spec = hankel_symbol_kernel(
            lambda s: np.exp(-0.05 * np.asarray(s, dtype=float)), 10.0)
        with pytest.raises(TruncationError):
            hankel_square_eval(spec, 0.0, 0.0, L=10.0)

    def test_non_symbol_family_rejected(self):
        with pytest.raises(ValueError):
            hankel_square_eval(sine_kernel(1.0), 0.1, 0.2, L=5.0)

    @pytest.mark.parametrize("spec", [airy_symbol_kernel(),
                                      bessel_log_symbol_kernel(0.5),
                                      bessel_log_symbol_kernel(2.0)],
                             ids=lambda s: s.tag)
    def test_square_positivity(self, spec):
        xs = np.linspace(0.0, 6.0, 30)
        H = hankel_square_grid(spec, xs, xs)
        vals = np.linalg.eigvalsh(0.5 * (H + H.T))
        assert vals.min() > -1e-9 * max(1.0, vals.max())

    @pytest.mark.parametrize("spec", [airy_symbol_kernel(),
                                      airy_symbol_kernel(shift=-1.5),
                                      bessel_log_symbol_kernel(0.5)],
                             ids=lambda s: s.tag)
    def test_symmetric_grid_evaluates_the_symbol_once(self, spec):
        # ys is xs: the quadrature reads 200 n symbol values, not 400 n, and
        # the square is bit for bit that of two evaluations
        quadrature_points = []

        def counted(s):
            if np.ndim(s) == 2:
                quadrature_points.append(np.size(s))
            return spec.symbol(s)

        xs = np.linspace(0.0, 3.0, 17)
        got = hankel_square_grid(dataclasses.replace(spec, symbol=counted), xs, xs)
        assert sum(quadrature_points) == 200 * xs.size
        assert np.array_equal(got, hankel_square_grid(spec, xs, xs.copy()))


@pytest.mark.parametrize("shift,length", [(0.0, 14.0), (-6.0, 14.0), (-10.0, 18.0),
                                          (-14.0, 22.0)])
def test_airy_symbol_truncation_follows_the_shift(shift, length):
    assert airy_symbol_kernel(shift=shift).tail_length == length


def test_soft_edge_determinant_identity_small():
    # det(I - z P W P) = det(I - z Gamma_alpha^2), two distinct discretizations
    for alpha in (0.0, 1.0):
        op = discretize(airy_kernel(), (alpha, math.inf), 50)
        gam = sym_eigen(discretize(airy_symbol_kernel(shift=alpha),
                                   (0.0, math.inf), 50)).eigenvalues
        for z in (0.5, 1.0):
            lhs = fredholm_det(op, z)
            rhs = float(np.prod(1.0 - z * gam * gam))
            assert abs(lhs - rhs) < 1e-8


@pytest.mark.parametrize("nu", [0.5, 2.0])
@pytest.mark.parametrize("s", [1.0, 12.0])
def test_hard_edge_determinant_converged_at_64_nodes(nu, s):
    # the fredholm-mix inputs; Gauss-Legendre in x was 1.5e-6 off at nu = 0.5, s = 12
    spec = bessel_hard_kernel(nu)
    dets = [fredholm_det(discretize(spec, (0.0, s), n), 1.0) for n in (64, 200)]
    assert abs(dets[0] - dets[1]) <= 1e-14


def test_qbessel_is_mapped_hard_edge_kernel():
    # the log-variable kernel equals 2 e^{-xi-eta} F(e^{-2xi}, e^{-2eta})
    nu = 0.5
    q = qbessel_kernel(nu)
    f = bessel_hard_kernel(nu)
    rng = np.random.default_rng(3)
    for xi, eta in rng.uniform(0.1, 2.0, size=(12, 2)):
        if abs(xi - eta) < 1e-4:
            continue
        mapped = 2 * math.exp(-xi - eta) * kernel_eval(
            f, math.exp(-2 * xi), math.exp(-2 * eta))
        assert abs(kernel_eval(q, xi, eta) - mapped) < 1e-9


def _reproducing_integral(a, w, w0, T=300.0):
    """int over R of the two sine-kernel sections: numeric core on [-T, T]
    plus analytic tails (logarithmic term exactly, oscillatory term by
    two-step integration by parts)."""
    width = math.pi / (2 * a)
    nb = int(math.ceil(2 * T / width))
    b = np.linspace(-T, T, nb + 1)
    r = gauss_legendre(12, 0.0, 1.0)
    xs = (b[:-1, None] + np.diff(b)[:, None] * r.nodes).ravel()
    wt = (np.diff(b)[:, None] * r.weights).ravel()
    core = float(np.dot(wt, np.sin(a * (xs - w)) * np.sin(a * (xs - w0))
                        / (np.pi ** 2 * (xs - w) * (xs - w0))))
    dl, sg, th = a * (w - w0), a * (w + w0), 2 * a
    g = lambda x: 1.0 / (2 * np.pi ** 2 * (x - w) * (x - w0))
    gp = lambda x: -(2 * x - w - w0) / (2 * np.pi ** 2 * ((x - w) * (x - w0)) ** 2)
    cosd = math.cos(dl)
    log_r = -cosd * math.log((T - w) / (T - w0)) / (2 * np.pi ** 2 * (w - w0))
    osc_r = -math.sin(th * T - sg) * g(T) / th - math.cos(th * T - sg) * gp(T) / th ** 2
    log_l = cosd * math.log((T + w) / (T + w0)) / (2 * np.pi ** 2 * (w - w0))
    osc_l = math.sin(-th * T - sg) * g(-T) / th + math.cos(-th * T - sg) * gp(-T) / th ** 2
    return core + (log_r - osc_r) + (log_l - osc_l)


@pytest.mark.parametrize("w,w0", [(0.3, 1.1), (-0.7, 0.4), (2.0, 2.6)])
def test_bulk_reproducing_property(w, w0):
    # integrating one kernel section against another reproduces the section
    a = math.pi  # sine kernel with t = 1
    got = _reproducing_integral(a, w, w0)
    want = math.sin(a * (w - w0)) / (math.pi * (w - w0))
    assert abs(got - want) < 1e-8


class TestAiryStack:
    SHIFTS = np.array([-5.0, -0.3, 0.0, 2.5, 11.0])

    def test_stack_matrix_is_each_members_matrix(self):
        # one Airy call for the stack reads the points each member reads on its own
        nodes = gauss_legendre(24, 0.0, 14.0).nodes
        got = kernel_matrix(airy_symbol_kernel(self.SHIFTS), nodes)
        want = np.stack([kernel_matrix(airy_symbol_kernel(x), nodes) for x in self.SHIFTS])
        assert np.array_equal(got, want)

    def test_members_and_tags(self):
        stack = airy_symbol_kernel(self.SHIFTS)
        assert stack.size == 5 and airy_symbol_kernel(0.0).size is None
        assert stack.tail_length == 14.0
        sub = stack.members(np.array([1, 3]))
        assert sub.size == 2 and sub.params["shift"] == [-0.3, 2.5]
        # a stack of one reads as its member
        assert stack.members(slice(0, 1)).tag == airy_symbol_kernel(-5.0).tag

    @pytest.mark.parametrize("shifts", [[-8.0, 0.0], [], [[0.0]]], ids=str)
    def test_stack_needs_one_cut_on_a_1d_array(self, shifts):
        with pytest.raises(ValueError, match="one cut"):
            airy_symbol_kernel(np.array(shifts))

    def test_stack_refuses_a_non_finite_shift(self):
        with pytest.raises(ValueError, match="shift must be finite"):
            airy_symbol_kernel(np.array([0.0, np.nan]))
