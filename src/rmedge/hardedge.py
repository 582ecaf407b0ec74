"""Hard-edge machinery: Hankel transform, the unitary involution, Bessel
determinant identity, eigenfunction correspondence, and the unimodular symbol.

All hard-edge operators live on the logarithmic variables xi = -(1/2) log x,
where the Hankel structure of the kernels is manifest; the (0, 1)-variable
operators are produced by the inverse substitution when needed.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .errors import TruncationError
from .kernels import KernelSpec, bessel_hard_kernel, bessel_log_symbol_kernel, symmetric_grid
from .linop import discretize, fredholm_det
from .specfun import (bessel_jv, gauss_legendre, gauss_legendre_sqrt, log_gamma_complex,
                      panel_rule)

__all__ = [
    "HardEdgeConfig",
    "hankel_transform",
    "hankel_involution_check",
    "apply_g",
    "g_involution_check",
    "bessel_det_identity",
    "phi_eigen_correspondence",
    "u_nu_eval",
]

@dataclass(frozen=True)
class HardEdgeConfig:
    """Order nu > -1/2 and hard-edge cut 0 < a < 1 with alpha = -(1/2) log a."""

    nu: float
    a: float

    def __post_init__(self):
        if not self.nu > -0.5:
            raise ValueError("order must exceed -1/2")
        if not 0.0 < self.a < 1.0:
            raise ValueError("the cut must satisfy 0 < a < 1")

    @property
    def alpha(self):
        return -0.5 * math.log(self.a)


def _weighted(fy, rule):
    # f(y) y dy on the rule; the truncated transform is wrong unless f has decayed
    y = rule.nodes
    scale = np.max(np.abs(fy)) or 1.0
    edge = np.max(np.abs(fy[y > 0.97 * rule.interval[1]]))
    if edge > 1e-10 * scale:
        raise TruncationError(
            f"function has not decayed at the cutoff ({edge:.2e} of scale)")
    return fy * y * rule.weights


def hankel_transform(f, nu, cutoff, n=400):
    """Transform int_0^cutoff J_nu(x y) f(y) y dy on the n Gauss-Legendre nodes
    of (0, cutoff), where the vectorized ``f`` must have decayed by the cutoff.
    Returns (nodes, values)."""
    rule = gauss_legendre(n, 0.0, float(cutoff))
    y = rule.nodes
    fw = _weighted(np.asarray(f(y), dtype=float), rule)
    return y, symmetric_grid(lambda a, b: _sp.jv(nu, a * b), y) @ fw


def hankel_involution_check(nu, test_functions):
    """Max deviation of H(H f) from f on the 400 Gauss-Legendre nodes of (0, 12),
    one J_nu(y_i y_j) grid applied twice; f and H f must each have decayed by 12."""
    rule = gauss_legendre(400, 0.0, 12.0)
    grid = symmetric_grid(lambda a, b: _sp.jv(nu, a * b), rule.nodes)
    worst = 0.0
    for f in test_functions:
        fy = np.asarray(f(rule.nodes), dtype=float)
        hhf = grid @ _weighted(grid @ _weighted(fy, rule), rule)
        worst = max(worst, float(np.abs(hhf - fy).max()))
    return worst


def _panel_grid(y_lo, y_hi, width):
    # linear panels capped by the oscillation width, geometric near zero
    bounds = [y_lo]
    y = y_lo
    while y < y_hi:
        step = min(width, max(0.3 * y, 0.5 * y_lo, 1e-12))
        y = min(y + step, y_hi)
        bounds.append(y)
    ys, wt = panel_rule(np.array(bounds))
    return ys.ravel(), wt.ravel()


def apply_g(nu, ell, f, xi_out, y_lo=1e-9, y_hi=16.0):
    """Apply the unitary involution with kernel e^{-l-x-e} J_nu(e^{-l-x-e}).

    Written in the substituted variable y = e^{-eta}:

        G f(xi) = int_0^inf c J_nu(c y) f(-log y) dy,   c = e^{-l-xi},

    so the integrand oscillates at linear frequency c, and a panel spans at
    most 6 radians of it.  ``f`` must decay on both tails; (y_lo, y_hi) must
    cover its support in the substituted variable.
    """
    xi_out = np.atleast_1d(np.asarray(xi_out, dtype=float))
    out = np.empty_like(xi_out)
    groups = {}
    for i, xi in enumerate(xi_out):
        c = math.exp(-ell - xi)
        groups.setdefault(int(np.ceil(np.log2(max(c, 1e-12)))), []).append(i)
    for key, idxs in groups.items():
        cmax = 2.0 ** key
        ys, wt = _panel_grid(y_lo, y_hi, min(1.0, 6.0 / max(cmax, 1e-12)))
        fv = np.asarray(f(-np.log(ys)), dtype=float)
        for i in idxs:
            c = math.exp(-ell - xi_out[i])
            out[i] = np.dot(wt, c * _sp.jv(nu, c * ys) * fv)
    return out


def _chirp_grid(lo, hi, rate):
    # resolves the e^{-eta} phase on the left, uniform elsewhere
    pts = [lo]
    e = lo
    while e < hi:
        e += min(0.02, rate * math.exp(e))
        pts.append(min(e, hi))
    return np.array(pts)


def g_involution_check(nu, ell, test_functions):
    """Max deviation of G(G f) from f on 36 points of [-2, 5], for decaying test
    functions.

    The intermediate G f is tabulated on a chirp-resolving grid, interpolated
    by a cubic spline, and fed back through the involution.  Test functions
    must be concentrated like Gaussian bumps; eigenfunction-like inputs whose
    image is distributional are outside the admissible class.
    """
    from scipy.interpolate import CubicSpline
    grid = np.linspace(-2.0, 5.0, 36)
    # the intermediate G f(eta) lives on the l = 0 window shifted by -l and
    # oscillates at frequency e^{-(eta + l)}
    lo, hi = -5.0 - ell, 16.0 - ell
    eta_grid = _chirp_grid(lo, hi, rate=0.12 * math.exp(ell))
    worst = 0.0
    for f in test_functions:
        # quadrature only needs to cover the support of f
        probe = np.linspace(-9.0, 9.0, 361)
        fp = np.abs(np.asarray(f(probe)))
        alive = probe[fp > 1e-13 * fp.max()]
        y_sup_lo = math.exp(-float(alive[-1]) - 0.1)
        y_sup_hi = math.exp(-float(alive[0]) + 0.1)
        g_vals = apply_g(nu, ell, f, eta_grid, y_lo=y_sup_lo, y_hi=y_sup_hi)
        # G f is zero outside the tabulated window, where the spline gives NaN
        spline = CubicSpline(eta_grid, g_vals, bc_type="natural", extrapolate=False)
        gg = apply_g(nu, ell, lambda eta: np.nan_to_num(spline(eta)), grid,
                     y_lo=math.exp(-hi), y_hi=math.exp(-lo))
        worst = max(worst, float(np.abs(gg - np.asarray(f(grid))).max()))
    return worst


def bessel_det_identity(cfg, z, n=80):
    """Two independent routes to the hard-edge determinant.

    lhs: det(I - z F) with F the hard-edge kernel on (0, a) on its own rule
    (Gauss-Legendre in sqrt x), as ``rmedge det`` discretizes it.  rhs:
    det(I - z Phi^2) where Phi is the Hankel operator with the log-variable
    Bessel symbol shifted by alpha.
    Returns (lhs, rhs, |lhs - rhs|).
    """
    lhs = fredholm_det(discretize(bessel_hard_kernel(cfg.nu), (0.0, cfg.a), n), z)
    sym = bessel_log_symbol_kernel(cfg.nu, ell=cfg.alpha)
    rhs = fredholm_det(discretize(sym, (0.0, math.inf), max(n, 120)), z, squared=True)
    return lhs, rhs, abs(lhs - rhs)


def phi_eigen_correspondence(nu, s, n=60, top=5):
    """Eigen data of the (0,1) kernel J_nu(sqrt(s x y)) against the Hankel route.

    The substitution x = e^{-2 xi} carries eigenfunctions f of the (0,1)
    kernel with eigenvalue lam to eigenfunctions g(xi) = e^{-xi} f(e^{-2 xi})
    of the half-line Hankel operator with shift l = -(1/2) log s, with
    eigenvalue lam sqrt(s) / 2.  Returns a dict with both eigenvalue lists
    (matched by modulus) and the worst eigenvector mapping residual.
    """
    if not 0.0 < s <= 1.0:
        raise ValueError("s must lie in (0, 1]")
    ell = -0.5 * math.log(s)

    def ev(x, y):
        return bessel_jv(nu, np.sqrt(s * (x * y)))  # symmetric bit for bit

    spec = KernelSpec("jnu_scaled", {"nu": nu, "s": s}, (0.0, math.inf), ev,
                      rule=gauss_legendre_sqrt)
    op = discretize(spec, (0.0, 1.0), n)
    lam, vecs = op.eigenpairs(top)
    mapped = 0.5 * lam * math.sqrt(s)

    sym = bessel_log_symbol_kernel(nu, ell=ell)
    hop = discretize(sym, (0.0, math.inf), max(2 * n, 120))
    hlam, hvecs = hop.eigenpairs(top)

    gap = float(np.abs(np.sort(mapped) - np.sort(hlam)).max())

    # eigenvector correspondence for the leading pair, via the natural Nystrom
    # interpolation f(x) = (1/lam) int_0^1 J_nu(sqrt(s x y)) f(y) dy of the
    # (0,1)-side eigenfunction
    def f_interp(x):
        return ev(x[:, None], op.rule.nodes) @ (op.rule.weights * vecs[:, 0]) / lam[0]

    # the Hankel eigenfunction is already unit in the weights; match its sign
    hxi, hw = hop.rule.nodes, hop.rule.weights
    g_mapped = np.exp(-hxi) * f_interp(np.exp(-2.0 * hxi))
    ga = g_mapped / math.sqrt(float(np.dot(hw, g_mapped * g_mapped)))
    gb = hvecs[:, 0] * math.copysign(1.0, np.dot(hw, ga * hvecs[:, 0]))
    vec_resid = float(np.abs(ga - gb).max())
    return {"kernel_eigs": mapped, "hankel_eigs": hlam,
            "eig_gap": gap, "vector_residual": vec_resid}


def u_nu_eval(nu, x):
    """The unimodular symbol 2^{ix} Gamma((1+nu+ix)/2) / Gamma((1+nu-ix)/2)."""
    if not nu > -0.5:
        raise ValueError("order must exceed -1/2")
    x = float(x)
    lg_num = log_gamma_complex(complex(0.5 * (1.0 + nu), 0.5 * x))
    lg_den = log_gamma_complex(complex(0.5 * (1.0 + nu), -0.5 * x))
    return complex(np.exp(1j * x * math.log(2.0) + lg_num - lg_den))

