"""Hard-edge machinery: Hankel transform, the unitary involution, Bessel
determinant identity, eigenfunction correspondence, and the unimodular symbol.

The involution G f(xi) = int phi(xi + eta + l) f(eta) d eta, phi(s) = e^{-s} J_nu(e^{-s}),
is G = J M_{u_nu}, the flip after the symbol: (G f)^(k) = e^{ikl} u_nu(k) f^(-k).

All hard-edge operators live on the logarithmic variables xi = -(1/2) log x,
where the Hankel structure of the kernels is manifest; the (0, 1)-variable
operators are produced by the inverse substitution when needed.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._deferred import special as _sp
from .errors import TruncationError
from .kernels import KernelSpec, bessel_hard_kernel, bessel_log_symbol_kernel, symmetric_grid
from .linop import checked_log_det, discretize, sym_eigen
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


def _apply_g_fourier(nu, ell, values, lo, h):
    # G f at the nodes lo + j h from real samples of f there, read as a periodic
    # trigonometric interpolant: (G f)^(k) = e^{ikl} u_nu(k) f^(-k), and f^(-k)
    # is the conjugate of f^(k) for real f
    k = 2.0 * math.pi * np.fft.rfftfreq(len(values), h)
    coef = u_nu_eval(nu, k) * np.exp(1j * k * (ell + 2.0 * lo)) * np.conj(np.fft.rfft(values))
    return np.fft.irfft(coef, len(values))


def g_involution_check(nu, ell, test_functions):
    """Max |G(G f) - f| on 36 points of [-2, 5], for decaying test functions f.

    The first G is the quadrature of ``apply_g`` on the step-0.05 grid of
    [-5 - l, 60 - l), widened by 1 to the left while |G f| there exceeds 1e-12
    of its max (``TruncationError`` beyond -9 - l); the second is the Fourier
    route through u_nu on the same grid, which wraps what the grid cuts off
    (G f decays like e^{-(1+nu) xi} on the right).  Test functions must be
    concentrated like Gaussian bumps; eigenfunction-like inputs whose image is
    distributional are outside the admissible class.
    """
    h = 0.05
    grid = np.linspace(-2.0, 5.0, 36)
    worst = 0.0
    for f in test_functions:
        # quadrature only needs to cover the support of f
        probe = np.linspace(-9.0, 9.0, 361)
        fp = np.abs(np.asarray(f(probe)))
        alive = probe[fp > 1e-13 * fp.max()]
        sup = {"y_lo": math.exp(-float(alive[-1]) - 0.1),
               "y_hi": math.exp(-float(alive[0]) + 0.1)}
        left = start = round((3.0 + ell) / h)
        g_vals = apply_g(nu, ell, f, -2.0 + h * np.arange(-left, 1300 - left), **sup)
        while abs(g_vals[0]) > 1e-12 * np.abs(g_vals).max():
            if left == start + 80:
                raise TruncationError(f"G f is {abs(g_vals[0]) / np.abs(g_vals).max():.2e} "
                                      "of its max at the left end -9 - l")
            left += 20  # a node's value depends on that node alone, as on a wider grid
            g_vals = np.append(apply_g(nu, ell, f, -2.0 + h * np.arange(-left, 20 - left),
                                       **sup), g_vals)
        gg = _apply_g_fourier(nu, ell, g_vals, -2.0 - h * left, h)[left:left + 144:4]
        worst = max(worst, float(np.abs(gg - np.asarray(f(grid))).max()))
    return worst


def bessel_det_identity(cfg, z, n=80):
    """Two independent routes to the hard-edge determinant.

    lhs: det(I - z F) with F the hard-edge kernel on (0, a) on its own rule
    (Gauss-Legendre in sqrt x), as ``rmedge det`` discretizes it.  rhs:
    det(I - z Phi^2) where Phi is the Hankel operator with the log-variable
    Bessel symbol shifted by alpha.
    Returns (lhs, rhs, |lhs - rhs|), or for a sequence of z a list of them, from
    one eigensolve per operator.
    """
    kernel = sym_eigen(discretize(bessel_hard_kernel(cfg.nu), (0.0, cfg.a), n))
    sym = bessel_log_symbol_kernel(cfg.nu, ell=cfg.alpha)
    hankel = sym_eigen(discretize(sym, (0.0, math.inf), max(n, 120)))
    rows = []
    for zk in z if np.ndim(z) else (z,):
        lhs = checked_log_det(kernel, zk).value
        rhs = checked_log_det(hankel, zk, squared=True).value
        rows.append((lhs, rhs, abs(lhs - rhs)))
    return rows if np.ndim(z) else rows[0]


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
    """The unimodular symbol 2^{ix} Gamma((1+nu+ix)/2) / Gamma((1+nu-ix)/2), the
    Fourier transform of phi (DLMF 10.22.43), elementwise; a scalar gives a complex."""
    if not nu > -0.5:
        raise ValueError("order must exceed -1/2")
    x = float(x) if np.ndim(x) == 0 else np.asarray(x, dtype=float)
    half = 0.5 * (1.0 + nu)
    u = np.exp(1j * x * math.log(2.0) + log_gamma_complex(half + 0.5j * x)
               - log_gamma_complex(half - 0.5j * x))
    return complex(u) if isinstance(x, float) else u
