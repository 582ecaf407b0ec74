"""Special functions and quadrature rules underlying every kernel evaluation.

All operations are pure and reentrant.  Special-function values come from
scipy.special (AMOS/Cephes); Ai above x = 10 from AMOS's K_{1/3}, K_{2/3}
alone, bit-identical to scipy.special.airy.  The test suite validates them
against independent series oracles and the defining ODEs.
"""

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special as _sp

__all__ = [
    "QuadRule",
    "gauss_legendre",
    "periodic_rule",
    "panel_rule",
    "airy",
    "bessel_j",
    "bessel_jv",
    "log_gamma_complex",
]


@dataclass(frozen=True)
class QuadRule:
    """Quadrature rule on an interval: positive weights, increasing interior nodes."""

    nodes: np.ndarray
    weights: np.ndarray
    interval: tuple

    def __post_init__(self):
        lo, hi = self.interval
        if not np.all(self.weights > 0):
            raise ValueError("quadrature weights must be positive")
        if abs(self.weights.sum() - (hi - lo)) > 1e-12 * max(1.0, hi - lo):
            raise ValueError("weights must sum to the interval length")
        if not (np.all(np.diff(self.nodes) > 0)
                and self.nodes[0] > lo and self.nodes[-1] < hi):
            raise ValueError("nodes must be strictly increasing inside the interval")

    def __len__(self):
        return self.nodes.size

    def integrate(self, values):
        return float(np.dot(self.weights, values))


@lru_cache(maxsize=64)
def _legendre_reference(n):
    """Nodes (descending) and weights of the n-point rule on (-1, 1), read-only.

    Nodes are roots of the degree-n Legendre polynomial, found by Newton
    iteration from the Chebyshev-like initial guess.
    """
    def legendre(x):
        # P_n from P_{n-1} by the three-term recurrence, then P_n'
        p_prev = np.ones_like(x)
        p = x.copy()
        for j in range(2, n + 1):
            p, p_prev = ((2 * j - 1) * x * p - (j - 1) * p_prev) / j, p
        return p, np.ones_like(x) if n == 1 else n * (p_prev - x * p) / (1.0 - x * x)

    k = np.arange(n)
    x = np.cos(np.pi * (4 * k + 3) / (4 * n + 2))
    for _ in range(100):
        p, dp = legendre(x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    _, dp = legendre(x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    # every caller shares these arrays
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre(n, lo, hi):
    """Gauss-Legendre rule with n points on (lo, hi).

    The reference rule on (-1, 1) is computed once per n (the 64 most recent
    sizes are kept) and mapped affinely; exact for polynomials of degree
    <= 2n-1.
    """
    if n < 1:
        raise ValueError("need at least one quadrature node")
    if not lo < hi:
        raise ValueError(f"empty interval ({lo}, {hi})")
    x, w = _legendre_reference(operator.index(n))
    # map from (-1, 1); the reference nodes are descending, so flip
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (lo + hi) + half * x)[::-1].copy()
    weights = (half * w)[::-1].copy()
    return QuadRule(nodes=nodes, weights=weights, interval=(lo, hi))


def periodic_rule(n, lo, hi):
    """Equal-weight midpoint rule; spectrally accurate for smooth periodic kernels."""
    if n < 1:
        raise ValueError("need at least one quadrature node")
    if not lo < hi:
        raise ValueError(f"empty interval ({lo}, {hi})")
    h = (hi - lo) / n
    nodes = lo + h * (np.arange(n) + 0.5)
    weights = np.full(n, h)
    return QuadRule(nodes=nodes, weights=weights, interval=(lo, hi))


_PANEL = gauss_legendre(10, 0.0, 1.0)


def panel_rule(edges):
    """10-point Gauss-Legendre (nodes, weights) on the panels between increasing
    edges, one row per panel."""
    widths = np.diff(edges)
    return (edges[:-1, None] + widths[:, None] * _PANEL.nodes[None, :],
            widths[:, None] * _PANEL.weights[None, :])


_AIRY_C = 0.183776298473930683  # 1/(pi sqrt 3), as AMOS ZAIRY rounds it


def airy(x):
    """Airy function of the first kind and its derivative, (Ai, Ai').

    x <= 10 goes to scipy.special.airy.  Above 10 scipy calls AMOS ZAIRY, which
    forms Ai = sqrt(x) K_{1/3}(zeta) c, Ai' = -x K_{2/3}(zeta) c (zeta =
    (2/3) x^{3/2}, c = 1/(pi sqrt 3); DLMF 9.6.1-9.6.2) but also Bi and Bi'.
    The same K calls in ZAIRY's operation order give its values bit for bit,
    at a fifth of the cost.  Large x underflows cleanly to (0.0, 0.0).
    """
    if not np.all(np.isfinite(x)):
        raise ValueError("airy requires finite arguments")
    x = np.asarray(x, dtype=float)
    ai, aip = np.empty_like(x), np.empty_like(x)
    big = x > 10.0
    ai[~big], aip[~big], _, _ = _sp.airy(x[~big])
    # the clip keeps zeta finite (K_nu is 0.0 from x ~ 104); 0.0 - p keeps Ai' = +0.0 there
    xb = np.minimum(x[big], 200.0)
    rt = np.sqrt(xb)
    zeta = xb * rt * (2.0 / 3.0)
    ai[big] = rt * (_sp.kv(1.0 / 3.0, zeta) * _AIRY_C)
    aip[big] = 0.0 - xb * (_sp.kv(2.0 / 3.0, zeta) * _AIRY_C)
    return ai[()], aip[()]


def bessel_jv(nu, x):
    """Bessel function of the first kind J_nu alone, nu > -1/2, x >= 0."""
    if not nu > -0.5:
        raise ValueError("order must exceed -1/2")
    if np.any(np.asarray(x) < 0):
        raise ValueError("argument must be nonnegative")
    return _sp.jv(nu, x)


def bessel_j(nu, x):
    """J_nu and its derivative J_nu', on the domain of ``bessel_jv``."""
    return bessel_jv(nu, x), _sp.jvp(nu, x, 1)


def log_gamma_complex(z):
    """Principal branch of log Gamma on the right half-plane Re z > 0."""
    z = complex(z)
    if not z.real > 0:
        raise ValueError("log_gamma_complex is restricted to Re z > 0")
    return complex(_sp.loggamma(z))


def unimodular_gamma_ratio(nu, x):
    """2^{ix} Gamma((1+nu+ix)/2) / Gamma((1+nu-ix)/2); unimodular for real x."""
    x = float(x)
    lg_num = log_gamma_complex(complex(0.5 * (1.0 + nu), 0.5 * x))
    lg_den = log_gamma_complex(complex(0.5 * (1.0 + nu), -0.5 * x))
    return complex(np.exp(1j * x * math.log(2.0) + lg_num - lg_den))
