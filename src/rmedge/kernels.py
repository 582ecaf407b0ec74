"""Catalog of integrable kernels with exact formulas and diagonal-limit rules.

Every kernel is a symmetric function K(x, y) on an interval, packed into a
:class:`KernelSpec` together with a rule for the (removable) diagonal
singularity.  Hankel-symbol families additionally carry the one-variable
symbol A, so that the operator kernel is A(x + y) and squares can be formed
by quadrature, see :func:`hankel_square_eval`.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import TruncationError
from .specfun import airy, bessel_j, gauss_legendre

__all__ = [
    "KernelSpec",
    "sine_kernel",
    "airy_kernel",
    "bessel_hard_kernel",
    "airy_symbol_kernel",
    "bessel_log_symbol_kernel",
    "qbessel_kernel",
    "sine_circle_kernel",
    "hankel_symbol_kernel",
    "kernel_eval",
    "kernel_matrix",
    "hankel_square_eval",
    "hankel_square_grid",
]

# Below this separation the off-diagonal formula is abandoned for the
# diagonal rule evaluated at the midpoint.
_NEAR_DIAG = 1e-6
# Step for the symmetric-limit diagonal rule (one Richardson extrapolation).
_LIMIT_H = 1e-5


@dataclass(frozen=True)
class KernelSpec:
    """A symmetric kernel with parameters and an explicit diagonal-limit rule."""

    family: str
    params: dict
    domain: tuple
    evaluator: Callable = field(repr=False)
    diag: Optional[Callable] = field(default=None, repr=False)
    symbol: Optional[Callable] = field(default=None, repr=False)
    tail_length: Optional[float] = None

    @property
    def tag(self):
        if not self.params:
            return self.family
        inner = ",".join(f"{k}={v:g}" for k, v in self.params.items())
        return f"{self.family}({inner})"


def _diag_by_limit(spec, x):
    """Symmetric limit K(x-h, x+h) with one Richardson step, h = 1e-5."""
    x = np.asarray(x, dtype=float)
    h = np.minimum(_LIMIT_H, _safe_h(spec, x))
    k1 = spec.evaluator(x - h, x + h)
    k2 = spec.evaluator(x - h / 2, x + h / 2)
    return (4.0 * k2 - k1) / 3.0


def _safe_h(spec, x):
    # keep the probe points inside the kernel domain
    lo, hi = spec.domain
    room = np.full(np.shape(x), np.inf, dtype=float)
    if np.isfinite(lo):
        room = np.minimum(room, (np.asarray(x, dtype=float) - lo) / 2)
    if np.isfinite(hi):
        room = np.minimum(room, (hi - np.asarray(x, dtype=float)) / 2)
    return np.where(room < _LIMIT_H, np.maximum(room, 1e-9), _LIMIT_H)


def _check_domain(spec, *points):
    lo, hi = spec.domain
    tol = 1e-12
    for v in points:
        if np.any(v < lo - tol) or np.any(v > hi + tol):
            raise ValueError(f"point outside kernel domain {spec.domain}")


def kernel_eval(spec, x, y):
    """Evaluate K(x, y); switches to the diagonal rule when |x - y| < 1e-6.

    Each rule runs only on the entries it serves.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_domain(spec, x, y)
    near = np.abs(x - y) < _NEAR_DIAG
    if not np.any(near):
        return spec.evaluator(x, y) if x.shape or y.shape else float(spec.evaluator(x, y))
    x, y, near = np.broadcast_arrays(x, y, near)
    far = ~near
    out = np.empty(near.shape)
    mid = 0.5 * (x[near] + y[near])
    out[near] = spec.diag(mid) if spec.diag is not None else _diag_by_limit(spec, mid)
    if np.any(far):
        out[far] = spec.evaluator(x[far], y[far])
    return out if out.shape else float(out)


def kernel_matrix(spec, nodes):
    """Dense symmetric kernel matrix on a node set, diagonal by the limit rule.

    A Hankel-symbol kernel A(x + y) is evaluated once per unordered pair of
    nodes and mirrored.  Its diagonal rule is A(x + x), so the matrix equals
    the elementwise one.
    """
    nodes = np.asarray(nodes, dtype=float)
    if spec.symbol is None:
        X, Y = np.meshgrid(nodes, nodes, indexing="ij")
        return np.asarray(kernel_eval(spec, X, Y))
    _check_domain(spec, nodes)
    i, j = np.triu_indices(nodes.size)
    K = np.empty((nodes.size, nodes.size))
    K[i, j] = K[j, i] = spec.symbol(nodes[i] + nodes[j])
    return K


# ---------------------------------------------------------------------------
# kernel families


def sine_kernel(t):
    """Bulk kernel sin(t pi (x-y)) / (pi (x-y)) on the line; diagonal value t."""
    if not t > 0:
        raise ValueError("sine kernel needs t > 0")
    t = float(t)

    def ev(x, y):
        d = np.asarray(x - y, dtype=float)
        small = np.abs(d) < 1e-8
        dd = np.where(small, 1.0, d)
        out = np.sin(t * np.pi * dd) / (np.pi * dd)
        return np.where(small, t, out)

    return KernelSpec("sine", {"t": t}, (-math.inf, math.inf), ev,
                      diag=lambda x: np.full(np.shape(x), t) if np.shape(x) else t)


def airy_kernel():
    """Soft-edge kernel (Ai(x)Ai'(y) - Ai'(x)Ai(y)) / (x - y)."""

    def ev(x, y):
        ax, apx = airy(x)
        ay, apy = airy(y)
        return (ax * apy - apx * ay) / (x - y)

    def diag(x):
        ax, apx = airy(x)
        return apx * apx - x * ax * ax

    return KernelSpec("airy", {}, (-math.inf, math.inf), ev, diag=diag,
                      tail_length=14.0)


def bessel_hard_kernel(nu):
    """Hard-edge kernel on (0, infinity) built from J_nu(sqrt(x))."""
    if not nu > -0.5:
        raise ValueError("order must exceed -1/2")
    nu = float(nu)

    def ev(x, y):
        sx, sy = np.sqrt(x), np.sqrt(y)
        jx, jpx = bessel_j(nu, sx)
        jy, jpy = bessel_j(nu, sy)
        return (jx * sy * jpy - sx * jpx * jy) / (2.0 * (x - y))

    return KernelSpec("bessel_hard", {"nu": nu}, (0.0, math.inf), ev)


def airy_symbol_kernel(shift=0.0):
    """Hankel kernel Ai(shift + x + y); symbol of the soft-edge Hankel operator."""
    shift = float(shift)

    def sym(s):
        return airy(shift + np.asarray(s, dtype=float))[0]

    def ev(x, y):
        return sym(x + y)

    return KernelSpec("airy_symbol", {"shift": shift}, (0.0, math.inf), ev,
                      diag=lambda x: sym(2.0 * np.asarray(x, dtype=float)),
                      symbol=sym, tail_length=14.0)


def _bessel_log_symbol(nu, ell):
    def sym(s):
        r = np.exp(-ell - np.asarray(s, dtype=float))
        return r * bessel_j(nu, r)[0]

    return sym


def bessel_log_symbol_kernel(nu, ell=0.0):
    """Hankel kernel e^{-l-x-y} J_nu(e^{-l-x-y}) in the log variables."""
    if not nu > -0.5:
        raise ValueError("order must exceed -1/2")
    nu, ell = float(nu), float(ell)
    sym = _bessel_log_symbol(nu, ell)

    def ev(x, y):
        return sym(x + y)

    return KernelSpec("bessel_log_symbol", {"nu": nu, "ell": ell},
                      (-math.inf, math.inf), ev,
                      diag=lambda x: sym(2.0 * np.asarray(x, dtype=float)),
                      symbol=sym, tail_length=18.0)


def qbessel_kernel(nu, ell=0.0):
    """Kernel of the hard-edge projection in log variables.

    With A(s) = e^{-s} J_nu(e^{-s}) and B(s) = e^{-2s} J_nu'(e^{-s}),

        Q(x, y) = (A(x+l) B(y+l) - B(x+l) A(y+l)) / (e^{-2(x+l)} - e^{-2(y+l)}).
    """
    if not nu > -0.5:
        raise ValueError("order must exceed -1/2")
    nu, ell = float(nu), float(ell)

    def ab(s):
        r = np.exp(-np.asarray(s, dtype=float))
        j, jp = bessel_j(nu, r)
        return r * j, r * r * jp

    def ev(x, y):
        ax, bx = ab(np.asarray(x) + ell)
        ay, by = ab(np.asarray(y) + ell)
        ex = np.exp(-2.0 * (np.asarray(x, dtype=float) + ell))
        ey = np.exp(-2.0 * (np.asarray(y, dtype=float) + ell))
        return (ax * by - bx * ay) / (ex - ey)

    return KernelSpec("qbessel", {"nu": nu, "ell": ell},
                      (-math.inf, math.inf), ev, tail_length=18.0)


def sine_circle_kernel(n):
    """Circular kernel n sin(n(x-y)) / sin(x-y), evaluated singularity-free.

    sin(n d)/sin(d) is the Chebyshev polynomial U_{n-1}(cos d), so the kernel
    is entire in (x, y); the diagonal value is n^2.
    """
    if int(n) != n or n < 1:
        raise ValueError("n must be a positive integer")
    n = int(n)

    def ev(x, y):
        c = np.cos(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
        # U_{n-1}(c) by recurrence
        u_prev = np.zeros_like(c)
        u = np.ones_like(c)
        for _ in range(n - 1):
            u, u_prev = 2.0 * c * u - u_prev, u
        return n * u

    return KernelSpec("sine_circle", {"n": n}, (-math.inf, math.inf), ev,
                      diag=lambda x: np.full(np.shape(x), float(n * n))
                      if np.shape(x) else float(n * n))


def hankel_symbol_kernel(symbol, tail_length, family="custom_symbol", params=None):
    """Wrap an arbitrary decaying symbol A into the Hankel kernel A(x + y)."""
    def ev(x, y):
        return symbol(np.asarray(x, dtype=float) + np.asarray(y, dtype=float))

    return KernelSpec(family, params or {}, (0.0, math.inf), ev,
                      diag=lambda x: symbol(2.0 * np.asarray(x, dtype=float)),
                      symbol=symbol, tail_length=float(tail_length))


# ---------------------------------------------------------------------------
# Hankel squares


@lru_cache(maxsize=16)
def _square_rule(L):
    return gauss_legendre(200, 0.0, L)


def _check_tail(spec, x, y, L):
    a1 = np.abs(spec.symbol(np.asarray(x, dtype=float) + L))
    a2 = np.abs(spec.symbol(L + np.asarray(y, dtype=float)))
    est = np.max(a1) * np.max(a2) / 2.0
    if est > 1e-12:
        raise TruncationError(
            f"tail of the Hankel-square integral beyond L={L} is ~{est:.2e} > 1e-12")


def hankel_square_eval(spec, x, y, L=None):
    """Quadrature value of int_0^L A(x+u) A(u+y) du for a Hankel-symbol kernel."""
    if spec.symbol is None:
        raise ValueError(f"kernel family {spec.family!r} carries no Hankel symbol")
    L = float(L if L is not None else spec.tail_length)
    _check_tail(spec, x, y, L)
    rule = _square_rule(L)
    u = rule.nodes
    return float(np.dot(rule.weights, spec.symbol(x + u) * spec.symbol(u + y)))


def hankel_square_grid(spec, xs, ys, L=None):
    """Matrix of Hankel-square values on a grid, one quadrature for all pairs."""
    if spec.symbol is None:
        raise ValueError(f"kernel family {spec.family!r} carries no Hankel symbol")
    L = float(L if L is not None else spec.tail_length)
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    _check_tail(spec, xs, ys, L)
    rule = _square_rule(L)
    u = rule.nodes
    left = spec.symbol(xs[:, None] + u[None, :])
    right = spec.symbol(u[:, None] + ys[None, :])
    return left @ (rule.weights[:, None] * right)
