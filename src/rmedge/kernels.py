"""Catalog of integrable kernels with exact formulas and exact diagonals.

Every kernel is a symmetric function K(x, y) on an interval, packed into a
:class:`KernelSpec`.  Integrable kernels are held in the paper's form
K(x, y) = (A(x)B(y) - B(x)A(y)) / (g(x) - g(y)) with the exact diagonal
(A'B - B'A)/g' from the ODE of (A, B), so a kernel matrix needs A and B at
the nodes only.  Hankel-symbol families carry the symbol A of the kernel
A(x + y), so that squares can be formed by quadrature, see
:func:`hankel_square_eval`.
"""

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import TruncationError
from .specfun import airy, airy_ai, bessel_jv, gauss_legendre, gauss_legendre_sqrt

__all__ = [
    "KernelSpec",
    "integrable_kernel",
    "system_kernel",
    "bessel_integrable_kernel",
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
    "symmetric_grid",
    "hankel_square_eval",
    "hankel_square_grid",
]

# Below this separation the off-diagonal formula is abandoned for the
# diagonal rule evaluated at the midpoint.
_NEAR_DIAG = 1e-6


@dataclass(frozen=True)
class KernelSpec:
    """A symmetric kernel with parameters and its diagonal.

    ``diag`` gives K(x, x); for an integrable kernel (``ab`` and ``denom``
    set) it maps (x, A(x), B(x)) to the diagonal, so that assembly reuses the
    values at the nodes.  A spec without ``diag`` is regular on its diagonal
    and evaluated there by ``evaluator``.  ``rule`` maps (n, lo, hi) to the
    QuadRule that discretizes the kernel; None means Gauss-Legendre.  A stack of
    kernels has list params and a leading member axis; ``members`` picks a sub-stack.
    """

    family: str
    params: dict
    domain: tuple
    evaluator: Callable = field(repr=False)
    diag: Optional[Callable] = field(default=None, repr=False)
    symbol: Optional[Callable] = field(default=None, repr=False)
    tail_length: Optional[float] = None
    ab: Optional[Callable] = field(default=None, repr=False)
    denom: Optional[Callable] = field(default=None, repr=False)
    rule: Optional[Callable] = field(default=None, repr=False)
    members: Optional[Callable] = field(default=None, repr=False)

    @property
    def size(self):  # the number of members of a stack; None for a single kernel
        return None if self.members is None else np.size(next(iter(self.params.values())))

    @property
    def tag(self):
        if not self.params:
            return self.family
        inner = ",".join(f"{k}=" + ("|".join(map("{:g}".format, v)) if isinstance(v, list)
                                    else f"{v:g}") for k, v in self.params.items())
        return f"{self.family}({inner})"

    def diagonal(self, x):
        """K(x, x), from ``diag`` where the kernel has one."""
        if self.diag is None:
            return self.evaluator(x, x)
        return self.diag(x, *self.ab(x)) if self.ab else self.diag(x)


def _check_domain(spec, *points):
    lo, hi = spec.domain[0] - 1e-12, spec.domain[1] + 1e-12
    for v in points:
        if np.any(v < lo) or np.any(v > hi):
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
    out[near] = spec.diagonal(0.5 * (x[near] + y[near]))
    if np.any(far):
        out[far] = spec.evaluator(x[far], y[far])
    return out if out.shape else float(out)


def kernel_matrix(spec, nodes):
    """Dense symmetric kernel matrix on a node set, equal to the elementwise one.

    An integrable kernel takes A, B and g once per node and forms the quotient
    from outer products, with the diagonal rule on the diagonal and at the
    midpoint of any other pair closer than 1e-6.  A Hankel symbol A(x + y) or
    an evaluator K(x, y) is evaluated once per unordered pair of nodes.
    """
    nodes = np.asarray(nodes, dtype=float)
    _check_domain(spec, nodes)
    if spec.ab is not None:
        a, b = spec.ab(nodes)
        g = spec.denom(nodes)
        near = np.abs(nodes[:, None] - nodes[None, :]) < _NEAR_DIAG
        K = np.outer(a, b) - np.outer(b, a)
        K /= np.where(near, 1.0, g[:, None] - g[None, :])
        i, j = np.nonzero(near & ~np.eye(nodes.size, dtype=bool))
        if i.size:
            K[i, j] = spec.diagonal(0.5 * (nodes[i] + nodes[j]))
        np.fill_diagonal(K, spec.diag(nodes, a, b))
        return K
    if spec.symbol is None:
        return symmetric_grid(lambda x, y: kernel_eval(spec, x, y), nodes)
    return symmetric_grid(lambda x, y: spec.symbol(x + y), nodes)


@lru_cache(maxsize=8)
def _upper_triangle(n):
    i, j = np.triu_indices(n)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def symmetric_grid(f, nodes):
    """f(x_i, x_j) for a symmetric vectorized f, once per unordered pair, mirrored."""
    i, j = _upper_triangle(nodes.size)
    values = f(nodes[i], nodes[j])
    K = np.empty(values.shape[:-1] + (nodes.size, nodes.size))
    K[..., i, j] = K[..., j, i] = values
    return K


# ---------------------------------------------------------------------------
# kernel families


def integrable_kernel(family, params, domain, ab, denom, diag, tail_length=None):
    """K(x, y) = (A(x)B(y) - B(x)A(y)) / (g(x) - g(y)) from ab: x -> (A(x), B(x)).

    ``denom`` is the monotone map g; ``diag`` maps (x, A(x), B(x)) to the
    exact diagonal (A'B - B'A)(x) / g'(x).
    """

    def ev(x, y):
        ax, bx = ab(x)
        ay, by = ab(y)
        return (ax * by - bx * ay) / (denom(x) - denom(y))

    return KernelSpec(family, params, domain, ev, diag=diag, tail_length=tail_length,
                      ab=ab, denom=denom)


def system_kernel(sys, ab):
    """(A(x)B(y) - B(x)A(y)) / (x - y) for (A, B)' = [[al, be], [-ga, -al]] (A, B) with
    (al, be, ga) = sys.coeff(x); its diagonal is ga A^2 + 2 al A B + be B^2."""
    def diag(x, a, b):
        al, be, ga = sys.coeff(x)
        return ga * a * a + 2.0 * al * a * b + be * b * b

    return integrable_kernel("ode_system", {}, (-math.inf, math.inf), ab, lambda x: x, diag)


def bessel_integrable_kernel(family, params, domain, nu, arg, weight, c,
                             tail_length=None):
    """Integrable Bessel kernel of order nu > -1/2 in the variable s = arg(x) > 0.

    A = w J_nu(s), B = -w s J_{nu+1}(s) (w s J_nu'(s) less nu A, which cancels
    in the quotient) with w = weight(s), and g = c s^2.  Bessel's equation gives
    the diagonal (s^2 A^2 + 2 nu A B + B^2) / (2 c s^2), free of cancellation as
    s -> 0, which is w^2 (J_nu^2 - J_{nu+1} J_{nu-1}) / (2c).
    """
    if not nu > -0.5:
        raise ValueError("order must exceed -1/2")

    def ab(x):
        s = arg(x)
        w = weight(s)
        return w * bessel_jv(nu, s), -w * s * bessel_jv(nu + 1.0, s)

    def denom(x):
        s = arg(x)
        return c * s * s

    def diag(x, a, b):
        s2 = arg(x) ** 2
        return (s2 * a * a + 2.0 * nu * a * b + b * b) / (2.0 * c * s2)

    return integrable_kernel(family, params, domain, ab, denom, diag, tail_length)


def sine_kernel(t):
    """Bulk kernel sin(t pi (x-y)) / (pi (x-y)) on the line; diagonal value t."""
    if not t > 0:
        raise ValueError("sine kernel needs t > 0")
    t = float(t)

    def ev(x, y):
        d = np.asarray(x - y, dtype=float)
        return np.sin(t * np.pi * d) / (np.pi * d)

    return KernelSpec("sine", {"t": t}, (-math.inf, math.inf), ev,
                      diag=lambda x: np.full(np.shape(x), t))


def airy_kernel():
    """Soft-edge kernel (Ai(x)Ai'(y) - Ai'(x)Ai(y)) / (x - y).

    A = Ai and B = Ai' solve A' = B, B' = xA, so the diagonal is B^2 - x A^2.
    """
    return integrable_kernel("airy", {}, (-math.inf, math.inf), airy, lambda x: x,
                             lambda x, a, b: b * b - x * a * a, tail_length=14.0)


def bessel_hard_kernel(nu):
    """Hard-edge kernel on (0, infinity): A = J_nu(sqrt x), B = -sqrt x J_{nu+1}(sqrt x), g = 2x.

    Its diagonal is (J_nu^2 - J_{nu+1} J_{nu-1})(sqrt x) / 4.  Its rule is
    Gauss-Legendre in u = sqrt x, which absorbs the endpoint factor (xy)^{nu/2}
    for nu in (1/2)Z (exponential convergence); other nu converge algebraically.
    """
    nu = float(nu)
    spec = bessel_integrable_kernel("bessel_hard", {"nu": nu}, (0.0, math.inf), nu,
                                    np.sqrt, lambda s: 1.0, 2.0)
    return replace(spec, rule=gauss_legendre_sqrt)


def airy_symbol_kernel(shift=0.0):
    """Hankel kernel Ai(shift + x + y); symbol of the soft-edge Hankel operator,
    cut where its argument reaches 8 (Ai(8) = 4.7e-8) and not before 14.  A 1-D
    array of shifts with one cut gives their stack, read in one Airy call."""
    shifts = np.array(shift, dtype=float)
    if not np.isfinite(shifts).all():
        raise ValueError(f"shift must be finite, got {shift}")
    cuts = np.maximum(14.0, 8.0 - shifts).ravel()
    if shifts.ndim and (shifts.ndim > 1 or not cuts.size or cuts.min() != cuts.max()):
        raise ValueError("a stack of shifts must be a nonempty 1-D array with one cut")
    spec = hankel_symbol_kernel(lambda s: airy_ai(np.add.outer(shifts, s)), cuts[0],
                                "airy_symbol", {"shift": shifts.tolist()})
    return spec if not shifts.ndim else replace(
        spec, members=lambda keep: airy_symbol_kernel(shifts[keep]))


def bessel_log_symbol_kernel(nu, ell=0.0):
    """Hankel kernel e^{-l-x-y} J_nu(e^{-l-x-y}) in the log variables."""
    if not nu > -0.5:
        raise ValueError("order must exceed -1/2")
    nu, ell = float(nu), float(ell)

    def sym(s):
        r = np.exp(-ell - np.asarray(s, dtype=float))
        return r * bessel_jv(nu, r)

    return hankel_symbol_kernel(sym, 18.0, "bessel_log_symbol", {"nu": nu, "ell": ell},
                                domain=(-math.inf, math.inf))


def qbessel_kernel(nu, ell=0.0):
    """Kernel of the hard-edge projection in log variables.

    With A(s) = e^{-s} J_nu(e^{-s}) and B(s) = -e^{-2s} J_{nu+1}(e^{-s}),

        Q(x, y) = (A(x+l) B(y+l) - B(x+l) A(y+l)) / (e^{-2(x+l)} - e^{-2(y+l)}),

    and with r = e^{-(x+l)} the diagonal is (r^2 A^2 + 2 nu A B + B^2) / (2 r^2).
    """
    nu, ell = float(nu), float(ell)
    return bessel_integrable_kernel("qbessel", {"nu": nu, "ell": ell},
                                    (-math.inf, math.inf), nu,
                                    lambda x: np.exp(-(np.asarray(x, dtype=float) + ell)),
                                    lambda s: s, 1.0, tail_length=18.0)


def sine_circle_kernel(n):
    """Circular kernel n sin(n(x-y)) / sin(x-y), evaluated singularity-free.

    sin(n d)/sin(d) is the Chebyshev polynomial U_{n-1}(cos d), so the kernel
    is entire in (x, y); on the diagonal it gives n U_{n-1}(1) = n^2 exactly.
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

    return KernelSpec("sine_circle", {"n": n}, (-math.inf, math.inf), ev)


def hankel_symbol_kernel(symbol, tail_length, family="custom_symbol", params=None,
                         domain=(0.0, math.inf)):
    """Wrap a decaying symbol A into the Hankel kernel A(x + y)."""
    def ev(x, y):
        return symbol(np.asarray(x, dtype=float) + np.asarray(y, dtype=float))

    return KernelSpec(family, params or {}, domain, ev, symbol=symbol,
                      tail_length=float(tail_length))


# ---------------------------------------------------------------------------
# Hankel squares


def _check_tail(spec, x, y, L):
    a1 = np.abs(spec.symbol(np.asarray(x, dtype=float) + L))
    a2 = np.abs(spec.symbol(L + np.asarray(y, dtype=float)))
    est = np.max(a1) * np.max(a2) / 2.0
    if est > 1e-12:
        raise TruncationError(
            f"tail of the Hankel-square integral beyond L={L} is ~{est:.2e} > 1e-12")


def hankel_square_eval(spec, x, y, L=None):
    """Quadrature value of int_0^L A(x+u) A(u+y) du for a Hankel-symbol kernel."""
    return float(hankel_square_grid(spec, [x], [y], L)[0, 0])


def hankel_square_grid(spec, xs, ys, L=None):
    """Matrix of Hankel-square values on a grid, one quadrature for all pairs;
    the symbol is evaluated once when ``ys is xs``."""
    if spec.symbol is None:
        raise ValueError(f"kernel family {spec.family!r} carries no Hankel symbol")
    L = float(L if L is not None else spec.tail_length)
    symmetric = ys is xs
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    _check_tail(spec, xs, ys, L)
    rule = gauss_legendre(200, 0.0, L)
    u = rule.nodes
    left = spec.symbol(xs[:, None] + u[None, :])
    # a contiguous copy keeps the product bit for bit that of a fresh evaluation
    right = left.T.copy() if symmetric else spec.symbol(u[:, None] + ys[None, :])
    return left @ (rule.weights[:, None] * right)
