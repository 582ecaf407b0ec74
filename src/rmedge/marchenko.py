"""Resolvent equation for Hankel-square kernels and the log-determinant slope.

For a decaying symbol A with W(x, y) = int_0^inf A(x+t) A(t+y) dt, the
equation

    K(x, z) - kappa^2 int_x^inf K(x, y) W(y, z) dy = kappa W(x, z)

has a unique solution when kappa^2 ||G_x||_HS^2 = kappa^2 int_0^inf u A(x+u)^2 du
< 1, where G_x is the Hankel operator A(x+s+t) on (0, inf) and W = G_x^2 there.
One solve gives K(x, x+.) = kappa G_x (I - kappa^2 G_x^2)^{-1} A(x+.) and its
diagonal d/dx log det(I - kappa^2 P_(x,inf) W P_(x,inf)) = kappa K(x,x); the
Hilbert-Schmidt eigen-expansion is the independent second route to K(x, x).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractionError
from .kernels import hankel_symbol_kernel, kernel_matrix
from .linop import checked_log_det, discretize, nystrom, sym_eigen
from .specfun import gauss_legendre

__all__ = [
    "MarchenkoSolution",
    "symbol_weighted_norm",
    "solve_marchenko",
    "marchenko_diag",
    "log_det_tail",
    "verify_logdet_slope",
    "hs_expansion",
    "diag_from_expansion",
]


@dataclass(frozen=True)
class MarchenkoSolution:
    kappa: float
    x: float
    z_grid: np.ndarray
    K_values: np.ndarray
    K_diag: float
    route: str
    symbol_tag: str


def symbol_weighted_norm(spec):
    """int_0^inf u A(u)^2 du, truncated at the symbol's registered tail length."""
    rule = gauss_legendre(400, 0.0, float(spec.tail_length))
    a = spec.symbol(rule.nodes)
    return float(np.dot(rule.weights, rule.nodes * a * a))


def _shifted(spec, x):
    """The symbol A(x + .), cut where its argument reaches the symbol's tail length."""
    return hankel_symbol_kernel(lambda s: spec.symbol(x + s), spec.tail_length - min(x, 0.0))


def _check_contraction(spec, kappa, x):
    """Refuse unless kappa^2 ||G_x||_HS^2 < 1; the norm falls as x grows, so the
    symbol's weighted norm bounds it for x >= 0 and its shift by x below 0."""
    for name, value in (("kappa", kappa), ("x", x)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {name} = {value}")
    norm = symbol_weighted_norm(_shifted(spec, min(float(x), 0.0)))
    if kappa * kappa * norm >= 1.0:
        raise ContractionError(
            f"kappa^2 * int u A(min(x, 0) + u)^2 du = {kappa * kappa * norm:.6g} >= 1; "
            "the resolvent equation is not a contraction")


def solve_marchenko(spec, kappa, x, n=160):
    """K(x, z) on the grid z = x + s of G_x's rule, covering (x, x+L), and
    K(x, x) = kappa < (I - kappa^2 G_x^2)^{-1} A(x+.), A(x+.) >, which is better
    conditioned on the diagonal than interpolating K(x, .). G_x is the Hankel
    operator A(x+s+t) on (0, inf), cut by linop's tail check; the solve runs in
    symmetrized Nystrom coordinates on the nodes s of its rule."""
    _check_contraction(spec, kappa, x)
    shifted = _shifted(spec, x)
    op = discretize(shifted, (0.0, np.inf), n)
    a = np.sqrt(op.rule.weights) * shifted.symbol(op.rule.nodes)
    sol = np.linalg.solve(np.eye(n) - kappa * kappa * (op.matrix @ op.matrix), a)
    values = kappa * (op.matrix @ sol) / np.sqrt(op.rule.weights)
    return MarchenkoSolution(kappa=float(kappa), x=float(x), z_grid=x + op.rule.nodes,
                             K_values=values, K_diag=float(kappa * (a @ sol)),
                             route="resolvent", symbol_tag=spec.tag)


def marchenko_diag(spec, kappa, x):
    """K(x, x) of :func:`solve_marchenko` with G_x on 160 nodes."""
    return solve_marchenko(spec, kappa, x).K_diag


def log_det_tail(spec, kappa, x, n=160):
    """log det(I - kappa^2 P_(x,inf) W P_(x,inf)) via the Hankel spectrum."""
    hankel = sym_eigen(discretize(_shifted(spec, x), (0.0, np.inf), n))
    ld = checked_log_det(hankel, kappa * kappa, squared=True)
    if ld.sign <= 0:
        raise ContractionError(f"det(I - kappa^2 W) <= 0 at kappa = {kappa:g}")
    return ld.log_abs


def verify_logdet_slope(spec, kappa, x):
    """Centered difference (step 1e-3) of the log-determinant against kappa K(x, x)."""
    h = 1e-3
    lhs = (log_det_tail(spec, kappa, x + h) - log_det_tail(spec, kappa, x - h)) / (2.0 * h)
    rhs = kappa * marchenko_diag(spec, kappa, x)
    return lhs, rhs, abs(lhs - rhs)


def _split_rule(x, L, n):
    """Composite GL rule on (0, x) u (x, x+L) so tail integrals are exact sums."""
    if x == 0.0:
        return gauss_legendre(n, 0.0, L), 0
    n_left = max(8, int(n * x / (x + L)))
    n_right = max(8, n - n_left)
    left = gauss_legendre(n_left, 0.0, x)
    right = gauss_legendre(n_right, x, x + L)
    nodes = np.concatenate([left.nodes, right.nodes])
    weights = np.concatenate([left.weights, right.weights])
    rule = type(left)(nodes=nodes, weights=weights, interval=(0.0, x + L))
    return rule, n_left


def hs_expansion(spec, x, m, n=240):
    """Top-m Hilbert-Schmidt data of the Hankel operator with symbol A.

    Returns (gammas, Phi(x)) where A(s+t) = sum_j gamma_j phi_j(s) phi_j(t)
    and Phi(x)_jk = gamma_j gamma_k int_x^inf phi_j phi_k.  The quadrature splits
    at x so the tail Gram matrix is an exact node subset; it needs x >= 0.
    """
    if not 0.0 <= x < math.inf:
        raise ValueError(f"the expansion needs a finite x >= 0, got x = {x}")
    L = float(spec.tail_length)
    rule, n_left = _split_rule(x, L, n)
    if m > len(rule):
        raise ValueError("requested rank exceeds the discretization size")
    gammas, phis = nystrom(rule, kernel_matrix(spec, rule.nodes)).eigenpairs(m)
    tail_w = rule.weights[n_left:]
    tail_phi = phis[n_left:, :]
    gram = (tail_phi * tail_w[:, None]).T @ tail_phi
    Phi = np.outer(gammas, gammas) * gram
    return gammas, Phi, (rule, phis)


def diag_from_expansion(spec, kappa, x):
    """K(x, x) through the eigen-expansion route (series solution of the kernel),
    from the top 24 terms of :func:`hs_expansion` on 240 nodes."""
    _check_contraction(spec, kappa, x)
    gammas, Phi, (rule, phis) = hs_expansion(spec, x, 24)
    # Nystrom natural interpolation of the eigenfunctions at the point x
    keep = np.abs(gammas) > 1e-8 * np.abs(gammas[0])
    gammas = gammas[keep]
    Phi = Phi[np.ix_(keep, keep)]
    phis = phis[:, keep]
    a_row = spec.symbol(x + rule.nodes) * rule.weights
    phi_at_x = (a_row @ phis) / gammas
    chi = np.linalg.solve(np.eye(gammas.size) - kappa * kappa * Phi,
                          kappa * gammas * phi_at_x)
    return float(np.sum(chi * gammas * phi_at_x))
