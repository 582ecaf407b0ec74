"""Resolvent equation for Hankel-square kernels and the log-determinant slope.

For a decaying symbol A with W(x, y) = int_0^inf A(x+t) A(t+y) dt, the
equation

    K(x, z) - kappa^2 int_x^inf K(x, y) W(y, z) dy = kappa W(x, z)

has a unique solution when kappa^2 int_0^inf u A(u)^2 du < 1, and its
diagonal gives d/dx log det(I - kappa^2 P_(x,inf) W P_(x,inf)) = kappa K(x,x).
Two routes are provided: a direct Nystrom resolvent solve, and the
Hilbert-Schmidt eigen-expansion of the Hankel operator.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractionError
from .kernels import hankel_square_grid, hankel_symbol_kernel, kernel_matrix
from .linop import checked_log_det, discretize, nystrom, sym_eigen
from .specfun import gauss_legendre

__all__ = [
    "MarchenkoSolution",
    "symbol_weighted_norm",
    "solve_marchenko",
    "resolvent_series_values",
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


def symbol_weighted_norm(spec, n=400):
    """int_0^inf u A(u)^2 du, truncated at the symbol's registered tail length."""
    rule = gauss_legendre(n, 0.0, float(spec.tail_length))
    a = spec.symbol(rule.nodes)
    return float(np.dot(rule.weights, rule.nodes * a * a))


def _check_contraction(spec, kappa):
    norm = symbol_weighted_norm(spec)
    if kappa * kappa * norm >= 1.0:
        raise ContractionError(
            f"kappa^2 * int u A^2 = {kappa * kappa * norm:.6g} >= 1; "
            "the resolvent equation is not a contraction")
    return norm


def _shifted_hankel(spec, x, n):
    """The Hankel operator with kernel A(x+s+t) on (0, inf), cut by linop's tail check."""
    shifted = hankel_symbol_kernel(lambda s: spec.symbol(x + s), spec.tail_length)
    return discretize(shifted, (0.0, np.inf), n)


def solve_marchenko(spec, kappa, x, n=160):
    """Solve the resolvent equation for K(x, .) on a grid covering (x, x+L)."""
    _check_contraction(spec, kappa)
    L = float(spec.tail_length)
    rule = gauss_legendre(n, x, x + L)
    y = rule.nodes
    W = hankel_square_grid(spec, y, y)
    wx = hankel_square_grid(spec, np.array([x]), y)[0]
    A_sys = np.eye(n) - kappa * kappa * W * rule.weights[None, :]
    k = np.linalg.solve(A_sys, kappa * wx)
    return MarchenkoSolution(kappa=float(kappa), x=float(x), z_grid=y,
                             K_values=k, K_diag=marchenko_diag(spec, kappa, x, n),
                             route="resolvent", symbol_tag=spec.tag)


def resolvent_series_values(spec, kappa, x, z, n=160):
    """K by the resolvent formula kappa W + kappa^3 W (I - kappa^2 PWP)^{-1} W."""
    _check_contraction(spec, kappa)
    L = float(spec.tail_length)
    rule = gauss_legendre(n, x, x + L)
    y = rule.nodes
    Wsym = nystrom(rule, hankel_square_grid(spec, y, y)).matrix
    sw = np.sqrt(rule.weights)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    wxz = hankel_square_grid(spec, np.array([x]), z)[0]
    wxy = hankel_square_grid(spec, np.array([x]), y)[0] * sw
    wyz = sw[:, None] * hankel_square_grid(spec, y, z)
    middle = np.linalg.solve(np.eye(n) - kappa * kappa * Wsym, wyz)
    return kappa * wxz + kappa ** 3 * (wxy @ middle)


def marchenko_diag(spec, kappa, x, n=160):
    """K(x, x) through the inner-product form with the shifted Hankel operator.

    kappa K(x,x) = kappa^2 < (I - kappa^2 G_x^2)^{-1} A(x+.), A(x+.) >, which
    is better conditioned on the diagonal than interpolating K(x, .).
    """
    _check_contraction(spec, kappa)
    op = _shifted_hankel(spec, x, n)
    a = np.sqrt(op.rule.weights) * spec.symbol(x + op.rule.nodes)
    sol = np.linalg.solve(np.eye(n) - kappa * kappa * (op.matrix @ op.matrix), a)
    return float(kappa * (a @ sol))


def log_det_tail(spec, kappa, x, n=160):
    """log det(I - kappa^2 P_(x,inf) W P_(x,inf)) via the Hankel spectrum."""
    hankel = sym_eigen(_shifted_hankel(spec, x, n))
    sign, logabs = checked_log_det(hankel, kappa * kappa, squared=True)
    if sign <= 0:
        raise ContractionError(f"det(I - kappa^2 W) <= 0 at kappa = {kappa:g}")
    return logabs


def verify_logdet_slope(spec, kappa, x, h=1e-3, n=160):
    """Centered difference of the log-determinant against kappa K(x, x)."""
    lhs = (log_det_tail(spec, kappa, x + h, n)
           - log_det_tail(spec, kappa, x - h, n)) / (2.0 * h)
    rhs = kappa * marchenko_diag(spec, kappa, x, n)
    return lhs, rhs, abs(lhs - rhs)


def _split_rule(x, L, n):
    """Composite GL rule on (0, x) u (x, x+L) so tail integrals are exact sums."""
    if x <= 0.0:
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
    at x so the tail Gram matrix is an exact node subset.
    """
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


def diag_from_expansion(spec, kappa, x, m=24, n=240):
    """K(x, x) through the eigen-expansion route (series solution of the kernel)."""
    _check_contraction(spec, kappa)
    gammas, Phi, (rule, phis) = hs_expansion(spec, x, m, n)
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
