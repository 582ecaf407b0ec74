"""Hankel-square factorization of kernels built from linear ODE systems.

Given bounded, integrable solutions of

    d/dx [A, B]^T = [[alpha(x), beta(x)], [-gamma(x), -alpha(x)]] [A, B]^T

with affine coefficients whose slope matrix C = [[c, a], [a, b]] has -C
positive semidefinite, the kernel (A(x)B(y) - A(y)B(x)) / (x - y) equals
int_0^inf (F(x+t)F(t+y) + G(x+t)G(t+y)) dt where F, G are rotations of
(A, B) scaled by the eigenvalues of the square root of -C.  Rank-one C
collapses G to zero, giving the square of a single Hankel operator.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import solve_ivp

from .errors import HypothesisViolationError
from .kernels import integrable_kernel, kernel_eval
from .specfun import airy, gauss_legendre

__all__ = [
    "OdeSystem",
    "FactorPair",
    "airy_system",
    "sine_system",
    "scaled_airy_system",
    "build_c_matrix",
    "factorize",
    "verify_factorization",
    "tw_kernel_values",
    "bessel_bracket_residual",
]


@dataclass(frozen=True)
class OdeSystem:
    """Affine-coefficient first-order system for (A, B); trace-free by shape.

    Coefficients are (constant, slope) pairs: alpha(x) = alpha[0] + alpha[1]*x.
    ``closed_form``, when given, maps an array x to (A(x), B(x)) and is used
    instead of numerical integration from (x0, A0, B0).
    """

    alpha: tuple
    beta: tuple
    gamma: tuple
    A0: float
    B0: float
    x0: float
    closed_form: Optional[Callable] = field(default=None, repr=False)

    def coeff(self, x):
        x = np.asarray(x, dtype=float)
        return (self.alpha[0] + self.alpha[1] * x,
                self.beta[0] + self.beta[1] * x,
                self.gamma[0] + self.gamma[1] * x)


@dataclass(frozen=True)
class FactorPair:
    C: np.ndarray
    X: np.ndarray
    theta: float
    lambda1: float
    lambda2: float
    F: Callable = field(repr=False)
    G: Callable = field(repr=False)


def airy_system():
    """A'' = x A with the decaying solution: A = Ai, B = Ai'."""
    def cf(x):
        return airy(x)

    a0, ap0 = airy(0.0)
    return OdeSystem(alpha=(0.0, 0.0), beta=(1.0, 0.0), gamma=(0.0, -1.0),
                     A0=a0, B0=ap0, x0=0.0, closed_form=cf)


def sine_system():
    """A = sin, B = cos: satisfies the ODE shape but is not integrable."""
    def cf(x):
        x = np.asarray(x, dtype=float)
        return np.sin(x), np.cos(x)

    return OdeSystem(alpha=(0.0, 0.0), beta=(1.0, 0.0), gamma=(1.0, 0.0),
                     A0=0.0, B0=1.0, x0=0.0, closed_form=cf)


def scaled_airy_system(c=4.0 ** (1.0 / 3.0), closed_form=False):
    """A'' = c^3 x A, solved by Ai(c x); C = [[-c^3, 0], [0, 0]].

    With ``closed_form=False`` the solutions are produced by the numerical
    integrator, which is the configuration the verification tests exercise.
    """
    c = float(c)
    a0, ap0 = airy(0.0)

    cf = None
    if closed_form:
        def cf(x):
            a, ap = airy(c * np.asarray(x, dtype=float))
            return a, c * ap

    return OdeSystem(alpha=(0.0, 0.0), beta=(1.0, 0.0), gamma=(0.0, -c ** 3),
                     A0=a0, B0=c * ap0, x0=0.0, closed_form=cf)


def build_c_matrix(sys):
    """Constant matrix of difference quotients: slopes of gamma, alpha, beta."""
    c, a, b = sys.gamma[1], sys.alpha[1], sys.beta[1]
    return np.array([[c, a], [a, b]])


def _solution(sys, x_hi):
    """(A, B) on [x0, x_hi] as a callable, which refuses points outside it.

    The trace-free shape forces an exponential dichotomy, so integrating the
    decaying solution forward is unstable.  Instead the decaying direction is
    extracted by renormalized backward integration from beyond x_hi, and the
    result is scaled to the initial data; if (A0, B0) does not lie on the
    decaying direction the hypothesis of the factorization fails.
    """
    if sys.closed_form is not None:
        return sys.closed_form

    def rhs(x, y):
        al, be, ga = sys.coeff(x)
        return [al * y[0] + be * y[1], -ga * y[0] - al * y[1]]

    x_far = x_hi + 8.0  # buffer for the backward transient to die out
    bounds = np.arange(x_far, sys.x0, -2.0)
    bounds = np.append(bounds, sys.x0)
    chunks = []
    y = np.array([1.0, 0.0])
    log_scale = 0.0
    for top, bottom in zip(bounds[:-1], bounds[1:]):
        sol = solve_ivp(rhs, (top, bottom), y, method="DOP853",
                        rtol=1e-10, atol=1e-14, dense_output=True)
        if not sol.success:
            raise HypothesisViolationError(
                f"integration of the system failed: {sol.message}")
        chunks.append((bottom, top, sol.sol, log_scale))
        y = sol.y[:, -1]
        nrm = float(np.hypot(*y))
        log_scale += math.log(nrm)
        y = y / nrm

    # y is the unit decaying direction at x0; match it to the initial data
    v0 = np.array([sys.A0, sys.B0])
    n0 = float(np.hypot(*v0))
    if n0 == 0.0:
        proj, cross = 0.0, 0.0
    else:
        proj = float(v0 @ y)
        cross = abs(sys.A0 * y[1] - sys.B0 * y[0]) / n0
    if n0 > 0.0 and cross > 1e-6:
        raise HypothesisViolationError(
            "initial data is not on the decaying direction; A, B would grow")
    # global scale so that the chunk at x0 reproduces (A0, B0)
    ref_log = log_scale
    sign = 1.0 if proj >= 0 else -1.0
    amp = abs(proj)

    def cf(x):
        x = np.asarray(x, dtype=float)
        if np.any(x < sys.x0 - 1e-12) or np.any(x > x_hi + 1e-12):
            raise ValueError(
                f"point outside the integrated range [{sys.x0:g}, {x_hi:g}]")
        flat = np.atleast_1d(x)
        out = np.empty((2,) + flat.shape)
        for bottom, top, dense, ls in chunks:
            mask = (flat >= bottom - 1e-12) & (flat <= top + 1e-12)
            if np.any(mask):
                out[:, mask] = dense(flat[mask]) * (sign * amp * math.exp(ls - ref_log))
        return (out[0], out[1]) if x.shape else (float(out[0, 0]), float(out[1, 0]))

    return cf


def factorize(sys, ab=None):
    """Square root of -C, rotation angle, and the Hankel symbols F, G.

    F and G are read from ``ab``, a callable x -> (A(x), B(x)); without one,
    the closed form or else a solution on [x0, x0 + 80] is used.
    """
    C = build_c_matrix(sys)
    vals, vecs = np.linalg.eigh(-C)
    if vals.min() < -1e-12:
        raise HypothesisViolationError(
            f"-C has eigenvalue {vals.min():.3e} < 0; factorization hypothesis fails")
    vals = np.clip(vals, 0.0, None)
    # lambda1 is the larger eigenvalue; its eigenvector fixes the rotation
    lam1, lam2 = float(np.sqrt(vals[1])), float(np.sqrt(vals[0]))
    v1 = vecs[:, 1]
    if v1[0] < 0 or (v1[0] == 0 and v1[1] < 0):
        v1 = -v1
    theta = math.atan2(v1[1], v1[0])
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    X = rot @ np.diag([lam1, lam2]) @ rot.T

    holder = {"ab": ab or sys.closed_form}

    def solution(x):
        if holder["ab"] is None:
            holder["ab"] = _solution(sys, sys.x0 + 80.0)
        return holder["ab"](x)

    def F(x):
        A, B = solution(x)
        return lam1 * (A * math.cos(theta) + B * math.sin(theta))

    def G(x):
        A, B = solution(x)
        return lam2 * (-A * math.sin(theta) + B * math.cos(theta))

    return FactorPair(C=C, X=X, theta=theta, lambda1=lam1, lambda2=lam2, F=F, G=G)


def tw_kernel_values(sys, x, y, ab=None):
    """(A(x)B(y) - A(y)B(x)) / (x - y); ODE closed form on the diagonal."""
    ab = ab or _solution(sys, float(np.max([np.max(x), np.max(y)])) + 1.0)

    def diag(x, a, b):  # (A'B - B'A)(x)
        al, be, ga = sys.coeff(x)
        return ga * a * a + 2.0 * al * a * b + be * b * b

    spec = integrable_kernel("ode_system", {}, (-math.inf, math.inf), ab, lambda x: x, diag)
    return kernel_eval(spec, x, y)


def verify_factorization(sys, interval, n):
    """Max residual of the factorization identity on an n x n grid.

    Integrates int_0^L (F(x+t)F(t+y) + G(x+t)G(t+y)) dt with L grown until
    the integrand tail falls below 1e-13, and compares against the kernel; a
    numerical solution is taken on [x0, hi + L] only.  Systems whose
    solutions fail the integrability hypothesis are rejected.
    """
    lo, hi = interval
    xs = np.linspace(lo, hi, n)
    L = 10.0
    while True:
        ab = sys.closed_form or _solution(sys, hi + L)
        tail = float(np.sum(np.abs(ab(hi + L))))
        if tail <= 1e-13 or L >= 80.0:
            break
        L *= 1.35
    pair = factorize(sys, ab)
    if tail > 1e-10:
        raise HypothesisViolationError(
            "solutions do not decay; the factorization requires bounded, "
            "continuous and integrable A, B")

    rule = gauss_legendre(240, 0.0, L)
    t = rule.nodes
    FX = pair.F(xs[:, None] + t[None, :])
    GX = pair.G(xs[:, None] + t[None, :])
    rhs = (FX * rule.weights) @ FX.T + (GX * rule.weights) @ GX.T
    lhs = tw_kernel_values(sys, xs[:, None], xs[None, :], ab=ab)
    return float(np.abs(lhs - rhs).max())


def bessel_bracket_residual(nu, xi, eta):
    """Entrywise residual of the commutator identity behind the hard-edge kernel.

    With M(s) the system matrix of (A, B)(s) = (e^{-s} J_nu(e^{-s}),
    e^{-2s} J_nu'(e^{-s})) and J the symplectic form, J M(xi) + M(eta)^T J
    equals diag(e^{-2 eta} - e^{-2 xi}, 0) plus the constant skew part
    [[0, 2], [-2, 0]].
    """
    if not nu > -0.5:
        raise ValueError("order must exceed -1/2")

    def m(s):
        return np.array([[-1.0, -1.0], [math.exp(-2.0 * s) - nu * nu, -1.0]])

    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    lhs = J @ m(xi) + m(eta).T @ J
    rhs = (np.diag([math.exp(-2.0 * eta) - math.exp(-2.0 * xi), 0.0])
           + np.array([[0.0, 2.0], [-2.0, 0.0]]))
    return float(np.abs(lhs - rhs).max())
