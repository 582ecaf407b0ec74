"""Hankel-square factorization of kernels built from linear ODE systems.

Given bounded, integrable solutions of

    d/dx [A, B]^T = [[alpha(x), beta(x)], [-gamma(x), -alpha(x)]] [A, B]^T

with affine coefficients whose slope matrix C = [[c, a], [a, b]] has -C
positive semidefinite, the kernel (A(x)B(y) - A(y)B(x)) / (x - y) equals
int_0^inf (F(x+t)F(t+y) + G(x+t)G(t+y)) dt where F, G are rotations of
(A, B) scaled by the eigenvalues of the square root of -C.  Rank-one C
collapses G to zero, giving the square of a single Hankel operator.
"""

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ._deferred import solve_ivp
from .errors import HypothesisViolationError
from .kernels import kernel_eval, kernel_matrix, system_kernel
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
    ab: Callable = field(repr=False)

    def symbols(self, x):
        """(F(x), G(x)) from one evaluation of (A, B)."""
        A, B = self.ab(x)
        c, s = math.cos(self.theta), math.sin(self.theta)
        return self.lambda1 * (A * c + B * s), self.lambda2 * (-A * s + B * c)

    def F(self, x):
        return self.symbols(x)[0]

    def G(self, x):
        return self.symbols(x)[1]


def airy_system():
    """A'' = x A with the decaying solution: A = Ai, B = Ai'."""
    return scaled_airy_system(1.0, closed_form=True)


def sine_system():
    """A = sin, B = cos: satisfies the ODE shape but is not integrable."""
    return OdeSystem(alpha=(0.0, 0.0), beta=(1.0, 0.0), gamma=(1.0, 0.0), A0=0.0, B0=1.0,
                     x0=0.0, closed_form=lambda x: (np.sin(x), np.cos(x)))


def scaled_airy_system(c=4.0 ** (1.0 / 3.0), closed_form=False):
    """A'' = c^3 x A, solved by Ai(c x); C = [[-c^3, 0], [0, 0]].

    With ``closed_form=False`` the solutions are produced by the numerical
    integrator, which is the configuration the verification tests exercise.
    """
    c = float(c)
    a0, ap0 = airy(0.0)

    def cf(x):
        a, ap = airy(c * np.asarray(x, dtype=float))
        return a, c * ap

    return OdeSystem(alpha=(0.0, 0.0), beta=(1.0, 0.0), gamma=(0.0, -c ** 3),
                     A0=a0, B0=c * ap0, x0=0.0, closed_form=cf if closed_form else None)


def build_c_matrix(sys):
    """Constant matrix of difference quotients: slopes of gamma, alpha, beta."""
    c, a, b = sys.gamma[1], sys.alpha[1], sys.beta[1]
    return np.array([[c, a], [a, b]])


def _solution(sys, x_hi):
    """(A, B) on [x0, x_hi] as a callable, which refuses points outside it.

    The trace-free shape forces an exponential dichotomy, so integrating the
    decaying solution forward is unstable.  Instead one backward integration
    from beyond x_hi of u' = Mu - (u^T M u) u, rho' = u^T M u carries the unit
    direction u of (A, B) and rho = log|(A, B)|, and the result is scaled to
    the initial data; if (A0, B0) is off the decaying direction, the
    hypothesis of the factorization fails.
    """
    if sys.closed_form is not None:
        return sys.closed_form
    if not (math.isfinite(sys.x0) and math.isfinite(x_hi)):
        raise ValueError("the integration range must be finite")

    def rhs(x, y):
        al, be, ga = sys.coeff(x)
        mu = (al * y[0] + be * y[1], -ga * y[0] - al * y[1])
        q = y[0] * mu[0] + y[1] * mu[1]
        return [mu[0] - q * y[0], mu[1] - q * y[1], q]

    x_far = x_hi + 8.0  # buffer for the backward transient to die out
    sol = solve_ivp(rhs, (x_far, sys.x0), [1.0, 0.0, 0.0], method="DOP853",
                    rtol=1e-10, atol=1e-14, dense_output=True)
    if not sol.success:
        raise HypothesisViolationError(
            f"integration of the system failed: {sol.message}")
    # u is the unit decaying direction at x0; match it to the initial data
    u, rho0 = sol.y[:2, -1], sol.y[2, -1]
    n0 = float(np.hypot(sys.A0, sys.B0))
    if n0 > 0.0 and abs(sys.A0 * u[1] - sys.B0 * u[0]) / n0 > 1e-6:
        raise HypothesisViolationError(
            "initial data is not on the decaying direction; A, B would grow")
    proj = sys.A0 * u[0] + sys.B0 * u[1]

    def cf(x):
        x = np.asarray(x, dtype=float)
        if np.any(x < sys.x0 - 1e-12) or np.any(x > x_hi + 1e-12):
            raise ValueError(
                f"point outside the integrated range [{sys.x0:g}, {x_hi:g}]")
        # (A, B) decays from x0, so e^{rho - rho0} cannot overflow
        u1, u2, rho = sol.sol(x.ravel()).reshape((3,) + x.shape)
        scale = proj * np.exp(rho - rho0)
        return u1 * scale, u2 * scale

    return cf


def factorize(sys, ab=None):
    """Square root of -C, rotation angle, and the Hankel symbols F, G.

    F and G are read from ``ab``, a callable x -> (A(x), B(x)); without one,
    the closed form or else a solution on [x0, x0 + 80], solved at first use.
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
    if ab is None:
        solved = functools.cache(lambda: _solution(sys, sys.x0 + 80.0))
        ab = lambda x: solved()(x)
    return FactorPair(C=C, X=X, theta=theta, lambda1=lam1, lambda2=lam2, ab=ab)


def tw_kernel_values(sys, x, y, ab=None):
    """(A(x)B(y) - A(y)B(x)) / (x - y); ODE closed form on the diagonal."""
    ab = ab or _solution(sys, max(np.max(x), np.max(y)) + 1.0)
    return kernel_eval(system_kernel(sys, ab), x, y)


def verify_factorization(sys, interval, n):
    """Max residual of the factorization identity on an n x n grid.

    Integrates int_0^L (F(x+t)F(t+y) + G(x+t)G(t+y)) dt with L grown until
    the integrand tail falls below 1e-13, and compares against the kernel; a
    numerical solution is taken on [x0, hi + L] only.  Systems whose
    solutions fail the integrability hypothesis are rejected.
    """
    lo, hi = interval
    L = 10.0
    while True:
        ab = _solution(sys, hi + L)
        tail = float(np.sum(np.abs(ab(hi + L))))
        if tail <= 1e-13 or L >= 80.0:
            break
        L *= 1.35
    pair = factorize(sys, ab)
    if tail > 1e-10:
        raise HypothesisViolationError(
            "solutions do not decay; the factorization requires bounded, "
            "continuous and integrable A, B")

    xs = np.linspace(lo, hi, n)
    rule = gauss_legendre(240, 0.0, L)
    FX, GX = pair.symbols(xs[:, None] + rule.nodes[None, :])
    rhs = (FX * rule.weights) @ FX.T + (GX * rule.weights) @ GX.T
    lhs = kernel_matrix(system_kernel(sys, ab), xs)
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
