"""Tracy-Widom distribution via Painleve II, cross-checked by determinants.

w(x; t) solves w'' = 2 w^3 + x w with w ~ -sqrt(t) Ai(x) as x -> +infinity
(the sign is a convention; the distribution depends only on w^2).  The
solution is stable under backward integration, so the boundary condition is
imposed at a finite anchor on the right and integrated down.  The cumulative
distribution is

    F(x; t) = exp( - int_x^inf (y - x) w(y; t)^2 dy ),

which must agree with the determinant route det(I - t Gamma_(x)^2) over the
Airy Hankel operator.  The moment integral is taken for the whole grid in one
pass: one composite rule with a breakpoint at every grid point and reverse
cumulative panel sums, plus the Airy tail beyond the anchor computed once.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._deferred import solve_ivp
from .errors import DivergenceError
from .kernels import airy_symbol_cut, airy_symbol_kernel
from .linop import checked_log_det, refined_log_det, stacked_spectrum
from .specfun import airy, airy_ai, gauss_legendre, panel_rule

__all__ = ["TWCurve", "tw_cdf", "tw_cdf_det"]

_ANCHOR = 8.0
# below here the t = 1 backward IVP leaves Hastings-McLeod: against the refined
# determinant route |log F| is off by 9.5e-5 at x = -6, 3.1e-3 at -7, 2.15 at -9
_T1_X_MIN = -6.0


@dataclass(frozen=True)
class TWCurve:
    """F(x; t) on the grid xs.  On the Painleve route w_values is the Painleve II
    solution w(x; t) at xs and nodes is None; on the determinant route nodes is
    the n used at each shift and w_values is None."""
    t: float
    xs: np.ndarray
    F_values: np.ndarray
    w_values: Optional[np.ndarray]
    route: str
    nodes: Optional[np.ndarray] = None


def _integrate_pii(t, x_min, anchor):
    if not 0.0 < t <= 1.0:
        raise ValueError("t must lie in (0, 1]")
    if not math.isfinite(x_min):
        raise ValueError("x_min must be finite")
    if t == 1.0 and x_min < _T1_X_MIN:
        raise DivergenceError(
            f"at t = 1 the Painleve II IVP is valid for x >= {_T1_X_MIN:g} only, "
            f"got x_min = {x_min:g}", last_x=_T1_X_MIN)
    ai, aip = airy(anchor)
    y0 = [-np.sqrt(t) * ai, -np.sqrt(t) * aip]

    def rhs(x, y):
        return [y[1], 2.0 * y[0] ** 3 + x * y[0]]

    def blowup(x, y):
        return abs(y[0]) - 1e6
    blowup.terminal = True

    # 1e-13/1e-15 keeps the dense-output error two orders below the dual-route
    # tolerance; the anchor value sqrt(t) Ai(8) ~ 5e-8 stays well above atol
    sol = solve_ivp(rhs, (anchor, x_min), y0, method="DOP853",
                    rtol=1e-13, atol=1e-15, dense_output=True, events=blowup)
    if sol.t_events[0].size or not sol.success:
        last = float(sol.t[-1])
        raise DivergenceError(
            f"Painleve II solution blew up near x = {last:.6g}", last_x=last)
    return sol


def _tail_moments(t, anchor):
    """t * int_anchor^inf y^k Ai(y)^2 dy for k = 1, 0: the mass beyond the anchor."""
    rule = gauss_legendre(60, anchor, anchor + 12.0)
    ai = airy_ai(rule.nodes)
    vals = rule.weights * ai * ai
    return t * float(np.dot(vals, rule.nodes)), t * float(np.sum(vals))


def _moment_integrals(sol, xs, anchor):
    """int_x^anchor (y - x) w(y)^2 dy for every x in the increasing grid xs.

    One composite panel rule (panels at most 0.2 wide) with a breakpoint at
    every grid point; the integrals are reverse cumulative panel sums.
    """
    bounds = np.append(xs, anchor)
    pieces = np.maximum(1, np.ceil(np.diff(bounds) / 0.2).astype(int))
    edges = np.concatenate(
        [np.linspace(a, b, m + 1)[:-1] for a, b, m in zip(bounds[:-1], bounds[1:], pieces)]
        + [[anchor]])
    ys, wts = panel_rule(edges)
    w = sol.sol(ys.ravel())[0].reshape(ys.shape)
    mass = (wts * w * w).sum(axis=1)
    first = (wts * ys * w * w).sum(axis=1)
    # the first panel right of grid point i
    starts = np.concatenate([[0], np.cumsum(pieces)[:-1]])
    m0 = np.cumsum(mass[::-1])[::-1][starts]
    m1 = np.cumsum(first[::-1])[::-1][starts]
    return m1 - xs * m0


def tw_cdf(t, xs):
    """F(x; t) on the requested grid through the Painleve II representation."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or xs.size == 0 or np.any(np.diff(xs) <= 0):
        raise ValueError("xs must be a nonempty increasing grid")
    x_lo = float(xs[0])
    anchor = max(float(xs[-1]) + 2.0, _ANCHOR)
    sol = _integrate_pii(t, x_lo, anchor)
    tail1, tail0 = _tail_moments(t, anchor)
    F = np.exp(-(_moment_integrals(sol, xs, anchor) + (tail1 - xs * tail0)))
    w_req = sol.sol(xs)[0]
    return TWCurve(t=float(t), xs=xs, F_values=F, w_values=w_req, route="painleve")


def tw_cdf_det(t, xs, n=100):
    """F(x; t) = det(I - t Gamma_(x)^2) from the Airy Hankel spectrum at n nodes, or,
    with n=None, at the node count :func:`linop.refined_log_det` picks per shift."""
    if not 0.0 < t <= 1.0:
        raise ValueError("t must lie in (0, 1]")
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise ValueError(f"xs must be a 1-D grid of shifts, got shape {xs.shape}")
    cuts = airy_symbol_cut(xs)
    F, nodes = np.empty_like(xs), np.empty(xs.shape, dtype=int)
    for group in [cuts == cut for cut in dict.fromkeys(cuts.tolist())]:  # one stack per cut
        spec = airy_symbol_kernel(xs[group])
        if n is None:
            nodes[group], lds = refined_log_det(spec, (0.0, np.inf), t, squared=True)
        else:
            nodes[group], lds = n, checked_log_det(stacked_spectrum(spec, (0.0, np.inf), n),
                                                   t, squared=True)
        F[group] = [ld.value for ld in lds]
    return TWCurve(t=float(t), xs=xs, F_values=F, w_values=None, route="determinant",
                   nodes=nodes)
