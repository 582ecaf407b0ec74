"""Discretize symmetric kernels; eigenvalues, Fredholm determinants, gaps.

This module owns the Nystrom convention and the determinant: an operator is
the symmetrized matrix M_ij = sqrt(w_i) K(x_i, x_j) sqrt(w_j) (:func:`nystrom`),
whose eigenvectors map back to eigenfunctions at the nodes
(:meth:`DiscretizedOp.eigenpairs`) and whose spectrum gives det(I - z K) in
the log domain (:func:`log_det`), with its rounding bound (:class:`LogDet`).
:func:`refined_log_det` picks the node count from two rungs of a geometric
ladder.  Semi-infinite intervals are truncated using the kernel's registered
tail length, with a built-in check that the dropped tail is negligible for
the trace.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NearSingularError, ResolutionError, TruncationError
from .kernels import kernel_matrix
from .specfun import QuadRule, gauss_legendre

__all__ = [
    "DiscretizedOp",
    "Spectrum",
    "GapDistribution",
    "LogDet",
    "nystrom",
    "discretize",
    "sym_eigen",
    "log_det",
    "checked_log_det",
    "stacked_spectrum",
    "refined_log_det",
    "fredholm_det",
    "gap_probs",
]


@dataclass(frozen=True)
class DiscretizedOp:
    rule: QuadRule
    matrix: np.ndarray
    kernel_tag: str = "custom"

    def __post_init__(self):
        if self.matrix.shape[-2:] != (len(self.rule), len(self.rule)):
            raise ValueError("matrix size must match the quadrature rule")
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("matrix entries must be finite")

    def eigenpairs(self, top=None):
        """Top eigenvalues by decreasing modulus, and the eigenfunctions' values at
        the nodes (eigenvectors / sqrt(w), orthonormal in the weights) as columns."""
        vals, vecs = np.linalg.eigh(self.matrix)
        order = np.argsort(-np.abs(vals))[:top]
        return vals[order], vecs[:, order] / np.sqrt(self.rule.weights)[:, None]


@dataclass(frozen=True)
class Spectrum:
    eigenvalues: np.ndarray  # sorted descending along the last axis
    rule_size: int
    kernel_tag: str


@dataclass(frozen=True)
class GapDistribution:
    probs: np.ndarray  # E(0), ..., E(kmax)


@dataclass(frozen=True)
class LogDet:
    """log|det(I - z K)| from a computed spectrum, and how far to trust it."""
    sign: float
    log_abs: float
    closest: float  # min |1 - z lam|
    weyl: float  # n eps |z| max|lam|: a factor at or below it has no sign
    bound: float  # first-order rounding bound on log_abs

    @property
    def value(self):
        """The determinant itself, sign * exp(log_abs)."""
        return self.sign * math.exp(self.log_abs)


def _truncate(spec, lo, hi):
    if math.isinf(hi):
        if spec.tail_length is None:
            raise ValueError(
                f"kernel {spec.family!r} has no registered truncation length")
        hi = lo + spec.tail_length
        # the dropped tail must not contribute to the trace of any member
        probe = gauss_legendre(8, hi, hi + 6.0)
        tail = np.max(np.abs(spec.diagonal(probe.nodes)) @ probe.weights)
        if tail > 1e-12:
            raise TruncationError(
                f"trace tail beyond {hi:g} is ~{tail:.2e} > 1e-12 for {spec.tag}")
    return lo, hi


def nystrom(rule, K, kernel_tag="custom"):
    """The operator with kernel matrix K on a rule: sqrt(w) K sqrt(w), symmetrized."""
    sw = np.sqrt(rule.weights)
    M = sw[:, None] * K * sw
    M = M + np.swapaxes(M, -1, -2)
    M *= 0.5
    return DiscretizedOp(rule=rule, matrix=M, kernel_tag=kernel_tag)


def discretize(spec, interval, n):
    """Symmetrized Nystrom matrix of a kernel on an interval, on n nodes of the
    spec's rule (Gauss-Legendre by default)."""
    if n < 2:
        raise ValueError("need n >= 2 nodes")
    lo, hi = float(interval[0]), float(interval[1])
    dlo, dhi = spec.domain
    if lo < dlo - 1e-12 or hi > dhi + 1e-12:
        raise ValueError(f"interval {interval} outside kernel domain {spec.domain}")
    lo, hi = _truncate(spec, lo, hi)
    rule = (spec.rule or gauss_legendre)(n, lo, hi)
    return nystrom(rule, kernel_matrix(spec, rule.nodes), spec.tag)


def sym_eigen(op):
    """Eigenvalues of the discretized operator (a row per stack member), descending."""
    vals = np.linalg.eigvalsh(op.matrix)
    return Spectrum(eigenvalues=vals[..., ::-1].copy(), rule_size=len(op.rule),
                    kernel_tag=op.kernel_tag)


def log_det(eigenvalues, z):
    """(sign, log|det(I - z K)|) from the spectrum of K, as numpy.linalg.slogdet.

    Sums log|1 - z lam| on the last axis, through log1p where -z lam > -1 so that
    factors close to 1 keep their relative accuracy; a zero factor gives (0, -inf).
    """
    x = -z * np.asarray(eigenvalues, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(x > -1.0, np.log1p(x), np.log(np.abs(1.0 + x)))
    return np.prod(np.sign(1.0 + x), axis=-1), np.sum(terms, axis=-1)


def _operator_spectrum(spectrum, squared):
    """(lam, |d lam / d mu|, tag) of K, or of K^2 if ``squared``, from the computed
    eigenvalues mu of K.  A Hankel square is read as mu^2 of the Hankel operator's
    own spectrum, so its eigenvalues are >= 0 as those of a square must be."""
    mu, tag = spectrum.eigenvalues, spectrum.kernel_tag
    if squared:
        return mu * mu, 2.0 * np.abs(mu), f"({tag})^2"
    return mu, 1.0, tag


def checked_log_det(spectrum, z, squared=False):
    """:func:`log_det` of det(I - z K), or of det(I - z K^2) if ``squared``, from a
    computed spectrum of K, as a :class:`LogDet`.  Its eigenvalues mu are known to
    about n eps max|mu| (Weyl), so a factor with |1 - z lam| <= n eps |z| max|lam|
    has no sign: NearSingularError.  Above that level each factor moves log|det| by
    at most n eps max|mu| |z| |d lam / d mu| / |1 - z lam| to first order.  A
    stacked spectrum gives a list, one LogDet per member, or refuses as a whole."""
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got z = {z}")
    mu = spectrum.eigenvalues
    lam, slope, tag = _operator_spectrum(spectrum, squared)
    eps_n = lam.shape[-1] * np.finfo(float).eps
    gaps = np.abs(1.0 - z * lam)
    closest = np.min(gaps, axis=-1)
    weyl = eps_n * abs(z) * np.max(np.abs(lam), axis=-1)
    if np.any(low := closest <= weyl):
        raise NearSingularError(f"min |1 - z lam| = {np.min(closest[low]):.3g} of {tag} at "
                                f"z = {z:g} is below the eigenvalue rounding level")
    bound = eps_n * np.max(np.abs(mu), axis=-1) * np.sum(abs(z) * slope / gaps, axis=-1)
    fields = np.array([*log_det(lam, z), closest, weyl, bound]).T.tolist()
    return LogDet(*fields) if mu.ndim == 1 else [LogDet(*f) for f in fields]


def fredholm_det(op, z, squared=False):
    """det(I - z K), or det(I - z K^2) if ``squared``, from the discretized spectrum,
    through :func:`checked_log_det`."""
    return checked_log_det(sym_eigen(op), z, squared).value


_FIRST_RUNG = 32
_MAX_NODES = 400
_STACK_BYTES = 2 << 20  # matrix bytes per stacked block: 71 shifts at 48 nodes fit


def stacked_spectrum(spec, interval, n):
    """:func:`sym_eigen` at n nodes, a row per member of a stack (a single spec is a stack
    of one), in blocks of at most _STACK_BYTES of matrix; :func:`checked_log_det` reads z."""
    members = spec.members or (lambda keep: spec)
    step = max(1, _STACK_BYTES // (8 * max(n, 1) ** 2))
    rows = [sym_eigen(discretize(members(slice(i, i + step)), interval, n)).eigenvalues
            for i in range(0, spec.size or 1, step)]
    return Spectrum(eigenvalues=np.vstack(rows), rule_size=n, kernel_tag=spec.tag)


def refined_log_det(spec, interval, z, squared=False):
    """:func:`checked_log_det` at the node count its own refinement picks: (n, LogDet).

    Discretizes at rungs n and ceil(1.5 n) from n = 32, and keeps the finer rung
    once both have the same sign and their log|det| differ by at most
    max(1e-12 max(1, |L|), the sum of their rounding bounds).  Gauss-Legendre
    Nystrom error falls exponentially for analytic kernels (Bornemann 2010), so
    two rungs bound it; a rung past 400 nodes raises ResolutionError.  A stack
    climbs at once, each member leaving at its first settled pair: (nodes, [LogDet]).
    """
    members, todo = spec.members or (lambda keep: spec), np.arange(spec.size or 1)
    n, nodes, done = _FIRST_RUNG, np.zeros(todo.size, dtype=int), [None] * todo.size
    coarse = checked_log_det(stacked_spectrum(members(todo), interval, n), z, squared)
    while (fine_n := math.ceil(1.5 * n)) <= _MAX_NODES:
        fine = checked_log_det(stacked_spectrum(members(todo), interval, fine_n), z, squared)
        settled = np.array([f.sign == c.sign and abs(f.log_abs - c.log_abs) <= max(
            1e-12 * max(1.0, abs(f.log_abs)), c.bound + f.bound)
            for c, f in zip(coarse, fine)])
        for k in np.flatnonzero(settled):
            nodes[todo[k]], done[todo[k]] = fine_n, fine[k]
        todo = todo[~settled]
        if not todo.size:
            return (nodes, done) if spec.members else (fine_n, done[0])
        n, coarse = fine_n, [f for f, ok in zip(fine, settled) if not ok]
    raise ResolutionError(
        f"log det of {members(todo).tag} at z = {z:g} has not settled at {n} nodes; the "
        f"next rung, {fine_n}, passes the cap of {_MAX_NODES}")


def gap_probs(spectrum, kmax, squared=False):
    """Probabilities E(k) that the interval holds exactly k points, k <= kmax, from
    the computed spectrum of K, or of K^2 if ``squared`` (lam = mu^2).

    E(k) = prod_i (1 - lam_i) * e_k(mu) with mu_i = lam_i / (1 - lam_i), which
    is the closed form of the z-derivatives of det(I - z K) at z = 1.
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    lam, _, tag = _operator_spectrum(spectrum, squared)
    worst = lam.max(initial=-np.inf)
    if worst >= 1.0 - 1e-8:
        raise NearSingularError(
            f"eigenvalue {worst:.12g} of {tag} is >= 1 - 1e-8, where gap probabilities "
            "diverge: either the interval is under-resolved, which a larger n (--n) "
            "mends, or the kernel is not a correlation kernel on this interval (an "
            "eigenvalue above 1 at every n), which no n mends")
    d = float(np.prod(1.0 - lam))
    mu = lam / (1.0 - lam)
    e = np.zeros(kmax + 1)
    e[0] = 1.0
    top = min(kmax, len(mu))
    for m in mu:
        # the right side is evaluated before the update, as the descending
        # scalar recurrence e[k] += m * e[k - 1] reads only old values
        e[1:top + 1] += m * e[:top]
    return GapDistribution(probs=d * e)
