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
from .kernels import kernel_eval, kernel_matrix
from .specfun import QuadRule, gauss_legendre

__all__ = [
    "DiscretizedOp",
    "Spectrum",
    "GapDistribution",
    "LogDet",
    "nystrom",
    "discretize",
    "operator_square",
    "sym_eigen",
    "log_det",
    "checked_log_det",
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
        if self.matrix.shape != (len(self.rule), len(self.rule)):
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
    eigenvalues: np.ndarray  # sorted descending
    rule_size: int
    kernel_tag: str


@dataclass(frozen=True)
class GapDistribution:
    probs: np.ndarray  # E(0), ..., E(kmax)
    interval: tuple


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
        # the dropped tail must not contribute to the trace
        probe = gauss_legendre(8, hi, hi + 6.0)
        tail = probe.integrate(np.abs(kernel_eval(spec, probe.nodes, probe.nodes)))
        if tail > 1e-12:
            raise TruncationError(
                f"trace tail beyond {hi:g} is ~{tail:.2e} > 1e-12 for {spec.tag}")
    return lo, hi


def nystrom(rule, K, kernel_tag="custom"):
    """The operator with kernel matrix K on a rule: sqrt(w) K sqrt(w), symmetrized."""
    sw = np.sqrt(rule.weights)
    M = sw[:, None] * K * sw[None, :]
    return DiscretizedOp(rule=rule, matrix=0.5 * (M + M.T), kernel_tag=kernel_tag)


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


def operator_square(op):
    """The discretized operator K^2 (matrix square in symmetrized coordinates)."""
    return DiscretizedOp(rule=op.rule, matrix=op.matrix @ op.matrix,
                         kernel_tag=f"({op.kernel_tag})^2")


def sym_eigen(op):
    """Eigenvalues of the discretized operator, sorted descending."""
    vals = np.linalg.eigvalsh(op.matrix)
    return Spectrum(eigenvalues=vals[::-1].copy(), rule_size=len(op.rule),
                    kernel_tag=op.kernel_tag)


def log_det(eigenvalues, z):
    """(sign, log|det(I - z K)|) from the spectrum of K, as numpy.linalg.slogdet.

    Sums log|1 - z lam|, through log1p where -z lam > -1 so that factors close
    to 1 keep their relative accuracy; a zero factor gives (0, -inf).
    """
    x = -z * np.asarray(eigenvalues, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(x > -1.0, np.log1p(x), np.log(np.abs(1.0 + x)))
    return float(np.prod(np.sign(1.0 + x))), float(np.sum(terms))


def checked_log_det(spectrum, z, squared=False):
    """:func:`log_det` of det(I - z K), or of det(I - z K^2) if ``squared``, from a
    computed spectrum of K, as a :class:`LogDet`.  Its eigenvalues mu are known to
    about n eps max|mu| (Weyl), so a factor with |1 - z lam| <= n eps |z| max|lam|
    has no sign: NearSingularError.  Above that level each factor moves log|det| by
    at most n eps max|mu| |z| |d lam / d mu| / |1 - z lam| to first order."""
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got z = {z}")
    mu, tag = spectrum.eigenvalues, spectrum.kernel_tag
    lam, slope = mu, 1.0
    if squared:
        lam, slope, tag = mu * mu, 2.0 * np.abs(mu), f"({tag})^2"
    eps_n = lam.size * np.finfo(float).eps
    closest = float(np.min(np.abs(1.0 - z * lam)))
    weyl = float(eps_n * abs(z) * np.max(np.abs(lam)))
    if closest <= weyl:
        raise NearSingularError(f"min |1 - z lam| = {closest:.3g} of {tag} at "
                                f"z = {z:g} is below the eigenvalue rounding level")
    bound = eps_n * np.max(np.abs(mu)) * np.sum(abs(z) * slope / np.abs(1.0 - z * lam))
    return LogDet(*log_det(lam, z), closest=closest, weyl=weyl, bound=float(bound))


def fredholm_det(op, z, squared=False):
    """det(I - z K), or det(I - z K^2) if ``squared``, from the discretized spectrum,
    through :func:`checked_log_det`."""
    return checked_log_det(sym_eigen(op), z, squared).value


_FIRST_RUNG = 32
_MAX_NODES = 400


def refined_log_det(spec, interval, z, squared=False):
    """:func:`checked_log_det` at the node count its own refinement picks: (n, LogDet).

    Discretizes at rungs n and ceil(1.5 n) from n = 32, and keeps the finer rung
    once both have the same sign and their log|det| differ by at most
    max(1e-12 max(1, |L|), the sum of their rounding bounds).  Gauss-Legendre
    Nystrom error falls exponentially for analytic kernels (Bornemann 2010), so
    two rungs bound it; a rung past 400 nodes raises ResolutionError.
    """
    n = _FIRST_RUNG
    coarse = checked_log_det(sym_eigen(discretize(spec, interval, n)), z, squared)
    while (fine_n := math.ceil(1.5 * n)) <= _MAX_NODES:
        fine = checked_log_det(sym_eigen(discretize(spec, interval, fine_n)), z, squared)
        step = abs(fine.log_abs - coarse.log_abs)
        if fine.sign == coarse.sign and step <= max(
                1e-12 * max(1.0, abs(fine.log_abs)), coarse.bound + fine.bound):
            return fine_n, fine
        n, coarse = fine_n, fine
    raise ResolutionError(
        f"log det of {spec.tag} at z = {z:g} has not settled at {n} nodes; the "
        f"next rung, {fine_n}, passes the cap of {_MAX_NODES}")


def gap_probs(op, kmax):
    """Probabilities E(k) that the interval holds exactly k points, k <= kmax.

    E(k) = prod_i (1 - lam_i) * e_k(mu) with mu_i = lam_i / (1 - lam_i), which
    is the closed form of the z-derivatives of det(I - z K) at z = 1.
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    lam = sym_eigen(op).eigenvalues
    worst = lam.max(initial=-np.inf)
    if worst >= 1.0 - 1e-8:
        raise NearSingularError(
            f"eigenvalue {worst:.12g} of {op.kernel_tag} is >= 1 - 1e-8, where gap "
            "probabilities diverge; an under-resolved interval needs a larger n (--n)")
    d = float(np.prod(1.0 - lam))
    mu = lam / (1.0 - lam)
    e = np.zeros(kmax + 1)
    e[0] = 1.0
    top = min(kmax, len(mu))
    for m in mu:
        # the right side is evaluated before the update, as the descending
        # scalar recurrence e[k] += m * e[k - 1] reads only old values
        e[1:top + 1] += m * e[:top]
    lo, hi = op.rule.interval
    return GapDistribution(probs=d * e, interval=(lo, hi))
