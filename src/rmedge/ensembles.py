"""Monte Carlo sampling of GUE and Wishart matrices with seeded reproducibility.

Every draw reads uniforms from one Philox counter-based generator keyed by
(seed, sample_index), so identical keys give bit-identical eigenvalue lists
and independent samples can be drawn in parallel.  Gaussians come from a
Box-Muller map of those uniforms.  Dense GUE draws are diagonalized by the
complex Hermitian solver.  Soft-edge gap counts use the Dumitriu-Edelman
beta = 2 Hermite tridiagonal model, whose eigenvalues have the same joint law
as the dense GUE draw: eigenvalues above the cut are counted by bisection on
the n - 1 off-diagonals, without forming an n x n matrix.
"""

import math
import numbers
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

__all__ = [
    "EnsembleSample",
    "GapCountResult",
    "gaussian_stream",
    "gue_matrix",
    "hermite_tridiagonal",
    "sample_gue_eigs",
    "sample_wishart_eigs",
    "soft_edge_gap_counts",
    "semicircle_density",
    "marchenko_pastur_density",
]


@dataclass(frozen=True)
class EnsembleSample:
    n: int
    seed: int
    sample_index: int
    eigenvalues: np.ndarray      # sorted ascending
    scaled_edge: Optional[np.ndarray]  # n^{2/3} (lambda - 2) for the soft edge


@dataclass(frozen=True)
class GapCountResult:
    alpha: float
    probs: np.ndarray       # empirical E(k), k = 0..kmax
    std_errors: np.ndarray  # binomial standard errors
    manifest: dict


def _check_key(seed, sample_index):
    for name, v in (("seed", seed), ("sample_index", sample_index)):
        if not (isinstance(v, numbers.Integral) and 0 <= v < 2 ** 64):
            raise ValueError(f"{name} must be an integer in [0, 2**64), got {v!r}")


def _philox(seed, sample_index):
    """The generator of draw (seed, sample_index); both must fit in uint64."""
    _check_key(seed, sample_index)
    key = np.array([seed, sample_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _box_muller(u, count):
    """``count`` standard normals from 2 * ceil(count / 2) uniforms on [0, 1)."""
    pairs = u.size // 2
    u1 = 1.0 - u[:pairs]  # (0, 1]: keeps the log finite
    u2 = u[pairs:]
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.empty(2 * pairs)
    z[0::2] = r * np.cos(2.0 * np.pi * u2)
    z[1::2] = r * np.sin(2.0 * np.pi * u2)
    return z[:count]


def gaussian_stream(seed, sample_index, count):
    """``count`` standard normals from Philox(key=(seed, index)) + Box-Muller."""
    u = _philox(seed, sample_index).random(2 * ((count + 1) // 2))
    return _box_muller(u, count)


def gue_matrix(n, seed, sample_index=0):
    """Real and imaginary parts (A, B) of a GUE matrix with N(0, 1/n) entries.

    Diagonal entries are real N(0, 1/n); above-diagonal entries are
    (x + i y)/sqrt(2) with x, y independent N(0, 1/n).
    """
    z = gaussian_stream(seed, sample_index, n * n) / math.sqrt(n)
    diag = z[:n]
    m = n * (n - 1) // 2
    xs = z[n:n + m]
    ys = z[n + m:]
    A = np.zeros((n, n))
    B = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    A[iu] = xs / math.sqrt(2.0)
    B[iu] = ys / math.sqrt(2.0)
    A = A + A.T + np.diag(diag)
    B = B - B.T
    return A, B


def hermite_tridiagonal(n, seed, sample_index=0):
    """Diagonal and off-diagonal of the beta = 2 Hermite tridiagonal model.

    Diagonal N(0, 2)/sqrt(2n), off-diagonals chi_{2k}/sqrt(2n) for
    k = n-1, ..., 1 (Dumitriu-Edelman): the eigenvalues have the law of
    ``sample_gue_eigs(n, ...)``.  The first 2 ceil(n/2) uniforms of
    Philox(key=(seed, index)) give the diagonal by Box-Muller; the next
    n(n-1)/2 give each chi^2_{2k} as a sum of k exact chi^2_2 = -2 log U.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    head = 2 * ((n + 1) // 2)
    u = _philox(seed, sample_index).random(head + n * (n - 1) // 2)
    scale = 1.0 / math.sqrt(2.0 * n)
    d = _box_muller(u[:head], n) * (math.sqrt(2.0) * scale)
    sizes = np.arange(n - 1, 0, -1)
    starts = np.concatenate(([0], np.cumsum(sizes[:-1])))
    chi2 = np.add.reduceat(-2.0 * np.log(1.0 - u[head:]), starts)
    return d, np.sqrt(chi2) * scale


def sample_gue_eigs(n, seed, sample_index=0):
    """Eigenvalues of one GUE draw, with the soft-edge rescaling.

    The entry normalization puts the spectrum on [-2, 2], so the soft-edge
    variables are xi_j = n^{2/3} (lambda_j - 2).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    A, B = gue_matrix(n, seed, sample_index)
    lam = np.linalg.eigvalsh(A + 1j * B)
    xi = float(n) ** (2.0 / 3.0) * (lam - 2.0)
    return EnsembleSample(n=n, seed=seed, sample_index=sample_index,
                          eigenvalues=lam, scaled_edge=xi)


def sample_wishart_eigs(n, seed, sample_index=0):
    """Eigenvalues of Y^T Y for Y with independent N(0, 1/n) entries."""
    if n < 2:
        raise ValueError("need n >= 2")
    Y = gaussian_stream(seed, sample_index, n * n).reshape(n, n) / math.sqrt(n)
    lam = np.linalg.eigvalsh(Y.T @ Y)
    return EnsembleSample(n=n, seed=seed, sample_index=sample_index,
                          eigenvalues=lam, scaled_edge=None)


def soft_edge_gap_counts(n, samples, alpha, seed, kmax=8):
    """Empirical probabilities that (alpha, inf) holds exactly k scaled points.

    Draw ``idx`` is ``hermite_tridiagonal(n, seed, idx)``; its scaled points
    above alpha are its eigenvalues above 2 + alpha n^{-2/3}, counted by
    bisection.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if samples < 1:
        raise ValueError("need at least one sample")
    if math.isnan(alpha):
        raise ValueError("alpha must not be NaN")
    if not isinstance(kmax, numbers.Integral) or kmax < 0:
        raise ValueError("kmax must be nonnegative")
    _check_key(seed, samples - 1)
    t0 = time.time()
    cut = 2.0 + alpha * float(n) ** (-2.0 / 3.0)
    counts = np.zeros(kmax + 1, dtype=np.int64)
    overflow = 0
    for idx in range(samples):
        if cut == math.inf:  # stebz rejects an empty (inf, inf] window
            k = 0
        else:
            d, e = hermite_tridiagonal(n, seed, idx)
            k = eigvalsh_tridiagonal(d, e, select="v",
                                     select_range=(cut, math.inf)).size
        if k <= kmax:
            counts[k] += 1
        else:
            overflow += 1
    probs = counts / samples
    se = np.sqrt(probs * (1.0 - probs) / samples)
    manifest = {
        "ensemble": "gue",
        "model": "hermite-tridiagonal",
        "n": n,
        "samples": samples,
        "alpha": float(alpha),
        "seed": int(seed),
        "kmax": kmax,
        "overflow_count": int(overflow),
        "wall_time_s": time.time() - t0,
    }
    return GapCountResult(alpha=float(alpha), probs=probs, std_errors=se,
                          manifest=manifest)


def semicircle_density(x):
    """Wigner semicircle density on [-2, 2]."""
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) < 2.0, np.sqrt(np.clip(4.0 - x * x, 0.0, None))
                    / (2.0 * np.pi), 0.0)


def marchenko_pastur_density(x):
    """Square-case Marchenko-Pastur density on (0, 4]."""
    x = np.asarray(x, dtype=float)
    inside = (x > 0.0) & (x < 4.0)
    safe = np.where(inside, x, 1.0)
    return np.where(inside, np.sqrt(np.clip((4.0 - safe) / safe, 0.0, None))
                    / (2.0 * np.pi), 0.0)
