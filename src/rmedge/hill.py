"""Hill's equation y'' + (lambda + alpha cos 2x) y = 0: discriminant, periodic
spectrum, infinite-product formula, and the associated periodic kernels.

The periodic spectrum is that of -d^2/dx^2 - alpha cos 2x on the 2 pi circle,
which splits into four symmetric tridiagonal blocks in the orthonormal bases
cos 2kx, sin 2kx, cos (2k+1)x and sin (2k+1)x (Hill's method, DLMF 28.2): even
frequencies carry pi-periodic solutions, odd ones solutions of period 2 pi
only.  The discriminant, the trace of the monodromy matrix S(pi) with
S(0) = I, is +-2 on that spectrum and certifies every eigenvalue
independently.  The trigonometric series A of a 2pi-periodic eigenvector
yields the doubly periodic kernel

    W(x, y) = (A(x) A'(y) - A'(x) A(y)) / sin(x - y),

whose eigenfunctions at simple nonzero eigenvalues again solve the equation.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._deferred import linalg, solve_ivp
from .errors import ResolutionError, WrongPeriodError
from .kernels import KernelSpec
from .linop import nystrom
from .specfun import periodic_rule

__all__ = [
    "HillModel",
    "PeriodicSpectrum",
    "MathieuKernel",
    "monodromy",
    "discriminant",
    "periodic_spectrum",
    "product_formula_check",
    "mathieu_tw_kernel",
    "mathieu_eigencheck",
]

# |(|Delta| - 2)| above which a returned eigenvalue fails its certificate,
# unless the rounding floor _IVP_RTOL max|S(pi)| of the batch is higher
_CERTIFICATE_TOL = 1e-8
_IVP_RTOL = 1e-12
# the four symmetry classes as (lowest frequency, sine?), sine classes first
# so that the stable merge lists the sine mode first at exact ties
_CLASSES = ((2, True), (1, True), (0, False), (1, False))


@dataclass(frozen=True)
class HillModel:
    alpha: float
    lam: float


def monodromy(model):
    """S(pi), det S = 1 (Wronskian); an array of lambdas gives the (m, 2, 2) stack."""
    S = _monodromy_batch(model.alpha, model.lam).T.reshape(-1, 2, 2).transpose(0, 2, 1)
    return S if np.ndim(model.lam) else S[0]


def discriminant(model):
    """Delta(lambda) = trace S(pi); an array of lambdas gives an array, in one integration."""
    s = _monodromy_batch(model.alpha, model.lam)
    if np.ndim(model.lam) == 0:
        return float(s[0, 0] + s[3, 0])
    return s[0] + s[3]


def _monodromy_batch(alpha, lams, x_end=math.pi):
    """Rows s11, s21, s12, s22 of S(x_end) on an array of spectral parameters,
    through one stacked integration; a single lambda is a batch of one."""
    lams = np.asarray(lams, dtype=float).ravel()
    if not (math.isfinite(alpha) and np.all(np.isfinite(lams))):
        raise ValueError("alpha and every lambda must be finite")
    m = lams.size
    # the columns (y, y') of S stacked per lambda, S(0) = I; each column
    # moves as (y', -k y) with k = lambda + alpha cos 2x
    y0 = np.tile([1.0, 0.0, 0.0, 1.0], m)
    swap = np.arange(4 * m) ^ 1
    lam2 = np.repeat(lams, 2)

    def rhs(x, y):
        out = y[swap]
        out[1::2] *= -(lam2 + alpha * math.cos(2.0 * x))
        return out

    sol = solve_ivp(rhs, (0.0, x_end), y0, method="DOP853",
                    rtol=_IVP_RTOL, atol=1e-14)
    return sol.y[:, -1].reshape(m, 4).T


@dataclass(frozen=True)
class PeriodicSpectrum:
    lambdas: np.ndarray
    period_tags: tuple  # "pi-periodic" or "2pi-periodic" per entry
    alpha: float
    modes: tuple = field(default=(), repr=False, compare=False)  # _modes' (freqs, sine, coeffs)
    scan: tuple = field(default=(), repr=False, compare=False)  # (lambda grid, Delta)


def _modes(alpha, count):
    """The lowest ``count`` eigenvalues of the four blocks, sorted, and per value
    ``(freqs, sine, coeffs)``; for odd frequencies the eigenfunction with norm
    sqrt(pi) is sum_j coeffs[j] trig(freqs[j] x), trig = sin if sine else cos."""
    # frequencies reach about twice the block size, some 30 beyond the highest
    # one a wanted mode needs, sqrt(lambda + |alpha|) <= count / 2 + sqrt(2 |alpha|)
    size = count // 4 + int(math.sqrt(abs(alpha) / 2.0)) + 16
    lams, modes = [], []
    for first, sine in _CLASSES:
        freqs = first + 2 * np.arange(size)
        diag = freqs.astype(float) ** 2
        off = np.full(size - 1, -0.5 * alpha)
        if first == 0:
            off[0] = -alpha / math.sqrt(2.0)  # 1 / sqrt(2 pi) against cos 2x / sqrt(pi)
        elif first == 1:
            diag[0] += 0.5 * alpha if sine else -0.5 * alpha
        w, v = linalg.eigh_tridiagonal(diag, off)
        lams.append(w)
        modes.extend((freqs, sine, v[:, i]) for i in range(size))
    lams = np.concatenate(lams)
    order = np.argsort(lams, kind="stable")[:count]
    return lams[order], [modes[i] for i in order]


def periodic_spectrum(alpha, count, scan_points=0):
    """First ``count`` periodic eigenvalues with the interlacing multiplicity.

    The four Fourier blocks do not couple, so narrow instability gaps split
    exactly and each period tag is its block's.  One batched integration of the
    discriminant certifies every entry: ResolutionError is raised when
    | |Delta(lambda)| - 2 | exceeds max(1e-8, 1e-12 max|S(pi)|), as for a
    truncation that is too small.  The second term is the rounding floor of
    Delta at rtol 1e-12; it exceeds 1e-8 only at large |alpha| (alpha >~ 25),
    where the monodromy entries grow.  The same integration samples Delta on
    ``scan_points`` equispaced lambdas from -|alpha| - 1 to the top entry + 2,
    returned as ``scan = (grid, Delta)``.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if count > 40:
        raise ValueError("count > 40 is outside the supported resolution")
    if not math.isfinite(alpha):
        raise ValueError("alpha must be finite")
    lams, modes = _modes(alpha, count)
    grid = np.linspace(-abs(alpha) - 1.0, float(lams[-1]) + 2.0, scan_points)
    batch = _monodromy_batch(alpha, np.concatenate([lams, grid]))
    s, scan = batch[:, :count], batch[0, count:] + batch[3, count:]
    miss = np.abs(np.abs(s[0] + s[3]) - 2.0)
    # Delta = s11 + s22 cancels entries as large as max|S(pi)|, each carrying
    # the integration's relative error, so that is the floor of the bound; the
    # root columns alone set it, since S(pi) grows on the scan below the spectrum
    tol = max(_CERTIFICATE_TOL, _IVP_RTOL * np.abs(s).max())
    worst = int(np.argmax(miss))
    if miss[worst] > tol:
        raise ResolutionError(
            f"eigenvalue {lams[worst]:.17g} at alpha = {alpha!r} fails the discriminant "
            f"certificate: ||Delta| - 2| = {miss[worst]:.3e} > {tol:.3g}")
    tags = tuple("2pi-periodic" if freqs[0] % 2 else "pi-periodic" for freqs, _, _ in modes)
    return PeriodicSpectrum(lambdas=lams, period_tags=tags, alpha=float(alpha),
                            modes=tuple(modes), scan=(grid, scan))


def product_formula_check(alpha, lam, n_terms, spectrum=None):
    """Truncated spectral product for 4 - Delta^2 against the discriminant.

    4 - Delta^2 is entire of order 1/2 with zeros at the periodic spectrum,

        4 - Delta^2 = 4 pi^2 (lam - l_0) prod_j (l_{2j-1} - lam)(l_{2j} - lam) / j^4

    (the constant is pinned by the free case Delta = 2 cos(pi sqrt(lam))).
    Returns (lhs, rhs, gap); the truncation error decays like exp(2 lam / n),
    so the gap shrinks as terms are added.
    """
    if spectrum is None:
        ev = _modes(alpha, 2 * n_terms + 1)[0]
    else:
        ev = spectrum.lambdas
        if ev.size < 2 * n_terms + 1:
            raise ValueError("spectrum holds too few entries for n_terms")
    delta = discriminant(HillModel(alpha, lam))
    lhs = 4.0 - delta * delta
    rhs = 4.0 * math.pi ** 2 * (lam - ev[0])
    for j in range(1, n_terms + 1):
        rhs *= (ev[2 * j - 1] - lam) * (ev[2 * j] - lam) / j ** 4
    return lhs, rhs, abs(lhs - rhs)


# ---------------------------------------------------------------------------
# the periodic Tracy-Widom kernel


@dataclass(frozen=True)
class MathieuKernel:
    alpha: float
    lam: float
    spectral_index: int
    x_grid: np.ndarray
    A_values: np.ndarray
    A_prime_values: np.ndarray
    spec: KernelSpec = field(repr=False)


def mathieu_tw_kernel(alpha, spectral_index):
    """Doubly periodic kernel from the 2pi-periodic solution at a spectrum point.

    ``spectral_index`` refers to entries of :func:`periodic_spectrum`; indices
    tagged pi-periodic are refused since the construction needs an
    anti-periodic Floquet solution.  A is the series of the Fourier-block
    eigenvector, ||A||^2 = pi, with A'(0) > 0, else its largest |A| positive.
    """
    if not 0 <= spectral_index < 40:
        raise ValueError(f"spectral_index must lie in 0..39, got {spectral_index}")
    spectrum = periodic_spectrum(alpha, spectral_index + 1)
    tag = spectrum.period_tags[spectral_index]
    if tag != "2pi-periodic":
        raise WrongPeriodError(
            f"spectral index {spectral_index} is {tag}; the kernel needs a "
            "2pi-periodic eigenfunction")
    lam = float(spectrum.lambdas[spectral_index])
    freqs, sine, coeffs = spectrum.modes[spectral_index]
    xs = np.linspace(0.0, 2.0 * math.pi, 2049)

    def series(x):
        phase = np.multiply.outer(x, freqs)
        if sine:
            return np.sin(phase) @ coeffs, np.cos(phase) @ (freqs * coeffs)
        return np.cos(phase) @ coeffs, -np.sin(phase) @ (freqs * coeffs)

    a, ap = series(xs)
    anchor = ap[0] if abs(ap[0]) > 1e-8 else a[np.argmax(np.abs(a))]
    if anchor < 0:
        coeffs = -coeffs  # read by series() from here on
        a, ap = -a, -ap

    def ev(x, y):
        # A and A' on the argument vectors, broadcast only in the products
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        ax, apx = series(x)
        ay, apy = series(y)
        d = np.sin(x - y)
        near = np.abs(d) < 1e-6
        w = np.asarray((ax * apy - apx * ay) / np.where(near, 1.0, d))
        if np.any(near):
            # W is pi-periodic in each argument, and on x = y its value is
            # A'^2 - A A'' = A'^2 + (lambda + alpha cos 2x) A^2
            shift = math.pi * np.rint((x - y) / math.pi)
            t = np.broadcast_to(0.5 * (x + y + shift), near.shape)[near]
            at, apt = series(t)
            w[near] = apt * apt + (lam + alpha * np.cos(2.0 * t)) * at * at
        return w

    spec = KernelSpec("mathieu", {"alpha": float(alpha), "index": spectral_index},
                      (-math.inf, math.inf), ev)
    return MathieuKernel(alpha=float(alpha), lam=lam, spectral_index=spectral_index,
                         x_grid=xs, A_values=a, A_prime_values=ap, spec=spec)


def _fft_second_derivative(f):
    # f'' of a 2pi-periodic f sampled on n equispaced points
    n = f.size
    k = 2.0 * math.pi * np.fft.rfftfreq(n, d=2.0 * math.pi / n)
    return np.fft.irfft(-(k * k) * np.fft.rfft(f), n=n)


def mathieu_eigencheck(kernel, n=256):
    """ODE residuals of the discretized kernel's six leading simple eigenfunctions.

    The kernel is discretized with the equal-weight midpoint rule (spectrally
    accurate for smooth periodic kernels).  For each retained eigenfunction f
    the residual of f'' + (mu + alpha cos 2x) f with the least-squares mu is
    reported, normalized by (1 + |mu|) ||f||.  Eigenvalues that are not simple
    are skipped, as are near-zero ones.  n < 5 is refused: on 1, 2 or 4 nodes
    cos 2x is constant, so mu absorbs the potential and nothing is checked.
    """
    if n < 5:
        raise ValueError(f"mathieu_eigencheck needs n >= 5 nodes, got {n}")
    rule = periodic_rule(n, 0.0, 2.0 * math.pi)
    xs = rule.nodes
    K = np.asarray(kernel.spec.evaluator(xs[:, None], xs[None, :]))
    vals, vecs = nystrom(rule, K, kernel.spec.tag).eigenpairs()
    scale = np.abs(vals[0])
    report = []
    skipped = 0
    for idx, lam_op in enumerate(vals[:6]):
        if abs(lam_op) < 1e-6 * scale:
            continue
        gaps = np.abs(vals - lam_op)
        gaps[idx] = np.inf
        if gaps.min() < 1e-6 * scale:
            skipped += 1
            continue
        f = vecs[:, idx]
        f2 = _fft_second_derivative(f)
        cos2 = np.cos(2.0 * xs)
        mu = -float(np.dot(f, f2 + kernel.alpha * cos2 * f) / np.dot(f, f))
        resid = f2 + (mu + kernel.alpha * cos2) * f
        rel = float(np.linalg.norm(resid) / ((1.0 + abs(mu)) * np.linalg.norm(f)))
        report.append({"eigenvalue": float(lam_op), "mu": mu, "residual": rel})
    worst = max((r["residual"] for r in report), default=0.0)
    return {"checks": report, "skipped_degenerate": skipped, "max_residual": worst}
