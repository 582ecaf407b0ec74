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

from ._deferred import solve_ivp
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
    "discriminant_and_derivative",
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


def _rhs_factory(alpha, lam, with_deriv):
    if not with_deriv:
        def rhs(x, y):
            q = alpha * math.cos(2.0 * x)
            # columns of S stacked: y = [s11, s21, s12, s22]
            return [y[1], -(lam + q) * y[0], y[3], -(lam + q) * y[2]]
        return rhs

    def rhs(x, y):
        q = alpha * math.cos(2.0 * x)
        k = lam + q
        # S and dS/dlambda stacked; d/dlambda of the companion matrix is
        # [[0, 0], [-1, 0]]
        return [y[1], -k * y[0], y[3], -k * y[2],
                y[5], -k * y[4] - y[0], y[7], -k * y[6] - y[2]]
    return rhs


def _propagate(alpha, lam, x_end=math.pi, with_deriv=False):
    n = 8 if with_deriv else 4
    y0 = np.zeros(n)
    y0[0] = 1.0
    y0[3] = 1.0
    sol = solve_ivp(_rhs_factory(alpha, lam, with_deriv), (0.0, x_end), y0,
                    method="DOP853", rtol=1e-12, atol=1e-14)
    return sol.y[:, -1]


def monodromy(model):
    """Fundamental matrix S(pi); det S = 1 by Wronskian conservation."""
    y = _propagate(model.alpha, model.lam)
    return np.array([[y[0], y[2]], [y[1], y[3]]])


def discriminant(model):
    """Delta(lambda) = trace S(pi)."""
    y = _propagate(model.alpha, model.lam)
    return float(y[0] + y[3])


def discriminant_and_derivative(alpha, lam):
    """(Delta, dDelta/dlambda) through the variational system."""
    y = _propagate(alpha, lam, with_deriv=True)
    return float(y[0] + y[3]), float(y[4] + y[7])


def _monodromy_batch(alpha, lams):
    """Rows s11, s21, s12, s22 of S(pi) on an array of spectral parameters,
    through one stacked integration."""
    lams = np.asarray(lams, dtype=float).ravel()
    m = lams.size
    y0 = np.zeros(4 * m)
    y0[0::4] = 1.0
    y0[3::4] = 1.0

    def rhs(x, y):
        q = alpha * math.cos(2.0 * x)
        k = lams + q
        out = np.empty_like(y)
        out[0::4] = y[1::4]
        out[1::4] = -k * y[0::4]
        out[2::4] = y[3::4]
        out[3::4] = -k * y[2::4]
        return out

    sol = solve_ivp(rhs, (0.0, math.pi), y0, method="DOP853",
                    rtol=_IVP_RTOL, atol=1e-14)
    return sol.y[:, -1].reshape(m, 4).T


def _discriminants_batch(alpha, lams):
    """Delta on a grid of spectral parameters through one stacked integration."""
    s = _monodromy_batch(alpha, lams)
    return s[0] + s[3]


@dataclass(frozen=True)
class PeriodicSpectrum:
    lambdas: np.ndarray
    period_tags: tuple  # "pi-periodic" or "2pi-periodic" per entry
    alpha: float


def _modes(alpha, count):
    """The lowest ``count`` eigenvalues of the four blocks, sorted, and per value
    ``(freqs, sine, coeffs)``; for odd frequencies the eigenfunction with norm
    sqrt(pi) is sum_j coeffs[j] trig(freqs[j] x), trig = sin if sine else cos."""
    from scipy.linalg import eigh_tridiagonal
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
        w, v = eigh_tridiagonal(diag, off)
        lams.append(w)
        modes.extend((freqs, sine, v[:, i]) for i in range(size))
    lams = np.concatenate(lams)
    order = np.argsort(lams, kind="stable")[:count]
    return lams[order], [modes[i] for i in order]


def _spectrum_entries(alpha, count):
    lams, modes = _modes(alpha, count)
    tags = tuple("2pi-periodic" if freqs[0] % 2 else "pi-periodic"
                 for freqs, _, _ in modes)
    return lams, tags


def periodic_spectrum(alpha, count):
    """First ``count`` periodic eigenvalues with the interlacing multiplicity.

    The four Fourier blocks do not couple, so narrow instability gaps split
    exactly and each period tag is its block's.  One batched integration of the
    discriminant certifies every entry: ResolutionError is raised when
    | |Delta(lambda)| - 2 | exceeds max(1e-8, 1e-12 max|S(pi)|), as for a
    truncation that is too small.  The second term is the rounding floor of
    Delta at rtol 1e-12; it exceeds 1e-8 only at large |alpha| (alpha >~ 25),
    where the monodromy entries grow.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if count > 40:
        raise ValueError("count > 40 is outside the supported resolution")
    lams, tags = _spectrum_entries(alpha, count)
    s = _monodromy_batch(alpha, lams)
    miss = np.abs(np.abs(s[0] + s[3]) - 2.0)
    # Delta = s11 + s22 cancels entries as large as max|S(pi)|, each carrying
    # the integration's relative error, so that is the floor of the bound
    tol = max(_CERTIFICATE_TOL, _IVP_RTOL * np.abs(s).max())
    worst = int(np.argmax(miss))
    if miss[worst] > tol:
        raise ResolutionError(
            f"eigenvalue {lams[worst]:.17g} at alpha = {alpha!r} fails the discriminant "
            f"certificate: ||Delta| - 2| = {miss[worst]:.3e} > {tol:.3g}")
    return PeriodicSpectrum(lambdas=lams, period_tags=tags, alpha=float(alpha))


def product_formula_check(alpha, lam, n_terms, spectrum=None):
    """Truncated spectral product for 4 - Delta^2 against the discriminant.

    4 - Delta^2 is entire of order 1/2 with zeros at the periodic spectrum,

        4 - Delta^2 = 4 pi^2 (lam - l_0) prod_j (l_{2j-1} - lam)(l_{2j} - lam) / j^4

    (the constant is pinned by the free case Delta = 2 cos(pi sqrt(lam))).
    Returns (lhs, rhs, gap); the truncation error decays like exp(2 lam / n),
    so the gap shrinks as terms are added.
    """
    if spectrum is None:
        ev = _spectrum_entries(alpha, 2 * n_terms + 1)[0]
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


def mathieu_tw_kernel(alpha, spectral_index, n_grid=2048):
    """Doubly periodic kernel from the 2pi-periodic solution at a spectrum point.

    ``spectral_index`` refers to entries of :func:`periodic_spectrum`; indices
    tagged pi-periodic are refused since the construction needs an
    anti-periodic Floquet solution.  A is the series of the Fourier-block
    eigenvector, ||A||^2 = pi, with A'(0) > 0, else its largest |A| positive.
    """
    spectrum = periodic_spectrum(alpha, spectral_index + 1)
    tag = spectrum.period_tags[spectral_index]
    if tag != "2pi-periodic":
        raise WrongPeriodError(
            f"spectral index {spectral_index} is {tag}; the kernel needs a "
            "2pi-periodic eigenfunction")
    lam = float(spectrum.lambdas[spectral_index])
    freqs, sine, coeffs = _modes(alpha, spectral_index + 1)[1][spectral_index]
    xs = np.linspace(0.0, 2.0 * math.pi, n_grid + 1)

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


def _fft_second_derivative(f, period=2.0 * math.pi):
    n = f.size
    k = 2.0 * math.pi * np.fft.rfftfreq(n, d=period / n)
    return np.fft.irfft(-(k * k) * np.fft.rfft(f), n=n)


def mathieu_eigencheck(kernel, n=256, top=6):
    """ODE residuals of the discretized kernel's leading simple eigenfunctions.

    The kernel is discretized with the equal-weight midpoint rule (spectrally
    accurate for smooth periodic kernels).  For each retained eigenfunction f
    the residual of f'' + (mu + alpha cos 2x) f with the least-squares mu is
    reported, normalized by (1 + |mu|) ||f||.  Eigenvalues that are not simple
    are skipped, as are near-zero ones.
    """
    rule = periodic_rule(n, 0.0, 2.0 * math.pi)
    xs = rule.nodes
    K = np.asarray(kernel.spec.evaluator(xs[:, None], xs[None, :]))
    vals, vecs = nystrom(rule, K, kernel.spec.tag).eigenpairs()
    scale = np.abs(vals[0])
    report = []
    skipped = 0
    for idx, lam_op in enumerate(vals[:top]):
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
