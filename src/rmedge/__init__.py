"""Random-matrix edge statistics from integrable kernels.

Fredholm determinants and gap probabilities for the sine, Airy, Bessel and
periodic (Mathieu) kernels; Hankel-square factorizations; the resolvent
equation for the log-determinant slope; the Tracy-Widom distribution by two
independent routes; and seeded Monte Carlo ensemble sampling to compare
against the deterministic predictions.
"""

__version__ = "0.3.3"

from .specfun import (QuadRule, airy, airy_ai, bessel_j, bessel_jv, gauss_legendre,
                      log_gamma_complex, periodic_rule)
from .kernels import (
    KernelSpec,
    airy_kernel,
    airy_symbol_kernel,
    bessel_hard_kernel,
    bessel_log_symbol_kernel,
    hankel_square_eval,
    hankel_square_grid,
    hankel_symbol_kernel,
    kernel_eval,
    qbessel_kernel,
    sine_circle_kernel,
    sine_kernel,
)
from .linop import (
    DiscretizedOp,
    GapDistribution,
    Spectrum,
    discretize,
    fredholm_det,
    gap_probs,
    sym_eigen,
)
from .twfactor import (
    FactorPair,
    OdeSystem,
    airy_system,
    build_c_matrix,
    factorize,
    sine_system,
    verify_factorization,
)
from .marchenko import hs_expansion, solve_marchenko, verify_logdet_slope
from .painleve import TWCurve, solve_pii, tw_cdf, tw_cdf_det
from .hardedge import (
    HardEdgeConfig,
    bessel_det_identity,
    g_involution_check,
    hankel_involution_check,
    hankel_transform,
    phi_eigen_correspondence,
    u_nu_eval,
)
from .hill import (
    HillModel,
    MathieuKernel,
    PeriodicSpectrum,
    discriminant,
    mathieu_eigencheck,
    mathieu_tw_kernel,
    monodromy,
    periodic_spectrum,
    product_formula_check,
)
from .ensembles import (
    EnsembleSample,
    hermite_tridiagonal,
    sample_gue_eigs,
    sample_wishart_eigs,
    soft_edge_gap_counts,
)
