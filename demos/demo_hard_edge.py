"""Hard-edge operators in logarithmic variables
================================================

Near the hard edge the natural kernel is built from Bessel functions of the
first kind.  After the substitution x = e^{-2 xi} the operator becomes the
square of a Hankel operator with symbol e^{-s} J_nu(e^{-s}), so the gap
determinant has two unrelated computations: the Bessel kernel on (0, a) and
the shifted Hankel square on the half-line.  The unitary involution behind
the structure is conjugate to the Hankel transform, and its symbol on the
Fourier side is the unimodular Gamma-function ratio.
"""

import numpy as np

from rmedge import (HardEdgeConfig, bessel_det_identity, g_involution_check,
                    hankel_involution_check, phi_eigen_correspondence, u_nu_eval)

# --- the determinant identity -----------------------------------------------
print("det(I - z F_(0,a)) vs det(I - z Phi_alpha^2):")
for nu in (0.5, 2.0):
    for a in (0.25, 0.5):
        cfg = HardEdgeConfig(nu=nu, a=a)
        lhs, rhs, gap = bessel_det_identity(cfg, 1.0, n=70)
        print(f"  nu={nu:3.1f} a={a:4.2f}: {lhs:.12f} vs {rhs:.12f} (gap {gap:.1e})")

# --- the Hankel transform is an involution -----------------------------------
nu = 0.5
f = lambda y: y ** nu * np.exp(-y * y)
print("\ndouble Hankel transform recovers the input to",
      hankel_involution_check(nu, [f]))

dev = g_involution_check(nu, 0.0,
                         [lambda e: np.exp(-4.0 * np.asarray(e) ** 2)])
print("log-variable involution G(G f) = f to", dev)

# --- eigenfunction correspondence across the substitution --------------------
res = phi_eigen_correspondence(0.5, 1.0, n=60)
print("\ntop eigenvalues, (0,1) kernel route then Hankel route:")
print("  ", np.sort(res["kernel_eigs"])[::-1])
print("  ", np.sort(res["hankel_eigs"])[::-1])
print("eigenvector mapping residual:", res["vector_residual"])

# --- the unimodular symbol ----------------------------------------------------
print("\n|u_nu(x)| on the real line (should be exactly 1):")
for x in (0.0, 1.3, 2.7, 8.0):
    print(f"  |u_0.3({x})| = {abs(u_nu_eval(0.3, x)):.15f}")
