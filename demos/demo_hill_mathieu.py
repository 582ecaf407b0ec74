"""Periodic kernels from Hill's equation
==========================================

Hill's method splits -d^2/dx^2 - alpha cos 2x into four Fourier tridiagonal
blocks whose eigenvalues are the periodic spectrum, each certified by the
discriminant; each 2pi-periodic solution A generates a doubly periodic
kernel (A(x)A'(y) - A'(x)A(y))/sin(x - y) whose eigenfunctions again solve
the equation.  With alpha = 0 this machinery reduces to the circular-ensemble
kernel n sin(n(x-y))/sin(x-y).
"""

import math

import numpy as np

from rmedge import (HillModel, discriminant, mathieu_eigencheck,
                    mathieu_tw_kernel, monodromy, periodic_spectrum,
                    product_formula_check)

# --- discriminant and periodic spectrum --------------------------------------
print("free case: Delta(lambda) = 2 cos(pi sqrt(lambda))")
for lam in (0.25, 1.0, 4.0):
    print(f"  Delta(0, {lam}) = {discriminant(HillModel(0.0, lam)): .10f}")

spectrum = periodic_spectrum(1.0, 9)
print("\nperiodic spectrum for potential cos 2x:")
for lam, tag in zip(spectrum.lambdas, spectrum.period_tags):
    print(f"  {lam:14.9f}   {tag}")

# the spectral product formula reproduces 4 - Delta^2
lhs, rhs, gap = product_formula_check(1.0, 0.3, 12)
print(f"\n4 - Delta^2 at lambda=0.3: direct {lhs:.6f}, 12-term product {rhs:.6f}")

# --- the kernel built from a Mathieu function ---------------------------------
kernel = mathieu_tw_kernel(1.0, 1)
print(f"\nkernel at the lowest 2pi-periodic point, lambda = {kernel.lam:.9f}")
report = mathieu_eigencheck(kernel, n=256)
print("leading simple eigenvalues and their best-fit spectral parameters:")
for row in report["checks"]:
    print(f"  eigenvalue {row['eigenvalue']:12.8f}  mu = {row['mu']:12.8f}  "
          f"ODE residual {row['residual']:.2e}")

# --- alpha = 0: back to the circular ensemble ---------------------------------
k0 = mathieu_tw_kernel(0.0, 5)   # lambda = 9, A = sin 3x
d = 1.234
val = float(k0.spec.evaluator(np.array([d]), np.array([0.0]))[0])
print(f"\nfree kernel at separation {d}: {val:.12f} vs "
      f"{3 * math.sin(3 * d) / math.sin(d):.12f} (closed form)")
