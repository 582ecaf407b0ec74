"""Gap probabilities from Fredholm determinants
================================================

The number of eigenvalues that a determinantal ensemble drops into an
interval is encoded in det(I - z K) restricted to that interval: the
probability of seeing exactly k points is the k-th z-derivative at z = 1,
up to sign and factorial.  Here we discretize the bulk (sine) kernel on
(0, 1) and read off the whole counting distribution from one eigensolve.
"""

import numpy as np

from rmedge import discretize, fredholm_det, gap_probs, sine_kernel, sym_eigen

# the bulk kernel at unit density, compressed to the unit interval
spec = sine_kernel(1.0)
op = discretize(spec, (0.0, 1.0), 64)

print("det(I - K) =", fredholm_det(op, 1.0))
print("(this is the probability that the interval is empty)\n")

# the full counting distribution: E(k) = P(exactly k points in (0,1))
spectrum = sym_eigen(op)
dist = gap_probs(spectrum, 6)
for k, p in enumerate(dist.probs):
    bar = "#" * int(round(60 * p))
    print(f"E({k}) = {p:.12f}  {bar}")

print("\nsum over all k:", gap_probs(spectrum, 64).probs.sum(), "(should be 1)")

# determinants are stable under refinement: doubling the grid moves nothing
for n in (32, 64, 128):
    print(f"n = {n:3d}: det = {fredholm_det(discretize(spec, (0, 1), n), 1.0):.15f}")
