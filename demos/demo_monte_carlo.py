"""Monte Carlo ensembles against the deterministic predictions
===============================================================

Seeded GUE samples from the beta = 2 Hermite tridiagonal model, which has the
GUE eigenvalue law at O(n^2) random numbers per draw and no dense eigensolve,
reproduce the semicircle law in the bulk.  Beyond the soft edge, the counts of
scaled eigenvalues of the same model land on the gap probabilities computed
from the Airy Hankel determinant.  Everything is driven by a counter-based
generator, so a (seed, sample_index) pair pins each matrix.
"""

import numpy as np

from rmedge import (discretize, gap_probs, sample_gue_eigs, soft_edge_gap_counts,
                    sym_eigen)
from rmedge.ensembles import semicircle_density
from rmedge.kernels import airy_symbol_kernel

SEED = 7

# --- bulk: a rough histogram against the semicircle ---------------------------
n, samples = 150, 200
values = np.concatenate([sample_gue_eigs(n, SEED, i).eigenvalues
                         for i in range(samples)])
bins = np.linspace(-2.0, 2.0, 21)
hist, _ = np.histogram(values, bins=bins, density=True)
print("bulk density vs semicircle:")
for lo, hi, h in zip(bins[:-1], bins[1:], hist):
    mid = 0.5 * (lo + hi)
    pred = float(semicircle_density(mid))
    print(f"  [{lo:5.2f},{hi:5.2f})  empirical {h:.3f}  predicted {pred:.3f}")

# --- soft edge: counting eigenvalues beyond the cut ---------------------------
alpha = 0.0
res = soft_edge_gap_counts(200, 400, alpha, seed=SEED)
# the Airy kernel is the square of the Hankel operator Gamma, so E(k) reads the
# squares of Gamma's eigenvalues
gamma = sym_eigen(discretize(airy_symbol_kernel(shift=alpha), (0.0, np.inf), 100))
predicted = gap_probs(gamma, 4, squared=True).probs

print(f"\ncounts of scaled eigenvalues above {alpha} (n=200, 400 samples):")
print("k   empirical   +-SE      predicted")
for k in range(5):
    print(f"{k}   {res.probs[k]:.4f}    {res.std_errors[k]:.4f}    "
          f"{predicted[k]:.6f}")
print("\n(the k=0 row estimates the Tracy-Widom value F(0; 1))")
