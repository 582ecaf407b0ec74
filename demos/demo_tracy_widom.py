"""The Tracy-Widom distribution by two independent routes
==========================================================

The soft-edge cumulative distribution F(x; t) can be computed either as the
Fredholm determinant det(I - t Gamma_(x)^2) of the squared Airy Hankel
operator, or from the Painleve II solution w with w ~ -sqrt(t) Ai at +inf
through F = exp(-int (y - x) w^2).  The two computations share no code path,
so their agreement is a strong end-to-end check.  F(x; 1) is the Tracy-Widom
law for the scaled largest GUE eigenvalue.
"""

import numpy as np

from rmedge import tw_cdf, tw_cdf_det

xs = np.round(np.arange(-5.0, 2.01, 0.5), 10)

print("x      F_painleve          F_det               |gap|")
for t in (0.5, 1.0):
    painleve_curve = tw_cdf(t, xs)
    det_curve = tw_cdf_det(t, xs)
    print(f"--- t = {t} ---")
    for x, fp, fd in zip(xs, painleve_curve.F_values, det_curve.F_values):
        print(f"{x:5.1f}  {fp:.15f}  {fd:.15f}  {abs(fp - fd):.2e}")

# the Painleve transcendent itself: Hastings-McLeod-type connection between
# Airy decay on the right and a growing profile on the left
profile = tw_cdf(1.0, np.array([-6.0, -4.0, -2.0, 0.0, 2.0, 4.0]))
print("\nw(x; 1) profile:")
for x, w in zip(profile.xs, profile.w_values):
    print(f"  w({x:4.1f}) = {w: .12f}")

print("\nmedian-ish landmarks: F(-1.77; 1) =",
      tw_cdf(1.0, np.array([-1.77])).F_values[0])
