"""How a sparse GF(2) sketch separates near points from far points.

A single Bernoulli(1/(4*lam)) row disagrees on two points at Hamming
distance h with probability (1 - (1 - 1/(2*lam))^h) / 2. Points inside
the distance budget therefore flip a smaller fraction of rows than points
past alpha times the budget, and thresholding the measured fraction at the
midpoint between the two landmark values classifies pairs correctly with
errors that vanish exponentially in the row count.
"""

import numpy as np

from annsim import (
    Point,
    coin_for_trial,
    decision_threshold,
    derive_matrix,
    hamming_dist,
    row_collision_prob,
    sketch_apply,
)

lam, alpha, d = 4.0, 2.0, 512
scale = 2  # alpha^scale = lam
rows = 200

print(f"collision curve at rate parameter lam={lam:g}:")
for h in (0, 1, 2, 4, 6, 8, 12, 20):
    bar = "#" * int(60 * row_collision_prob(lam, h))
    print(f"  h={h:<3d} p={row_collision_prob(lam, h):.4f} {bar}")

thr = decision_threshold(lam, alpha)
print(f"\nnear landmark  f(lam)       = {row_collision_prob(lam, lam):.4f}")
print(f"far landmark   f(alpha*lam)  = {row_collision_prob(lam, alpha * lam):.4f}")
print(f"decision threshold (midpoint) = {thr:.4f}")

rng = np.random.default_rng(1)
errors = near_frac = far_frac = 0.0
pairs = 400
for t in range(pairs):
    coin = coin_for_trial(10, t, 0)
    matrix = derive_matrix(coin, "main", scale, rows, d, alpha)
    base = rng.integers(0, 2, size=d, dtype=np.uint8)

    def as_point(bits):
        return Point(d, int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little"))

    near = base.copy()
    near[rng.choice(d, size=int(lam), replace=False)] ^= 1
    far = base.copy()
    far[rng.choice(d, size=int(2 * lam + 1), replace=False)] ^= 1

    sx = sketch_apply(matrix, as_point(base))
    fn = hamming_dist(sx, sketch_apply(matrix, as_point(near))) / rows
    ff = hamming_dist(sx, sketch_apply(matrix, as_point(far))) / rows
    near_frac += fn / pairs
    far_frac += ff / pairs
    errors += (fn > thr) + (ff <= thr)

print(f"\nwith {rows} rows over {pairs} random pairs:")
print(f"  mean flip fraction at distance {lam:g}:     {near_frac:.4f}")
print(f"  mean flip fraction at distance {2*lam+1:g}:     {far_frac:.4f}")
print(f"  misclassification rate of the threshold test: {errors / (2 * pairs):.4f}")
