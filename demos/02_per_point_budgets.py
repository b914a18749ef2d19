"""
Data-adaptive dictionary budgets
================================

A fixed sparsity budget K treats every point the same. Points in dense
neighborhoods can afford more atoms, points in sparse ones fewer; the
budget selector reads that density off the Gram matrix and hands each
point its own budget, centered on K.
"""

import numpy as np

from sscomp import DataMatrix, SyntheticSpec, generate_synthetic, normalize_columns
from sscomp.adaptive import compute_k_array, gram_matrix, neighborhood_scores
from sscomp.omp import ssc_omp, ssc_omp_adaptive

spec = SyntheticSpec(
    n_subspaces=4, subspace_dim=4, ambient_dim=40,
    points_per_subspace=60, rng_seed=3,
)
x, truth = generate_synthetic(spec)
K = 8

# the Gram matrix of unit columns holds cosine similarities; each point is
# scored by the mean similarity to its K-1 nearest neighbors
gram = gram_matrix(x)
scores = neighborhood_scores(x, K, gram=gram)
print(f"raw neighborhood means: [{scores.min_d:.4f}, {scores.max_d:.4f}]")
print(f"rescaled to [0, {K}]:    "
      f"[{scores.normalized.min():.3f}, {scores.normalized.max():.3f}]")

budgets = compute_k_array(x, K, gram=gram)
sizes = budgets.sizes
print(f"\nbudgets: min {sizes.min()}, max {sizes.max()}, "
      f"mean {sizes.mean():.2f} (target {K})")

# crude histogram of the spread
for value in range(sizes.min(), sizes.max() + 1):
    count = int((sizes == value).sum())
    if count:
        print(f"  K={value:3d}  {'#' * (count // 2)} {count}")

# the per-point budgets feed straight into the solver; the gram computed
# for scoring is reused, and OMP reads its rows at every greedy step
adaptive = ssc_omp_adaptive(x, budgets, eps=1e-6, gram=gram)
fixed = ssc_omp(x, K, eps=1e-6)
print(f"\nnonzeros: fixed {fixed.nnz}, adaptive {adaptive.nnz}")

# degenerate input: when every point is identical the density signal is
# flat and every budget falls back to K itself
column = np.random.default_rng(0).standard_normal(20)
flat = normalize_columns(DataMatrix(np.tile(column[:, None], (1, 10))))
flat_budgets = compute_k_array(flat, 4)
print(f"identical points -> uniform budgets: {sorted(set(flat_budgets.sizes.tolist()))}")
