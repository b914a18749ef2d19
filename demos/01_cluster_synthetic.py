"""
Full clustering pipeline, one stage at a time
=============================================

Build a union-of-subspaces dataset, express every point as a sparse
combination of the others, turn the coefficients into a graph, and cut it.
"""

import numpy as np

from sscomp import (
    DataMatrix,
    SyntheticSpec,
    generate_synthetic,
    normalize_columns,
)
from sscomp.omp import ssc_omp
from sscomp.spectral import build_affinity, spectral_cluster
from sscomp.metrics import (
    accuracy,
    connectivity,
    sea_ratio,
    subspace_preserving_error,
    subspace_preserving_rate,
)

# 5 three-dimensional subspaces inside R^30, 40 points on each
spec = SyntheticSpec(
    n_subspaces=5, subspace_dim=3, ambient_dim=30,
    points_per_subspace=40, rng_seed=7,
)
x, truth = generate_synthetic(spec)
print(f"data: {x.dim} x {x.n}, {truth.n_clusters} ground-truth clusters")

# points come back unit-normalized already; normalize_columns is how you'd
# prepare your own matrix
x = normalize_columns(DataMatrix(x.values))

# each column of C holds the sparse self-expression of one point; the point
# itself is excluded from its own dictionary
coefs = ssc_omp(x, k=5, eps=1e-6)
print(f"coefficients: {coefs.nnz} nonzeros "
      f"({coefs.nnz / x.n:.1f} atoms per point)")

# symmetrize magnitudes into graph weights
affinity = build_affinity(coefs)
print(f"affinity edges: {affinity.nnz} stored entries, "
      f"SEA {sea_ratio(coefs):.3f}")

predicted = spectral_cluster(affinity, n_clusters=5)

print()
print(f"accuracy            {accuracy(predicted, truth):6.2f}")
print(f"preserving points   {subspace_preserving_rate(coefs, truth):6.2f}")
print(f"leaked l1 mass      {subspace_preserving_error(coefs, truth):6.2f}")
print(f"worst connectivity  {connectivity(affinity, truth):6.4f}")

# sanity: mutually orthogonal subspaces mean OMP never crosses clusters, so
# the affinity graph is exactly block-diagonal and accuracy lands at 100
rows, cols, _ = coefs.triplets()
crossings = int((truth.assignments[rows] != truth.assignments[cols]).sum())
print(f"cross-cluster coefficients: {crossings}")
