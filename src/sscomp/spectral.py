"""Affinity construction and normalized spectral clustering.

The self-expression matrix C becomes graph weights A = |C| + |C^T|; the
segmentation comes from k-means on the bottom eigenvectors of the symmetric
normalized Laplacian of A.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import eigh
from scipy.spatial.distance import cdist

from .data import Labels
from .omp import CoefMatrix, save_triplets

__all__ = [
    "AffinityMatrix",
    "SpectralConfig",
    "build_affinity",
    "normalized_laplacian",
    "spectral_cluster",
]


@dataclass(frozen=True)
class AffinityMatrix:
    """Symmetric nonnegative graph weights with a zero diagonal."""

    values: sparse.csr_array

    def __post_init__(self):
        m = sparse.csr_array(self.values, dtype=np.float64)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"affinity must be square, got {m.shape}")
        m.sum_duplicates()
        m.eliminate_zeros()
        if not np.isfinite(m.data).all():
            raise ValueError("affinity contains non-finite values")
        if m.data.size and m.data.min() < 0:
            raise ValueError("affinity weights must be nonnegative")
        if m.diagonal().any():
            raise ValueError("affinity diagonal must be zero")
        if (m != m.T).nnz:
            raise ValueError("affinity must be exactly symmetric")
        for buf in (m.data, m.indices, m.indptr):
            buf.flags.writeable = False
        object.__setattr__(self, "values", m)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def nnz(self) -> int:
        return self.values.nnz

    def save_csv(self, path) -> None:
        """Triplet dump (row, col, value), one line per stored nonzero."""
        coo = self.values.tocoo()
        save_triplets(path, coo.row, coo.col, coo.data)


@dataclass(frozen=True)
class SpectralConfig:
    n_clusters: int
    kmeans_restarts: int = 20
    kmeans_max_iters: int = 300
    rng_seed: int = 0

    def __post_init__(self):
        if self.n_clusters < 2:
            raise ValueError("n_clusters must be at least 2")
        if self.kmeans_restarts < 1 or self.kmeans_max_iters < 1:
            raise ValueError("kmeans_restarts and kmeans_max_iters must be positive")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")


def build_affinity(c: CoefMatrix) -> AffinityMatrix:
    """A = |C| + |C^T|. Symmetric bit-exactly; an entry survives iff either
    of the two coefficients is nonzero (no cancellation is possible between
    absolute values)."""
    magnitude = abs(c.matrix)
    return AffinityMatrix(sparse.csr_array(magnitude + magnitude.T))


def normalized_laplacian(a: AffinityMatrix) -> np.ndarray:
    """L = I - D^{-1/2} A D^{-1/2} as a dense symmetric matrix.

    Zero-degree vertices keep L_ii = 1 with zero off-diagonals, so L is
    defined for every graph; callers that need "disconnected iff eigenvalue
    0" semantics must treat isolated vertices themselves.
    """
    w = a.values.toarray()
    degrees = w.sum(axis=1)
    scale = np.zeros_like(degrees)
    positive = degrees > 0
    scale[positive] = 1.0 / np.sqrt(degrees[positive])
    lap = np.eye(a.n) - scale[:, None] * w * scale[None, :]
    return (lap + lap.T) / 2.0


def _kmeans_plus_plus(points: np.ndarray, k: int, rng) -> np.ndarray:
    """Seed centers by D^2 sampling: each new center is drawn with
    probability proportional to the squared distance to the nearest one
    chosen so far."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[int(rng.integers(n))]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = float(d2.sum())
        if total > 0.0:
            pick = int(rng.choice(n, p=d2 / total))
        else:
            pick = int(rng.integers(n))
        centers[c] = points[pick]
        d2 = np.minimum(d2, ((points - centers[c]) ** 2).sum(axis=1))
    return centers


def _kmeans_single(points: np.ndarray, k: int, rng, max_iters: int):
    """One seeded k-means run. Returns (labels, inertia)."""
    n = points.shape[0]
    centers = _kmeans_plus_plus(points, k, rng)
    labels = np.full(n, -1, dtype=np.int64)
    for _ in range(max_iters):
        dists = cdist(points, centers, "sqeuclidean")
        new_labels = dists.argmin(axis=1).astype(np.int64)
        assigned = dists[np.arange(n), new_labels]
        counts = np.bincount(new_labels, minlength=k)
        for j in np.flatnonzero(counts == 0):
            # revive an empty cluster with the worst-fit point that is not
            # the sole member of its own cluster
            candidates = np.where(counts[new_labels] > 1, assigned, -1.0)
            far = int(candidates.argmax())
            counts[new_labels[far]] -= 1
            new_labels[far] = j
            counts[j] = 1
            assigned[far] = 0.0
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            centers[j] = points[labels == j].mean(axis=0)
    dists = cdist(points, centers, "sqeuclidean")
    inertia = float(dists[np.arange(n), labels].sum())
    return labels, inertia


def _kmeans(points: np.ndarray, k: int, restarts: int, max_iters: int,
            rng_seed: int) -> np.ndarray:
    """Best-of-restarts k-means; each restart has its own derived RNG
    stream, best inertia wins, earliest restart wins ties."""
    best_labels = None
    best_inertia = np.inf
    for child in np.random.SeedSequence(rng_seed).spawn(restarts):
        labels, inertia = _kmeans_single(
            points, k, np.random.default_rng(child), max_iters
        )
        if inertia < best_inertia:
            best_inertia = inertia
            best_labels = labels
    return best_labels


def spectral_cluster(a: AffinityMatrix, cfg: SpectralConfig) -> Labels:
    """Segment the affinity graph into cfg.n_clusters groups.

    Embedding: eigenvectors of the n_clusters smallest eigenvalues of the
    normalized Laplacian, rows rescaled to unit length (all-zero rows kept
    as zero). Assignment: k-means over the embedded rows, kmeans++ seeding,
    cfg.kmeans_restarts restarts, lowest inertia kept. Deterministic under
    cfg.rng_seed.
    """
    if cfg.n_clusters > a.n:
        raise ValueError(
            f"cannot split {a.n} points into {cfg.n_clusters} clusters"
        )
    lap = normalized_laplacian(a)
    try:
        _, vectors = eigh(lap, subset_by_index=[0, cfg.n_clusters - 1])
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"Laplacian eigendecomposition failed: {exc}") from exc
    norms = np.linalg.norm(vectors, axis=1)
    embedding = np.divide(
        vectors, norms[:, None], out=np.zeros_like(vectors), where=norms[:, None] > 0
    )
    assignments = _kmeans(
        embedding, cfg.n_clusters, cfg.kmeans_restarts, cfg.kmeans_max_iters,
        cfg.rng_seed,
    )
    return Labels(assignments, cfg.n_clusters)
