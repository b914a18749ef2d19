"""Affinity construction and normalized spectral clustering.

The self-expression matrix C becomes graph weights A = |C| + |C^T|; the
segmentation is the graph's connected components when they number exactly
the clusters asked for, and otherwise comes from a pivoted QR of the bottom
eigenvectors of the symmetric normalized Laplacian of A.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import eigh, qr, svd
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import lobpcg

from .data import Labels
from .omp import CoefMatrix, frozen_square, save_triplets
from .util import check_integer

__all__ = [
    "AffinityMatrix",
    "build_affinity",
    "normalized_laplacian",
    "spectral_cluster",
]

logger = logging.getLogger("sscomp")

# The residual check on LOBPCG's output: on the normalized Laplacian
# (spectrum in [0, 2]) it keeps the embedding within RESIDUAL_TOL / eigengap
# of the exact invariant subspace. LOBPCG itself is asked for 100x more:
# on a multiple eigenvalue 0 its residual block loses rank and it stops
# early, short of its own tolerance.
RESIDUAL_TOL = 1e-6
LOBPCG_TOL = 1e-8
LOBPCG_MAXITER = 200
START_SEED = 0
# degrees are summed as dense row blocks of this many float64 entries (2 MB)
ROW_BLOCK_ENTRIES = 1 << 18


@dataclass(frozen=True)
class AffinityMatrix:
    """Symmetric nonnegative graph weights with a zero diagonal, held as a
    frozen CSR copy of the input (see :func:`~sscomp.omp.frozen_square`),
    so the caller's matrix is left as it was."""

    values: sparse.csr_array

    def __post_init__(self):
        m = frozen_square(self.values, sparse.csr_array, "affinity")
        if m.data.size and m.data.min() < 0:
            raise ValueError("affinity weights must be nonnegative")
        if (m != m.T).nnz:
            raise ValueError("affinity must be exactly symmetric")
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


def build_affinity(c: CoefMatrix) -> AffinityMatrix:
    """A = |C| + |C^T|. Symmetric bit-exactly; an entry survives iff either
    of the two coefficients is nonzero (no cancellation is possible between
    absolute values)."""
    magnitude = abs(c.matrix)
    return AffinityMatrix(magnitude + magnitude.T)


def normalized_laplacian(a: AffinityMatrix) -> sparse.csr_array:
    """L = I - D^{-1/2} A D^{-1/2} as a sparse, exactly symmetric matrix.

    Every entry equals the dense formula ``eye - s[:, None] * W * s[None, :]``
    with s = D^{-1/2}, symmetrized as ``(L + L.T) / 2``, bit for bit. The
    degrees are numpy's own dense row sums, taken over row blocks of
    ``ROW_BLOCK_ENTRIES`` entries (2 MB): numpy adds each contiguous row in
    the same order however many rows a block holds, so they equal
    ``W.toarray().sum(axis=1)``. That is O(N^2) adds: about 0.4 ms at
    N=640, 4 ms at N=2000 and 0.11 s at N=10000 on one core, below the
    Gram the pipeline already forms. The rest is O(nnz). Zero-degree
    vertices keep L_ii = 1 with zero off-diagonals, so L is defined for
    every graph; callers that need "disconnected iff eigenvalue 0"
    semantics must treat isolated vertices themselves.
    """
    w = a.values
    step = max(1, ROW_BLOCK_ENTRIES // max(a.n, 1))
    degrees = np.empty(a.n)
    for i in range(0, a.n, step):
        degrees[i:i + step] = w[i:i + step].toarray().sum(axis=1)
    scale = np.zeros_like(degrees)
    positive = degrees > 0
    scale[positive] = 1.0 / np.sqrt(degrees[positive])
    rows = np.repeat(np.arange(a.n), np.diff(w.indptr))
    cols = w.indices
    # w_ij == w_ji exactly, so the mirrored entry needs no transpose
    off = -((scale[rows] * w.data) * scale[cols]
            + (scale[cols] * w.data) * scale[rows]) / 2.0
    diag = np.arange(a.n)
    return sparse.csr_array(
        (np.r_[np.ones(a.n), off], (np.r_[diag, rows], np.r_[diag, cols])), shape=w.shape
    )


def _max_residual(lap: sparse.csr_array, values: np.ndarray, vectors: np.ndarray) -> float:
    """Largest column norm of L V - V diag(values)."""
    return float(np.linalg.norm(lap @ vectors - vectors * values, axis=0).max())


def _bottom_eigenvectors(lap: sparse.csr_array, k: int, graph: str) -> np.ndarray:
    """Eigenvectors of the k smallest eigenvalues of the Laplacian.

    Block LOBPCG from a fixed-seed random start block, kept when every
    column's residual ||L v - lambda v|| is at most RESIDUAL_TOL. A block
    method, because eigenvalue 0 has one eigenvector per connected
    component and is often exactly k-fold; single-vector Lanczos misses
    copies of such an eigenvalue. Dense ``eigh`` runs instead below 5k
    vertices, where LOBPCG cannot run ("dense-small"), and when LOBPCG
    raises or fails the residual check ("dense-fallback"). It runs only for
    graphs that ``spectral_cluster`` does not label by their components;
    ``graph`` (their component and isolated-vertex counts) goes into every
    DEBUG line.
    """
    n = lap.shape[0]
    path = "dense-small"
    if n >= 5 * k:
        start = np.random.default_rng(START_SEED).standard_normal((n, k))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # non-convergence is judged below
                values, vectors = lobpcg(
                    lap, start, tol=LOBPCG_TOL, maxiter=LOBPCG_MAXITER, largest=False
                )
            residual = _max_residual(lap, values, vectors)
        except (np.linalg.LinAlgError, ValueError):
            # ValueError: "eigh has failed in lobpcg postprocessing"
            residual = np.nan
        if residual <= RESIDUAL_TOL:
            logger.debug("eigensolver lobpcg: n=%d k=%d %s max residual %.3g",
                         n, k, graph, residual)
            return vectors
        path = "dense-fallback"
        logger.debug("lobpcg rejected: n=%d k=%d %s max residual %.3g > %g",
                     n, k, graph, residual, RESIDUAL_TOL)
    try:
        values, vectors = eigh(lap.toarray(), subset_by_index=[0, k - 1])
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"Laplacian eigendecomposition failed: {exc}") from exc
    logger.debug("eigensolver %s: n=%d k=%d %s max residual %.3g",
                 path, n, k, graph, _max_residual(lap, values, vectors))
    return vectors


def _eigensolver_labels(a: AffinityMatrix, n_clusters: int, graph: str) -> Labels:
    """Spectral clustering proper, for graphs their components do not label.

    Embedding: the n x k matrix V of eigenvectors of the k = n_clusters
    smallest eigenvalues of the normalized Laplacian (see
    _bottom_eigenvectors, which logs ``graph``). Assignment: the CPQR rule
    of Damle, Minden & Ying ("Simple, direct and efficient multi-way
    spectral clustering", 2019). A QR of V^T with column pivoting picks k
    representative points; the orthogonal polar factor Q = U W^T of their
    rows (U S W^T = svd of V[pivots]^T) turns them toward the axes, and each
    point takes the axis of its largest |V Q| entry. No seed and no
    restarts, O(n k^2), and up to ties the same labels for V and V R with R
    orthogonal, so LOBPCG and dense ``eigh`` agree wherever their
    eigenspaces do. Every graph tried gave all k ids; ``Labels`` refuses a
    result that lacks one.
    """
    vectors = _bottom_eigenvectors(normalized_laplacian(a), n_clusters, graph)
    pivots = qr(vectors.T, pivoting=True, mode="r")[1][:n_clusters]
    u, _, wt = svd(vectors[pivots].T)
    assignments = np.abs(vectors @ (u @ wt)).argmax(axis=1)
    return Labels(assignments, n_clusters)


def spectral_cluster(a: AffinityMatrix, n_clusters: int) -> Labels:
    """Segment the affinity graph into ``n_clusters`` groups, an integer of
    at least 2 and at most the point count.

    Components first: one ``connected_components`` pass. When the graph has
    exactly n_clusters components and no isolated vertex, the components are
    the segmentation, ids numbered by each component's lowest point index
    (DEBUG path "components"). The bottom eigenspace of the normalized
    Laplacian is then spanned by the vectors D^{1/2} 1_S of the components
    S (von Luxburg 2007, Prop. 4): in any orthonormal basis of it, the rows
    of one component are multiples of one unit vector, those of different
    components are orthogonal, and the pivoted-QR assignment could only
    return the same partition. Any other graph,
    including one with an isolated vertex (its own component, with L_ii = 1
    and no eigenvalue 0), goes to _eigensolver_labels. Deterministic: no
    stage draws a seed of its own.
    """
    check_integer(n_clusters, "n_clusters", 2)
    if n_clusters > a.n:
        raise ValueError(f"cannot split {a.n} points into {n_clusters} clusters")
    # scipy labels components in order of their lowest vertex; with a zero
    # diagonal, a component of one vertex is exactly a vertex of degree 0
    count, components = connected_components(a.values, directed=False)
    isolated = int((np.bincount(components) == 1).sum())
    graph = f"components={count} isolated={isolated}"
    if count == n_clusters and not isolated:
        logger.debug("eigensolver components: n=%d k=%d %s", a.n, n_clusters, graph)
        return Labels(components, count)
    return _eigensolver_labels(a, n_clusters, graph)
