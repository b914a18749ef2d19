"""Affinity construction and normalized spectral clustering.

The self-expression matrix C becomes graph weights A = |C| + |C^T|. The
segmentation is a pivoted-QR assignment of the bottom eigenvectors of the
symmetric normalized Laplacian of A: the null vectors come from the graph's
connected components, and any others from Lanczos on the Laplacian with
those null vectors deflated.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import eigh, qr, svd
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

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

# The residual check on Lanczos's output: on the normalized Laplacian
# (spectrum in [0, 2]) it keeps the embedding within RESIDUAL_TOL / eigengap
# of the exact invariant subspace.
RESIDUAL_TOL = 1e-6
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
    return _laplacian(a.values)


def _laplacian(w: sparse.csr_array) -> sparse.csr_array:
    """:func:`normalized_laplacian` of weights ``w`` that are not checked
    again: square, symmetric, nonnegative and zero on the diagonal, such as
    an affinity's values or a symmetric index slice of them."""
    n = w.shape[0]
    step = max(1, ROW_BLOCK_ENTRIES // max(n, 1))
    degrees = np.empty(n)
    for i in range(0, n, step):
        degrees[i:i + step] = w[i:i + step].toarray().sum(axis=1)
    rows = np.repeat(np.arange(n), np.diff(w.indptr))
    off = _off_diagonal(degrees, rows, w.indices, w.data)
    diag = np.arange(n)
    return sparse.csr_array(
        (np.r_[np.ones(n), off], (np.r_[diag, rows], np.r_[diag, w.indices])), shape=w.shape
    )


def _off_diagonal(degrees: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                  weights: np.ndarray) -> np.ndarray:
    """Normalized-Laplacian entries L_ij of the edges (rows[e], cols[e]) of
    weight weights[e] in a symmetric graph with these vertex degrees: the
    dense formula -s_i w_ij s_j with s = D^{-1/2}, symmetrized as
    ``(L + L.T) / 2``. A vertex of degree 0 has s = 0."""
    scale = np.zeros_like(degrees)
    positive = degrees > 0
    scale[positive] = 1.0 / np.sqrt(degrees[positive])
    # w_ij == w_ji exactly, so the mirrored entry needs no transpose
    return -((scale[rows] * weights) * scale[cols]
             + (scale[cols] * weights) * scale[rows]) / 2.0


def _max_residual(lap: sparse.csr_array, values: np.ndarray, vectors: np.ndarray) -> float:
    """Largest column norm of L V - V diag(values)."""
    return float(np.linalg.norm(lap @ vectors - vectors * values, axis=0).max())


def _embedding(a: AffinityMatrix, k: int) -> np.ndarray:
    """Orthonormal eigenvectors of the k smallest normalized-Laplacian
    eigenvalues, as the columns of an n x k matrix.

    One ``connected_components`` pass gives the null vectors: for each
    component S of two or more vertices, D^{1/2} 1_S / ||D^{1/2} 1_S|| is an
    eigenvector for eigenvalue 0 (von Luxburg 2007, Prop. 4). A vertex of
    degree 0 is a component of its own with L_ii = 1 and gives none. The
    null vectors of the (at most) k largest such components are taken, ties
    going to the component with the lower first vertex. When there are k of
    them they are the embedding, with no Laplacian formed (DEBUG path
    "null-space"); the points of any other component then have zero rows.

    Otherwise U, the c < k null vectors, spans the whole null space, and the
    other k - c eigenvectors are the top ones of v -> 2v - Lv - 2 U U^T v:
    2I - L turns the bottom of L's spectrum into the top, and the deflation
    sends U's eigenvalue 2 to 0. ``eigsh`` (implicitly restarted Lanczos,
    ARPACK) finds them from a fixed-seed start vector, so repeated calls
    give the same basis even of a multiple eigenvalue, and the result is
    kept when every column's residual ||L v - lambda v|| is at most
    RESIDUAL_TOL ("lanczos"). Dense ``eigh`` of L runs instead on fewer than
    5·k vertices (k = n_clusters; "dense-small"), and when ARPACK raises or
    the residual check fails ("dense-fallback"). Every DEBUG line names the
    graph by its component and isolated-vertex counts.
    """
    count, components = connected_components(a.values, directed=False)
    sizes = np.bincount(components)
    graph = f"components={count} isolated={int((sizes == 1).sum())}"
    kept = np.argsort(-sizes, kind="stable")[:k]
    null = (components[:, None] == kept[sizes[kept] > 1]) * np.sqrt(a.values.sum(axis=1))[:, None]
    null /= np.linalg.norm(null, axis=0)
    c = null.shape[1]
    if c == k:
        logger.debug("eigensolver null-space: n=%d k=%d %s", a.n, k, graph)
        return null
    lap = normalized_laplacian(a)
    path = "dense-small"
    if a.n >= 5 * k:
        deflated = LinearOperator(lap.shape, dtype=np.float64,
                                  matvec=lambda v: 2.0 * v - lap @ v - 2.0 * (null @ (null.T @ v)))
        start = np.random.default_rng(START_SEED).standard_normal(a.n)
        try:
            top, rest = eigsh(deflated, k - c, which="LA", v0=start)
            residual = _max_residual(lap, 2.0 - top, rest)  # U's columns are exact
        except ArpackError:
            residual = np.nan
        if residual <= RESIDUAL_TOL:
            logger.debug("eigensolver lanczos: n=%d k=%d %s max residual %.3g",
                         a.n, k, graph, residual)
            return np.column_stack([null, rest])
        path = "dense-fallback"
        logger.debug("lanczos rejected: n=%d k=%d %s max residual %.3g > %g",
                     a.n, k, graph, residual, RESIDUAL_TOL)
    try:
        values, vectors = eigh(lap.toarray(), subset_by_index=[0, k - 1])
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"Laplacian eigendecomposition failed: {exc}") from exc
    logger.debug("eigensolver %s: n=%d k=%d %s max residual %.3g",
                 path, a.n, k, graph, _max_residual(lap, values, vectors))
    return vectors


def spectral_cluster(a: AffinityMatrix, n_clusters: int) -> Labels:
    """Segment the affinity graph into ``n_clusters`` groups, an integer of
    at least 2 and at most the point count.

    Embedding: the n x k matrix V of eigenvectors of the k = n_clusters
    smallest eigenvalues of the normalized Laplacian (see _embedding, which
    logs its path). Assignment: the CPQR rule of Damle, Minden & Ying
    ("Simple, direct and efficient multi-way spectral clustering", 2019). A
    QR of V^T with column pivoting picks k representative points; the
    orthogonal polar factor Q = U W^T of their rows (U S W^T = svd of
    V[pivots]^T) turns them toward the axes, and each point takes the axis
    of its largest |V Q| entry. No seed and no restarts, O(n k^2), and up to
    ties the same labels for V and V R with R orthogonal, so Lanczos and
    dense ``eigh`` agree wherever their eigenspaces do. Every graph tried
    gave all k ids; ``Labels`` refuses a result that lacks one.

    Ids are numbered in the order of each cluster's lowest point. A graph of
    exactly k components, none an isolated vertex, is therefore labeled by
    its components, numbered as ``connected_components`` numbers them: each
    null vector is one component's rows, so every pivot lies in another
    component and Q permutes the axes. With more than k components of two
    or more vertices, the points outside the k largest have zero rows, and
    a zero row takes the first axis: all of them join that axis's cluster.
    Deterministic: no stage draws a seed of its own.
    """
    check_integer(n_clusters, "n_clusters", 2)
    if n_clusters > a.n:
        raise ValueError(f"cannot split {a.n} points into {n_clusters} clusters")
    vectors = _embedding(a, n_clusters)
    pivots = qr(vectors.T, pivoting=True, mode="r")[1][:n_clusters]
    u, _, wt = svd(vectors[pivots].T)
    axes = np.abs(vectors @ (u @ wt)).argmax(axis=1)
    _, first, ids = np.unique(axes, return_index=True, return_inverse=True)
    return Labels(np.argsort(np.argsort(first))[ids], n_clusters)
