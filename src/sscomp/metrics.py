"""Evaluation measures for self-expressive clustering runs.

Six quantities: clustering accuracy after optimal label matching (ACCR),
wall-clock runtime (TIME), worst per-cluster algebraic connectivity (CONN),
percentage of subspace-preserving points (PERC), the l1 mass each point
spends outside its own cluster (SSR), and the symmetrization-efficiency
ratio nnz(A) / (2 nnz(C)) (SEA). TIME is measured by the trial runner,
:func:`sscomp.experiment.run_trial_detailed`; the other five are computed
here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg import eigh
from scipy.sparse.csgraph import connected_components, min_weight_full_bipartite_matching

from .data import Labels
from .omp import CoefMatrix
from .spectral import AffinityMatrix, _off_diagonal

__all__ = [
    "MetricsReport",
    "accuracy",
    "connectivity",
    "subspace_preserving_rate",
    "subspace_preserving_error",
    "sea_ratio",
]


@dataclass(frozen=True)
class MetricsReport:
    """One run's scores plus the parameters that produced them.

    ``conn`` is the raw second-smallest Laplacian eigenvalue (a complete
    m-clique scores m/(m-1), so values above 1 are legitimate); ``sea``
    is bounded in [0.5, 1] for any nonzero coefficient matrix.
    """

    accr: float
    time_seconds: float
    conn: float
    perc: float
    ssr: float
    sea: float
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.accr <= 100.0:
            raise ValueError(f"accr must be a percentage, got {self.accr}")
        if not 0.0 <= self.perc <= 100.0:
            raise ValueError(f"perc must be a percentage, got {self.perc}")
        if self.ssr < 0.0:
            raise ValueError(f"ssr must be nonnegative, got {self.ssr}")
        if self.conn < 0.0:
            raise ValueError(f"conn must be nonnegative, got {self.conn}")
        if not 0.5 <= self.sea <= 1.0:
            raise ValueError(f"sea must lie in [0.5, 1], got {self.sea}")
        if self.time_seconds < 0.0:
            raise ValueError("time_seconds must be nonnegative")

    def to_dict(self) -> dict:
        return {
            "accr": self.accr,
            "time": self.time_seconds,
            "conn": self.conn,
            "perc": self.perc,
            "ssr": self.ssr,
            "sea": self.sea,
            "params": dict(self.params),
        }


def accuracy(pred: Labels, truth: Labels) -> float:
    """Percentage of points whose predicted label matches the ground truth
    under the best injective mapping of predicted ids to true ids (optimal
    assignment over the contingency table, so any relabeling scores the
    same)."""
    if pred.n != truth.n:
        raise ValueError(f"label lengths differ: {pred.n} vs {truth.n}")
    table = np.zeros((pred.n_clusters, truth.n_clusters), dtype=np.int64)
    np.add.at(table, (pred.assignments, truth.assignments), 1)
    # +1 gives every pair an edge, so a full matching exists, and adds the
    # same min(rows, cols) to every full matching's total: the maximum is
    # the one the table itself has
    rows, cols = min_weight_full_bipartite_matching(sparse.csr_array(table + 1.0), maximize=True)
    return 100.0 * float(table[rows, cols].sum()) / pred.n


def connectivity(a: AffinityMatrix, truth: Labels) -> float:
    """Algebraic connectivity of the worst ground-truth cluster.

    Each cluster induces a subgraph of the affinity graph; its
    second-smallest normalized-Laplacian eigenvalue is 0 exactly when the
    subgraph is disconnected. The minimum over clusters is returned, so a
    single badly fragmented cluster drives the score to 0. Single-vertex
    clusters count as 0.

    One pass over the affinity keeps the edges inside clusters, and one
    ``connected_components`` call on them decides disconnection, so the
    answer is exactly 0.0 rather than eigensolver noise: a cluster is
    connected iff it has two or more points, all in one component (a member
    with no edge in its cluster is a component of its own). Only when every
    cluster is connected is an eigenvalue computed: each cluster's edges
    fill a dense m x m array, whose row sums are the degrees (the dense row
    sums :func:`~sscomp.spectral.normalized_laplacian` takes too). The array
    is then overwritten in place with the Laplacian's off-diagonal entries
    and a unit diagonal, and ``eigh`` gives its second-smallest eigenvalue.
    """
    if truth.n != a.n:
        raise ValueError(f"labels cover {truth.n} points, affinity has {a.n}")
    w, y = a.values, truth.assignments
    rows = np.repeat(np.arange(a.n), np.diff(w.indptr))
    inside = y[rows] == y[w.indices]
    rows, cols, weights = rows[inside], w.indices[inside], w.data[inside]
    indptr = np.r_[0, np.cumsum(np.bincount(rows, minlength=a.n))]
    count = connected_components(sparse.csr_array((weights, cols, indptr), shape=w.shape),
                                 directed=False, return_labels=False)
    sizes = np.bincount(y)
    # every cluster holds one component or more, so all are connected iff
    # there are as many components as clusters
    if count > truth.n_clusters or sizes.min() < 2:
        return 0.0
    local, cluster = np.empty(a.n, dtype=np.int64), y[rows]
    worst = np.inf
    for c, m in enumerate(sizes):
        local[y == c] = np.arange(m)  # each member's index within its cluster
        edges = np.flatnonzero(cluster == c)
        i, j = local[rows[edges]], local[cols[edges]]
        lap = np.zeros((m, m))
        lap[i, j] = weights[edges]
        lap[i, j] = _off_diagonal(lap.sum(axis=1), i, j, weights[edges])
        np.fill_diagonal(lap, 1.0)
        value = float(eigh(lap, subset_by_index=[1, 1], eigvals_only=True)[0])
        worst = min(worst, max(value, 0.0))
    return worst


def _wrong_cluster_entries(c: CoefMatrix, truth: Labels):
    """Column index of every stored nonzero, and whether its row lies in
    another ground-truth cluster than its column."""
    if truth.n != c.n:
        raise ValueError(f"labels cover {truth.n} points, coefficients have {c.n}")
    m = c.matrix
    column = np.repeat(np.arange(c.n), np.diff(m.indptr))
    return column, truth.assignments[m.indices] != truth.assignments[column]


def subspace_preserving_rate(c: CoefMatrix, truth: Labels) -> float:
    """Percentage of points whose representation stays inside their own
    cluster: every nonzero of column i must sit on a row with the same
    ground-truth label. All-zero columns preserve vacuously."""
    column, wrong = _wrong_cluster_entries(c, truth)
    kept = c.n - int(np.count_nonzero(np.bincount(column[wrong], minlength=c.n)))
    return 100.0 * kept / c.n


def subspace_preserving_error(c: CoefMatrix, truth: Labels) -> float:
    """Mean percentage of each column's l1 mass spent on wrong-cluster rows.

    Zero exactly when the matrix is subspace-preserving; all-zero columns
    contribute 0.
    """
    column, wrong = _wrong_cluster_entries(c, truth)
    mass = np.abs(c.matrix.data)
    l1 = np.bincount(column, weights=mass, minlength=c.n)
    off = np.bincount(column[wrong], weights=mass[wrong], minlength=c.n)
    spent = l1 > 0.0
    return 100.0 * float((off[spent] / l1[spent]).sum()) / c.n


def sea_ratio(c: CoefMatrix) -> float:
    """nnz(A) / (2 nnz(C)) for A = |C| + |C^T|, counted structurally.

    1.0 means no entry of C is mirrored (every affinity edge was paid for
    by a single coefficient); 0.5 means the sparsity pattern is already
    symmetric and symmetrization added nothing.
    """
    if c.nnz == 0:
        raise ValueError("SEA is undefined for an all-zero coefficient matrix")
    pattern = c.matrix.astype(bool)
    union = pattern + pattern.T
    return union.nnz / (2.0 * c.nnz)
