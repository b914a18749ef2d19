"""Evaluation measures for self-expressive clustering runs.

Six quantities: clustering accuracy after optimal label matching (ACCR),
wall-clock runtime (TIME), worst per-cluster algebraic connectivity (CONN),
percentage of subspace-preserving points (PERC), the l1 mass each point
spends outside its own cluster (SSR), and the symmetrization-efficiency
ratio nnz(A) / (2 nnz(C)) (SEA).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh
from scipy.optimize import linear_sum_assignment
from scipy import sparse

from .data import Labels
from .omp import CoefMatrix
from .spectral import AffinityMatrix, normalized_laplacian

__all__ = [
    "MetricsReport",
    "accuracy",
    "connectivity",
    "subspace_preserving_rate",
    "subspace_preserving_error",
    "sea_ratio",
    "timed",
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
    rows, cols = linear_sum_assignment(table, maximize=True)
    return 100.0 * float(table[rows, cols].sum()) / pred.n


def _fiedler_value(sub: sparse.csr_array) -> float:
    """Second-smallest normalized-Laplacian eigenvalue of one subgraph.

    Zero means disconnected. Disconnection is decided structurally (an
    isolated vertex or more than one component) so the answer is exactly
    0.0 rather than eigensolver noise; the eigenvalue is only computed for
    graphs already known to be connected.
    """
    m = sub.shape[0]
    if m < 2:
        return 0.0
    degrees = np.asarray(sub.sum(axis=1)).reshape(-1)
    if degrees.min() <= 0.0:
        return 0.0
    if sparse.csgraph.connected_components(sub, directed=False, return_labels=False) > 1:
        return 0.0
    lap = normalized_laplacian(AffinityMatrix(sub))
    value = float(eigh(lap, subset_by_index=[1, 1], eigvals_only=True)[0])
    return max(value, 0.0)


def connectivity(a: AffinityMatrix, truth: Labels) -> float:
    """Algebraic connectivity of the worst ground-truth cluster.

    Each cluster induces a subgraph of the affinity graph; its
    second-smallest normalized-Laplacian eigenvalue is 0 exactly when the
    subgraph is disconnected. The minimum over clusters is returned, so a
    single badly fragmented cluster drives the score to 0. Single-vertex
    clusters count as 0.
    """
    if truth.n != a.n:
        raise ValueError(f"labels cover {truth.n} points, affinity has {a.n}")
    worst = np.inf
    for c in range(truth.n_clusters):
        members = np.flatnonzero(truth.assignments == c)
        sub = a.values[np.ix_(members, members)]
        worst = min(worst, _fiedler_value(sparse.csr_array(sub)))
        if worst == 0.0:
            break
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


def timed(task):
    """Run a zero-argument callable, returning (result, wall seconds) on a
    monotonic clock."""
    start = time.perf_counter()
    result = task()
    return result, time.perf_counter() - start
