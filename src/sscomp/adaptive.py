"""Per-point dictionary-size selection.

Instead of giving every point the same sparsity budget K, each point gets a
budget derived from how tightly its nearest neighbors surround it: points in
a dense same-cluster core may spend more atoms on self-expression, points in
fuzzy boundary regions get fewer. The neighborhood structure comes from the
Gram matrix of the unit-normalized data, where inner products are cosines of
inter-point angles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DataMatrix
from .util import check_integer, round_half_away_from_zero

# Gram rows partitioned per call in neighborhood_scores: its temporary is
# PARTITION_ROWS x N floats (1 MB at N=2000) rather than a copy of the
# whole Gram; 64 was the fastest of 64-512 at N=10000, and no slower at
# N=1000 and 2000
PARTITION_ROWS = 64
# largest |norm - 1| a column may show and still count as unit
UNIT_NORM_TOL = 1e-9

__all__ = [
    "NeighborhoodScore",
    "KArray",
    "Gram",
    "gram_matrix",
    "neighborhood_scores",
    "compute_k_array",
]


@dataclass(frozen=True)
class NeighborhoodScore:
    """Neighborhood density summary per point.

    ``raw_mean[i]`` is the mean cosine similarity between point i and its
    k-1 nearest neighbors (self excluded). ``normalized`` rescales those
    means to [0, base_k] via

        normalized = base_k * (raw_mean - min_d) / (max_d - min_d)

    so the densest point scores base_k and the most isolated scores 0.
    ``base_k`` is the k of :func:`neighborhood_scores`, an integer of at
    least 2.
    """

    raw_mean: np.ndarray
    max_d: float
    min_d: float
    normalized: np.ndarray
    base_k: int

    def __post_init__(self):
        check_integer(self.base_k, "base_k", 2)
        raw = np.array(self.raw_mean, dtype=np.float64)
        norm = np.array(self.normalized, dtype=np.float64)
        if raw.ndim != 1 or norm.shape != raw.shape:
            raise ValueError("raw_mean and normalized must be 1-d vectors of equal length")
        if self.min_d > self.max_d:
            raise ValueError("min_d must not exceed max_d")
        if raw.min() < self.min_d or raw.max() > self.max_d:
            raise ValueError("raw_mean entries must lie in [min_d, max_d]")
        if norm.min() < 0.0 or norm.max() > self.base_k:
            raise ValueError(f"normalized entries must lie in [0, {self.base_k}]")
        raw.flags.writeable = False
        norm.flags.writeable = False
        object.__setattr__(self, "raw_mean", raw)
        object.__setattr__(self, "normalized", norm)


@dataclass(frozen=True)
class KArray:
    """Per-point integer sparsity budgets with the shared base budget.

    The one owner of the budget rule: every budget is an integer in
    [1, N-2] (at least one atom, and strictly below the N-1 atoms left once
    the point itself is excluded), and ``base_k`` is an integer of at least
    1. Budgets of a non-integer dtype are rejected, not truncated.
    """

    sizes: np.ndarray
    base_k: int

    def __post_init__(self):
        sizes = np.array(self.sizes)
        if sizes.ndim != 1 or sizes.size < 3:
            raise ValueError("sizes must be a 1-d vector covering at least 3 points")
        bounds = f"[1, N-2] = [1, {sizes.size - 2}]"
        if not np.issubdtype(sizes.dtype, np.integer):
            raise ValueError(f"budgets must be integers in {bounds}, got dtype {sizes.dtype}")
        if sizes.min() < 1:
            raise ValueError(f"every budget must be at least 1, in {bounds}, got {sizes.min()}")
        if sizes.max() > sizes.size - 2:
            raise ValueError(f"every budget must be at most N-2, in {bounds}, got {sizes.max()}")
        check_integer(self.base_k, "base_k", 1)
        sizes = sizes.astype(np.int64, copy=False)
        sizes.flags.writeable = False
        object.__setattr__(self, "sizes", sizes)

    @property
    def n(self) -> int:
        return self.sizes.size

    @classmethod
    def uniform(cls, k: int, n: int) -> "KArray":
        """Budget k for each of n points; a fractional k is rejected."""
        return cls(np.full(n, k), k)


def check_unit_norms(squared_norms: np.ndarray, what: str) -> None:
    """The one owner of the unit-norm rule: every column norm, read as the
    square root of ``squared_norms`` (a Gram diagonal, or a dictionary's
    squared column norms), must lie within ``UNIT_NORM_TOL`` of 1. The
    first column that does not, nan included, is named in the error with
    its signed deviation; ``what`` names the checked matrix. O(N)."""
    dev = np.sqrt(np.maximum(squared_norms, 0.0)) - 1.0
    bad = np.flatnonzero(~(np.abs(dev) <= UNIT_NORM_TOL))
    if bad.size:
        raise ValueError(f"{what} must be unit-normalized: the norm of column {bad[0]} "
                         f"deviates from 1 by {dev[bad[0]]:+.3e}")


@dataclass(frozen=True)
class Gram:
    """X^T X of unit-norm columns, trusted: a read-only N x N float64 array
    that is finite and has a unit diagonal. Only :func:`gram_matrix` makes
    one, and the checks are its own; every consumer takes a Gram through
    :func:`checked_gram` and reads it only through :meth:`rows`."""

    values: np.ndarray

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def rows(self, j: np.ndarray, out: np.ndarray) -> None:
        """Write the rows G[j] of an index vector j into the (len(j), N)
        array ``out``."""
        # the indices are in range; "clip" skips the copy of ``out`` that
        # take buffers through in its default "raise" mode
        self.values.take(j, axis=0, out=out, mode="clip")


def gram_matrix(x: DataMatrix) -> Gram:
    """X^T X of unit-norm columns: entry (i, j) is the cosine of the angle
    between points i and j. Computed once and shared read-only, both for
    budget selection and for the greedy solver, which reads one of its rows
    per selected atom. An N x N float64 array: 8 N^2 bytes. The columns are
    checked to be unit on the diagonal of the product, after it is formed;
    the product is not scanned for finiteness."""
    g = x.values.T @ x.values
    # DataMatrix values are finite, and a column whose squared norm
    # overflows fails here; the columns that pass are unit within 1e-9, so
    # by Cauchy-Schwarz every entry has |G_ij| <= 1 + 1e-9 and none needs a
    # finiteness scan
    check_unit_norms(np.diagonal(g), "data")
    g.flags.writeable = False
    return Gram(g)


def checked_gram(x: DataMatrix, gram: Gram | None) -> Gram:
    """The Gram of ``x``, the one place that decides whether a Gram is
    trusted: :func:`gram_matrix` when ``gram`` is None, and a :class:`Gram`
    as the same object once it is N x N. Any other type is refused, never
    wrapped: a Gram comes only from :func:`gram_matrix`."""
    if gram is None:
        return gram_matrix(x)
    if not isinstance(gram, Gram):
        raise TypeError(f"gram must be a Gram made by gram_matrix, got {type(gram).__name__}")
    if gram.n != x.n:
        raise ValueError(f"gram must be {x.n} x {x.n}, got {gram.n} x {gram.n}")
    return gram


def neighborhood_scores(
    x: DataMatrix, k: int, gram: Gram | None = None
) -> NeighborhoodScore:
    """Score each point by the mean similarity to its k-1 nearest neighbors.

    Each Gram row is sorted descending; the first entry is the point's
    self-similarity (exactly 1 for unit columns) and is dropped, the next
    k-1 entries are averaged. Scores are then min-max rescaled to
    [0, k]. When every point has the same raw score the rescaling is
    undefined and all scores are pinned at the neutral midpoint k/2, which
    downstream yields uniform budgets.

    A passed ``gram`` must be a :class:`Gram` of N x N (see
    :func:`checked_gram`); without one the data must have unit columns.

    Memory: besides the Gram (8 N^2 bytes, shared when passed in), the
    scoring holds the N x k top similarities and one block of
    ``PARTITION_ROWS`` rows, gathered through :meth:`Gram.rows` and
    partitioned in place, so its own working set is
    O(N (k + PARTITION_ROWS)) rather than a second N x N copy.
    """
    check_integer(k, "k", 2)  # k-1 neighbors are averaged
    if k > x.n - 1:
        raise ValueError(f"k must be at most N-1 = {x.n - 1}, got {k}")
    gram = checked_gram(x, gram)
    # only the k largest similarities per row matter; partitioning first
    # keeps this O(N^2) instead of a full N^2 log N sort, and sorting the
    # k-value slice yields bit-identical means to sorting whole rows. Rows
    # are independent, so partitioning them a block at a time changes no bit
    top = np.empty((x.n, k))
    rows = np.empty((min(PARTITION_ROWS, x.n), x.n))
    for lo in range(0, x.n, PARTITION_ROWS):
        j = np.arange(lo, min(lo + PARTITION_ROWS, x.n))
        block = rows[:j.size]
        gram.rows(j, block)
        block.partition(x.n - k, axis=1)
        top[lo:lo + j.size] = block[:, x.n - k:]
    ranked = -np.sort(-top, axis=1)
    raw = ranked[:, 1:k].mean(axis=1)
    max_d = float(raw.max())
    min_d = float(raw.min())
    if max_d == min_d:
        normalized = np.full(x.n, k / 2.0)
    else:
        # form the ratio first: it is <= 1 exactly, so scaling by k cannot
        # overshoot the [0, k] bound the way k*(raw-min)/(max-min) can
        normalized = k * ((raw - min_d) / (max_d - min_d))
    return NeighborhoodScore(raw, max_d, min_d, normalized, k)


def compute_k_array(
    x: DataMatrix, k: int, gram: Gram | None = None
) -> KArray:
    """Turn neighborhood scores into integer budgets centered on k.

    budgets = k - round(mean(normalized)) + round(normalized)

    The constant offset keeps the mean of these unclamped budgets within 1
    of k while the per-point term spreads budgets with density: dense-core
    points land above k, boundary points below. Rounding is
    half-away-from-zero and results are clamped to [1, N-2] so every budget
    is usable by the solver. Clamping can move the mean further: 30 random
    unit points in R^5 at k = 28 = N-2 get a mean of 25.57, with 18
    budgets clamped at 28.
    """
    scores = neighborhood_scores(x, k, gram=gram)
    per_point = round_half_away_from_zero(scores.normalized)
    offset = k - round_half_away_from_zero(float(scores.normalized.mean()))
    sizes = np.clip(offset + per_point, 1, x.n - 2)
    return KArray(sizes, k)
