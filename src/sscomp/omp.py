"""Greedy sparse self-expression.

Each point is approximated as a sparse combination of the other points via
orthogonal matching pursuit: repeatedly pick the atom most correlated with
the current residual, re-fit by least squares on the active set, and stop on
a sparsity budget, when the residual norm drops below a threshold, or when
the best atom already lies in the span of the active set. Stacking
the per-point coefficient vectors gives the self-expressive matrix C with a
zero diagonal.

The loop runs on the Gram matrix X^T X alone, as Batch-OMP does
(Rubinstein, Zibulevsky & Elad, 2008): it never forms the active set's
orthonormal basis q_t in X-space, only its image X^T q_t, one length-N row
per selected atom. The correlations X^T r, the squared residual norm and
the triangular factor of the active set all follow from those rows and
Gram rows at O(N t) per step (t atoms selected so far). Both methods
therefore hold an N x N float64 Gram, 8 N^2 bytes: 3.3 MB at N=640, 32 MB
at N=2000, 3.2 GB at N=20000. The rank test bounds the squared distance
of a candidate atom from the active span, because in Gram space only the
square is formed and it carries ~1e-16 absolute rounding. An atom inside
that span ends the pursuit before it is added, so every exit solves the
same nonsingular triangular system.

Points are pursued in lockstep, in blocks of :data:`BLOCK`: every live
point of a block takes its next step in the same few numpy calls on
(block, N) arrays, because at the sizes this package runs, call overhead
rather than flops sets the cost of a one-point step. A point leaves its
block when it stops, and only then are the block's arrays compacted.
:func:`ssc_omp_adaptive` forms the blocks over the points sorted by
budget, so a block's points tend to stop together; :func:`omp_solve`
runs a block of one. The batched products round differently from
one-point products, so coefficients can differ from a point-by-point
pursuit in the last bits (see :func:`_pursue`).

Non-finite input is rejected where it enters: :func:`omp_solve` checks its
target, :func:`ssc_omp_adaptive` a caller-passed Gram. Each self-expression
call logs, at DEBUG on the ``sscomp`` logger, how many points stopped for
each reason in :data:`STOPS`.
"""

from __future__ import annotations

import csv
import logging
import numbers
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dtrtrs

from .adaptive import KArray, gram_matrix
from .data import DataMatrix

__all__ = ["OmpConfig", "CoefMatrix", "omp_solve", "ssc_omp", "ssc_omp_adaptive"]

# below this, the best remaining |correlation| is numerical dust: selecting
# would add atoms with ~zero coefficients forever
ZERO_CORRELATION = 1e-14
# below this squared distance from the active span (w < 1e-6), the
# candidate atom lies in that span
RANK_TOL = 1e-12
# coefficients at or below this fraction of |target| are rounding dust
COEF_DUST = 1e-12
# why a pursuit stopped, in the order ssc_omp_adaptive reports the counts
STOPS = ("eps", "budget", "zero_correlation", "rank")
# points pursued in lockstep per block. Against 32, on benchmark-shaped
# data: 16 was 14-19% slower on the faces shape (N=640); 64 and 128 were
# 2-6% faster there but up to 14% slower on the synth shape (N=2000), whose
# (budget, BLOCK, N) row stack then falls out of cache
BLOCK = 32

logger = logging.getLogger("sscomp")


def check_eps(eps: float, name: str = "eps") -> None:
    """Reject a residual threshold that is negative, nan or infinite.

    eps = 0 is valid and runs each pursuit to its budget. The loop tracks
    the squared residual with ~1e-16 absolute rounding, so any eps below
    ~1e-8 |target| acts as 0.
    """
    if not 0.0 <= eps < np.inf:
        raise ValueError(f"{name} must be a finite number >= 0, got {eps!r}")


@dataclass(frozen=True)
class OmpConfig:
    """Stopping rules for a single solve: atom budget and residual target.

    The threshold is compared against the absolute Euclidean norm of the
    residual; targets are unit-norm throughout this package, so absolute and
    relative readings coincide. A threshold below ~1e-8 acts as 0 (see
    :func:`check_eps`).
    """

    max_atoms: int
    residual_threshold: float = 1e-6

    def __post_init__(self):
        if not isinstance(self.max_atoms, numbers.Integral) or self.max_atoms < 1:
            raise ValueError(f"max_atoms must be a positive integer, got {self.max_atoms!r}")
        check_eps(self.residual_threshold, "residual_threshold")


def save_triplets(path, rows, cols, values) -> None:
    """Write a sparse matrix as CSV: a ``row,col,value`` header, then one
    line per stored entry (17 significant digits, so values round-trip)."""
    with open(path, "w", newline="") as fh:
        np.savetxt(fh, np.column_stack([rows, cols, values]), fmt=["%d", "%d", "%.17g"],
                   delimiter=",", newline="\r\n", header="row,col,value", comments="")


def frozen_square(values, layout, name: str):
    """A private, validated copy of a square sparse matrix.

    ``values`` becomes ``layout`` (``sparse.csr_array`` or
    ``sparse.csc_array``) in float64, with duplicates summed, stored zeros
    dropped and read-only buffers. It must be square, finite and zero on the
    diagonal; ``name`` names the matrix in the error. The copy shares no
    buffer with ``values``, which the caller may reuse or change.
    """
    m = layout(values, dtype=np.float64, copy=True)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got {m.shape}")
    m.sum_duplicates()
    m.eliminate_zeros()
    if not np.isfinite(m.data).all():
        raise ValueError(f"{name} contains non-finite values")
    if m.diagonal().any():
        raise ValueError(f"{name} diagonal must be zero")
    for buf in (m.data, m.indices, m.indptr):
        buf.flags.writeable = False
    return m


@dataclass(frozen=True)
class CoefMatrix:
    """Sparse N x N self-expression matrix, column i holding the coefficients
    of point i over the other points. Diagonal is identically zero. Backed by
    compressed sparse columns: a frozen copy of the input (see
    :func:`frozen_square`), so the caller's matrix is left as it was."""

    matrix: sparse.csc_array

    def __post_init__(self):
        object.__setattr__(
            self, "matrix", frozen_square(self.matrix, sparse.csc_array, "coefficient matrix")
        )

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    @classmethod
    def from_triplets(cls, rows, cols, values, n: int) -> "CoefMatrix":
        coo = sparse.coo_array(
            (np.asarray(values, dtype=np.float64),
             (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64))),
            shape=(n, n),
        )
        return cls(coo.tocsc())

    def triplets(self):
        """(rows, cols, values) of the stored nonzeros."""
        coo = self.matrix.tocoo()
        return coo.row.astype(np.int64), coo.col.astype(np.int64), coo.data.copy()

    def column(self, i: int):
        """(support indices, coefficient values) of column i."""
        m = self.matrix
        lo, hi = m.indptr[i], m.indptr[i + 1]
        return m.indices[lo:hi].astype(np.int64), m.data[lo:hi].copy()

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def save_csv(self, path) -> None:
        """Dump as triplet CSV with a header: row, col, value."""
        save_triplets(path, *self.triplets())

    @classmethod
    def load_csv(cls, path, n: int) -> "CoefMatrix":
        """Read a triplet CSV as :meth:`save_csv` writes it; the first line
        must be the ``row,col,value`` header."""
        rows, cols, values = [], [], []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != ["row", "col", "value"]:
                raise ValueError(f"{path}: expected a row,col,value header")
            for line, row in enumerate(reader, start=2):
                if len(row) != 3:
                    raise ValueError(f"{path}: line {line}: expected row,col,value")
                rows.append(int(row[0]))
                cols.append(int(row[1]))
                values.append(float(row[2]))
        return cls.from_triplets(rows, cols, values, n)


def _pursue(rows, corr: np.ndarray, res2: np.ndarray, caps: np.ndarray, eps: float,
            exclude: np.ndarray | None = None):
    """OMP for a block of b targets in lockstep, run on Gram rows only.

    ``corr`` is the (b, N) array of first correlations X^T y_p, which the
    loop updates in place; ``res2`` holds the squared target norms |y_p|^2
    and ``caps`` the per-target atom budgets, at most the N atoms (N - 1
    with ``exclude``). ``rows(j, out)`` writes the Gram rows G[j] of an
    index vector j into the (len(j), N) array ``out``. ``exclude``, when
    given, masks one atom per target out of selection (the point itself in
    self-expression).

    The active set's orthonormal basis q_0..q_{t-1} is never formed in
    X-space; each target holds its image ``xq[s] = X^T q_s`` instead, which
    is all the loop reads. For a candidate atom j, ``xq[:t, j]`` is its
    projection onto the basis and ``G[j, j] - |xq[:t, j]|^2`` its squared
    distance w^2 from the active span, so a step costs O(N t) per target:
    the new row ``xq[t] = (G[j] - xq[:t, j] @ xq[:t]) / w`` deflates the
    correlations, and the squared residual drops by ``(corr[j] / w)^2``.

    Every live target takes step t at once, so a step is a fixed handful of
    numpy calls for the whole block, not per target: one argmax over the
    (b, N) magnitudes, one gather of the b selected Gram rows (straight into
    the new ``xq`` rows), one batched ``matmul`` for those rows and one
    correlation update. Selected and excluded atoms get magnitude -inf,
    which the argmax never picks over a real value. ``xq`` is held
    step-major, (cap, b, N), so the rows a step writes form one contiguous
    (b, N) block. A target leaves the block when it stops; the per-target
    arrays are compacted in place only then, so the live targets always
    fill their leading rows. Callers that want few compactions pass targets
    with similar budgets together.

    Rounding: the batched ``matmul`` runs one BLAS product per target, the
    squared projection norms are summed by ``einsum``, and the new rows are
    scaled by 1/w rather than divided by w (a multiply is the cheaper pass
    over (b, N)). Each of these rounds differently from a one-target,
    one-division loop, so coefficients differ from it in the last bits:
    by at most ~2.5e-15 on benchmark-shaped data, whose supports were
    equal.

    Each target ends with one triangular solve R c = Q^T y, a direct LAPACK
    ``dtrtrs`` call (see :func:`_solve_upper`), and coefficients at or below
    ``COEF_DUST * |y|`` are dropped as rounding dust of an exact fit. The
    callers check their inputs for non-finite values once.

    ``RANK_TOL`` bounds w^2, not w: w^2 is a difference of O(1) Gram
    entries and carries ~1e-16 absolute rounding, so an atom with w below
    1e-6 is taken to lie in the active span. The target stops before adding
    it: its residual is orthogonal to that span, so the atom's correlation
    is at most w |r| < 1e-6 |r|, and no candidate correlates more. Every
    exit therefore solves a nonsingular factor, and a near-duplicate of a
    selected atom gets no weight.

    Returns one (support, coefficients, stop) per target, in block order,
    entries in selection order; ``stop`` is the one of :data:`STOPS` that
    ended its pursuit: ``"eps"`` when the residual fell below ``eps``
    (checked first), ``"budget"`` when its cap was reached,
    ``"zero_correlation"`` when no atom correlates above
    ``ZERO_CORRELATION`` with the residual, and ``"rank"`` when the best
    atom lies within ``RANK_TOL`` of the active span (it is not added). The
    squared residual is tracked as |y|^2 minus the steps' squares, with
    ~1e-16 absolute rounding, so an ``eps`` below ~1e-8 |y| acts as 0.
    """
    b, n = corr.shape
    cap = int(caps.max())
    # step-major, so the live targets' rows xq[t, :live] are one contiguous block
    xq = np.empty((cap, b, n))
    r_upper = np.zeros((b, cap, cap))
    qty = np.empty((b, cap))
    # column 0: the excluded atom; columns 1..t: the support
    taken = np.empty((b, cap + 1), dtype=np.int64)
    first = 1
    if exclude is not None:
        taken[:, 0] = exclude
        first = 0
    mag = np.empty((b, n))
    update = np.empty((b, n))
    res2 = np.array(res2, dtype=np.float64)
    dust = COEF_DUST * np.sqrt(res2)
    caps = np.array(caps)
    slot = np.arange(b)  # block position of each live target
    offset = np.arange(b) * n  # flat index of row p in mag and corr
    out = [None] * b
    eps2 = eps * eps
    live = b
    t = 0

    def retire(reason, filled):
        """Solve and emit every live target with a nonzero reason (1 + its
        index in STOPS), then move the others, with their first ``filled``
        xq rows, to the front; returns the others' rows before the move."""
        nonlocal live
        for p in np.flatnonzero(reason):
            coefs = _solve_upper(r_upper[p, :t, :t], qty[p, :t])
            keep = np.abs(coefs) > dust[p]
            out[slot[p]] = (taken[p, 1:t + 1][keep], coefs[keep], STOPS[reason[p] - 1])
        stay = np.flatnonzero(reason == 0)
        live = stay.size
        xq[:filled, :live] = xq[:filled, stay]
        r_upper[:live, :t, :t] = r_upper[stay, :t, :t]
        qty[:live, :t] = qty[stay, :t]
        taken[:live, :t + 1] = taken[stay, :t + 1]
        for a in (corr, res2, dust, caps, slot):
            a[:live] = a[stay]
        return stay

    while live:
        # eps is checked before the budget, then the selection's stops
        reason = np.where(res2[:live] < eps2, 1, np.where(t >= caps[:live], 2, 0))
        if reason.any():
            retire(reason, t)
            if not live:
                break
        np.abs(corr[:live], out=mag[:live])
        mag.put(taken[:live, first:t + 1] + offset[:live, None], -np.inf)
        j = mag[:live].argmax(axis=1)
        at = offset[:live] + j
        new = xq[t, :live]
        rows(j, new)
        proj = xq[:t, np.arange(live), j].T
        w2 = new[np.arange(live), j] - np.einsum("ij,ij->i", proj, proj)
        reason = np.where(mag.take(at) < ZERO_CORRELATION, 3, np.where(w2 < RANK_TOL, 4, 0))
        if reason.any():
            # the atom is numerically inside span(active set) for a rank
            # stop: adding it would make the factor singular, so the fit
            # keeps the atoms it has
            stay = retire(reason, t + 1)
            if not live:
                break
            j, proj, w2 = j[stay], proj[stay], w2[stay]
            at = offset[:live] + j
            new = xq[t, :live]
        taken[:live, t + 1] = j
        w = np.sqrt(w2)
        r_upper[:live, :t, t] = proj
        r_upper[:live, t, t] = w
        if t:
            np.matmul(proj[:, None, :], xq[:t, :live].transpose(1, 0, 2),
                      out=update[:live, None, :])
            new -= update[:live]
        new *= (1.0 / w)[:, None]
        step = corr.take(at) / w
        qty[:live, t] = step
        np.multiply(new, step[:, None], out=update[:live])
        corr[:live] -= update[:live]
        res2[:live] -= step * step
        t += 1
    return out


def _solve_upper(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with r x = b for an upper-triangular r held row-major: LAPACK gets
    r.T, a column-major lower-triangular matrix, and solves with its
    transpose, the call ``solve_triangular(r, b)`` makes for this input."""
    if not b.size:
        return b.copy()
    x, info = dtrtrs(r.T, b, lower=1, trans=1)
    if info:
        raise np.linalg.LinAlgError(f"dtrtrs failed with info={info}")
    return x


def omp_solve(dictionary: DataMatrix, target: np.ndarray, cfg: OmpConfig) -> np.ndarray:
    """Sparse-code one target against a unit-norm dictionary.

    Returns a dense length-N coefficient vector whose nonzeros sit on the
    selected atoms (at most ``cfg.max_atoms`` of them).
    """
    if not dictionary.unit_normalized:
        raise ValueError("omp_solve requires a unit-normalized dictionary")
    target = np.asarray(target, dtype=np.float64).reshape(-1)
    if target.size != dictionary.dim:
        raise ValueError(
            f"target has dimension {target.size}, dictionary has {dictionary.dim}"
        )
    if not np.isfinite(target).all():
        raise ValueError("target contains non-finite values")
    atoms = dictionary.values

    def rows(j, out):
        np.matmul(atoms[:, j].T, atoms, out=out)

    [(support, values, _)] = _pursue(
        rows, (atoms.T @ target)[None], np.array([target @ target]),
        np.array([min(cfg.max_atoms, dictionary.n)]), cfg.residual_threshold,
    )
    out = np.zeros(dictionary.n)
    out[support] = values
    return out


def ssc_omp(x: DataMatrix, k: int, eps: float = 1e-6) -> CoefMatrix:
    """Self-expression with a uniform budget: column i of the result codes
    point i over all other points with at most k atoms.

    This is :func:`ssc_omp_adaptive` with every budget set to k (fixed-budget
    SSC-OMP), so the two agree bit for bit; :class:`KArray` checks that k is
    an integer in [1, N-2].
    """
    return ssc_omp_adaptive(x, KArray.uniform(k, x.n), eps)


def ssc_omp_adaptive(x: DataMatrix, k_array: KArray, eps: float = 1e-6,
                     gram: np.ndarray | None = None) -> CoefMatrix:
    """Self-expression with per-point budgets: column i codes point i over
    all other points with at most ``k_array.sizes[i]`` atoms.

    The solver reads the Gram X^T X for every correlation update; ``gram``
    may pass a precomputed one (from :func:`gram_matrix`, e.g. the one used
    for budget selection), otherwise it is computed here and held for the
    call, 8 N^2 bytes. A passed ``gram`` must be N x N and finite; checking
    it is one O(N^2) pass, ~5 ms at N=2000. The points run through
    :func:`_pursue` in blocks of :data:`BLOCK`, formed over a stable sort
    of the budgets so that a block's points tend to stop together (unsorted
    blocks run to their largest budget and compact on nearly every step).
    Each block holds its own arrays, ~BLOCK * (budget + 3) * N floats
    besides the Gram (5.6 MB for the fixed budget 8 at N=2000). C is
    built straight into compressed sparse columns: column i holds point
    i's support in selection order, which :class:`CoefMatrix` sorts. One
    DEBUG line on the ``sscomp`` logger gives the point count, nnz and how
    many points stopped for each reason in :data:`STOPS`. ``eps`` must be finite and
    nonnegative; below ~1e-8 it acts as 0 (see :func:`check_eps`).
    """
    if not x.unit_normalized:
        raise ValueError("self-expression requires unit-normalized data")
    check_eps(eps)
    if k_array.n != x.n:
        raise ValueError(
            f"budget vector covers {k_array.n} points, data has {x.n}"
        )
    if gram is None:
        gram = gram_matrix(x)
    else:
        gram = np.asarray(gram, dtype=np.float64)
        if gram.shape != (x.n, x.n):
            raise ValueError(f"gram must be {x.n} x {x.n}, got shape {gram.shape}")
        if not np.isfinite(gram).all():
            raise ValueError("gram contains non-finite values")

    def rows(j, out):
        # argmax indices are in range; "clip" skips the copy of ``out``
        # that take buffers through in its default "raise" mode
        gram.take(j, axis=0, out=out, mode="clip")

    found = [None] * x.n
    order = np.argsort(k_array.sizes, kind="stable")
    for lo in range(0, x.n, BLOCK):
        block = order[lo:lo + BLOCK]
        solved = _pursue(rows, gram[block], gram[block, block], k_array.sizes[block], eps,
                         exclude=block)
        for i, result in zip(block, solved):
            found[i] = result
    supports, values, stops = zip(*found)
    indptr = np.cumsum([0] + [s.size for s in supports])
    logger.debug("self-expression: %d points, nnz %d, stops %s", x.n, indptr[-1],
                 " ".join(f"{name}={stops.count(name)}" for name in STOPS))
    return CoefMatrix(sparse.csc_array(
        (np.concatenate(values), np.concatenate(supports), indptr), shape=(x.n, x.n)
    ))
