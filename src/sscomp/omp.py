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

A greedy step is a few numpy calls on length-N vectors, so at the sizes
this package runs, call overhead rather than flops sets its cost;
:func:`_greedy` says how the loop keeps that overhead down (preallocated
buffers, a direct LAPACK triangular solve) with bit-identical outputs.
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
# why _greedy stopped, in the order ssc_omp_adaptive reports the counts
STOPS = ("eps", "budget", "zero_correlation", "rank")

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


def _greedy(atoms: np.ndarray, target: np.ndarray, budget: int, eps: float,
            exclude: int | None = None, gram: np.ndarray | None = None):
    """Core OMP loop over the columns of ``atoms``, run on Gram rows only.

    The active set's orthonormal basis q_0..q_{t-1} is never formed in
    X-space; the loop holds its image ``xq[s] = atoms.T @ q_s`` instead,
    which is all it reads. For a candidate atom j, ``xq[:t, j]`` is its
    projection onto the basis and ``G[j, j] - |xq[:t, j]|^2`` its squared
    distance w^2 from the active span, so each step costs O(N t): the new
    row ``xq[t] = (G[j] - xq[:t, j] @ xq[:t]) / w`` deflates the
    correlations X^T r, and the squared residual norm drops by
    ``(corr[j] / w)^2``. ``gram`` supplies the rows G[j] as a precomputed
    X^T X; without it each row is computed from ``atoms`` at O(d N).
    ``exclude`` masks one atom out of selection (the point itself in
    self-expression). Passing ``gram`` states that the target is that
    excluded atom, so the first correlations are its Gram row.

    At benchmark sizes a step is a handful of numpy calls on length-N
    vectors, so call overhead, not flops, sets the cost. The loop
    therefore allocates no length-N temporary per step: the selection
    magnitudes, the new row and the correlation update are written into
    buffers made once per call, with ``out=`` forms of the same IEEE
    operations (a product, then a difference; no fused multiply-add), so
    every bit matches the plain expressions. Selected and excluded atoms
    get magnitude -inf, which the argmax never picks over a real value.
    The final solve R c = Q^T y calls LAPACK ``dtrtrs`` directly on the
    transposed factor, the call ``scipy.linalg.solve_triangular`` makes for
    this C-ordered input, without its ~20 us of input checks per point
    (a test pins the two bit for bit); the callers check their inputs for
    non-finite values once instead.

    ``RANK_TOL`` bounds w^2, not w: w^2 is a difference of O(1) Gram
    entries and carries ~1e-16 absolute rounding, so an atom with w below
    1e-6 is taken to lie in the active span. The loop stops before adding
    it: the residual r is orthogonal to that span, so the atom's
    correlation is at most w |r| < 1e-6 |r|, and no candidate correlates
    more. Every exit therefore solves the same nonsingular factor, and a
    near-duplicate of a selected atom gets no weight. Coefficients at or
    below ``COEF_DUST * |target|`` are rounding dust of an exact fit and
    are dropped.

    Returns (support, coefficients, stop) with entries in selection order;
    ``stop`` is the one of :data:`STOPS` that ended the loop: ``"eps"``
    when the residual fell below ``eps`` (checked first), ``"budget"``
    when the budget or the atoms ran out, ``"zero_correlation"`` when no
    atom correlates above ``ZERO_CORRELATION`` with the residual, and
    ``"rank"`` when the best atom lies within ``RANK_TOL`` of the active
    span (it is not added). The squared residual is tracked as |y|^2 minus
    the steps' squares, with ~1e-16 absolute rounding, so an ``eps`` below
    ~1e-8 |target| acts as 0.
    """
    n_atoms = atoms.shape[1]
    cap = min(budget, n_atoms if exclude is None else n_atoms - 1)
    support = np.empty(cap, dtype=np.int64)
    # row-major, so xq[t] is a contiguous row
    xq = np.empty((cap, n_atoms))
    r_upper = np.zeros((cap, cap))
    qty = np.empty(cap)
    mag = np.empty(n_atoms)
    update = np.empty(n_atoms)
    target = np.asarray(target, dtype=np.float64)
    res2 = float(target @ target)
    dust = COEF_DUST * np.sqrt(res2)
    if gram is not None:
        corr = np.array(gram[exclude], dtype=np.float64)
    else:
        corr = atoms.T @ target

    t = 0
    while t < cap and res2 >= eps * eps:
        np.abs(corr, out=mag)
        mag[support[:t]] = -np.inf
        if exclude is not None:
            mag[exclude] = -np.inf
        j = int(np.argmax(mag))
        if mag[j] < ZERO_CORRELATION:
            stop = "zero_correlation"
            break
        row = gram[j] if gram is not None else atoms.T @ atoms[:, j]
        proj = xq[:t, j]
        w2 = float(row[j] - proj @ proj)
        if w2 < RANK_TOL:
            # atom numerically inside span(active set): adding it would
            # make the factor singular, so the fit keeps the atoms it has
            stop = "rank"
            break
        support[t] = j
        w = np.sqrt(w2)
        r_upper[:t, t] = proj
        r_upper[t, t] = w
        np.subtract(row, proj @ xq[:t], out=xq[t])
        xq[t] /= w
        step = corr[j] / w
        qty[t] = step
        np.multiply(xq[t], step, out=update)
        corr -= update
        res2 -= step * step
        t += 1
    else:  # no break: the residual or the budget ended the loop
        stop = "eps" if res2 < eps * eps else "budget"
    coefs = _solve_upper(r_upper[:t, :t], qty[:t])
    keep = np.abs(coefs) > dust
    return support[:t][keep], coefs[keep], stop


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
    support, values, _ = _greedy(
        dictionary.values, target, cfg.max_atoms, cfg.residual_threshold
    )
    out = np.zeros(dictionary.n)
    out[support] = values
    return out


def ssc_omp(x: DataMatrix, k: int, eps: float = 1e-6,
            gram: np.ndarray | None = None) -> CoefMatrix:
    """Self-expression with a uniform budget: column i of the result codes
    point i over all other points with at most k atoms.

    This is :func:`ssc_omp_adaptive` with every budget set to k (fixed-budget
    SSC-OMP), so the two agree bit for bit. ``gram`` is read as there.
    """
    if not isinstance(k, numbers.Integral) or not 1 <= k <= x.n - 2:
        raise ValueError(f"k must be an integer in [1, N-2] = [1, {x.n - 2}], got {k}")
    return ssc_omp_adaptive(x, KArray.uniform(k, x.n), eps, gram)


def ssc_omp_adaptive(x: DataMatrix, k_array: KArray, eps: float = 1e-6,
                     gram: np.ndarray | None = None) -> CoefMatrix:
    """Self-expression with per-point budgets: column i codes point i over
    all other points with at most ``k_array.sizes[i]`` atoms.

    The solver reads the Gram X^T X for every correlation update; ``gram``
    may pass a precomputed one (from :func:`gram_matrix`, e.g. the one used
    for budget selection), otherwise it is computed here and held for the
    call, 8 N^2 bytes. A passed ``gram`` must be N x N and finite; checking
    it is one O(N^2) pass, ~5 ms at N=2000. C is built straight into
    compressed sparse columns: column i holds point i's support in
    selection order, which :class:`CoefMatrix` sorts. One DEBUG line on the
    ``sscomp`` logger gives the point count, nnz and how many points
    stopped for each reason in :data:`STOPS`. ``eps`` must be finite and
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
    supports, values, stops = zip(*(
        _greedy(x.values, x.values[:, i], int(budget), eps, exclude=i, gram=gram)
        for i, budget in enumerate(k_array.sizes)
    ))
    indptr = np.cumsum([0] + [s.size for s in supports])
    logger.debug("self-expression: %d points, nnz %d, stops %s", x.n, indptr[-1],
                 " ".join(f"{name}={stops.count(name)}" for name in STOPS))
    return CoefMatrix(sparse.csc_array(
        (np.concatenate(values), np.concatenate(supports), indptr), shape=(x.n, x.n)
    ))
