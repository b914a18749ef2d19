"""Greedy sparse self-expression.

Each point is approximated as a sparse combination of the other points via
orthogonal matching pursuit: repeatedly pick the atom most correlated with
the current residual, re-fit by least squares on the active set, and stop on
a sparsity budget or when the residual norm drops below a threshold. Stacking
the per-point coefficient vectors gives the self-expressive matrix C with a
zero diagonal.

Self-expression runs on the Gram matrix X^T X: after the first step, the
correlations are updated from Gram rows at O(N t) per step (t atoms
selected so far) instead of recomputing X^T r at O(d N), the idea behind
Batch-OMP (Rubinstein, Zibulevsky & Elad, 2008). Both methods therefore
hold an N x N float64 Gram, 8 N^2 bytes: 3.3 MB at N=640, 32 MB at
N=2000, 3.2 GB at N=20000.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import solve_triangular

from .adaptive import KArray, gram_matrix
from .data import DataMatrix

__all__ = ["OmpConfig", "CoefMatrix", "omp_solve", "ssc_omp", "ssc_omp_adaptive"]

# below this, the best remaining |correlation| is numerical dust: selecting
# would add atoms with ~zero coefficients forever
ZERO_CORRELATION = 1e-14
# below this, the candidate atom lies in the span of the active set
RANK_TOL = 1e-12


@dataclass(frozen=True)
class OmpConfig:
    """Stopping rules for a single solve: atom budget and residual target.

    The threshold is compared against the absolute Euclidean norm of the
    residual; targets are unit-norm throughout this package, so absolute and
    relative readings coincide.
    """

    max_atoms: int
    residual_threshold: float = 1e-6

    def __post_init__(self):
        if self.max_atoms < 1:
            raise ValueError("max_atoms must be a positive integer")
        if self.residual_threshold < 0:
            raise ValueError("residual_threshold must be nonnegative")


def save_triplets(path, rows, cols, values) -> None:
    """Write a sparse matrix as CSV: a ``row,col,value`` header, then one
    line per stored entry (17 significant digits, so values round-trip)."""
    with open(path, "w", newline="") as fh:
        np.savetxt(fh, np.column_stack([rows, cols, values]), fmt=["%d", "%d", "%.17g"],
                   delimiter=",", newline="\r\n", header="row,col,value", comments="")


@dataclass(frozen=True)
class CoefMatrix:
    """Sparse N x N self-expression matrix, column i holding the coefficients
    of point i over the other points. Diagonal is identically zero. Backed by
    compressed sparse columns, frozen after construction."""

    matrix: sparse.csc_array

    def __post_init__(self):
        m = sparse.csc_array(self.matrix, dtype=np.float64)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"coefficient matrix must be square, got {m.shape}")
        m.sum_duplicates()
        m.eliminate_zeros()
        if not np.isfinite(m.data).all():
            raise ValueError("coefficient matrix contains non-finite values")
        if m.diagonal().any():
            raise ValueError("self-expression forbids nonzero diagonal entries")
        for buf in (m.data, m.indices, m.indptr):
            buf.flags.writeable = False
        object.__setattr__(self, "matrix", m)

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
        rows, cols, values = [], [], []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: empty triplet CSV")
            for line, row in enumerate(reader, start=2):
                if len(row) != 3:
                    raise ValueError(f"{path}: line {line}: expected row,col,value")
                rows.append(int(row[0]))
                cols.append(int(row[1]))
                values.append(float(row[2]))
        return cls.from_triplets(rows, cols, values, n)


def _greedy(atoms: np.ndarray, target: np.ndarray, budget: int, eps: float,
            exclude: int | None = None, gram: np.ndarray | None = None):
    """Core OMP loop over the columns of ``atoms``.

    The active-set least squares is maintained through an incrementally
    grown QR factorization with one reorthogonalization pass, so the
    residual update per iteration is a single rank-1 deflation by the new
    direction q_t. The correlations X^T r take the same deflation by the
    row X^T q_t, which is formed from the selected atom's Gram row in
    O(N t); X^T r itself is never recomputed. ``gram`` supplies those rows
    as a precomputed X^T X; without it each row is computed from ``atoms``
    at O(d N). ``exclude`` masks one atom out of selection (the point
    itself in self-expression). Passing ``gram`` states that the target is
    that excluded atom, so the first correlations are its Gram row.

    Returns (support, coefficients) with entries in selection order.
    """
    dim, n_atoms = atoms.shape
    cap = min(budget, n_atoms if exclude is None else n_atoms - 1)
    support = np.empty(cap, dtype=np.int64)
    # row-major: q[t] and xq[t] = atoms.T @ q[t] are contiguous rows
    q = np.empty((cap, dim))
    xq = np.empty((cap, n_atoms))
    r_upper = np.zeros((cap, cap))
    qty = np.empty(cap)
    blocked = np.zeros(n_atoms, dtype=bool)
    if exclude is not None:
        blocked[exclude] = True
    residual = np.array(target, dtype=np.float64)
    if gram is not None:
        corr = np.array(gram[exclude], dtype=np.float64)
    else:
        corr = atoms.T @ residual

    t = 0
    if np.linalg.norm(residual) >= eps:
        while t < cap:
            mag = np.abs(corr)
            mag[blocked] = -np.inf
            j = int(np.argmax(mag))
            if mag[j] < ZERO_CORRELATION:
                break
            atom = atoms[:, j]
            if t:
                head = q[:t]
                proj = head @ atom
                w = atom - proj @ head
                # one reorthogonalization pass keeps q orthonormal to ~1e-15
                second = head @ w
                w -= second @ head
                proj += second
            else:
                proj = None
                w = atom.astype(np.float64, copy=True)
            w_norm = float(np.linalg.norm(w))
            if w_norm < RANK_TOL:
                # atom numerically inside span(active set): no triangular
                # system exists, fall back to a minimum-norm fit
                support[t] = j
                t += 1
                coefs, *_ = np.linalg.lstsq(atoms[:, support[:t]], target, rcond=None)
                return support[:t].copy(), coefs
            row = gram[j] if gram is not None else atoms.T @ atom
            if proj is not None:
                r_upper[:t, t] = proj
                row = row - proj @ xq[:t]
            r_upper[t, t] = w_norm
            q[t] = w / w_norm
            xq[t] = row / w_norm
            step = float(q[t] @ residual)
            qty[t] = step
            residual -= step * q[t]
            corr -= step * xq[t]
            blocked[j] = True
            support[t] = j
            t += 1
            if np.linalg.norm(residual) < eps:
                break

    if t == 0:
        return support[:0].copy(), np.empty(0)
    coefs = solve_triangular(r_upper[:t, :t], qty[:t])
    return support[:t].copy(), coefs


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
    support, values = _greedy(
        dictionary.values, target, cfg.max_atoms, cfg.residual_threshold
    )
    out = np.zeros(dictionary.n)
    out[support] = values
    return out


def _self_expression(x: DataMatrix, budgets: np.ndarray, eps: float,
                     gram: np.ndarray | None) -> CoefMatrix:
    if gram is None:
        gram = gram_matrix(x)
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    for i in range(x.n):
        support, coefs = _greedy(
            x.values, x.values[:, i], int(budgets[i]), eps, exclude=i, gram=gram
        )
        rows.append(support)
        cols.append(np.full(support.size, i, dtype=np.int64))
        vals.append(coefs)
    return CoefMatrix.from_triplets(
        np.concatenate(rows), np.concatenate(cols), np.concatenate(vals), x.n
    )


def _check_self_expression_args(x: DataMatrix, eps: float) -> None:
    if not x.unit_normalized:
        raise ValueError("self-expression requires unit-normalized data")
    if eps < 0:
        raise ValueError("eps must be nonnegative")


def ssc_omp(x: DataMatrix, k: int, eps: float = 1e-6,
            gram: np.ndarray | None = None) -> CoefMatrix:
    """Self-expression with a uniform budget: column i of the result codes
    point i over all other points with at most k atoms.

    The solver reads the Gram X^T X for every correlation update; ``gram``
    may pass a precomputed one (from :func:`gram_matrix`), otherwise it is
    computed here and held for the call, 8 N^2 bytes.
    """
    _check_self_expression_args(x, eps)
    if not 1 <= k <= x.n - 2:
        raise ValueError(f"k must be in [1, N-2] = [1, {x.n - 2}], got {k}")
    return _self_expression(x, np.full(x.n, k, dtype=np.int64), eps, gram)


def ssc_omp_adaptive(x: DataMatrix, k_array: KArray, eps: float = 1e-6,
                     gram: np.ndarray | None = None) -> CoefMatrix:
    """Self-expression with per-point budgets: column i may use up to
    ``k_array.sizes[i]`` atoms. With uniform budgets this reduces exactly to
    :func:`ssc_omp`. ``gram`` is read as in :func:`ssc_omp`; passing the
    one used for budget selection avoids forming it twice."""
    _check_self_expression_args(x, eps)
    if k_array.n != x.n:
        raise ValueError(
            f"budget vector covers {k_array.n} points, data has {x.n}"
        )
    return _self_expression(x, k_array.sizes, eps, gram)
