"""Greedy sparse self-expression.

Each point is approximated as a sparse combination of the other points via
orthogonal matching pursuit: repeatedly pick the atom most correlated with
the current residual, re-fit by least squares on the active set, and stop on
a sparsity budget, when the residual norm drops below a threshold, or when
the best atom already lies in the span of the active set. Stacking
the per-point coefficient vectors gives the self-expressive matrix C with a
zero diagonal.

The loop runs on the Gram matrix X^T X alone, as Batch-OMP does
(Rubinstein, Zibulevsky & Elad, 2008): it never forms a residual or an
orthonormal basis in X-space. Each point keeps the raw Gram rows of the
atoms it has selected, beside its own row, and the inverse R^-1 of the
triangular factor of their Gram block. Its fit c is updated from R^-1 as
each atom joins, and its correlations X^T r = G[i] - sum_s c_s G[j_s] are
one product over those rows, so a step costs O(N t) (t atoms selected so
far). Both methods therefore hold an N x N float64 Gram, 8 N^2 bytes:
3.3 MB at N=640, 32 MB at N=2000, 3.2 GB at N=20000. The rank test bounds
the squared distance of a candidate atom from the active span, because in
Gram space only the square is formed and it carries ~1e-16 absolute
rounding. An atom inside that span ends the pursuit before it is added, so
the factor never becomes singular.

Points are pursued in lockstep, in blocks of :data:`BLOCK`: every live
point of a block takes its next step in the same few numpy calls on
(block, N) arrays, because at the sizes this package runs, call overhead
and passes over those arrays rather than flops set the cost of a step. A
point leaves its block when it stops, and only then are the block's arrays
compacted; a point that stops on eps or on its budget leaves before the
correlations of its last fit are formed. :func:`ssc_omp_adaptive` forms
the blocks over the points sorted by budget, so a block's points tend to
stop together. :func:`omp_solve` runs a block of one: its target, scaled
to unit norm, is appended to the dictionary as the excluded atom. The
batched products round differently from one-point products, so
coefficients can differ from a point-by-point pursuit in the last bits (see
:func:`_pursue`).

Non-finite input is rejected where it enters: :func:`omp_solve` checks its
target, and a :class:`~sscomp.adaptive.Gram` is made only by
:func:`~sscomp.adaptive.gram_matrix`, finite by construction and not
scanned; :func:`sscomp.adaptive.checked_gram` refuses any other kind of
Gram. Unit norms are checked where they are read: on the Gram diagonal, by
:func:`~sscomp.adaptive.gram_matrix`, and in :func:`omp_solve`, which forms
no Gram, on the dictionary's squared column norms. Each self-expression call logs, at
DEBUG on the ``sscomp`` logger, how many points stopped for each reason in
:data:`STOPS`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .adaptive import Gram, KArray, check_unit_norms, checked_gram
from .data import DataMatrix
from .util import check_integer

__all__ = ["CoefMatrix", "omp_solve", "ssc_omp", "ssc_omp_adaptive"]

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


def check_eps(eps: float) -> None:
    """Reject a residual threshold that is a ``bool``, negative, nan or
    infinite.

    eps = 0 is valid and never ends a pursuit on eps: each runs to its
    budget unless a zero-correlation or rank stop comes first. The loop
    tracks the squared residual with ~1e-16 absolute rounding, so any eps
    below ~1e-8 |target| gives the supports of eps = 0; only eps = 0 keeps
    an exact fit, whose tracked residual is rounding of either sign, out of
    the ``eps`` stop count.
    """
    if isinstance(eps, (bool, np.bool_)) or not 0.0 <= eps < np.inf:
        raise ValueError(f"eps must be a finite number >= 0, got {eps!r}")


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

    def save_csv(self, path) -> None:
        """Dump as triplet CSV with a header: row, col, value."""
        save_triplets(path, *self.triplets())


def _pursue(rows, n: int, exclude: np.ndarray, caps: np.ndarray, eps: float):
    """OMP for a block of b self-expressions in lockstep, run on Gram rows only.

    ``rows(j, out)`` writes the rows G[j] of an index vector j into the
    (len(j), n) array ``out``; it is the only view of the n x n Gram.
    Target p is the atom ``exclude[p]``, which is masked out of its own
    selection: its Gram row holds the first correlations, and its diagonal
    entry the squared target norm. ``caps`` holds the per-target atom
    budgets, at most the n - 1 other atoms.

    Each target keeps its own Gram row G[i] in ``raw[0]`` and the row
    G[j_s] of its s-th selected atom in ``raw[s]``; ``inv`` holds R^-1,
    upper triangular, where G[S, S] = R^T R over the selected set S; and
    ``weights`` holds the residual r = y - X_S c over those rows, 1 and then
    -c, so that X^T r = ``weights @ raw``. Selecting atom j costs O(t^2)
    beyond the product: proj = G[S, j]^T R^-1 is the atom's projection onto
    the active set's orthonormal basis and w^2 = G[j, j] - |proj|^2 its
    squared distance from the active span; R^-1 grows by the column
    (-R^-1 proj / w, 1 / w); the new entry of Q^T y is step = (X^T r)[j] / w,
    the squared residual drops by step^2, and c = R^-1 Q^T y grows by step
    times R^-1's new column.

    Every live target takes step t at once, so a step is a fixed handful of
    numpy calls for the whole block, not per target: one batched
    ``matmul`` of ``weights`` with ``raw[:t + 1]`` for the (b, N)
    correlations, one argmax over their magnitudes and one gather of the b
    selected Gram rows, straight into ``raw[t + 1]``; the rest works on
    (b, t) arrays. Selected and excluded atoms get magnitude -inf, which the
    argmax never picks over a real value. ``raw`` is held step-major,
    (cap + 1, b, N), so the rows a step gathers form one contiguous (b, N)
    block. A target leaves the block when it stops; the per-target arrays
    are compacted in place only then, so the live targets always fill their
    leading rows. The eps and budget stops are checked before the product,
    so a target they end does no N-length work after its last atom's
    selection. Callers that want few compactions pass targets with similar
    budgets together. Coefficients at or below ``COEF_DUST * |y|`` are
    dropped as rounding dust of an exact fit. The callers check their inputs
    for non-finite values once.

    Rounding: the batched ``matmul`` runs one BLAS product per target; the
    selected atom's signed correlation is summed again from its t + 1 terms
    by ``einsum``, as are the squared projection norms; and c is
    accumulated one column of R^-1 at a time rather than solved at the end.
    Each of these rounds differently from a one-target loop, so coefficients
    differ from it in the last bits: a few 1e-15 on benchmark-shaped data,
    whose supports were equal.

    ``RANK_TOL`` bounds w^2, not w: w^2 is a difference of O(1) Gram
    entries and carries ~1e-16 absolute rounding, so an atom with w below
    1e-6 is taken to lie in the active span. The target stops before adding
    it: its residual is orthogonal to that span, so the atom's correlation
    is at most w |r| < 1e-6 |r|, and no candidate correlates more. R^-1
    therefore never takes a 1/w above 1e6, and a near-duplicate of a
    selected atom gets no weight.

    Returns three arrays in block order, with cap the largest budget:
    ``support``, int64 (b, cap), each target's atoms in selection order;
    ``coef``, float64 (b, cap), their coefficients, 0.0 past the target's
    last atom and wherever a coefficient was dropped as dust (a padding
    slot's support entry is atom 0); and ``stop``, int8 (b,), 1 + the index
    in :data:`STOPS` of the reason that ended the pursuit: ``"eps"`` when
    the residual fell below ``eps`` (checked first), ``"budget"`` when its
    cap was reached, ``"zero_correlation"`` when no atom correlates above
    ``ZERO_CORRELATION`` with the residual, and ``"rank"`` when the best
    atom lies within ``RANK_TOL`` of the active span (it is not added). The
    squared residual is tracked as |y|^2 minus the steps' squares, with
    ~1e-16 absolute rounding, so an ``eps`` below ~1e-8 |y| acts as 0.
    """
    b = exclude.size
    cap = int(caps.max())
    # step-major, so the rows a step gathers, raw[t + 1, :live], are one
    # contiguous block; raw[0] holds the targets' own Gram rows
    raw = np.empty((cap + 1, b, n))
    rows(exclude, raw[0])
    res2 = raw[0, np.arange(b), exclude]
    # column 0: the excluded atom; columns 1..t: the support
    taken = np.empty((b, cap + 1), dtype=np.int64)
    taken[:, 0] = exclude
    # R^-1, upper triangular; its lower triangle is never written
    inv = np.zeros((b, cap, cap))
    # the residual over raw's rows: 1 on the target's, -c on the atoms';
    # column t + 1 stays zero until step t writes it
    weights = np.zeros((b, cap + 1))
    weights[:, 0] = 1.0
    mag = np.empty((b, n))
    dust = COEF_DUST * np.sqrt(res2)
    caps = np.array(caps)
    slot = np.arange(b)  # block position of each live target
    offset = np.arange(b) * n  # flat index of row p in mag
    support = np.zeros((b, cap), dtype=np.int64)
    coef = np.zeros((b, cap))
    stop = np.zeros(b, dtype=np.int8)
    # eps = 0 never stops on eps (see check_eps)
    eps2 = eps * eps if eps > 0 else -np.inf
    live = b
    t = 0

    def retire(reason, filled):
        """Write out every live target with a nonzero reason (1 + its index
        in STOPS), then move the others, with their first ``filled`` raw
        rows, to the front; returns the others' rows before the move."""
        nonlocal live
        done = np.flatnonzero(reason)
        coefs = -weights[done, 1:t + 1]
        coefs[np.abs(coefs) <= dust[done, None]] = 0.0
        at = slot[done]
        support[at, :t] = taken[done, 1:t + 1]
        coef[at, :t] = coefs
        stop[at] = reason[done]
        stay = np.flatnonzero(reason == 0)
        live = stay.size
        raw[:filled, :live] = raw[:filled, stay]
        inv[:live, :t, :t] = inv[stay, :t, :t]
        weights[:live, :t + 1] = weights[stay, :t + 1]
        taken[:live, :t + 1] = taken[stay, :t + 1]
        for a in (res2, dust, caps, slot):
            a[:live] = a[stay]
        return stay

    while live:
        # eps is checked before the budget, then the selection's stops; a
        # target stopping here skips the correlations of its last fit
        reason = np.where(res2[:live] < eps2, 1, np.where(t >= caps[:live], 2, 0))
        if reason.any():
            retire(reason, t + 1)
            if not live:
                break
        # X^T r = weights @ raw[:t + 1], one product per target, made
        # magnitudes in place
        np.matmul(weights[:live, None, :t + 1], raw[:t + 1, :live].transpose(1, 0, 2),
                  out=mag[:live, None, :])
        np.abs(mag[:live], out=mag[:live])
        mag.put(taken[:live, :t + 1] + offset[:live, None], -np.inf)
        j = mag[:live].argmax(axis=1)
        lane = np.arange(live)
        # the selected atom's correlation, sign included, from its t + 1 entries
        best = np.einsum("ij,ji->i", weights[:live, :t + 1], raw[:t + 1, lane, j])
        rows(j, raw[t + 1, :live])
        proj = np.matmul(raw[1:t + 1, lane, j].T[:, None, :], inv[:live, :t, :t])[:, 0]
        w2 = raw[t + 1, lane, j] - np.einsum("ij,ij->i", proj, proj)
        reason = np.where(mag[lane, j] < ZERO_CORRELATION, 3, np.where(w2 < RANK_TOL, 4, 0))
        if reason.any():
            # the atom is numerically inside span(active set) for a rank
            # stop: adding it would make the factor singular, so the fit
            # keeps the atoms it has. The others keep the row just gathered
            stay = retire(reason, t + 2)
            if not live:
                break
            j, best, proj, w2 = j[stay], best[stay], proj[stay], w2[stay]
        taken[:live, t + 1] = j
        w = np.sqrt(w2)
        inv[:live, :t, t] = np.matmul(inv[:live, :t, :t], proj[:, :, None])[:, :, 0] / -w[:, None]
        inv[:live, t, t] = 1.0 / w
        step = best / w
        res2[:live] -= step * step
        weights[:live, 1:t + 2] -= inv[:live, :t + 1, t] * step[:, None]
        t += 1
    return support, coef, stop


def omp_solve(dictionary: DataMatrix, target: np.ndarray, k: int,
              eps: float = 1e-6) -> np.ndarray:
    """Sparse-code one target against a unit-norm dictionary.

    Returns a dense length-N coefficient vector whose nonzeros sit on the
    selected atoms, at most ``k`` of them (an integer of at least 1). The
    pursuit stops once the absolute Euclidean norm of the residual is below
    ``eps``, which must be finite and nonnegative; below ~1e-8 |target| it
    acts as 0 (see :func:`check_eps`). The target is scaled to unit norm
    and appended to the dictionary as atom N, which :func:`_pursue`
    excludes and codes over the others, with ``eps / |target|``; the
    coefficients are scaled back. So the answer does not depend on the
    target's scale, a zero target gets zeros, and a target whose norm
    overflows float64 is rejected. The dictionary's columns must be unit
    (see :func:`sscomp.adaptive.check_unit_norms`), checked on their
    squared norms in O(dim N).
    """
    check_integer(k, "k", 1)
    check_eps(eps)
    check_unit_norms(np.einsum("ij,ij->j", dictionary.values, dictionary.values), "dictionary")
    target = np.asarray(target, dtype=np.float64).reshape(-1)
    if target.size != dictionary.dim:
        raise ValueError(
            f"target has dimension {target.size}, dictionary has {dictionary.dim}"
        )
    if not np.isfinite(target).all():
        raise ValueError("target contains non-finite values")
    coefs = np.zeros(dictionary.n)
    peak = np.abs(target).max(initial=0.0)
    if not peak:
        return coefs
    # scaled by the largest entry first, so the sum of squares neither
    # overflows nor underflows
    with np.errstate(over="ignore"):
        norm = peak * np.linalg.norm(target / peak)
    if not np.isfinite(norm):
        raise ValueError(f"target norm is not finite in float64 (largest entry {peak:.3g})")
    atoms = np.column_stack([dictionary.values, target / norm])
    n = dictionary.n

    def rows(j, out):
        np.matmul(atoms[:, j].T, atoms, out=out)

    support, values, _ = _pursue(rows, n + 1, np.array([n]), np.array([min(k, n)]), eps / norm)
    # a padding slot adds 0.0 to atom 0, where a plain scatter would
    # overwrite atom 0's own coefficient
    np.add.at(coefs, support[0], values[0] * norm)
    return coefs


def ssc_omp(x: DataMatrix, k: int, eps: float = 1e-6) -> CoefMatrix:
    """Self-expression with a uniform budget: column i of the result codes
    point i over all other points with at most k atoms.

    This is :func:`ssc_omp_adaptive` with every budget set to k (fixed-budget
    SSC-OMP), so the two agree bit for bit; :class:`KArray` checks that k is
    an integer in [1, N-2].
    """
    return ssc_omp_adaptive(x, KArray.uniform(k, x.n), eps)


def ssc_omp_adaptive(x: DataMatrix, k_array: KArray, eps: float = 1e-6,
                     gram: Gram | None = None) -> CoefMatrix:
    """Self-expression with per-point budgets: column i codes point i over
    all other points with at most ``k_array.sizes[i]`` atoms.

    The solver reads the Gram X^T X one row per selected atom, through
    :meth:`Gram.rows <sscomp.adaptive.Gram.rows>`; ``gram`` may pass a
    precomputed one (from :func:`~sscomp.adaptive.gram_matrix`, e.g. the
    one used for budget selection), otherwise it is computed here and held
    for the call, 8 N^2 bytes. :func:`~sscomp.adaptive.checked_gram` takes
    a passed :class:`~sscomp.adaptive.Gram` as it is once it is N x N, and
    refuses any other type. The points run
    through :func:`_pursue` in blocks of :data:`BLOCK`, formed over a stable sort
    of the budgets so that a block's points tend to stop together (unsorted
    blocks run to their largest budget and compact on nearly every step).
    Each block holds its own arrays, ~BLOCK * (budget + 2) * N floats
    besides the Gram, and BLOCK * budget^2 for R^-1 (5.1 MB for the
    fixed budget 8 at N=2000). The blocks' results are gathered into N x
    (largest budget) support and coefficient arrays, 16 bytes per entry
    (256 kB for the fixed budget 8 at N=2000), and C is built from them
    straight into compressed sparse columns: column i holds point i's
    nonzero coefficients in selection order, which :class:`CoefMatrix`
    sorts. One DEBUG line on the ``sscomp`` logger gives the point count,
    nnz and how many points stopped for each reason in :data:`STOPS`. ``eps`` must be finite and
    nonnegative; below ~1e-8 it acts as 0 (see :func:`check_eps`). Without a
    passed Gram, the data's columns must be unit.
    """
    check_eps(eps)
    if k_array.n != x.n:
        raise ValueError(
            f"budget vector covers {k_array.n} points, data has {x.n}"
        )
    gram = checked_gram(x, gram)
    support = np.zeros((x.n, k_array.sizes.max()), dtype=np.int64)
    coef = np.zeros(support.shape)
    stop = np.empty(x.n, dtype=np.int8)
    order = np.argsort(k_array.sizes, kind="stable")
    for lo in range(0, x.n, BLOCK):
        block = order[lo:lo + BLOCK]
        s, c, stop[block] = _pursue(gram.rows, gram.n, block, k_array.sizes[block], eps)
        support[block, :s.shape[1]], coef[block, :c.shape[1]] = s, c
    kept = coef != 0
    indptr = np.concatenate([[0], np.cumsum(kept.sum(axis=1))])
    counts = np.bincount(stop, minlength=len(STOPS) + 1)[1:]
    logger.debug("self-expression: %d points, nnz %d, stops %s", x.n, indptr[-1],
                 " ".join(f"{name}={count}" for name, count in zip(STOPS, counts)))
    return CoefMatrix(sparse.csc_array((coef[kept], support[kept], indptr), shape=(x.n, x.n)))
