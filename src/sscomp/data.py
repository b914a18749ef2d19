"""Data handling: loading, unit normalization, synthetic unions of subspaces,
and Gaussian corruption.

Points are stored as columns of a ``dim x N`` matrix throughout, so the i-th
point is ``x.values[:, i]``. CSV files use the opposite convention (one row
per point) and are transposed on load.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .util import check_integer, round_half_away_from_zero

__all__ = [
    "DataMatrix",
    "Labels",
    "SyntheticSpec",
    "load_csv",
    "save_csv",
    "save_labels",
    "normalize_columns",
    "generate_synthetic",
    "add_gaussian_noise",
    "blend_gaussian_noise",
]

MIN_COLUMN_NORM = 1e-12
# entries per block of columns whose squares are summed at once for the norms
NORM_BLOCK = 1 << 16


@dataclass(frozen=True)
class DataMatrix:
    """Column-major collection of N points in ambient dimension ``dim``:
    a finite ``dim x N`` float64 array with N >= 3, stored in Fortran order
    so that each point is one contiguous column.

    The underlying array is copied and frozen at construction; every
    operation in this package returns a new matrix instead of mutating.
    Column norms are not recorded: the stages that need unit columns check
    them where they read them (see :func:`sscomp.adaptive.check_unit_norms`).
    """

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "values", _frozen(np.array(self.values, dtype=np.float64, order="F"))
        )

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]


def _frozen(values: np.ndarray) -> np.ndarray:
    """Check a float64 array as DataMatrix values and make it read-only."""
    if values.ndim != 2:
        raise ValueError(f"data must be a 2-d array, got ndim={values.ndim}")
    dim, n = values.shape
    if dim < 1:
        raise ValueError("ambient dimension must be at least 1")
    if n < 3:
        raise ValueError(f"need at least 3 points for self-expression, got N={n}")
    if not np.isfinite(values).all():
        raise ValueError("data contains non-finite values")
    values.flags.writeable = False
    return values


def _owned(values: np.ndarray) -> DataMatrix:
    """A DataMatrix around ``values``, a float64 array that the caller made
    and gives up: checked and frozen in place, copied only when it is not
    already in Fortran order."""
    x = object.__new__(DataMatrix)
    object.__setattr__(x, "values", _frozen(np.asfortranarray(values)))
    return x


@dataclass(frozen=True)
class Labels:
    """Cluster assignments for N points, ids contiguous in [0, n_clusters)."""

    assignments: np.ndarray
    n_clusters: int

    def __post_init__(self):
        arr = np.array(self.assignments, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError("assignments must be a 1-d integer vector")
        check_integer(self.n_clusters, "n_clusters", 1)
        if arr.size == 0:
            raise ValueError("assignments must be non-empty")
        if arr.min() < 0 or arr.max() >= self.n_clusters:
            raise ValueError(
                f"assignments must lie in [0, {self.n_clusters}), "
                f"got range [{arr.min()}, {arr.max()}]"
            )
        if np.unique(arr).size != self.n_clusters:
            raise ValueError("every cluster id must appear at least once")
        arr.flags.writeable = False
        object.__setattr__(self, "assignments", arr)

    @property
    def n(self) -> int:
        return self.assignments.size


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a union-of-subspaces dataset.

    With ``orthogonal=True`` (default) the subspace bases are mutually
    orthogonal, which makes cross-subspace correlations vanish and gives the
    tests an exact subspace-preservation oracle. ``orthogonal=False`` draws
    an independent random basis per subspace for harder instances.
    """

    n_subspaces: int
    subspace_dim: int
    ambient_dim: int
    points_per_subspace: int
    rng_seed: int
    orthogonal: bool = True

    def __post_init__(self):
        for name in ("n_subspaces", "subspace_dim", "ambient_dim", "points_per_subspace"):
            check_integer(getattr(self, name), name, 1)
        check_integer(self.rng_seed, "rng_seed", 0)
        if self.subspace_dim >= self.ambient_dim:
            raise ValueError("subspace_dim must be smaller than ambient_dim")
        if self.n_subspaces * self.subspace_dim > self.ambient_dim:
            raise ValueError(
                "n_subspaces * subspace_dim must not exceed ambient_dim "
                "(independent subspaces are required)"
            )


def _raise_bad_cell(path, line: int, row: list[str]) -> None:
    """Raise for the first cell of ``row`` that is not a finite number,
    naming its row and column."""
    for c, cell in enumerate(row):
        try:
            v = float(cell)
        except ValueError:
            raise ValueError(
                f"{path}: row {line}, column {c + 1}: cannot parse {cell.strip()!r} as a number"
            ) from None
        if not math.isfinite(v):
            raise ValueError(
                f"{path}: row {line}, column {c + 1}: non-finite value {cell.strip()!r}"
            )


def _integer_labels(raw: np.ndarray, path, start: int) -> Labels:
    """Labels from the finite float ids of a CSV's label column, whose first
    data row is ``start + 1``, remapped to contiguous 0-based ids.

    Ids must be integer-valued and in the int64 range; the first that is
    not raises, naming its row.
    """
    fractional = raw != np.floor(raw)
    bad = np.flatnonzero(fractional | (raw < -(2.0**63)) | (raw >= 2.0**63))
    if bad.size:
        i = int(bad[0])
        problem = "is not an integer" if fractional[i] else "is outside the int64 range"
        raise ValueError(f"{path}: row {start + i + 1}: label {float(raw[i])} {problem}")
    _, contiguous = np.unique(raw.astype(np.int64), return_inverse=True)
    return Labels(contiguous, int(contiguous.max()) + 1)


def load_csv(path, has_labels: bool = False):
    """Load a CSV of points (one row per point) into a DataMatrix.

    The file is read in one pass, as UTF-8 with an optional byte-order mark;
    bytes that are not UTF-8, or a field longer than the csv module allows,
    raise ValueError naming the file. Blank rows are skipped and not
    counted. Each other row is converted to floats as it is read, so only
    floats are held. A first row that does not convert is a header and is
    skipped. Every data row must have the field count of the first one and
    hold finite values; the first row that does not raises, naming its row
    (and column). When ``has_labels`` is set the last column must hold
    integer labels, which are remapped to contiguous 0-based ids.

    Returns ``(DataMatrix, Labels | None)``.
    """
    kept, width, line = [], 0, 0
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            for row in csv.reader(fh):
                if not any(cell.strip() for cell in row):
                    continue
                line += 1
                try:
                    point = np.array(row, dtype=np.float64)
                except ValueError:
                    if line == 1:
                        continue  # a first row that is not all floats is the header
                    point = None
                if not width:
                    width = len(row)
                    if has_labels and width < 2:
                        raise ValueError(
                            f"{path}: need at least one feature column plus a label column"
                        )
                elif len(row) != width:
                    raise ValueError(f"{path}: row {line} has {len(row)} fields, expected {width}")
                if point is None or not np.isfinite(point).all():
                    _raise_bad_cell(path, line, row)
                kept.append(point)
        except (csv.Error, UnicodeDecodeError) as exc:
            # a field over the csv module's size limit, or bytes that are not UTF-8
            raise ValueError(f"{path}: {exc}") from None
    if not line:
        raise ValueError(f"{path}: empty CSV")
    if not kept:
        raise ValueError(f"{path}: header but no data rows")
    rows, start = np.array(kept), line - len(kept)

    labels = None
    if has_labels:
        labels = _integer_labels(rows[:, -1], path, start)
        rows = rows[:, :-1]

    if rows.shape[0] < 3:
        raise ValueError(f"{path}: need at least 3 points, got {rows.shape[0]}")
    return _owned(rows.T), labels


def save_csv(x: DataMatrix, path, labels: Labels | None = None) -> None:
    """Write points as CSV rows (17 significant digits, so values round-trip)."""
    if labels is not None and labels.n != x.n:
        raise ValueError("labels length does not match point count")
    table, fmt = x.values.T, ["%.17g"] * x.dim
    if labels is not None:
        table, fmt = np.column_stack([table, labels.assignments]), fmt + ["%d"]
    with open(path, "w", newline="") as fh:
        np.savetxt(fh, table, fmt=fmt, delimiter=",", newline="\r\n")


def save_labels(labels: Labels, path) -> None:
    """One cluster id per line."""
    with open(path, "w") as fh:
        np.savetxt(fh, labels.assignments, fmt="%d")


def _normalized(values: np.ndarray) -> DataMatrix:
    """Rescale every column of ``values`` to unit Euclidean norm in place,
    then wrap it as :func:`_owned` does. A column with norm below
    ``MIN_COLUMN_NORM`` is rejected.

    The norms are summed as ``np.linalg.norm(values, axis=0)`` sums them for
    the array's layout, but a block of columns at a time, so no full-size
    temporary is made.
    """
    dim, n = values.shape
    step = max(1, NORM_BLOCK // dim)
    norms = np.empty(n)
    for start in range(0, n, step):
        block = values[:, start : start + step]
        np.add.reduce(block * block, axis=0, out=norms[start : start + step])
    np.sqrt(norms, out=norms)
    tiny = np.flatnonzero(norms < MIN_COLUMN_NORM)
    if tiny.size:
        raise ValueError(
            f"column {int(tiny[0])} has norm {norms[tiny[0]]:.3e}, too close to zero to normalize"
        )
    values /= norms
    return _owned(values)


def normalize_columns(x: DataMatrix) -> DataMatrix:
    """Rescale every column to unit Euclidean norm, preserving direction.
    A column with norm below ``MIN_COLUMN_NORM`` is rejected."""
    return _normalized(x.values.copy(order="F"))


def generate_synthetic(spec: SyntheticSpec):
    """Sample unit-norm points from a union of low-dimensional subspaces.

    Each subspace gets an orthonormal basis (one shared QR when bases must be
    mutually orthogonal, independent QRs otherwise) and points are the basis
    image of standard-normal coefficients. Deterministic under ``rng_seed``.

    Returns ``(DataMatrix, Labels)`` with points grouped by subspace.
    """
    rng = np.random.default_rng(spec.rng_seed)
    s, d = spec.n_subspaces, spec.subspace_dim
    if spec.orthogonal:
        q, _ = np.linalg.qr(rng.standard_normal((spec.ambient_dim, s * d)))
        bases = [q[:, i * d : (i + 1) * d] for i in range(s)]
    else:
        bases = [
            np.linalg.qr(rng.standard_normal((spec.ambient_dim, d)))[0]
            for _ in range(s)
        ]
    blocks = [
        basis @ rng.standard_normal((d, spec.points_per_subspace)) for basis in bases
    ]
    labels = Labels(np.repeat(np.arange(s), spec.points_per_subspace), s)
    # normalized while still row-major, where each norm is summed row by
    # row: that sum fixes the bytes of every CSV `sscomp synth` writes
    return _normalized(np.hstack(blocks)), labels


def _check_noise_args(sigma: float, variance: float) -> None:
    if isinstance(sigma, (bool, np.bool_)) or not 0.0 <= sigma <= 1.0:
        raise ValueError(f"noise rate sigma must be in [0, 1], got {sigma}")
    if isinstance(variance, (bool, np.bool_)) or not 0.0 < variance < math.inf:
        raise ValueError(f"noise variance must be positive and finite, got {variance}")


def _perturbed_values(x: DataMatrix, sigma: float, variance: float, rng):
    """Raw corruption step: pick round(sigma*N) columns and add N(0, variance)
    noise per coordinate. Returns the perturbed (un-normalized) values, a
    new column-major copy, plus the chosen column indices.

    The noise is one ``rng.normal`` draw, added ``max(1, NORM_BLOCK // dim)``
    picked columns at a time: every sum is the one a single fancy-indexed add
    of the whole draw makes, but each block gathers at most ``NORM_BLOCK``
    entries (512 kB), or one column, instead of all the picked columns. The
    peak is the copy plus the noise, (1 + sigma) times the matrix.
    """
    count = min(round_half_away_from_zero(sigma * x.n), x.n)
    picked = rng.choice(x.n, size=count, replace=False)
    out = x.values.copy(order="F")
    if count:
        noise = rng.normal(0.0, math.sqrt(variance), size=(x.dim, count))
        step = max(1, NORM_BLOCK // x.dim)
        for start in range(0, count, step):
            out[:, picked[start : start + step]] += noise[:, start : start + step]
    return out, picked


def add_gaussian_noise(
    x: DataMatrix, sigma: float, variance: float = 0.01, rng_seed: int = 0
) -> DataMatrix:
    """Corrupt a fraction ``sigma`` of columns with additive Gaussian noise.

    Noise (zero mean, ``variance`` per coordinate) is added to the raw
    columns, then the whole matrix is re-normalized to unit columns. With
    ``sigma=0`` the result equals ``normalize_columns(x)`` exactly. ``x`` is
    left as it was; the result is one new copy, corrupted and normalized in
    place. The noise is added to the picked columns in blocks of about
    ``NORM_BLOCK`` entries, so the peak is about (1 + sigma) times the
    matrix: the copy and the noise draw, with no gather of all the picked
    columns.
    """
    _check_noise_args(sigma, variance)
    rng = np.random.default_rng(rng_seed)
    perturbed, _ = _perturbed_values(x, sigma, variance, rng)
    return _normalized(perturbed)


def blend_gaussian_noise(
    x: DataMatrix, sigma: float, variance: float = 0.01, rng_seed: int = 0
) -> DataMatrix:
    """Alternate corruption reading: every column becomes ``(1-sigma)*x + sigma*noise``,
    re-normalized. ``sigma=0`` again reduces to plain normalization."""
    _check_noise_args(sigma, variance)
    rng = np.random.default_rng(rng_seed)
    if sigma == 0.0:
        return normalize_columns(x)
    noise = rng.normal(0.0, math.sqrt(variance), size=x.values.shape)
    noise *= sigma
    values = np.multiply(x.values, 1.0 - sigma, order="F")
    values += noise
    return _normalized(values)
