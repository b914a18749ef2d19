"""Data handling: loading, unit normalization, synthetic unions of subspaces,
and Gaussian corruption.

Points are stored as columns of a ``dim x N`` matrix throughout, so the i-th
point is ``x.values[:, i]``. CSV files use the opposite convention (one row
per point) and are transposed on load.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .util import round_half_away_from_zero

__all__ = [
    "DataMatrix",
    "Labels",
    "SyntheticSpec",
    "load_csv",
    "save_csv",
    "load_npz",
    "save_npz",
    "save_labels",
    "load_labels",
    "normalize_columns",
    "generate_synthetic",
    "add_gaussian_noise",
    "blend_gaussian_noise",
]

UNIT_NORM_TOL = 1e-9
MIN_COLUMN_NORM = 1e-12


@dataclass(frozen=True)
class DataMatrix:
    """Column-major collection of N points in ambient dimension ``dim``.

    The underlying array is copied and frozen at construction; every
    operation in this package returns a new matrix instead of mutating.
    """

    values: np.ndarray
    unit_normalized: bool = False

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError(f"data must be a 2-d array, got ndim={values.ndim}")
        dim, n = values.shape
        if dim < 1:
            raise ValueError("ambient dimension must be at least 1")
        if n < 3:
            raise ValueError(
                f"need at least 3 points for self-expression, got N={n}"
            )
        if not np.isfinite(values).all():
            raise ValueError("data contains non-finite values")
        if self.unit_normalized:
            norms = np.linalg.norm(values, axis=0)
            worst = float(np.max(np.abs(norms - 1.0)))
            if worst > UNIT_NORM_TOL:
                raise ValueError(
                    f"unit_normalized set but a column norm deviates by {worst:.3e}"
                )
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class Labels:
    """Cluster assignments for N points, ids contiguous in [0, n_clusters)."""

    assignments: np.ndarray
    n_clusters: int

    def __post_init__(self):
        arr = np.array(self.assignments, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError("assignments must be a 1-d integer vector")
        if self.n_clusters < 1:
            raise ValueError("n_clusters must be positive")
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
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if not isinstance(self.rng_seed, numbers.Integral) or self.rng_seed < 0:
            raise ValueError(f"rng_seed must be a non-negative integer, got {self.rng_seed!r}")
        if self.subspace_dim >= self.ambient_dim:
            raise ValueError("subspace_dim must be smaller than ambient_dim")
        if self.n_subspaces * self.subspace_dim > self.ambient_dim:
            raise ValueError(
                "n_subspaces * subspace_dim must not exceed ambient_dim "
                "(independent subspaces are required)"
            )


def _looks_like_header(row: list[str]) -> bool:
    for cell in row:
        try:
            float(cell)
        except ValueError:
            return True
    return False


def _raise_first_bad_row(path, body: list[list[str]], start: int, width: int) -> None:
    """Slow path after the bulk conversion failed: raise for the first row
    with the wrong field count or a cell that is not a finite number, naming
    its row (and column). Returns when every row is fine."""
    for r, row in enumerate(body):
        line = start + r + 1
        if len(row) != width:
            raise ValueError(
                f"{path}: row {line} has {len(row)} fields, expected {width}"
            )
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


def _integer_labels(raw: np.ndarray, where) -> Labels:
    """Labels from integer-valued ids, remapped to contiguous 0-based ids.

    Ids of a non-integer dtype must be finite whole numbers; the first that
    is not raises, named by ``where(index)``.
    """
    if raw.dtype.kind not in "biu":
        raw = np.asarray(raw, dtype=np.float64)
        bad = np.flatnonzero(~np.isfinite(raw) | (raw != np.floor(raw)))
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"{where(i)}: label {float(raw[i])} is not an integer")
    _, contiguous = np.unique(raw.astype(np.int64), return_inverse=True)
    return Labels(contiguous, int(contiguous.max()) + 1)


def load_csv(path, has_labels: bool = False):
    """Load a CSV of points (one row per point) into a DataMatrix.

    A non-numeric first row is treated as a header and skipped. When
    ``has_labels`` is set the last column must hold integer labels, which are
    remapped to contiguous 0-based ids.

    Returns ``(DataMatrix, Labels | None)``.
    """
    with open(path, newline="") as fh:
        raw = [row for row in csv.reader(fh) if any(cell.strip() for cell in row)]
    if not raw:
        raise ValueError(f"{path}: empty CSV")
    start = 1 if _looks_like_header(raw[0]) else 0
    if start == len(raw):
        raise ValueError(f"{path}: header but no data rows")
    width = len(raw[start])
    if has_labels and width < 2:
        raise ValueError(f"{path}: need at least one feature column plus a label column")

    body = raw[start:]
    try:
        rows = np.array(body, dtype=np.float64)
    except ValueError:
        _raise_first_bad_row(path, body, start, width)
        raise
    if not np.isfinite(rows).all():
        _raise_first_bad_row(path, body, start, width)

    labels = None
    if has_labels:
        raw_labels = rows[:, -1]
        rows = rows[:, :-1]
        labels = _integer_labels(raw_labels, lambda i: f"{path}: row {start + i + 1}")

    if rows.shape[0] < 3:
        raise ValueError(f"{path}: need at least 3 points, got {rows.shape[0]}")
    return DataMatrix(rows.T), labels


def save_csv(x: DataMatrix, path, labels: Labels | None = None) -> None:
    """Write points as CSV rows (17 significant digits, so values round-trip)."""
    if labels is not None and labels.n != x.n:
        raise ValueError("labels length does not match point count")
    table, fmt = x.values.T, ["%.17g"] * x.dim
    if labels is not None:
        table, fmt = np.column_stack([table, labels.assignments]), fmt + ["%d"]
    with open(path, "w", newline="") as fh:
        np.savetxt(fh, table, fmt=fmt, delimiter=",", newline="\r\n")


def load_npz(path, has_labels: bool = False):
    """Load the binary matrix format: an .npz with ``values`` (dim x N) and
    optionally ``labels`` (length N integers)."""
    with np.load(path) as archive:
        if "values" not in archive:
            raise ValueError(f"{path}: missing 'values' array")
        try:
            x = DataMatrix(archive["values"])
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        labels = None
        if has_labels:
            if "labels" not in archive:
                raise ValueError(f"{path}: labels requested but no 'labels' array")
            raw = archive["labels"]
            if raw.ndim != 1 or raw.size != x.n:
                raise ValueError(f"{path}: 'labels' must be a length-N vector")
            labels = _integer_labels(raw, lambda i: f"{path}: 'labels' entry {i}")
    return x, labels


def save_npz(x: DataMatrix, path, labels: Labels | None = None) -> None:
    arrays = {"values": x.values}
    if labels is not None:
        if labels.n != x.n:
            raise ValueError("labels length does not match point count")
        arrays["labels"] = labels.assignments
    np.savez(path, **arrays)


def save_labels(labels: Labels, path) -> None:
    """One cluster id per line."""
    with open(path, "w") as fh:
        np.savetxt(fh, labels.assignments, fmt="%d")


def load_labels(path) -> Labels:
    with open(path) as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty label file")
    try:
        raw = np.array([int(line) for line in lines], dtype=np.int64)
    except ValueError as exc:
        raise ValueError(f"{path}: labels must be integers ({exc})") from None
    return _integer_labels(raw, lambda i: f"{path}: label {i}")


def normalize_columns(x: DataMatrix) -> DataMatrix:
    """Rescale every column to unit Euclidean norm, preserving direction."""
    norms = np.linalg.norm(x.values, axis=0)
    tiny = np.flatnonzero(norms < MIN_COLUMN_NORM)
    if tiny.size:
        raise ValueError(
            f"column {int(tiny[0])} has norm {norms[tiny[0]]:.3e}, too close to zero to normalize"
        )
    return DataMatrix(x.values / norms, unit_normalized=True)


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
    values = np.hstack(blocks)
    labels = Labels(np.repeat(np.arange(s), spec.points_per_subspace), s)
    return normalize_columns(DataMatrix(values)), labels


def _check_noise_args(sigma: float, variance: float) -> None:
    if not 0.0 <= sigma <= 1.0:
        raise ValueError(f"noise rate sigma must be in [0, 1], got {sigma}")
    if not 0.0 < variance < math.inf:
        raise ValueError(f"noise variance must be positive and finite, got {variance}")


def _perturbed_values(x: DataMatrix, sigma: float, variance: float, rng):
    """Raw corruption step: pick round(sigma*N) columns and add N(0, variance)
    noise per coordinate. Returns the perturbed (un-normalized) values plus
    the chosen column indices."""
    count = min(round_half_away_from_zero(sigma * x.n), x.n)
    picked = rng.choice(x.n, size=count, replace=False)
    out = x.values.copy()
    if count:
        out[:, picked] += rng.normal(0.0, math.sqrt(variance), size=(x.dim, count))
    return out, picked


def add_gaussian_noise(
    x: DataMatrix, sigma: float, variance: float = 0.01, rng_seed: int = 0
) -> DataMatrix:
    """Corrupt a fraction ``sigma`` of columns with additive Gaussian noise.

    Noise (zero mean, ``variance`` per coordinate) is added to the raw
    columns, then the whole matrix is re-normalized to unit columns. With
    ``sigma=0`` the result equals ``normalize_columns(x)`` exactly.
    """
    _check_noise_args(sigma, variance)
    rng = np.random.default_rng(rng_seed)
    perturbed, _ = _perturbed_values(x, sigma, variance, rng)
    return normalize_columns(DataMatrix(perturbed))


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
    return normalize_columns(DataMatrix((1.0 - sigma) * x.values + sigma * noise))
