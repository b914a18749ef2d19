"""Independent reference implementations used to cross-check the package.

Everything here is written the slow, obvious way (plain loops, re-solving
from scratch, exhaustive enumeration) and deliberately avoids the package's
own code paths, so agreement between the two is meaningful.
"""

import itertools
import math

import numpy as np


def round_half_away(value: float) -> int:
    if value < 0:
        return -int(math.floor(-value + 0.5))
    return int(math.floor(value + 0.5))


def k_array_reference(values: np.ndarray, k: int):
    """Literal transcription of the budget-selection recipe.

    Returns (raw_means, normalized, pre_clamp_sizes, clamped_sizes); the
    Gram matrix is accumulated with plain Python sums.
    """
    dim, n = values.shape
    gram = [
        [sum(values[r, i] * values[r, j] for r in range(dim)) for j in range(n)]
        for i in range(n)
    ]
    means = []
    for row in gram:
        ranked = sorted(row, reverse=True)
        neighbors = ranked[1:k]
        means.append(sum(neighbors) / len(neighbors))
    max_d, min_d = max(means), min(means)
    if max_d == min_d:
        normalized = [k / 2.0] * n
    else:
        normalized = [k * (m - min_d) / (max_d - min_d) for m in means]
    offset = k - round_half_away(sum(normalized) / n)
    pre_clamp = [offset + round_half_away(v) for v in normalized]
    clamped = [min(max(s, 1), n - 2) for s in pre_clamp]
    return means, normalized, pre_clamp, clamped


def omp_reference(atoms: np.ndarray, target: np.ndarray, budget: int, eps: float,
                  exclude: int | None = None):
    """Naive greedy pursuit: re-solve the full least squares from scratch
    every iteration instead of updating a factorization.

    Returns (selected indices in order, coefficients over them).
    """
    n_atoms = atoms.shape[1]
    selected: list[int] = []
    coefs = np.empty(0)
    residual = target.astype(float).copy()
    while len(selected) < budget:
        if np.linalg.norm(residual) < eps:
            break
        corr = atoms.T @ residual
        best, best_mag = -1, -1.0
        for j in range(n_atoms):
            if j == exclude or j in selected:
                continue
            mag = abs(float(corr[j]))
            if mag > best_mag:
                best, best_mag = j, mag
        if best < 0 or best_mag < 1e-14:
            break
        selected.append(best)
        sub = atoms[:, selected]
        coefs, *_ = np.linalg.lstsq(sub, target, rcond=None)
        residual = target - sub @ coefs
    return selected, coefs


def accuracy_bruteforce(pred: np.ndarray, truth: np.ndarray) -> float:
    """Best match percentage over every injective relabeling, enumerated."""
    pred_ids = sorted(set(int(v) for v in pred))
    truth_ids = sorted(set(int(v) for v in truth))
    universe = max(len(pred_ids), len(truth_ids))
    slots = list(range(universe))
    best = 0
    for perm in itertools.permutations(slots, len(pred_ids)):
        mapping = dict(zip(pred_ids, perm))
        hits = sum(
            1
            for p, t in zip(pred, truth)
            if mapping[int(p)] < len(truth_ids) and truth_ids[mapping[int(p)]] == int(t)
        )
        best = max(best, hits)
    return 100.0 * best / len(pred)


def sea_reference(c_dense: np.ndarray) -> float:
    n = c_dense.shape[0]
    nnz_c = sum(1 for i in range(n) for j in range(n) if c_dense[i, j] != 0.0)
    nnz_a = sum(
        1
        for i in range(n)
        for j in range(n)
        if c_dense[i, j] != 0.0 or c_dense[j, i] != 0.0
    )
    return nnz_a / (2.0 * nnz_c)


def perc_reference(c_dense: np.ndarray, truth: np.ndarray) -> float:
    n = c_dense.shape[0]
    kept = 0
    for i in range(n):
        ok = True
        for j in range(n):
            if c_dense[j, i] != 0.0 and truth[j] != truth[i]:
                ok = False
                break
        kept += ok
    return 100.0 * kept / n


def ssr_reference(c_dense: np.ndarray, truth: np.ndarray) -> float:
    n = c_dense.shape[0]
    total = 0.0
    for i in range(n):
        l1 = sum(abs(c_dense[j, i]) for j in range(n))
        if l1 <= 0.0:
            continue
        wrong = sum(abs(c_dense[j, i]) for j in range(n) if truth[j] != truth[i])
        total += wrong / l1
    return 100.0 * total / n


def normalized_laplacian_reference(weights: np.ndarray) -> np.ndarray:
    """I - D^{-1/2} W D^{-1/2} from dense weights, symmetrized as
    (L + L^T) / 2; an isolated vertex keeps an identity row."""
    degrees = weights.sum(axis=1)
    scale = np.zeros_like(degrees)
    positive = degrees > 0.0
    scale[positive] = 1.0 / np.sqrt(degrees[positive])
    lap = np.eye(weights.shape[0]) - scale[:, None] * weights * scale[None, :]
    return (lap + lap.T) / 2.0


def fiedler_reference(weights: np.ndarray) -> float:
    """Second-smallest eigenvalue of I - D^{-1/2} W D^{-1/2}, or 0 for
    graphs with under 2 vertices or any isolated vertex."""
    m = weights.shape[0]
    if m < 2:
        return 0.0
    if weights.sum(axis=1).min() <= 0.0:
        return 0.0
    eigenvalues = np.sort(np.linalg.eigvalsh(normalized_laplacian_reference(weights)))
    return max(float(eigenvalues[1]), 0.0)


def connectivity_reference(weights: np.ndarray, truth: np.ndarray) -> float:
    values = []
    for c in sorted(set(int(v) for v in truth)):
        members = [i for i, t in enumerate(truth) if t == c]
        sub = weights[np.ix_(members, members)]
        values.append(fiedler_reference(sub))
    return min(values)
