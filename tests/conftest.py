import numpy as np
import pytest

from sscomp import DataMatrix, SyntheticSpec, generate_synthetic, normalize_columns


@pytest.fixture(scope="session")
def oracle_dataset():
    """Five orthogonal 5-dim subspaces in R^50, 40 points each.

    Cross-subspace inner products are exactly zero by construction, so the
    greedy solver can never select a wrong-cluster atom: PERC must be 100,
    SSR must be 0, and the affinity graph is block-diagonal.
    """
    spec = SyntheticSpec(
        n_subspaces=5, subspace_dim=5, ambient_dim=50,
        points_per_subspace=40, rng_seed=11,
    )
    return generate_synthetic(spec)


@pytest.fixture
def unit_matrix():
    """Factory for random unit-column DataMatrix instances."""

    def make(dim: int, n: int, seed: int = 0) -> DataMatrix:
        rng = np.random.default_rng(seed)
        return normalize_columns(DataMatrix(rng.standard_normal((dim, n))))

    return make


def random_orthogonal(dim: int, seed: int) -> np.ndarray:
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def column(coefs, i: int):
    """(support indices, coefficient values) of column i of a CoefMatrix,
    read from its compressed sparse columns."""
    m = coefs.matrix
    lo, hi = m.indptr[i], m.indptr[i + 1]
    return m.indices[lo:hi], m.data[lo:hi]
