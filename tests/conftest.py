import io

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


def _npz_bytes() -> bytes:
    buf = io.BytesIO()
    np.savez(buf, values=np.eye(3), labels=np.arange(3))
    return buf.getvalue()


# dataset files that the csv module cannot read, each with the start of the
# error it raises: a field over the module's 131072-character limit, a
# Latin-1 header that is not UTF-8, and a numpy .npz archive
UNREADABLE_CSVS = {
    "field-limit": (f"1,0,0\n0,1,0\n{'9' * 200_000},1,1\n".encode(),
                    "field larger than field limit"),
    "latin-1": ("caf\u00e9,x,label\n1,0,0\n0,1,0\n1,1,1\n".encode("latin-1"),
                "'utf-8' codec can't decode byte 0xe9"),
    "npz": (_npz_bytes(), "'utf-8' codec can't decode byte"),
}
unreadable_csvs = pytest.mark.parametrize(
    "content, shown", list(UNREADABLE_CSVS.values()), ids=list(UNREADABLE_CSVS))
