import numpy as np
import pytest
from conftest import random_orthogonal
from oracles import k_array_reference

from sscomp import DataMatrix, normalize_columns
from sscomp.adaptive import (
    PARTITION_ROWS,
    KArray,
    NeighborhoodScore,
    compute_k_array,
    gram_matrix,
    neighborhood_scores,
)
from sscomp.util import round_half_away_from_zero


def three_point_matrix():
    # two identical unit columns plus one orthogonal to both
    return DataMatrix(
        np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), unit_normalized=True
    )


def identical_points(n: int) -> DataMatrix:
    column = np.random.default_rng(42).standard_normal(5)
    return normalize_columns(DataMatrix(np.tile(column[:, None], (1, n))))


class TestGram:
    def test_values_and_freeze(self, unit_matrix):
        x = unit_matrix(6, 10, seed=1)
        g = gram_matrix(x)
        np.testing.assert_allclose(g, x.values.T @ x.values)
        np.testing.assert_allclose(np.diag(g), 1.0, atol=1e-12)
        with pytest.raises(ValueError):
            g[0, 0] = 3.0

    def test_requires_unit_columns(self):
        with pytest.raises(ValueError, match="unit-normalized"):
            gram_matrix(DataMatrix(2 * np.eye(3)))


class TestNeighborhoodScores:
    def test_duplicate_pair_plus_orthogonal(self):
        # hand-computed: raw means (1, 1, 0); rescaled to (2, 2, 0) at k=2
        scores = neighborhood_scores(three_point_matrix(), 2)
        np.testing.assert_allclose(scores.raw_mean, [1.0, 1.0, 0.0], atol=1e-15)
        assert scores.max_d == pytest.approx(1.0)
        assert scores.min_d == pytest.approx(0.0)
        np.testing.assert_allclose(scores.normalized, [2.0, 2.0, 0.0], atol=1e-14)

    def test_endpoints_map_to_zero_and_k(self, unit_matrix):
        x = unit_matrix(5, 20, seed=3)
        scores = neighborhood_scores(x, 6)
        lo = int(np.argmin(scores.raw_mean))
        hi = int(np.argmax(scores.raw_mean))
        assert scores.normalized[lo] == 0.0
        assert scores.normalized[hi] == 6.0

    def test_degenerate_equal_scores_pin_midpoint(self):
        # all points identical: every off-diagonal cosine is the same float,
        # so max_d == min_d and the rescaling is undefined
        x = identical_points(6)
        scores = neighborhood_scores(x, 4)
        assert scores.max_d == scores.min_d
        np.testing.assert_array_equal(scores.normalized, np.full(6, 2.0))

    def test_matches_reference_on_random_input(self, unit_matrix):
        for seed in range(5):
            x = unit_matrix(7, 25, seed=seed)
            k = 5 + seed
            means, normalized, _, _ = k_array_reference(x.values, k)
            scores = neighborhood_scores(x, k)
            np.testing.assert_allclose(scores.raw_mean, means, atol=1e-12)
            np.testing.assert_allclose(scores.normalized, normalized, atol=1e-10)

    @pytest.mark.parametrize("n", [PARTITION_ROWS - 1, PARTITION_ROWS + 1, 2 * PARTITION_ROWS + 3])
    def test_row_blocks_match_whole_row_sort_bitwise(self, unit_matrix, n):
        # rows are partitioned a block at a time: across block edges the
        # means must equal those of sorting every whole Gram row
        x = unit_matrix(6, n, seed=n)
        k = 9
        ranked = -np.sort(-gram_matrix(x), axis=1)
        expected = ranked[:, 1:k].mean(axis=1)
        assert neighborhood_scores(x, k).raw_mean.tobytes() == expected.tobytes()

    def test_k_bounds(self, unit_matrix):
        x = unit_matrix(4, 8, seed=0)
        with pytest.raises(ValueError, match="at least 2"):
            neighborhood_scores(x, 1)
        with pytest.raises(ValueError, match="at most N-1"):
            neighborhood_scores(x, 8)
        neighborhood_scores(x, 7)
        for score in (neighborhood_scores, compute_k_array):
            for k in (2.5, 3.0):
                with pytest.raises(ValueError, match=f"an integer of at least 2 .*got {k}"):
                    score(x, k)

    def test_requires_unit_columns(self):
        with pytest.raises(ValueError, match="unit-normalized"):
            neighborhood_scores(DataMatrix(np.eye(3) * 2), 2)

    def test_invariant_validation(self):
        with pytest.raises(ValueError, match="min_d"):
            NeighborhoodScore(np.array([0.5]), max_d=0.4, min_d=0.0,
                              normalized=np.array([0.1]), base_k=2)
        with pytest.raises(ValueError, match=r"\[0, 2\]"):
            NeighborhoodScore(np.array([0.5]), max_d=1.0, min_d=0.0,
                              normalized=np.array([3.0]), base_k=2)


class TestKArrayType:
    def test_positivity_enforced(self):
        with pytest.raises(ValueError, match="at least 1"):
            KArray(np.array([0, 2, 2, 2]), 2)

    def test_upper_cap_enforced(self):
        with pytest.raises(ValueError, match="N-2"):
            KArray(np.array([1, 1, 1, 3]), 2)
        KArray(np.array([1, 1, 1, 2]), 2)

    @pytest.mark.parametrize("make", [
        lambda: KArray(np.full(24, 2.7), 2),
        lambda: KArray(np.full(24, 2.0), 2),
        lambda: KArray.uniform(2.5, 10),
    ], ids=["fractional", "whole-float", "uniform-fractional"])
    def test_non_integer_budgets_rejected(self, make):
        with pytest.raises(ValueError, match=r"budgets must be integers in \[1, N-2\]"):
            make()

    @pytest.mark.parametrize("base_k", [2.5, 0, None])
    def test_base_k_must_be_positive_integer(self, base_k):
        with pytest.raises(ValueError, match=f"base_k must be an integer of at least 1, "
                                             f"got {base_k!r}"):
            KArray(np.full(24, 2), base_k)

    def test_range_checked_before_base_k(self):
        # a uniform budget of 0 is out of range whatever base_k says
        with pytest.raises(ValueError, match=r"at least 1, in \[1, N-2\] = \[1, 8\], got 0"):
            KArray.uniform(0, 10)
        with pytest.raises(ValueError, match=r"at most N-2, in \[1, N-2\] = \[1, 8\], got 9"):
            KArray.uniform(9, 10)

    def test_integer_dtypes_stored_as_int64(self):
        ka = KArray(np.full(6, 2, dtype=np.int32), np.int64(2))
        assert ka.sizes.dtype == np.int64

    def test_uniform_helper(self):
        ka = KArray.uniform(3, 10)
        assert ka.n == 10
        assert (ka.sizes == 3).all()

    def test_frozen(self):
        ka = KArray.uniform(2, 5)
        with pytest.raises(ValueError):
            ka.sizes[0] = 9


class TestComputeKArray:
    def test_offset_arithmetic_worked_example(self):
        # normalized scores (0, k/2, k) at k=8: offset = 8 - round(4) = 4,
        # so the budgets come out (4, 8, 12)
        normalized = np.array([0.0, 4.0, 8.0])
        offset = 8 - round_half_away_from_zero(float(normalized.mean()))
        sizes = offset + round_half_away_from_zero(normalized)
        assert sizes.tolist() == [4, 8, 12]

    def test_degenerate_input_yields_uniform_k(self):
        x = identical_points(7)
        for k in (2, 3, 4, 5):
            ka = compute_k_array(x, k)
            assert (ka.sizes == k).all()

    def test_matches_reference(self, unit_matrix):
        for seed in range(8):
            x = unit_matrix(6, 20 + seed, seed=seed)
            k = 4 + (seed % 5)
            *_, clamped = k_array_reference(x.values, k)
            ka = compute_k_array(x, k)
            assert ka.sizes.tolist() == clamped

    def test_pre_clamp_mean_within_one_of_k(self, unit_matrix):
        for seed in range(10):
            x = unit_matrix(5, 30, seed=100 + seed)
            k = 3 + seed
            scores = neighborhood_scores(x, k)
            offset = k - round_half_away_from_zero(float(scores.normalized.mean()))
            pre_clamp = offset + round_half_away_from_zero(scores.normalized)
            assert abs(pre_clamp.mean() - k) <= 1.0

    def test_rotation_invariance(self, unit_matrix):
        x = unit_matrix(8, 24, seed=4)
        k = 6
        base = compute_k_array(x, k)
        for seed in range(3):
            q = random_orthogonal(8, seed=seed)
            rotated = DataMatrix(q @ x.values, unit_normalized=False)
            # rotation preserves norms; re-tag rather than renormalize
            rotated = normalize_columns(rotated)
            ka = compute_k_array(rotated, k)
            assert np.array_equal(ka.sizes, base.sizes)

    def test_permutation_equivariance(self, unit_matrix):
        x = unit_matrix(6, 15, seed=5)
        k = 4
        base = compute_k_array(x, k)
        rng = np.random.default_rng(0)
        perm = rng.permutation(15)
        shuffled = DataMatrix(x.values[:, perm], unit_normalized=True)
        ka = compute_k_array(shuffled, k)
        assert np.array_equal(ka.sizes, base.sizes[perm])

    def test_deterministic(self, unit_matrix):
        x = unit_matrix(5, 18, seed=6)
        a = compute_k_array(x, 5)
        b = compute_k_array(x, 5)
        assert np.array_equal(a.sizes, b.sizes)

    def test_gram_reuse_gives_identical_result(self, unit_matrix):
        x = unit_matrix(5, 16, seed=7)
        g = gram_matrix(x)
        assert np.array_equal(
            compute_k_array(x, 4).sizes, compute_k_array(x, 4, gram=g).sizes
        )

    def test_spread_on_clustered_data(self, oracle_dataset):
        # clustered data must actually spread the budgets (dense cores above
        # k, boundaries below)
        x, _ = oracle_dataset
        ka = compute_k_array(x, 8)
        assert ka.sizes.max() > 8
        assert ka.sizes.min() < 8
        assert ka.sizes.std() > 0
