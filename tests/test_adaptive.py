import numpy as np
import pytest
from conftest import random_orthogonal
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import k_array_reference

from sscomp import DataMatrix, SyntheticSpec, generate_synthetic, normalize_columns
from sscomp.adaptive import (
    PARTITION_ROWS,
    KArray,
    checked_gram,
    compute_k_array,
    gram_matrix,
    neighborhood_scores,
)
from sscomp.util import round_half_away_from_zero


def three_point_matrix():
    # two identical unit columns plus one orthogonal to both
    return DataMatrix(
        np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    )


def identical_points(n: int) -> DataMatrix:
    column = np.random.default_rng(42).standard_normal(5)
    return normalize_columns(DataMatrix(np.tile(column[:, None], (1, n))))


class TestGram:
    def test_values_and_freeze(self, unit_matrix):
        x = unit_matrix(6, 10, seed=1)
        g = gram_matrix(x).values
        np.testing.assert_allclose(g, x.values.T @ x.values)
        np.testing.assert_allclose(np.diag(g), 1.0, atol=1e-12)
        with pytest.raises(ValueError):
            g[0, 0] = 3.0

    def test_requires_unit_columns(self):
        with pytest.raises(ValueError, match="unit-normalized"):
            gram_matrix(DataMatrix(2 * np.eye(3)))

    @pytest.mark.parametrize("scale", [1.0, 1 + 1e-12])
    def test_plain_unit_columns_accepted(self, scale):
        # a plain DataMatrix of unit columns is enough; a rounding-sized
        # deviation from unit norm passes
        values = np.eye(3)
        values[2, 2] = scale
        assert np.array_equal(gram_matrix(DataMatrix(values)).values, values.T @ values)

    def test_off_unit_column_named(self):
        values = np.eye(3)
        values[2, 2] = 1 + 1e-6
        with pytest.raises(ValueError, match=r"data must be unit-normalized: the norm of "
                                             r"column 2 deviates from 1 by \+1\.000e-06"):
            gram_matrix(DataMatrix(values))

    def test_checked_gram_passes_a_gram_through(self, unit_matrix):
        # a Gram is trusted as it is; a raw array is refused, never wrapped
        x = unit_matrix(6, 10, seed=1)
        g = gram_matrix(x)
        assert checked_gram(x, g) is g
        with pytest.raises(TypeError, match="gram must be a Gram made by gram_matrix, got ndarray"):
            checked_gram(x, x.values.T @ x.values)


class TestNeighborhoodScores:
    def test_duplicate_pair_plus_orthogonal(self):
        # hand-computed: raw means (1, 1, 0); rescaled to (2, 2, 0) at k=2
        scores = neighborhood_scores(three_point_matrix(), 2)
        assert scores.dtype == np.float64 and scores.shape == (3,)
        np.testing.assert_allclose(scores, [2.0, 2.0, 0.0], atol=1e-14)

    def test_endpoints_map_to_zero_and_k(self, unit_matrix):
        x = unit_matrix(5, 20, seed=3)
        means, *_ = k_array_reference(x.values, 6)
        scores = neighborhood_scores(x, 6)
        assert scores[np.argmin(means)] == 0.0
        assert scores[np.argmax(means)] == 6.0

    def test_degenerate_equal_scores_pin_midpoint(self):
        # all points identical: every off-diagonal cosine is the same float,
        # so every raw mean is equal and the rescaling is undefined
        x = identical_points(6)
        np.testing.assert_array_equal(neighborhood_scores(x, 4), np.full(6, 2.0))

    def test_matches_reference_on_random_input(self, unit_matrix):
        for seed in range(5):
            x = unit_matrix(7, 25, seed=seed)
            k = 5 + seed
            _, normalized, _, _ = k_array_reference(x.values, k)
            np.testing.assert_allclose(neighborhood_scores(x, k), normalized, atol=1e-10)

    @pytest.mark.parametrize("n", [PARTITION_ROWS - 1, PARTITION_ROWS + 1, 2 * PARTITION_ROWS + 3])
    def test_row_blocks_match_whole_row_sort_bitwise(self, unit_matrix, n):
        # rows are partitioned a block at a time: across block edges the
        # scores must equal the min-max rescale of the means of sorting
        # every whole Gram row
        x = unit_matrix(6, n, seed=n)
        k = 9
        ranked = -np.sort(-gram_matrix(x).values, axis=1)
        means = ranked[:, 1:k].mean(axis=1)
        expected = k * ((means - means.min()) / (means.max() - means.min()))
        assert neighborhood_scores(x, k).tobytes() == expected.tobytes()

    def test_k_bounds(self, unit_matrix):
        x = unit_matrix(4, 8, seed=0)
        with pytest.raises(ValueError, match="at least 2"):
            neighborhood_scores(x, 1)
        with pytest.raises(ValueError, match="at most N-1"):
            neighborhood_scores(x, 8)
        neighborhood_scores(x, 7)
        for score in (neighborhood_scores, compute_k_array):
            for k in (2.5, 3.0):
                with pytest.raises(ValueError,
                                   match=f"k must be an integer of at least 2, got {k}"):
                    score(x, k)

    def test_requires_unit_columns(self):
        with pytest.raises(ValueError, match="unit-normalized"):
            neighborhood_scores(DataMatrix(np.eye(3) * 2), 2)


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

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_unit_data_matches_reference(self, data):
        # budgets equal the oracle's clamped sizes and lie in [1, N-2]; the
        # oracle's sizes before clamping average within 1 of K
        n = data.draw(st.integers(min_value=3, max_value=20))
        k = data.draw(st.integers(min_value=2, max_value=n - 1))
        dim = data.draw(st.integers(min_value=2, max_value=6))
        seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
        x = normalize_columns(DataMatrix(np.random.default_rng(seed).standard_normal((dim, n))))
        *_, pre_clamp, clamped = k_array_reference(x.values, k)
        sizes = compute_k_array(x, k).sizes
        assert sizes.tolist() == clamped
        assert 1 <= sizes.min() and sizes.max() <= n - 2
        assert abs(np.mean(pre_clamp) - k) <= 1.0

    def test_pre_clamp_mean_within_one_of_k(self, unit_matrix):
        for seed in range(10):
            x = unit_matrix(5, 30, seed=100 + seed)
            k = 3 + seed
            scores = neighborhood_scores(x, k)
            offset = k - round_half_away_from_zero(float(scores.mean()))
            pre_clamp = offset + round_half_away_from_zero(scores)
            assert abs(pre_clamp.mean() - k) <= 1.0

    def test_rotation_invariance(self, unit_matrix):
        x = unit_matrix(8, 24, seed=4)
        k = 6
        base = compute_k_array(x, k)
        for seed in range(3):
            q = random_orthogonal(8, seed=seed)
            rotated = DataMatrix(q @ x.values)
            # rotation preserves norms up to rounding, which renormalizing removes
            rotated = normalize_columns(rotated)
            ka = compute_k_array(rotated, k)
            assert np.array_equal(ka.sizes, base.sizes)

    def test_permutation_equivariance(self, unit_matrix):
        x = unit_matrix(6, 15, seed=5)
        k = 4
        base = compute_k_array(x, k)
        rng = np.random.default_rng(0)
        perm = rng.permutation(15)
        shuffled = DataMatrix(x.values[:, perm])
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

    def test_gram_shape_checked(self):
        x, _ = generate_synthetic(SyntheticSpec(3, 2, 12, 8, rng_seed=1))
        other, _ = generate_synthetic(SyntheticSpec(3, 2, 12, 7, rng_seed=1))
        # a checked Gram of other data; a raw array is refused before its shape is read
        with pytest.raises(ValueError, match=f"gram must be {x.n} x {x.n}"):
            compute_k_array(x, 3, gram=gram_matrix(other))
        with pytest.raises(TypeError, match="gram must be a Gram made by gram_matrix, got ndarray"):
            compute_k_array(x, 3, gram=np.array(gram_matrix(x).values))

    def test_spread_on_clustered_data(self, oracle_dataset):
        # clustered data must actually spread the budgets (dense cores above
        # k, boundaries below)
        x, _ = oracle_dataset
        ka = compute_k_array(x, 8)
        assert ka.sizes.max() > 8
        assert ka.sizes.min() < 8
        assert ka.sizes.std() > 0
