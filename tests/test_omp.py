import hashlib
import logging

import numpy as np
import pytest
from conftest import column, random_orthogonal
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import omp_reference
from scipy import sparse

from sscomp import DataMatrix, normalize_columns
from sscomp.adaptive import KArray, compute_k_array, gram_matrix
from sscomp.data import SyntheticSpec, add_gaussian_noise, generate_synthetic
from sscomp.omp import (
    BLOCK,
    STOPS,
    CoefMatrix,
    _pursue,
    omp_solve,
    ssc_omp,
    ssc_omp_adaptive,
)


def pursue_one(atoms, target, budget, eps, exclude=None, gram=None):
    """One target through the block kernel, as a block of one. The target
    is the atom ``exclude``; without one it is appended to ``atoms`` and
    excluded there. Rows come from ``gram`` when given, otherwise from
    ``atoms``."""
    if exclude is None:
        atoms, exclude = np.column_stack([atoms, target]), atoms.shape[1]

    def rows(j, out):
        if gram is None:
            np.matmul(atoms[:, j].T, atoms, out=out)
        else:
            gram.take(j, axis=0, out=out)

    cap = min(budget, atoms.shape[1] - 1)
    [support], [coefs], [stop] = _pursue(
        rows, atoms.shape[1], np.array([exclude]), np.array([cap]), eps)
    kept = coefs != 0
    return support[kept], coefs[kept], STOPS[stop - 1]


def stop_mix(n: int, seed: int):
    """n >= 12 unit points in R^40 whose pursuits, under the budgets
    returned with them (mixed, 1..n-2), end in every reason of STOPS.

    Coordinates 0-2 hold a point 0.7 e0 + 0.5 e1 + 0.5 e2 (point 0) over a
    near-duplicate pair e0, e0 + 1e-10 e2 (points 1 and 2) and e1 (point
    3): with a budget of at least 3 it takes one of the pair and e1, and
    then the other one of the pair is its best atom, inside the active
    span (rank). Point 4 is e3, which nothing else touches (zero
    correlation). Points 5-9 lie in the plane of e4 and e5, so two of
    them fit a third exactly (eps). The rest are generic in coordinates
    6-39 and mostly run out of budget. Returns (data, budgets, the
    indices of points with a near-duplicate of their own).
    """
    rng = np.random.default_rng(seed)
    values = np.zeros((40, n))
    values[:3, 0] = [0.7, 0.5, 0.5]
    values[[0, 2], 2] = [1.0, 1e-10]
    values[0, 1] = values[1, 3] = values[3, 4] = 1.0
    values[4:6, 5:10] = rng.standard_normal((2, 5))
    values[6:, 10:] = rng.standard_normal((34, n - 10))
    budgets = rng.integers(1, n - 1, size=n)
    budgets[0] = max(budgets[0], 3)
    budgets[5:10] = np.maximum(budgets[5:10], 2)
    return normalize_columns(DataMatrix(values)), budgets, [1, 2]


def orthonormal_dictionary(dim: int, n_atoms: int, seed: int = 0) -> DataMatrix:
    q = random_orthogonal(dim, seed)[:, :n_atoms]
    return DataMatrix(q)


class TestCoefMatrix:
    def test_zero_diagonal_enforced(self):
        with pytest.raises(ValueError, match="diagonal"):
            CoefMatrix.from_triplets([1, 1], [1, 0], [2.0, 1.0], 3)

    def test_finite_enforced(self):
        with pytest.raises(ValueError, match="non-finite"):
            CoefMatrix.from_triplets([0], [1], [np.inf], 3)

    def test_explicit_zeros_pruned(self):
        c = CoefMatrix.from_triplets([0, 1], [1, 0], [0.0, 2.0], 3)
        assert c.nnz == 1

    def test_frozen_buffers(self):
        c = CoefMatrix.from_triplets([0], [1], [1.0], 3)
        with pytest.raises(ValueError):
            c.matrix.data[0] = 9.0

    def test_leaves_caller_matrix_untouched(self):
        m = sparse.csc_array(np.array([[0.0, 2.0], [3.0, 0.0]]))
        first, second = CoefMatrix(m), CoefMatrix(m)
        for buf in (m.data, m.indices, m.indptr):
            assert buf.flags.writeable
        m.data[:] = 7.0
        assert first.matrix.data.tolist() == second.matrix.data.tolist() == [3.0, 2.0]


class TestOmpSolve:
    def test_argument_validation(self, unit_matrix):
        d = unit_matrix(5, 6, seed=8)
        target = np.ones(5)
        for k in (0, 2.5):
            with pytest.raises(ValueError, match=f"k must be an integer of at least 1, got {k!r}"):
                omp_solve(d, target, k)
        for bad in (-1e-9, np.nan, np.inf):
            with pytest.raises(ValueError, match="eps must be a finite number"):
                omp_solve(d, target, 2, bad)
        omp_solve(d, target, 1, 0.0)

    def test_exact_atom_match(self):
        # with atom 0 the fit stops before its budget, and the padding
        # slots, which name atom 0, must leave its coefficient in place
        d = orthonormal_dictionary(6, 5, seed=1)
        for atom in (3, 0):
            coefs = omp_solve(d, d.values[:, atom], 4)
            expected = np.zeros(5)
            expected[atom] = 1.0
            np.testing.assert_allclose(coefs, expected, atol=1e-12)

    def test_two_atom_orthonormal_combination(self):
        d = orthonormal_dictionary(8, 6, seed=2)
        target = 2.0 * d.values[:, 1] + 0.5 * d.values[:, 2]
        coefs = omp_solve(d, target, 2)
        assert coefs[1] == pytest.approx(2.0, abs=1e-12)
        assert coefs[2] == pytest.approx(0.5, abs=1e-12)
        assert np.linalg.norm(d.values @ coefs - target) < 1e-12

    def test_budget_one_returns_best_inner_product(self, unit_matrix):
        d = unit_matrix(7, 9, seed=3)
        target = np.random.default_rng(4).standard_normal(7)
        coefs = omp_solve(d, target, 1, 0.0)
        support = np.flatnonzero(coefs)
        assert support.size == 1
        j = int(support[0])
        corr = d.values.T @ target
        assert j == int(np.argmax(np.abs(corr)))
        assert coefs[j] == pytest.approx(float(corr[j]), abs=1e-12)

    def test_matches_naive_reference(self, unit_matrix):
        rng = np.random.default_rng(5)
        for case in range(30):
            d = unit_matrix(10, 16, seed=100 + case)
            target = rng.standard_normal(10)
            budget = int(rng.integers(1, 7))
            support, coefs, _ = pursue_one(d.values, target, budget, 1e-6)
            ref_support, ref_coefs = omp_reference(d.values, target, budget, 1e-6)
            assert support.tolist() == ref_support
            np.testing.assert_allclose(coefs, ref_coefs, atol=1e-9)

    def test_residual_norms_non_increasing(self, unit_matrix):
        d = unit_matrix(12, 20, seed=6)
        target = np.random.default_rng(7).standard_normal(12)
        norms = []
        for budget in range(1, 9):
            coefs = omp_solve(d, target, budget, 0.0)
            norms.append(np.linalg.norm(d.values @ coefs - target))
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    def test_dimension_mismatch(self, unit_matrix):
        d = unit_matrix(5, 6)
        with pytest.raises(ValueError, match="dimension"):
            omp_solve(d, np.ones(4), 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_target_rejected(self, unit_matrix, bad):
        d = unit_matrix(5, 6, seed=8)
        target = np.ones(5)
        target[2] = bad
        with pytest.raises(ValueError, match="target contains non-finite"):
            omp_solve(d, target, 3)

    def test_requires_unit_dictionary(self):
        with pytest.raises(ValueError, match="unit-normalized"):
            omp_solve(DataMatrix(np.eye(3) * 2), np.ones(3), 1)

    @pytest.mark.parametrize("scale", [1.0, 1 + 1e-12])
    def test_plain_unit_dictionary_accepted(self, scale):
        # a plain DataMatrix of unit columns is enough; a rounding-sized
        # deviation from unit norm passes
        values = np.eye(3)
        values[2, 2] = scale
        coefs = omp_solve(DataMatrix(values), np.array([1.0, 2.0, 0.0]), 2)
        np.testing.assert_allclose(coefs, [1.0, 2.0, 0.0], atol=1e-12)

    def test_off_unit_column_named(self):
        values = np.eye(3)
        values[2, 2] = 1 + 1e-6
        with pytest.raises(ValueError, match=r"dictionary must be unit-normalized: the norm "
                                             r"of column 2 deviates from 1 by \+1\.000e-06"):
            omp_solve(DataMatrix(values), np.ones(3), 1)

    def test_zero_target_selects_nothing(self, unit_matrix):
        d = unit_matrix(5, 6, seed=8)
        coefs = omp_solve(d, np.zeros(5), 3)
        assert not coefs.any()

    @pytest.mark.parametrize("scale", [1e-150, 1e-20, 1e20, 1e150])
    def test_scaled_target_scales_coefficients(self, unit_matrix, scale):
        # the residual floor and the zero-correlation test are absolute, so
        # the target is coded at unit norm and the answer scaled back
        d = unit_matrix(10, 16, seed=21)
        target = np.random.default_rng(22).standard_normal(10)
        for k, eps in ((3, 0.0), (6, 1e-6), (10, 0.5)):
            expected = scale * omp_solve(d, target, k, eps)
            np.testing.assert_allclose(
                omp_solve(d, scale * target, k, scale * eps), expected,
                rtol=1e-12, atol=0)

    def test_target_norm_overflow_rejected(self, unit_matrix):
        d = unit_matrix(3, 4, seed=23)
        with pytest.raises(ValueError, match="target norm is not finite in float64"):
            omp_solve(d, np.full(3, 1.5e308), 2)

    def test_orthonormal_exact_recovery(self):
        # combinations of m atoms of an orthonormal dictionary come back
        # exactly, residual below 1e-10
        rng = np.random.default_rng(9)
        for case in range(20):
            dim = int(rng.integers(8, 32))
            d = orthonormal_dictionary(dim, dim, seed=200 + case)
            m = int(rng.integers(1, 6))
            chosen = rng.choice(dim, size=m, replace=False)
            weights = rng.standard_normal(m) + np.sign(rng.standard_normal(m))
            target = d.values[:, chosen] @ weights
            coefs = omp_solve(d, target, m, 1e-10)
            assert np.linalg.norm(d.values @ coefs - target) < 1e-10

    def test_rank_deficient_set_stops_before_in_span_atom(self):
        # third atom numerically inside the span of the first: its
        # correlation clears the dust threshold, but adding it would make
        # the triangular factor singular, so the pursuit stops and solves
        # on the two atoms it holds
        e1, e2, e3 = np.eye(4)[:, 0], np.eye(4)[:, 1], np.eye(4)[:, 2]
        near_dup = e1 + 1e-13 * e3
        near_dup /= np.linalg.norm(near_dup)
        atoms = np.stack([near_dup, e2, e1], axis=1)
        target = 0.7 * e1 + 0.5 * e2 + 0.5 * e3
        target /= np.linalg.norm(target)
        support, coefs, stop = pursue_one(atoms, target, 3, 0.0)
        assert stop == "rank"
        assert support.size == 2 and not {0, 2} <= set(support.tolist())
        assert np.abs(coefs).max() <= 1.0
        residual = target - atoms[:, support] @ coefs
        assert np.linalg.norm(residual) <= 0.51

    def test_squared_distance_bound_stops(self):
        # the near-duplicate lies 1e-9 from the active span: above RANK_TOL
        # as a distance, below it as the squared distance the Gram-space
        # loop measures, so the pursuit stops before adding it
        e1, e2, e3 = np.eye(4)[:, 0], np.eye(4)[:, 1], np.eye(4)[:, 2]
        near_dup = e1 + 1e-9 * e3
        near_dup /= np.linalg.norm(near_dup)
        atoms = np.stack([near_dup, e2, e1], axis=1)
        target = 0.7 * e1 + 0.5 * e2 + 0.5 * e3
        target /= np.linalg.norm(target)
        support, coefs, stop = pursue_one(atoms, target, 3, 0.0)
        assert stop == "rank"
        assert support.size == 2 and not {0, 2} <= set(support.tolist())
        assert np.abs(coefs).max() <= 1.0
        residual = target - atoms[:, support] @ coefs
        assert np.linalg.norm(residual) <= 0.51

    def test_rounding_dust_dropped(self):
        # the target is exactly e1 + e2 (scaled), so after all three atoms
        # the first one's coefficient is rounding dust, not a real weight
        e1, e2, e3 = np.eye(3)
        tilted = e1 + e2 + 0.3 * e3
        atoms = np.stack([tilted / np.linalg.norm(tilted), e1, e2], axis=1)
        target = (e1 + e2) / np.sqrt(2.0)
        support, coefs, _ = pursue_one(atoms, target, 3, 0.0)
        assert sorted(support.tolist()) == [1, 2]
        np.testing.assert_allclose(coefs, [1 / np.sqrt(2.0)] * 2, atol=1e-12)

    def test_stop_reasons(self):
        d = orthonormal_dictionary(8, 8, seed=3)
        exact = d.values[:, [1, 4]] @ [0.6, -0.8]
        # eps is checked first: an exact fit on the last budgeted atom
        # counts as reaching eps
        assert pursue_one(d.values, exact, 2, 1e-6)[2] == "eps"
        assert pursue_one(d.values, exact, 1, 1e-6)[2] == "budget"
        assert pursue_one(d.values, np.zeros(8), 3, 0.0)[2] == "zero_correlation"
        e1, e2, e3 = np.eye(4)[:, 0], np.eye(4)[:, 1], np.eye(4)[:, 2]
        near_dup = e1 + 1e-13 * e3
        near_dup /= np.linalg.norm(near_dup)
        atoms = np.stack([near_dup, e2, e1], axis=1)
        target = (0.7 * e1 + 0.5 * e2 + 0.5 * e3) / np.linalg.norm([0.7, 0.5, 0.5])
        assert pursue_one(atoms, target, 3, 0.0)[2] == "rank"

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_atoms=st.integers(2, 30),
        budget=st.integers(1, 8),
        extra_dim=st.integers(2, 12),
        eps=st.sampled_from([0.0, 1e-6]),
    )
    def test_gram_rows_match_reference(self, seed, n_atoms, budget, extra_dim, eps):
        rng = np.random.default_rng(seed)
        atoms = rng.standard_normal((budget + extra_dim, n_atoms))
        atoms /= np.linalg.norm(atoms, axis=0)
        i = int(rng.integers(n_atoms))
        target = atoms[:, i]
        ref_support, ref_coefs = omp_reference(atoms, target, budget, eps, exclude=i)
        for gram in (None, atoms.T @ atoms):
            support, coefs, _ = pursue_one(atoms, target, budget, eps, exclude=i, gram=gram)
            assert support.tolist() == ref_support
            np.testing.assert_allclose(coefs, ref_coefs, atol=1e-9)


    def test_near_duplicate_dictionaries_match_reference(self):
        # random atoms plus near-duplicates 1e-13..1e-7 away, all below
        # the rank edge; each target is a point with no near-duplicate of
        # its own, coded over the others
        rank_stops = 0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            dim, n = int(rng.integers(4, 12)), int(rng.integers(3, 12))
            base = rng.standard_normal((dim, n))
            base /= np.linalg.norm(base, axis=0)
            dups = rng.choice(n, size=int(rng.integers(1, n + 1)))
            offsets = rng.standard_normal((dim, dups.size))
            offsets *= 10.0 ** rng.uniform(-13, -7, size=dups.size)
            atoms = np.hstack([base, base[:, dups] + offsets])
            atoms /= np.linalg.norm(atoms, axis=0)
            lone = np.setdiff1d(np.arange(n), dups)
            if not lone.size:
                continue
            i = int(rng.choice(lone))
            budget = int(rng.integers(1, 8))
            ref_support, ref_coefs = omp_reference(atoms, atoms[:, i], budget, 0.0, exclude=i)
            for gram in (None, atoms.T @ atoms):
                support, coefs, stop = pursue_one(atoms, atoms[:, i], budget, 0.0,
                                                  exclude=i, gram=gram)
                assert support.tolist() == ref_support
                np.testing.assert_allclose(coefs, ref_coefs, atol=1e-9)
                rank_stops += stop == "rank"
        assert rank_stops > 0


class TestSscOmp:
    def test_orthogonal_points_give_zero_matrix(self):
        x = DataMatrix(np.eye(4))
        c = ssc_omp(x, 1, 1e-6)
        assert c.nnz == 0

    def test_duplicate_points_express_each_other(self):
        # with k = 2, column 1 stops on eps after atom 0 and keeps a padding slot
        values = np.array(
            [[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
        )
        for k in (1, 2):
            dense = ssc_omp(DataMatrix(values), k, 1e-6).matrix.toarray()
            assert dense[1, 0] == pytest.approx(1.0)
            assert dense[0, 1] == pytest.approx(1.0)

    def test_zero_diagonal_and_budget(self, unit_matrix):
        x = unit_matrix(6, 14, seed=10)
        k = 3
        c = ssc_omp(x, k, 0.0)
        assert not c.matrix.diagonal().any()
        for i in range(x.n):
            support, _ = column(c, i)
            assert support.size <= k
            assert i not in support.tolist()

    def test_columns_match_single_solves(self, unit_matrix):
        # column i must equal a plain solve over the dictionary with the
        # self atom masked out
        x = unit_matrix(8, 12, seed=11)
        c = ssc_omp(x, 4, 1e-6)
        for i in (0, 5, 11):
            ref_support, ref_coefs = omp_reference(
                x.values, x.values[:, i], 4, 1e-6, exclude=i
            )
            support, values = column(c, i)
            assert sorted(support.tolist()) == sorted(ref_support)
            order = np.argsort(support)
            ref_order = np.argsort(ref_support)
            np.testing.assert_allclose(
                values[order], np.asarray(ref_coefs)[ref_order], atol=1e-9
            )

    def test_k_range_validated(self, unit_matrix):
        x = unit_matrix(4, 6, seed=12)
        with pytest.raises(ValueError, match=r"\[1, N-2\]"):
            ssc_omp(x, 5, 1e-6)
        with pytest.raises(ValueError, match=r"\[1, N-2\]"):
            ssc_omp(x, 0, 1e-6)
        with pytest.raises(ValueError, match=r"\[1, N-2\]"):
            ssc_omp(x, 2.5, 1e-6)

    def test_gram_reuse_changes_nothing(self, unit_matrix):
        x = unit_matrix(7, 15, seed=13)
        plain = ssc_omp(x, 4, 1e-6)
        reused = ssc_omp_adaptive(x, KArray.uniform(4, x.n), 1e-6, gram=gram_matrix(x))
        rows_a, cols_a, vals_a = plain.triplets()
        rows_b, cols_b, vals_b = reused.triplets()
        assert rows_a.tolist() == rows_b.tolist()
        assert cols_a.tolist() == cols_b.tolist()
        np.testing.assert_allclose(vals_a, vals_b, atol=1e-12)

    @pytest.mark.parametrize("eps", [0.0, 1e-6])
    def test_tall_data_long_budgets_match_reference(self, eps):
        # faces-like shape, d >> N: noisy points near 6-dim subspaces, with
        # budgets past the subspace dimension so most steps form their
        # correlations from the Gram rows of long supports
        rng = np.random.default_rng(17)
        bases = [random_orthogonal(400, 30 + s)[:, :6] for s in range(4)]
        values = np.hstack([b @ rng.standard_normal((6, 10)) for b in bases])
        values += 0.05 * rng.standard_normal(values.shape)
        x = normalize_columns(DataMatrix(values))
        sizes = rng.integers(1, 13, size=x.n)
        for c, budgets in (
            (ssc_omp(x, 12, eps), np.full(x.n, 12)),
            (ssc_omp_adaptive(x, KArray(sizes, 6), eps), sizes),
        ):
            for i in range(x.n):
                ref_support, ref_coefs = omp_reference(
                    x.values, x.values[:, i], int(budgets[i]), eps, exclude=i
                )
                support, coefs = column(c, i)
                order = np.argsort(ref_support)
                assert support.tolist() == np.asarray(ref_support)[order].tolist()
                np.testing.assert_allclose(
                    coefs, np.asarray(ref_coefs)[order], atol=1e-9
                )

    def test_subspace_preserving_on_orthogonal_subspaces(self, oracle_dataset):
        x, y = oracle_dataset
        c = ssc_omp(x, 8, 1e-6)
        rows, cols, _ = c.triplets()
        assert (y.assignments[rows] == y.assignments[cols]).all()


class TestAdaptiveDriver:
    def test_uniform_budgets_reduce_to_baseline_bitwise(self, unit_matrix):
        x = unit_matrix(6, 12, seed=14)
        k = 4
        base = ssc_omp(x, k, 1e-6)
        adaptive = ssc_omp_adaptive(x, KArray.uniform(k, x.n), 1e-6)
        assert (base.matrix != adaptive.matrix).nnz == 0
        rows_a, cols_a, vals_a = base.triplets()
        rows_b, cols_b, vals_b = adaptive.triplets()
        assert vals_a.tolist() == vals_b.tolist()

    def test_per_column_budgets_respected(self, unit_matrix):
        x = unit_matrix(6, 10, seed=15)
        sizes = np.array([1, 2, 3, 1, 2, 3, 1, 2, 3, 1])
        c = ssc_omp_adaptive(x, KArray(sizes, 2), 0.0)
        for i in range(10):
            support, _ = column(c, i)
            assert support.size <= sizes[i]

    def test_length_mismatch_rejected(self, unit_matrix):
        x = unit_matrix(5, 9, seed=16)
        with pytest.raises(ValueError, match="covers"):
            ssc_omp_adaptive(x, KArray.uniform(2, 8), 1e-6)

    @pytest.mark.parametrize("bad", [-1e-9, np.nan, np.inf])
    def test_bad_eps_rejected(self, unit_matrix, bad):
        x = unit_matrix(5, 9, seed=16)
        with pytest.raises(ValueError, match="eps must be a finite number"):
            ssc_omp_adaptive(x, KArray.uniform(2, 9), bad)

    def test_gram_shape_checked(self, unit_matrix):
        x = unit_matrix(5, 9, seed=16)
        # a checked Gram of other data; a raw array is refused before its shape is read
        with pytest.raises(ValueError, match="gram must be 9 x 9"):
            ssc_omp_adaptive(x, KArray.uniform(2, 9), 1e-6,
                             gram=gram_matrix(unit_matrix(5, 8, seed=16)))
        with pytest.raises(TypeError, match="gram must be a Gram made by gram_matrix, got ndarray"):
            ssc_omp_adaptive(x, KArray.uniform(2, 9), 1e-6, gram=x.values.T @ x.values)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(4, 30),
        dim=st.integers(2, 12),
        k=st.integers(2, 29),
        eps=st.sampled_from([0.0, 1e-6]),
    )
    def test_gram_forms_agree_bitwise(self, seed, n, dim, k, eps):
        # budgets and C are the same bits whether the Gram is formed inside
        # or passed as a checked Gram; a raw array is refused by both
        rng = np.random.default_rng(seed)
        x = normalize_columns(DataMatrix(rng.standard_normal((dim, n))))
        k = min(k, n - 1)
        results = []
        for gram in (None, gram_matrix(x)):
            budgets = compute_k_array(x, k, gram=gram)
            c = ssc_omp_adaptive(x, budgets, eps, gram=gram)
            assert budgets.sizes.min() >= 1 and budgets.sizes.max() <= n - 2
            results.append([budgets.sizes.tobytes()] + [a.tobytes() for a in c.triplets()])
        assert results[1] == results[0]
        raw = np.array(x.values.T @ x.values)
        with pytest.raises(TypeError, match="gram must be a Gram made by gram_matrix, got ndarray"):
            compute_k_array(x, k, gram=raw)
        with pytest.raises(TypeError, match="gram must be a Gram made by gram_matrix, got ndarray"):
            ssc_omp_adaptive(x, budgets, eps, gram=raw)

    def stop_log(self, caplog, x, budgets, eps):
        with caplog.at_level(logging.DEBUG, logger="sscomp"):
            c = ssc_omp_adaptive(x, budgets, eps)
        lines = [r.getMessage() for r in caplog.records if r.name == "sscomp"]
        assert len(lines) == 1
        head, stops = lines[0].split(", stops ")
        assert head == f"self-expression: {x.n} points, nnz {c.nnz}"
        counts = dict(item.split("=") for item in stops.split())
        assert list(counts) == list(STOPS)
        return {name: int(n) for name, n in counts.items()}

    def test_near_duplicates_counted_as_rank_stops(self, caplog):
        e1, e2, e3, e4 = np.eye(4)
        values = np.stack([0.7 * e1 + 0.5 * e2 + 0.5 * e3, e1 + 1e-13 * e3, e2, e1, e4], axis=1)
        x = normalize_columns(DataMatrix(values))
        counts = self.stop_log(caplog, x, KArray.uniform(3, 5), 0.0)
        assert counts["rank"] >= 1
        assert sum(counts.values()) == 5

    @pytest.mark.parametrize("gap", [1e-13, 1e-9, 1e-7])
    def test_near_duplicates_get_bounded_coefficients(self, gap):
        # a near-duplicate pair spans its own tiny direction: a fit over
        # both would weight them by ~1/gap with opposite signs, and those
        # weights would swamp A = |C| + |C^T|
        e1, e2, e3, e4 = np.eye(4)
        values = np.stack([0.7 * e1 + 0.5 * e2 + 0.5 * e3, e1 + gap * e3, e2, e1, e4], axis=1)
        x = normalize_columns(DataMatrix(values))
        c = ssc_omp(x, 3, 0.0).matrix.toarray()
        assert np.abs(c).max() <= 1.0 + 1e-6
        residual = x.values[:, 0] - x.values @ c[:, 0]
        assert np.linalg.norm(residual) <= 0.51

    @pytest.mark.parametrize("gap, expected", [
        (1e-5, [50251.886603634666, 0.502518907629606, -50251.18307465139]),
        (3e-6, [167507.94177108112, 0.502518907629606, -167507.23824385667]),
    ], ids=["1e-05", "3e-06"])
    def test_near_duplicates_above_the_rank_edge_are_fitted(self, gap, expected):
        # w^2 ~ gap^2 lies above RANK_TOL, so the pair is fitted with ~1/gap
        # weights. A least-squares solve on the same support is off by 1e-7
        # to 1e-5 relative at these condition numbers, so the pursuit's own
        # values are pinned
        e1, e2, e3, e4 = np.eye(4)
        values = np.stack([0.7 * e1 + 0.5 * e2 + 0.5 * e3, e1 + gap * e3, e2, e1, e4], axis=1)
        x = normalize_columns(DataMatrix(values))
        c = ssc_omp(x, 3, 0.0).matrix.toarray()
        np.testing.assert_allclose(c[:, 0], [0.0, *expected, 0.0], rtol=1e-9, atol=0)

    @pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    def test_blocks_match_reference_and_solo_pursuits(self, caplog, n):
        # points are pursued in lockstep blocks of BLOCK: on either side of
        # a block edge, and with every stop reason inside a block, each
        # column must equal the reference and its own block-of-one pursuit,
        # and the logged stop counts the per-column tally
        x, sizes, has_duplicate = stop_mix(n, seed=n)
        gram = gram_matrix(x).values
        counts = self.stop_log(caplog, x, KArray(sizes, 8), 1e-6)
        c = ssc_omp_adaptive(x, KArray(sizes, 8), 1e-6)
        tally = dict.fromkeys(STOPS, 0)
        for i in range(n):
            solo_support, solo_coefs, stop = pursue_one(
                x.values, x.values[:, i], int(sizes[i]), 1e-6, exclude=i, gram=gram
            )
            tally[stop] += 1
            support, coefs = column(c, i)
            order = np.argsort(solo_support)
            assert support.tolist() == solo_support[order].tolist()
            np.testing.assert_allclose(coefs, solo_coefs[order], rtol=0, atol=1e-12)
            if i in has_duplicate:
                continue
            ref_support, ref_coefs = omp_reference(
                x.values, x.values[:, i], int(sizes[i]), 1e-6, exclude=i
            )
            assert solo_support.tolist() == ref_support
            np.testing.assert_allclose(solo_coefs, ref_coefs, atol=1e-9)
        assert counts == tally
        assert all(tally.values()), tally

    def test_permuting_points_permutes_supports(self):
        x, sizes, _ = stop_mix(2 * BLOCK + 3, seed=5)
        perm = np.random.default_rng(6).permutation(x.n)
        c = ssc_omp_adaptive(x, KArray(sizes, 8), 1e-6)
        moved = ssc_omp_adaptive(DataMatrix(x.values[:, perm]),
                                 KArray(sizes[perm], 8), 1e-6)
        for new, old in enumerate(perm):
            support, coefs = column(c, old)
            moved_support, moved_coefs = column(moved, new)
            order = np.argsort(perm[moved_support])
            assert perm[moved_support][order].tolist() == support.tolist()
            np.testing.assert_allclose(moved_coefs[order], coefs, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("budget", [3, 4])
    def test_exact_recovery_counted_as_eps_stops(self, caplog, budget):
        # every point lies in one 3-dim span, so 3 atoms fit it exactly (eps
        # sits above the ~1e-16 rounding of the Gram-space squared
        # residual); with a budget of 3 the fit lands on the last budgeted
        # atom, and eps is checked before the budget
        rng = np.random.default_rng(19)
        basis = random_orthogonal(10, 20)[:, :3]
        x = normalize_columns(DataMatrix(basis @ rng.standard_normal((3, 8))))
        counts = self.stop_log(caplog, x, KArray.uniform(budget, 8), 1e-6)
        assert counts == {"eps": 8, "budget": 0, "zero_correlation": 0, "rank": 0}

    @pytest.mark.parametrize("budget, stop", [(3, "budget"), (4, "zero_correlation")])
    def test_exact_fit_at_eps_zero_is_no_eps_stop(self, caplog, budget, stop):
        # the exact fits above, with eps = 0: their tracked squared residual
        # is ~1e-17 of either sign, and must not decide the stop reason
        rng = np.random.default_rng(19)
        basis = random_orthogonal(10, 20)[:, :3]
        x = normalize_columns(DataMatrix(basis @ rng.standard_normal((3, 8))))
        counts = self.stop_log(caplog, x, KArray.uniform(budget, 8), 0.0)
        assert counts == {**dict.fromkeys(STOPS, 0), stop: 8}

    @pytest.mark.parametrize("spec, sigma, digests", [
        (SyntheticSpec(4, 9, 2016, 32, 1, orthogonal=False), 0.5,
         ("4e8370a702c4595fc234421cc78341dfb015aaaa", "d2cf19c74ce4b3021e1722835de374934121a38a")),
        (SyntheticSpec(5, 5, 50, 80, 1, orthogonal=False), 0.0,
         ("8809c6ba5a416805fb082b56b765d7d8549671a2", "f65e2eebc1398b3e3b09a45fbd110e7fa7d30c34")),
    ], ids=["faces", "synth"])
    def test_selections_are_pinned(self, spec, sigma, digests):
        # sha1 of C's indptr and indices (int64) from ssc_omp and
        # ssc_omp_adaptive at K=8 on small benchmark-shaped inputs (faces:
        # noisy, d=2016; synth: clean, d=50): a kernel rewrite must select
        # the same atoms
        x, _ = generate_synthetic(spec)
        if sigma:
            x = add_gaussian_noise(x, sigma, 1e-3, rng_seed=1)
        found = []
        for c in (ssc_omp(x, 8), ssc_omp_adaptive(x, compute_k_array(x, 8))):
            m = c.matrix
            found.append(hashlib.sha1(m.indptr.astype(np.int64).tobytes()
                                      + m.indices.astype(np.int64).tobytes()).hexdigest())
        assert tuple(found) == digests
