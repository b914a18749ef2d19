import numpy as np
import pytest
from conftest import random_orthogonal
from oracles import omp_reference

from sscomp import DataMatrix, normalize_columns
from sscomp.adaptive import KArray
from sscomp.omp import CoefMatrix, OmpConfig, _greedy, omp_solve, ssc_omp, ssc_omp_adaptive


def orthonormal_dictionary(dim: int, n_atoms: int, seed: int = 0) -> DataMatrix:
    q = random_orthogonal(dim, seed)[:, :n_atoms]
    return DataMatrix(q, unit_normalized=True)


class TestOmpConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OmpConfig(max_atoms=0)
        with pytest.raises(ValueError):
            OmpConfig(max_atoms=2, residual_threshold=-1e-9)
        OmpConfig(max_atoms=1, residual_threshold=0.0)


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

    def test_column_accessor(self):
        c = CoefMatrix.from_triplets([0, 2], [1, 1], [3.0, -4.0], 4)
        support, values = c.column(1)
        assert support.tolist() == [0, 2]
        assert values.tolist() == [3.0, -4.0]
        empty_support, empty_values = c.column(0)
        assert empty_support.size == 0 and empty_values.size == 0

    def test_triplet_csv_round_trip(self, tmp_path):
        c = CoefMatrix.from_triplets([0, 2, 1], [1, 0, 3], [0.5, -1.25, 3.0], 5)
        path = tmp_path / "coefs.csv"
        c.save_csv(path)
        back = CoefMatrix.load_csv(path, 5)
        assert (c.matrix != back.matrix).nnz == 0

    def test_frozen_buffers(self):
        c = CoefMatrix.from_triplets([0], [1], [1.0], 3)
        with pytest.raises(ValueError):
            c.matrix.data[0] = 9.0


class TestOmpSolve:
    def test_exact_atom_match(self):
        d = orthonormal_dictionary(6, 5, seed=1)
        coefs = omp_solve(d, d.values[:, 3], OmpConfig(max_atoms=4))
        expected = np.zeros(5)
        expected[3] = 1.0
        np.testing.assert_allclose(coefs, expected, atol=1e-12)

    def test_two_atom_orthonormal_combination(self):
        d = orthonormal_dictionary(8, 6, seed=2)
        target = 2.0 * d.values[:, 1] + 0.5 * d.values[:, 2]
        coefs = omp_solve(d, target, OmpConfig(max_atoms=2))
        assert coefs[1] == pytest.approx(2.0, abs=1e-12)
        assert coefs[2] == pytest.approx(0.5, abs=1e-12)
        assert np.linalg.norm(d.values @ coefs - target) < 1e-12

    def test_budget_one_returns_best_inner_product(self, unit_matrix):
        d = unit_matrix(7, 9, seed=3)
        target = np.random.default_rng(4).standard_normal(7)
        coefs = omp_solve(d, target, OmpConfig(max_atoms=1, residual_threshold=0.0))
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
            support, coefs = _greedy(d.values, target, budget, 1e-6)
            ref_support, ref_coefs = omp_reference(d.values, target, budget, 1e-6)
            assert support.tolist() == ref_support
            np.testing.assert_allclose(coefs, ref_coefs, atol=1e-9)

    def test_residual_norms_non_increasing(self, unit_matrix):
        d = unit_matrix(12, 20, seed=6)
        target = np.random.default_rng(7).standard_normal(12)
        norms = []
        for budget in range(1, 9):
            coefs = omp_solve(d, target, OmpConfig(budget, 0.0))
            norms.append(np.linalg.norm(d.values @ coefs - target))
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    def test_dimension_mismatch(self, unit_matrix):
        d = unit_matrix(5, 6)
        with pytest.raises(ValueError, match="dimension"):
            omp_solve(d, np.ones(4), OmpConfig(2))

    def test_requires_unit_dictionary(self):
        with pytest.raises(ValueError, match="unit-normalized"):
            omp_solve(DataMatrix(np.eye(3) * 2), np.ones(3), OmpConfig(1))

    def test_zero_target_selects_nothing(self, unit_matrix):
        d = unit_matrix(5, 6, seed=8)
        coefs = omp_solve(d, np.zeros(5), OmpConfig(3))
        assert not coefs.any()

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
            coefs = omp_solve(d, target, OmpConfig(m, 1e-10))
            assert np.linalg.norm(d.values @ coefs - target) < 1e-10

    def test_rank_deficient_set_falls_back_to_min_norm(self):
        # third atom numerically inside the span of the first: selection
        # still happens (its correlation clears the dust threshold), the
        # triangular update degenerates, and the solve must come back
        # finite via least squares instead of erroring
        e1, e2, e3 = np.eye(4)[:, 0], np.eye(4)[:, 1], np.eye(4)[:, 2]
        near_dup = e1 + 1e-13 * e3
        near_dup /= np.linalg.norm(near_dup)
        atoms = np.stack([near_dup, e2, e1], axis=1)
        target = 0.7 * e1 + 0.5 * e2 + 0.5 * e3
        target /= np.linalg.norm(target)
        support, coefs = _greedy(atoms, target, 3, 0.0)
        assert 2 in support.tolist() and support.size == 3
        assert np.isfinite(coefs).all()
        residual = target - atoms[:, support] @ coefs
        # no worse than stopping before the degenerate atom
        assert np.linalg.norm(residual) <= 0.51


class TestSscOmp:
    def test_orthogonal_points_give_zero_matrix(self):
        x = DataMatrix(np.eye(4), unit_normalized=True)
        c = ssc_omp(x, 1, 1e-6)
        assert c.nnz == 0

    def test_duplicate_points_express_each_other(self):
        values = np.array(
            [[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
        )
        c = ssc_omp(DataMatrix(values, unit_normalized=True), 1, 1e-6)
        dense = c.to_dense()
        assert dense[1, 0] == pytest.approx(1.0)
        assert dense[0, 1] == pytest.approx(1.0)

    def test_zero_diagonal_and_budget(self, unit_matrix):
        x = unit_matrix(6, 14, seed=10)
        k = 3
        c = ssc_omp(x, k, 0.0)
        assert not c.matrix.diagonal().any()
        for i in range(x.n):
            support, _ = c.column(i)
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
            support, values = c.column(i)
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

    def test_gram_reuse_changes_nothing(self, unit_matrix):
        from sscomp.adaptive import gram_matrix

        x = unit_matrix(7, 15, seed=13)
        plain = ssc_omp(x, 4, 1e-6)
        reused = ssc_omp(x, 4, 1e-6, gram=gram_matrix(x))
        rows_a, cols_a, vals_a = plain.triplets()
        rows_b, cols_b, vals_b = reused.triplets()
        assert rows_a.tolist() == rows_b.tolist()
        assert cols_a.tolist() == cols_b.tolist()
        np.testing.assert_allclose(vals_a, vals_b, atol=1e-12)

    @pytest.mark.parametrize("eps", [0.0, 1e-6])
    def test_tall_data_long_budgets_match_reference(self, eps):
        # faces-like shape, d >> N: noisy points near 6-dim subspaces, with
        # budgets past the subspace dimension so most steps run on the
        # Gram-space correlation updates
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
                support, coefs = c.column(i)
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
            support, _ = c.column(i)
            assert support.size <= sizes[i]

    def test_length_mismatch_rejected(self, unit_matrix):
        x = unit_matrix(5, 9, seed=16)
        with pytest.raises(ValueError, match="covers"):
            ssc_omp_adaptive(x, KArray.uniform(2, 8), 1e-6)
