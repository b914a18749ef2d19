import logging
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import normalized_laplacian_reference
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence

from sscomp import Labels, SyntheticSpec, add_gaussian_noise, generate_synthetic, spectral
from sscomp.metrics import accuracy
from sscomp.omp import CoefMatrix, ssc_omp
from sscomp.spectral import (
    AffinityMatrix,
    _embedding,
    build_affinity,
    normalized_laplacian,
    spectral_cluster,
)


def affinity_from_dense(values: np.ndarray) -> AffinityMatrix:
    return AffinityMatrix(sparse.csr_array(values))


def same_partition(first: np.ndarray, second: np.ndarray) -> bool:
    """Equal up to relabeling: the label pairs form a bijection."""
    pairs = set(zip(first.tolist(), second.tolist()))
    return len(pairs) == np.unique(first).size == np.unique(second).size


def dense_reference_labels(a: AffinityMatrix, n_clusters: int) -> np.ndarray:
    """Assign the bottom eigenvectors of a full dense eigendecomposition of
    the oracle Laplacian by the pivoted-QR rule spectral_cluster uses."""
    lap = normalized_laplacian_reference(a.values.toarray())
    vectors = np.linalg.eigh(lap)[1][:, :n_clusters]
    pivots = scipy.linalg.qr(vectors.T, pivoting=True, mode="r")[1][:n_clusters]
    u, _, wt = scipy.linalg.svd(vectors[pivots].T)
    return np.abs(vectors @ (u @ wt)).argmax(axis=1)


def synthetic_affinity(noisy: bool) -> AffinityMatrix:
    """Five random 5-dim subspaces in R^50, 40 points each: clean, the graph
    has exactly five components, so eigenvalue 0 is 5-fold; noisy, it is one
    component with a small eigengap."""
    x, _ = generate_synthetic(SyntheticSpec(5, 5, 50, 40, rng_seed=4, orthogonal=False))
    if noisy:
        x = add_gaussian_noise(x, 0.5, 0.05, rng_seed=4)
    return build_affinity(ssc_omp(x, 8, 1e-6))


def solver_logs(caplog) -> list[str]:
    """The spectral module's DEBUG lines on the ``sscomp`` logger (the
    self-expression stage logs its own line there too)."""
    return [r.getMessage() for r in caplog.records
            if r.name == "sscomp" and r.levelno == logging.DEBUG and r.module == "spectral"]


class TestAffinityMatrix:
    def test_rejects_asymmetry(self):
        m = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            affinity_from_dense(m)

    def test_rejects_negative_weights(self):
        m = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError, match="negative"):
            affinity_from_dense(m)

    def test_rejects_self_loops(self):
        m = np.array([[1.0, 0.5], [0.5, 0.0]])
        with pytest.raises(ValueError, match="diagonal"):
            affinity_from_dense(m)

    def test_frozen(self):
        a = affinity_from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            a.values.data[0] = 5.0

    def test_leaves_caller_matrix_untouched(self):
        m = sparse.csr_array(np.array([[0.0, 1.0], [1.0, 0.0]]))
        first, second = AffinityMatrix(m), AffinityMatrix(m)
        for buf in (m.data, m.indices, m.indptr):
            assert buf.flags.writeable
        m.data[:] = 7.0
        assert first.values.data.tolist() == second.values.data.tolist() == [1.0, 1.0]

    def test_save_csv(self, tmp_path):
        a = affinity_from_dense(np.array([[0.0, 2.0], [2.0, 0.0]]))
        path = tmp_path / "a.csv"
        a.save_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "row,col,value"
        assert len(lines) == 3


class TestBuildAffinity:
    def test_zero_coefficients_give_empty_graph(self):
        c = CoefMatrix.from_triplets([], [], [], 4)
        a = build_affinity(c)
        assert a.values.nnz == 0

    def test_one_sided_edge_doubles_magnitude(self):
        # only C[0,1] set: |C| + |C|^T puts the magnitude on both sides
        c = CoefMatrix.from_triplets([0], [1], [-2.0], 3)
        dense = build_affinity(c).values.toarray()
        assert dense[0, 1] == pytest.approx(2.0)
        assert dense[1, 0] == pytest.approx(2.0)

    def test_mutual_edges_add(self):
        c = CoefMatrix.from_triplets([0, 2], [2, 0], [1.0, 3.0], 3)
        dense = build_affinity(c).values.toarray()
        assert dense[0, 2] == pytest.approx(4.0)
        assert dense[2, 0] == pytest.approx(4.0)

    def test_exact_symmetry_and_sparsity_bounds(self, unit_matrix):
        x = unit_matrix(8, 20, seed=21)
        c = ssc_omp(x, 4, 1e-6)
        a = build_affinity(c)
        assert (a.values != a.values.T).nnz == 0
        assert c.nnz <= a.values.nnz <= 2 * c.nnz

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_sparse_c_matches_dense_oracle(self, data):
        # any pattern off the diagonal, any signs: A is |C| + |C^T| entry for
        # entry, and exactly symmetric, nonnegative and zero on the diagonal
        n = data.draw(st.integers(min_value=2, max_value=8))
        cells = [(r, c) for r in range(n) for c in range(n) if r != c]
        chosen = data.draw(st.lists(st.sampled_from(cells), max_size=len(cells), unique=True))
        values = data.draw(st.lists(
            st.floats(-1e3, 1e3, allow_nan=False).filter(lambda v: v != 0.0),
            min_size=len(chosen), max_size=len(chosen)))
        c = CoefMatrix.from_triplets([r for r, _ in chosen], [col for _, col in chosen],
                                     values, n)
        a = build_affinity(c).values
        dense = np.abs(c.matrix.toarray())
        assert np.array_equal(a.toarray(), dense + dense.T)
        assert (a != a.T).nnz == 0
        assert (a.data >= 0.0).all()
        assert not a.diagonal().any()
        assert c.nnz <= a.nnz <= 2 * c.nnz


class TestNormalizedLaplacian:
    def test_single_edge(self):
        a = affinity_from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        lap = normalized_laplacian(a).toarray()
        np.testing.assert_allclose(lap, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-12)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(lap), [0.0, 2.0], atol=1e-12
        )

    def test_no_edges_give_identity(self):
        a = affinity_from_dense(np.zeros((3, 3)))
        np.testing.assert_allclose(normalized_laplacian(a).toarray(), np.eye(3), atol=1e-15)

    def test_triangle_spectrum(self):
        a = affinity_from_dense(np.ones((3, 3)) - np.eye(3))
        eigs = np.linalg.eigvalsh(normalized_laplacian(a).toarray())
        np.testing.assert_allclose(eigs, [0.0, 1.5, 1.5], atol=1e-12)

    def test_eigenvalues_bounded(self, unit_matrix):
        x = unit_matrix(6, 25, seed=22)
        a = build_affinity(ssc_omp(x, 3, 1e-6))
        eigs = np.linalg.eigvalsh(normalized_laplacian(a).toarray())
        assert eigs.min() >= -1e-9
        assert eigs.max() <= 2.0 + 1e-9

    def test_zero_eigenvalue_counts_components(self):
        # two disjoint edges: one zero eigenvalue per connected component
        dense = np.zeros((4, 4))
        dense[0, 1] = dense[1, 0] = 1.0
        dense[2, 3] = dense[3, 2] = 2.0
        lap = normalized_laplacian(affinity_from_dense(dense)).toarray()
        eigs = np.linalg.eigvalsh(lap)
        assert int((np.abs(eigs) < 1e-9).sum()) == 2

    def test_isolated_vertex_keeps_unit_diagonal(self):
        # zero-degree row stays an identity row, so the isolated vertex
        # contributes eigenvalue 1, not 0
        dense = np.zeros((3, 3))
        dense[0, 1] = dense[1, 0] = 1.0
        lap = normalized_laplacian(affinity_from_dense(dense)).toarray()
        assert lap[2, 2] == 1.0
        assert not lap[2, :2].any()

    def test_exactly_symmetric_output(self, unit_matrix):
        x = unit_matrix(5, 18, seed=23)
        lap = normalized_laplacian(build_affinity(ssc_omp(x, 3, 1e-6))).toarray()
        assert (lap == lap.T).all()

    def test_empty_graph(self):
        lap = normalized_laplacian(AffinityMatrix(sparse.csr_array((0, 0))))
        assert isinstance(lap, sparse.csr_array)
        assert lap.shape == (0, 0)

    @pytest.mark.parametrize("n", [5, 40, 129, 300, 700, 886])
    def test_matches_dense_formula_bit_for_bit(self, n):
        # widths past 128 and 256 exercise numpy's pairwise halving; 700
        # spans two row blocks of the degree sums, and 886 three full blocks
        # plus a final block of one row; vertex 0 is isolated
        rng = np.random.default_rng(n)
        upper = np.triu(rng.random((n, n)) < min(1.0, 12 / n), k=1)
        weights = np.where(upper, 10.0 ** rng.uniform(-4, 2, (n, n)), 0.0)
        weights = weights + weights.T
        weights[0, :] = weights[:, 0] = 0.0
        lap = normalized_laplacian(affinity_from_dense(weights))
        assert isinstance(lap, sparse.csr_array)
        assert np.array_equal(lap.toarray(), normalized_laplacian_reference(weights))


def block_graph(sizes, seed: int) -> tuple[AffinityMatrix, np.ndarray]:
    """Disjoint weighted blocks, each connected (a random spanning tree plus
    random extra edges), with the vertices shuffled. Returns the affinity and
    each vertex's block, numbered in order of the block's lowest vertex."""
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    order = rng.permutation(n)
    dense = np.zeros((n, n))
    block = np.empty(n, dtype=np.int64)
    start = 0
    for b, size in enumerate(sizes):
        members = order[start:start + size]
        block[members] = b
        for i in range(1, size):
            dense[members[i], members[rng.integers(i)]] = rng.uniform(0.1, 10.0)
        extra = np.triu(rng.random((size, size)) < 0.3, k=1)
        dense[np.ix_(members, members)] += np.where(extra, rng.uniform(0.1, 10.0, extra.shape), 0.0)
        start += size
    firsts = np.unique(block, return_index=True)[1]
    renumber = np.empty(len(sizes), dtype=np.int64)
    renumber[np.argsort(firsts)] = np.arange(len(sizes))
    return affinity_from_dense(dense + dense.T), renumber[block]


class TestSpectralCluster:
    def block_affinity(self, sizes, weight=1.0):
        n = sum(sizes)
        dense = np.zeros((n, n))
        start = 0
        for size in sizes:
            block = slice(start, start + size)
            dense[block, block] = weight
            start += size
        np.fill_diagonal(dense, 0.0)
        return affinity_from_dense(dense)

    def test_two_clean_blocks_split_exactly(self):
        a = self.block_affinity([4, 5])
        labels = spectral_cluster(a, 2)
        truth = Labels(np.array([0] * 4 + [1] * 5), 2)
        assert accuracy(labels, truth) == 100.0

    def test_five_blocks_recovered(self):
        a = self.block_affinity([6, 6, 6, 6, 6])
        labels = spectral_cluster(a, 5)
        truth = Labels(np.repeat(np.arange(5), 6), 5)
        assert accuracy(labels, truth) == 100.0

    def test_full_pipeline_on_orthogonal_subspaces(self, oracle_dataset):
        x, y = oracle_dataset
        a = build_affinity(ssc_omp(x, 8, 1e-6))
        labels = spectral_cluster(a, 5)
        assert accuracy(labels, y) == 100.0

    def test_deterministic_for_fixed_seed(self, oracle_dataset):
        # the only seed is Lanczos's fixed start vector, which this clean graph
        # does not reach; the assignment draws none
        x, _ = oracle_dataset
        a = build_affinity(ssc_omp(x, 8, 1e-6))
        first = spectral_cluster(a, 5)
        second = spectral_cluster(a, 5)
        assert (first.assignments == second.assignments).all()

    def test_argument_validation(self):
        a = self.block_affinity([4, 5])
        for value, message in ((1, "n_clusters must be an integer of at least 2, got 1"),
                               (2.5, "n_clusters must be an integer of at least 2, got 2.5")):
            with pytest.raises(ValueError, match=message):
                spectral_cluster(a, value)

    def test_more_clusters_than_points_rejected(self):
        a = self.block_affinity([2, 2])
        with pytest.raises(ValueError, match="clusters"):
            spectral_cluster(a, 5)

    @pytest.mark.parametrize("noisy, path", [(False, "null-space"), (True, "lanczos")],
                             ids=["null-space", "lanczos"])
    def test_embedding_matches_dense_reference(self, noisy, path, caplog):
        a = synthetic_affinity(noisy)
        assert connected_components(a.values)[0] == (1 if noisy else 5)
        caplog.set_level(logging.DEBUG, logger="sscomp")
        labels = spectral_cluster(a, 5)
        assert solver_logs(caplog)[-1].startswith(f"eigensolver {path}:")
        assert f"components={1 if noisy else 5} isolated=0" in solver_logs(caplog)[-1]
        assert same_partition(labels.assignments, dense_reference_labels(a, 5))
        assert np.array_equal(spectral_cluster(a, 5).assignments, labels.assignments)

    @pytest.mark.parametrize("graph, k", [("cycle", 3), ("ring-of-cliques", 5)])
    def test_lanczos_finds_both_copies_of_a_double_eigenvalue(self, graph, k, caplog):
        # a 40-cycle's eigenvalues 1 - cos(2 pi j / 40) are double for j = 1..19;
        # five 6-cliques joined in a ring by single edges have two double
        # eigenvalues right above 0. k stops at the end of a pair, so the
        # bottom k-eigenspace is well defined
        if graph == "cycle":
            dense = np.roll(np.eye(40), 1, axis=1)
        else:
            dense = np.kron(np.eye(5), np.ones((6, 6)) - np.eye(6))
            for c in range(5):
                dense[6 * c + 5, (6 * c + 6) % 30] = 1.0
        dense = dense + dense.T
        caplog.set_level(logging.DEBUG, logger="sscomp")
        vectors = _embedding(affinity_from_dense(dense), k)
        assert solver_logs(caplog)[-1].startswith("eigensolver lanczos:")
        lap = normalized_laplacian_reference(dense)
        values, reference = np.linalg.eigh(lap)
        assert values[k] - values[k - 1] > 1e-3
        np.testing.assert_allclose(np.linalg.eigvalsh(vectors.T @ lap @ vectors), values[:k],
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(vectors @ vectors.T, reference[:, :k] @ reference[:, :k].T,
                                   rtol=0, atol=1e-10)

    @pytest.mark.parametrize("failure", ["no-convergence", "arpack-error", "wrong-vectors"])
    def test_failed_lanczos_falls_back_to_dense(self, failure, monkeypatch, caplog):
        # three 7-cliques and an isolated vertex, asked for 4 clusters: three
        # null vectors, and Lanczos is asked for the fourth vector
        def broken_eigsh(operator, k, **kwargs):
            n = operator.shape[0]
            if failure == "no-convergence":
                raise ArpackNoConvergence("ARPACK error -1: No convergence",
                                          np.ones(0), np.ones((n, 0)))
            if failure == "arpack-error":
                raise ArpackError(-9999)
            return np.ones(k), np.linalg.qr(np.ones((n, k)))[0]

        monkeypatch.setattr(spectral, "eigsh", broken_eigsh)
        caplog.set_level(logging.DEBUG, logger="sscomp")
        labels = spectral_cluster(self.block_affinity([7, 1, 7, 7]), 4)
        logs = solver_logs(caplog)
        assert logs[0].startswith("lanczos rejected: n=22 k=4 components=4 isolated=1 ")
        assert logs[-1].startswith("eigensolver dense-fallback:")
        assert accuracy(labels, Labels(np.repeat(np.arange(4), [7, 1, 7, 7]), 4)) == 100.0

    def test_many_isolated_vertices_take_lanczos(self, caplog):
        # two small components and 16 isolated vertices: beyond the two null
        # vectors, Lanczos is asked for eigenvalue 0.85 and one copy of
        # eigenvalue 1, which is 16-fold (one vector per isolated vertex)
        dense = np.zeros((22, 22))
        for i, j, w in ((2, 7, 2.5), (6, 13, 0.5), (6, 15, 4.0), (15, 20, 1.0)):
            dense[i, j] = dense[j, i] = w
        caplog.set_level(logging.DEBUG, logger="sscomp")
        labels = spectral_cluster(affinity_from_dense(dense), 4)
        logs = solver_logs(caplog)
        assert len(logs) == 1
        assert logs[0].startswith("eigensolver lanczos: n=22 k=4 components=18 isolated=16 ")
        assert np.unique(labels.assignments).tolist() == [0, 1, 2, 3]
        assert labels.assignments[2] == labels.assignments[7]

    @pytest.mark.parametrize("sizes, k", [([3, 4, 5, 6, 7, 8, 9], 3), ([3] * 7, 5)])
    def test_more_components_than_clusters(self, sizes, k, caplog):
        # eigenvalue 0 has more eigenvectors than are taken; each taken null
        # vector maps a whole component to one embedded point, and the rest
        # have zero rows
        a = self.block_affinity(sizes)
        component = np.repeat(np.arange(len(sizes)), sizes)
        caplog.set_level(logging.DEBUG, logger="sscomp")
        first = spectral_cluster(a, k).assignments
        second = spectral_cluster(a, k).assignments
        assert solver_logs(caplog)[-1].startswith("eigensolver null-space:")
        assert np.array_equal(first, second)
        for c in range(len(sizes)):
            assert np.unique(first[component == c]).size == 1

    def test_components_outside_the_largest_k_get_zero_rows(self):
        # with more than k components of two or more vertices, the embedding
        # is the null vectors D^(1/2) 1_S / |D^(1/2) 1_S| of the k largest,
        # ties going to the lower first vertex; every other point has a zero
        # row, takes the first axis, and so joins one of those k clusters
        sizes = [3, 9, 8, 5, 8]
        a = self.block_affinity(sizes)
        component = np.repeat(np.arange(len(sizes)), sizes)
        expected = np.stack([component == 1, component == 2], axis=1) / np.sqrt([9.0, 8.0])
        np.testing.assert_allclose(_embedding(a, 2), expected, rtol=0, atol=1e-15)
        labels = spectral_cluster(a, 2).assignments
        kept = np.isin(component, [1, 2])
        assert labels[component == 1][0] != labels[component == 2][0]
        assert np.unique(labels[~kept]).size == 1
        for c in range(len(sizes)):
            assert np.unique(labels[component == c]).size == 1

    def test_logs_eigensolver_path_and_residual(self, caplog):
        caplog.set_level(logging.DEBUG, logger="sscomp")
        spectral_cluster(synthetic_affinity(noisy=True), 5)
        spectral_cluster(self.block_affinity([1, 4, 5]), 3)
        logs = solver_logs(caplog)
        assert [line.split(":")[0] for line in logs] == [
            "eigensolver lanczos", "eigensolver dense-small"]
        for line in logs:
            residual = float(re.search(r"max residual (\S+)", line).group(1))
            assert 0.0 <= residual <= spectral.RESIDUAL_TOL

    def test_clean_subspaces_labeled_by_components(self, caplog):
        # the graph of test_embedding_matches_dense_reference[null-space]
        a = synthetic_affinity(noisy=False)
        caplog.set_level(logging.DEBUG, logger="sscomp")
        labels = spectral_cluster(a, 5)
        assert solver_logs(caplog) == [
            "eigensolver null-space: n=200 k=5 components=5 isolated=0"]
        assert same_partition(labels.assignments, dense_reference_labels(a, 5))
        assert np.array_equal(labels.assignments, connected_components(a.values)[1])

    @pytest.mark.parametrize("sizes, path", [
        ([7, 1, 7, 7], "lanczos"),
        ([1, 6, 6, 6], "dense-small"),
    ])
    def test_isolated_vertex_takes_eigensolver_path(self, sizes, path, caplog):
        # K components, but one is a vertex of degree 0: no eigenvalue 0
        # belongs to it, so its vector comes from an eigensolver
        a = self.block_affinity(sizes)
        caplog.set_level(logging.DEBUG, logger="sscomp")
        labels = spectral_cluster(a, 4)
        logs = solver_logs(caplog)
        assert logs[-1].startswith(f"eigensolver {path}: n={sum(sizes)} k=4 "
                                   "components=4 isolated=1 max residual")
        assert not any(line.startswith("eigensolver null-space") for line in logs)
        assert same_partition(labels.assignments, dense_reference_labels(a, 4))

    @pytest.mark.parametrize("sizes, k, paths, counts", [
        ([3, 4, 5, 6, 7, 8, 9], 3, ["eigensolver null-space"], "components=7 isolated=0"),
        ([3] * 7, 5, ["eigensolver null-space"], "components=7 isolated=0"),
        ([4, 5], 2, ["eigensolver null-space"], "components=2 isolated=0"),
        ([7, 1, 7, 7], 4, ["lanczos rejected", "eigensolver dense-fallback"],
         "components=4 isolated=1"),
        ([1, 6, 6, 6], 4, ["eigensolver dense-small"], "components=4 isolated=1"),
    ])
    def test_every_line_reports_the_graph(self, sizes, k, paths, counts, monkeypatch, caplog):
        monkeypatch.setattr(spectral, "RESIDUAL_TOL", -1.0)  # reject every Lanczos run
        caplog.set_level(logging.DEBUG, logger="sscomp")
        spectral_cluster(self.block_affinity(sizes), k)
        logs = solver_logs(caplog)
        assert [line.split(":")[0] for line in logs] == paths
        for line in logs:
            assert f"n={sum(sizes)} k={k} {counts}" in line

    @settings(max_examples=40, deadline=None)
    @given(sizes=st.lists(st.integers(2, 8), min_size=2, max_size=6), seed=st.integers(0, 2**32 - 1))
    def test_block_graphs_labeled_by_their_blocks(self, sizes, seed):
        a, blocks = block_graph(sizes, seed)
        k = len(sizes)
        labels = spectral_cluster(a, k)
        assert np.array_equal(labels.assignments, blocks)
        assert same_partition(labels.assignments, dense_reference_labels(a, k))
