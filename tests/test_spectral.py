import logging
import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import normalized_laplacian_reference
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from sscomp import Labels, SyntheticSpec, add_gaussian_noise, generate_synthetic, spectral
from sscomp.metrics import accuracy
from sscomp.omp import CoefMatrix, ssc_omp
from sscomp.spectral import (
    AffinityMatrix,
    _eigensolver_labels,
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
        # the only seed is LOBPCG's fixed start block; the assignment draws none
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

    @pytest.mark.parametrize("noisy", [False, True], ids=["k-components", "connected"])
    def test_lobpcg_matches_dense_reference(self, noisy, caplog):
        # clean data: exactly n_clusters components, so eigenvalue 0 is
        # 5-fold; noisy data: one component with a small eigengap
        x, _ = generate_synthetic(SyntheticSpec(5, 5, 50, 40, rng_seed=4, orthogonal=False))
        if noisy:
            x = add_gaussian_noise(x, 0.5, 0.05, rng_seed=4)
        a = build_affinity(ssc_omp(x, 8, 1e-6))
        assert connected_components(a.values)[0] == (1 if noisy else 5)
        caplog.set_level(logging.DEBUG, logger="sscomp")
        if noisy:
            labels = spectral_cluster(a, 5)
        else:  # spectral_cluster would label this graph by its components
            labels = _eigensolver_labels(a, 5, "components=5 isolated=0")
        assert solver_logs(caplog)[-1].startswith("eigensolver lobpcg:")
        assert f"components={1 if noisy else 5} isolated=0 " in solver_logs(caplog)[-1]
        assert same_partition(labels.assignments, dense_reference_labels(a, 5))

    @pytest.mark.parametrize("failure", ["unconverged", "linalg-error", "value-error"])
    def test_failed_lobpcg_falls_back_to_dense(self, failure, monkeypatch, caplog):
        def broken_lobpcg(lap, start, **kwargs):
            warnings.warn("not reaching the requested tolerance", UserWarning)
            if failure == "linalg-error":
                raise np.linalg.LinAlgError("leading minor not positive definite")
            if failure == "value-error":
                raise ValueError("eigh has failed in lobpcg postprocessing")
            return np.ones(start.shape[1]), np.linalg.qr(start)[0]

        monkeypatch.setattr(spectral, "lobpcg", broken_lobpcg)
        caplog.set_level(logging.DEBUG, logger="sscomp")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            labels = _eigensolver_labels(self.block_affinity([6] * 5), 5,
                                         "components=5 isolated=0")
        logs = solver_logs(caplog)
        assert logs[0].startswith("lobpcg rejected:")
        assert logs[-1].startswith("eigensolver dense-fallback:")
        assert accuracy(labels, Labels(np.repeat(np.arange(5), 6), 5)) == 100.0

    def test_lobpcg_postprocessing_error_falls_back_to_dense(self, caplog):
        # scipy's lobpcg raises ValueError on this graph: its final eigh
        # fails. Two small components and 16 isolated vertices.
        dense = np.zeros((22, 22))
        for i, j, w in ((2, 7, 2.5), (6, 13, 0.5), (6, 15, 4.0), (15, 20, 1.0)):
            dense[i, j] = dense[j, i] = w
        caplog.set_level(logging.DEBUG, logger="sscomp")
        labels = spectral_cluster(affinity_from_dense(dense), 4)
        logs = solver_logs(caplog)
        assert logs[0] == ("lobpcg rejected: n=22 k=4 components=18 isolated=16 "
                           "max residual nan > 1e-06")
        assert logs[-1].startswith("eigensolver dense-fallback:")
        assert np.unique(labels.assignments).tolist() == [0, 1, 2, 3]
        assert labels.assignments[2] == labels.assignments[7]

    @pytest.mark.parametrize("sizes, k, path", [
        ([3, 4, 5, 6, 7, 8, 9], 3, "lobpcg"),
        ([3] * 7, 5, "dense-small"),
    ])
    def test_more_components_than_clusters(self, sizes, k, path, caplog):
        # eigenvalue 0 has more eigenvectors than are taken; any basis of
        # that space maps a whole component to one embedded point
        a = self.block_affinity(sizes)
        component = np.repeat(np.arange(len(sizes)), sizes)
        caplog.set_level(logging.DEBUG, logger="sscomp")
        first = spectral_cluster(a, k).assignments
        second = spectral_cluster(a, k).assignments
        assert solver_logs(caplog)[-1].startswith(f"eigensolver {path}:")
        assert np.array_equal(first, second)
        for c in range(len(sizes)):
            assert np.unique(first[component == c]).size == 1

    def test_logs_eigensolver_path_and_residual(self, oracle_dataset, caplog):
        x, _ = oracle_dataset
        caplog.set_level(logging.DEBUG, logger="sscomp")
        _eigensolver_labels(build_affinity(ssc_omp(x, 8, 1e-6)), 5, "components=5 isolated=0")
        _eigensolver_labels(self.block_affinity([4, 5]), 2, "components=2 isolated=0")
        logs = solver_logs(caplog)
        assert [line.split(":")[0] for line in logs] == [
            "eigensolver lobpcg", "eigensolver dense-small"]
        for line in logs:
            residual = float(re.search(r"max residual (\S+)", line).group(1))
            assert 0.0 <= residual <= spectral.RESIDUAL_TOL

    def test_clean_subspaces_labeled_by_components(self, caplog):
        # the graph of test_lobpcg_matches_dense_reference[k-components]
        x, _ = generate_synthetic(SyntheticSpec(5, 5, 50, 40, rng_seed=4, orthogonal=False))
        a = build_affinity(ssc_omp(x, 8, 1e-6))
        caplog.set_level(logging.DEBUG, logger="sscomp")
        labels = spectral_cluster(a, 5)
        assert solver_logs(caplog) == [
            "eigensolver components: n=200 k=5 components=5 isolated=0"]
        assert same_partition(labels.assignments, dense_reference_labels(a, 5))
        assert np.array_equal(labels.assignments, connected_components(a.values)[1])

    @pytest.mark.parametrize("sizes, path", [
        ([7, 1, 7, 7], "lobpcg"),
        ([1, 6, 6, 6], "dense-small"),
    ])
    def test_isolated_vertex_takes_eigensolver_path(self, sizes, path, caplog):
        # K components, but one is a vertex of degree 0: no eigenvalue 0
        # belongs to it, so the components rule does not hold
        a = self.block_affinity(sizes)
        caplog.set_level(logging.DEBUG, logger="sscomp")
        labels = spectral_cluster(a, 4)
        logs = solver_logs(caplog)
        assert logs[-1].startswith(f"eigensolver {path}: n={sum(sizes)} k=4 "
                                   "components=4 isolated=1 max residual")
        assert not any(line.startswith("eigensolver components") for line in logs)
        assert same_partition(labels.assignments, dense_reference_labels(a, 4))

    @pytest.mark.parametrize("sizes, k, paths, counts", [
        ([3, 4, 5, 6, 7, 8, 9], 3, ["lobpcg rejected", "eigensolver dense-fallback"],
         "components=7 isolated=0"),
        ([3] * 7, 5, ["eigensolver dense-small"], "components=7 isolated=0"),
        ([4, 5], 2, ["eigensolver components"], "components=2 isolated=0"),
    ])
    def test_every_line_reports_the_graph(self, sizes, k, paths, counts, monkeypatch, caplog):
        monkeypatch.setattr(spectral, "RESIDUAL_TOL", -1.0)  # reject every LOBPCG run
        caplog.set_level(logging.DEBUG, logger="sscomp")
        spectral_cluster(self.block_affinity(sizes), k)
        logs = solver_logs(caplog)
        assert [line.split(":")[0] for line in logs] == paths
        for line in logs:
            assert f"n={sum(sizes)} k={k} {counts}" in line

    @settings(max_examples=40, deadline=None)
    @given(sizes=st.lists(st.integers(2, 8), min_size=2, max_size=6), seed=st.integers(0, 2**32 - 1))
    def test_block_graphs_labeled_by_their_blocks(self, sizes, seed):
        # spectral_cluster takes the components path here, so the
        # eigensolver path is asked for the same blocks directly
        a, blocks = block_graph(sizes, seed)
        k = len(sizes)
        labels = spectral_cluster(a, k)
        assert np.array_equal(labels.assignments, blocks)
        assert same_partition(labels.assignments, dense_reference_labels(a, k))
        graph = f"components={k} isolated=0"
        assert same_partition(_eigensolver_labels(a, k, graph).assignments, blocks)
