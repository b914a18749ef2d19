import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    accuracy_bruteforce,
    connectivity_reference,
    perc_reference,
    sea_reference,
    ssr_reference,
)
from scipy import sparse
from scipy.linalg import eigh
from scipy.sparse.csgraph import connected_components

from sscomp import Labels, SyntheticSpec, add_gaussian_noise, generate_synthetic
from sscomp.metrics import (
    MetricsReport,
    accuracy,
    connectivity,
    sea_ratio,
    subspace_preserving_error,
    subspace_preserving_rate,
)
from sscomp.omp import CoefMatrix, ssc_omp
from sscomp.spectral import AffinityMatrix, _laplacian, build_affinity


def labels(values):
    arr = np.asarray(values)
    return Labels(arr, int(arr.max()) + 1)


def coef_from_dense(values):
    dense = np.asarray(values, dtype=float)
    rows, cols = np.nonzero(dense)
    return CoefMatrix.from_triplets(rows, cols, dense[rows, cols], dense.shape[0])


def affinity_from_dense(values):
    return AffinityMatrix(sparse.csr_array(np.asarray(values, dtype=float)))


class TestMetricsReport:
    def test_round_trip_dict(self):
        r = MetricsReport(99.5, 0.25, 0.8, 100.0, 0.0, 0.75, {"k": 8})
        d = r.to_dict()
        assert d["accr"] == 99.5
        assert d["time"] == 0.25
        assert d["params"] == {"k": 8}

    def test_validation(self):
        with pytest.raises(ValueError):
            MetricsReport(101.0, 0.0, 0.0, 100.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            MetricsReport(100.0, -1.0, 0.0, 100.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            MetricsReport(100.0, 0.0, -0.1, 100.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            MetricsReport(100.0, 0.0, 0.0, 100.0, -0.5, 0.5)
        with pytest.raises(ValueError):
            MetricsReport(100.0, 0.0, 0.0, 100.0, 0.0, 0.4)
        # complete-clique connectivity above 1 is legitimate
        MetricsReport(100.0, 0.0, 1.5, 100.0, 0.0, 0.5)


class TestAccuracy:
    def test_identical_labels(self):
        y = labels([0, 0, 1, 1, 2])
        assert accuracy(y, y) == 100.0

    def test_relabeling_scores_perfect(self):
        truth = labels([0, 0, 1, 1])
        pred = labels([1, 1, 0, 0])
        assert accuracy(pred, truth) == 100.0

    def test_one_mistake_in_four(self):
        truth = labels([0, 0, 1, 1])
        pred = labels([0, 1, 1, 1])
        assert accuracy(pred, truth) == 75.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths"):
            accuracy(labels([0, 1]), labels([0, 1, 1]))

    def test_different_cluster_counts(self):
        truth = labels([0, 0, 0, 1, 1, 1])
        pred = labels([0, 1, 2, 0, 1, 2])
        # best injective map keeps one pred cluster per truth cluster
        assert accuracy(pred, truth) == pytest.approx(100.0 / 3.0)

    def test_matches_bruteforce_on_random_cases(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            kt = int(rng.integers(1, min(n, 4) + 1))
            kp = int(rng.integers(1, min(n, 4) + 1))
            t = rng.integers(0, kt, n)
            p = rng.integers(0, kp, n)
            t[rng.integers(n)] = kt - 1
            p[rng.integers(n)] = kp - 1
            if np.unique(t).size != kt or np.unique(p).size != kp:
                continue
            got = accuracy(Labels(p, kp), Labels(t, kt))
            want = accuracy_bruteforce(p.tolist(), t.tolist())
            assert got == pytest.approx(want)


class TestConnectivity:
    def test_complete_clique_closed_form(self):
        # complete graph K_m has normalized-Laplacian spectrum
        # {0, m/(m-1), ...}; single cluster, so conn = m/(m-1)
        for m in (3, 4, 6):
            dense = np.ones((m, m)) - np.eye(m)
            a = affinity_from_dense(dense)
            y = Labels(np.zeros(m, dtype=int), 1)
            assert connectivity(a, y) == pytest.approx(m / (m - 1), abs=1e-12)

    def test_disconnected_cluster_scores_zero(self):
        dense = np.zeros((4, 4))
        dense[0, 1] = dense[1, 0] = 1.0
        dense[2, 3] = dense[3, 2] = 1.0
        a = affinity_from_dense(dense)
        assert connectivity(a, Labels(np.zeros(4, dtype=int), 1)) == 0.0

    def test_singleton_cluster_scores_zero(self):
        dense = np.zeros((3, 3))
        dense[0, 1] = dense[1, 0] = 1.0
        a = affinity_from_dense(dense)
        assert connectivity(a, labels([0, 0, 1])) == 0.0

    def test_zero_degree_member_scores_zero(self):
        # vertex 2 has edges only outside its own cluster
        dense = np.zeros((4, 4))
        dense[0, 1] = dense[1, 0] = 1.0
        dense[2, 3] = dense[3, 2] = 1.0
        a = affinity_from_dense(dense)
        assert connectivity(a, labels([0, 0, 0, 1])) == 0.0

    def test_worst_cluster_wins(self):
        # cluster 0 is a connected triangle, cluster 1 a weak pair
        dense = np.zeros((5, 5))
        tri = np.ix_([0, 1, 2], [0, 1, 2])
        dense[tri] = 1.0
        dense[3, 4] = dense[4, 3] = 0.01
        np.fill_diagonal(dense, 0.0)
        a = affinity_from_dense(dense)
        y = labels([0, 0, 0, 1, 1])
        got = connectivity(a, y)
        # the pair subgraph normalizes to the single-edge Laplacian with
        # fiedler value 2 regardless of weight; triangle gives 1.5
        assert got == pytest.approx(1.5, abs=1e-12)

    def test_matches_reference(self, oracle_dataset, unit_matrix):
        from sscomp.omp import ssc_omp
        from sscomp.spectral import build_affinity

        x, y = oracle_dataset
        a = build_affinity(ssc_omp(x, 8, 1e-6))
        got = connectivity(a, y)
        want = connectivity_reference(a.values.toarray(), y.assignments.tolist())
        assert got == pytest.approx(want, abs=1e-10)

    def test_length_mismatch(self):
        a = affinity_from_dense(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="points"):
            connectivity(a, labels([0, 1]))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_oracle_on_random_graphs(self, data):
        n = data.draw(st.integers(min_value=3, max_value=12))
        cells = [(r, c) for r in range(n) for c in range(r + 1, n)]
        chosen = data.draw(st.lists(st.sampled_from(cells), max_size=len(cells), unique=True))
        weights = data.draw(st.lists(st.floats(0.01, 10.0), min_size=len(chosen),
                                     max_size=len(chosen)))
        dense = np.zeros((n, n))
        for (r, c), w in zip(chosen, weights):
            dense[r, c] = dense[c, r] = w
        raw = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        _, ids = np.unique(raw, return_inverse=True)
        got = connectivity(affinity_from_dense(dense), labels(ids))
        assert got == pytest.approx(connectivity_reference(dense, ids.tolist()), abs=1e-10)


def connectivity_per_cluster(a: AffinityMatrix, truth: Labels) -> float:
    """Worst-cluster connectivity one cluster at a time: the cluster's slice
    of the affinity, its components, its sparse Laplacian made dense and the
    same ``eigh`` call. ``connectivity`` must give these bits."""
    worst = np.inf
    for c in range(truth.n_clusters):
        members = np.flatnonzero(truth.assignments == c)
        sub = a.values[np.ix_(members, members)]
        if members.size < 2 or connected_components(sub, directed=False,
                                                     return_labels=False) > 1:
            return 0.0
        lap = _laplacian(sub).toarray()
        value = float(eigh(lap, subset_by_index=[1, 1], eigvals_only=True)[0])
        worst = min(worst, max(value, 0.0))
    return worst


def trial_affinity(spec: SyntheticSpec, sigma: float, variance: float):
    x, y = generate_synthetic(spec)
    x = add_gaussian_noise(x, sigma, variance, rng_seed=spec.rng_seed)
    return build_affinity(ssc_omp(x, 8, 1e-6)), y


class TestConnectivityBits:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_noisy_faces_shape(self, seed):
        a, y = trial_affinity(SyntheticSpec(10, 9, 2016, 64, rng_seed=seed, orthogonal=False),
                              0.5, 1e-3)
        got = connectivity(a, y)
        assert got > 0.0 and got == connectivity_per_cluster(a, y)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_clean_synth_shape(self, seed):
        a, y = trial_affinity(SyntheticSpec(5, 5, 50, 120, rng_seed=seed, orthogonal=False),
                              0.0, 0.01)
        got = connectivity(a, y)
        assert got > 0.0 and got == connectivity_per_cluster(a, y)

    def test_cluster_larger_than_a_degree_block(self):
        # 600 members: the sliced Laplacian sums its degrees over row blocks
        rng = np.random.default_rng(3)
        dense = np.triu((rng.random((900, 900)) < 0.05) * rng.uniform(0.01, 2.0, (900, 900)), 1)
        y = labels((np.arange(900) % 3 == 0).astype(int))
        a = affinity_from_dense(dense + dense.T)
        got = connectivity(a, y)
        assert got > 0.0 and got == connectivity_per_cluster(a, y)

    @pytest.mark.parametrize("truth, broken", [
        ([0, 0, 0, 1, 1, 1], False),  # two paths
        ([0, 0, 1, 1, 0, 0], True),   # cluster 0 is {0, 1} and {4, 5}, no edge between
        ([0, 0, 0, 1, 1, 2], True),   # a singleton cluster
        ([0, 0, 1, 1, 0, 1], True),   # both edges of vertex 4 leave its cluster
    ])
    def test_path_graph_clusters(self, truth, broken):
        dense = np.zeros((6, 6))
        for r, w in enumerate([1.0, 0.75, 0.5, 2.0, 0.25]):
            dense[r, r + 1] = dense[r + 1, r] = w
        a, y = affinity_from_dense(dense), labels(truth)
        got = connectivity(a, y)
        assert got == connectivity_per_cluster(a, y) and (got == 0.0) == broken


class TestSubspacePreservation:
    def test_fully_preserving(self):
        c = coef_from_dense([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 2, 0]])
        y = labels([0, 0, 1, 1])
        assert subspace_preserving_rate(c, y) == 100.0
        assert subspace_preserving_error(c, y) == 0.0

    def test_one_leaking_column(self):
        # column 1 spends half its l1 mass on the wrong cluster:
        # perc = 75 (3 of 4 preserved), ssr = (0 + 0.5 + 0 + 0)/4 * 100
        c = coef_from_dense(
            [[0, 1, 0, 0], [1, 0, 0, 0], [0, 1, 0, 2], [0, 0, 2, 0]]
        )
        y = labels([0, 0, 1, 1])
        assert subspace_preserving_rate(c, y) == 75.0
        assert subspace_preserving_error(c, y) == pytest.approx(12.5)

    def test_zero_column_preserves_vacuously(self):
        c = coef_from_dense([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
        y = labels([0, 0, 1])
        assert subspace_preserving_rate(c, y) == 100.0
        assert subspace_preserving_error(c, y) == 0.0

    def test_sign_ignored(self):
        c = coef_from_dense([[0, -1, 0], [1, 0, -3], [0, -1, 0]])
        y = labels([0, 0, 1])
        # column 1 splits mass evenly between clusters; column 2 leaks all
        assert subspace_preserving_rate(c, y) == pytest.approx(100.0 / 3.0)
        assert subspace_preserving_error(c, y) == pytest.approx(
            100.0 * (0.5 + 1.0) / 3.0
        )

    def test_matches_reference_on_random_patterns(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            n = int(rng.integers(3, 10))
            dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.4)
            np.fill_diagonal(dense, 0.0)
            assignment = rng.integers(0, 2, n)
            assignment[0], assignment[1] = 0, 1
            c = coef_from_dense(dense)
            y = Labels(assignment, 2)
            assert subspace_preserving_rate(c, y) == pytest.approx(
                perc_reference(dense, assignment.tolist())
            )
            assert subspace_preserving_error(c, y) == pytest.approx(
                ssr_reference(dense, assignment.tolist())
            )

    def test_length_mismatch(self):
        c = coef_from_dense(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="points"):
            subspace_preserving_rate(c, labels([0, 1]))
        with pytest.raises(ValueError, match="points"):
            subspace_preserving_error(c, labels([0, 1]))


class TestSeaRatio:
    def test_symmetric_pattern_halves(self):
        c = coef_from_dense([[0, 2, 0], [3, 0, 0], [0, 0, 0]])
        assert sea_ratio(c) == 0.5

    def test_one_way_pattern_stays_one(self):
        c = coef_from_dense([[0, 1, 1], [0, 0, 1], [0, 0, 0]])
        assert sea_ratio(c) == 1.0

    def test_mixed_pattern(self):
        # one mirrored pair plus one unmatched entry: A has 4 stored
        # entries, C has 3, ratio 4/6
        c = coef_from_dense([[0, 1, 0], [2, 0, 0], [0, 5, 0]])
        assert sea_ratio(c) == pytest.approx(4.0 / 6.0)

    def test_opposite_values_still_mirror(self):
        # symmetry is structural, not numeric: C[0,1] = 1, C[1,0] = -1
        c = coef_from_dense([[0, 1], [-1, 0]])
        assert sea_ratio(c) == 0.5

    def test_zero_matrix_rejected(self):
        c = CoefMatrix.from_triplets([], [], [], 3)
        with pytest.raises(ValueError, match="all-zero"):
            sea_ratio(c)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_bounds_and_symmetry_characterization(self, data):
        n = data.draw(st.integers(min_value=2, max_value=8))
        cells = [(r, c) for r in range(n) for c in range(n) if r != c]
        chosen = data.draw(
            st.lists(st.sampled_from(cells), min_size=1, max_size=len(cells), unique=True)
        )
        rows = [r for r, _ in chosen]
        cols = [c for _, c in chosen]
        values = [1.0 + i for i in range(len(chosen))]
        c = CoefMatrix.from_triplets(rows, cols, values, n)
        ratio = sea_ratio(c)
        assert 0.5 <= ratio <= 1.0
        assert ratio == pytest.approx(sea_reference(c.matrix.toarray()))
        pattern_symmetric = set(chosen) == {(col, row) for row, col in chosen}
        assert (ratio == 0.5) == pattern_symmetric


class TestPercSsrDuality:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_perfect_rate_iff_zero_error(self, data):
        n = data.draw(st.integers(min_value=3, max_value=8))
        n_clusters = data.draw(st.integers(min_value=1, max_value=3))
        assignment = [i % n_clusters for i in range(n)]
        cells = [(r, c) for r in range(n) for c in range(n) if r != c]
        chosen = data.draw(
            st.lists(st.sampled_from(cells), min_size=0, max_size=10, unique=True)
        )
        rows = [r for r, _ in chosen]
        cols = [c for _, c in chosen]
        values = [float(i + 1) for i in range(len(chosen))]
        c = CoefMatrix.from_triplets(rows, cols, values, n)
        y = Labels(np.array(assignment), n_clusters)
        perc = subspace_preserving_rate(c, y)
        ssr = subspace_preserving_error(c, y)
        assert (perc == 100.0) == (ssr == 0.0)
        assert perc == pytest.approx(perc_reference(c.matrix.toarray(), assignment))
        assert ssr == pytest.approx(ssr_reference(c.matrix.toarray(), assignment))
