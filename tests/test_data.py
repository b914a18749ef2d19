import math
import tracemalloc

import numpy as np
import pytest
from conftest import unreadable_csvs

from sscomp.data import (
    DataMatrix,
    Labels,
    SyntheticSpec,
    _perturbed_values,
    add_gaussian_noise,
    blend_gaussian_noise,
    generate_synthetic,
    load_csv,
    normalize_columns,
    save_csv,
    save_labels,
)
from sscomp.util import round_half_away_from_zero


class TestDataMatrix:
    def test_copies_and_freezes(self):
        raw = np.eye(3)
        x = DataMatrix(raw)
        raw[0, 0] = 5.0
        assert x.values[0, 0] == 1.0
        with pytest.raises(ValueError):
            x.values[0, 0] = 2.0

    def test_shape_accessors(self):
        x = DataMatrix(np.ones((4, 5)))
        assert (x.dim, x.n) == (4, 5)

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError, match="at least 3 points"):
            DataMatrix(np.ones((4, 2)))

    def test_rejects_non_finite(self):
        bad = np.ones((2, 3))
        bad[1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            DataMatrix(bad)

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError, match="2-d"):
            DataMatrix(np.ones(6))

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_values_are_column_major_and_the_input_stays_as_it_was(self, layout):
        raw = np.arange(120.0).reshape(10, 12)
        if layout == "F":
            raw = np.asfortranarray(raw)
        elif layout == "strided":
            raw = raw[::2, ::3]
        before = raw.copy()
        x = DataMatrix(raw)
        assert x.values.flags.f_contiguous
        assert np.array_equal(x.values, before)
        assert np.array_equal(raw, before) and raw.flags.writeable
        assert not np.shares_memory(x.values, raw)


class TestLabels:
    def test_basic(self):
        y = Labels([0, 1, 1, 0], 2)
        assert y.n == 4
        with pytest.raises(ValueError):
            y.assignments[0] = 1

    def test_every_cluster_must_appear(self):
        with pytest.raises(ValueError, match="appear"):
            Labels([0, 0, 0], 2)

    def test_range_check(self):
        with pytest.raises(ValueError):
            Labels([0, 3], 2)
        with pytest.raises(ValueError):
            Labels([-1, 0], 2)


class TestCsvRoundTrip:
    def test_values_survive_exactly(self, tmp_path):
        rng = np.random.default_rng(0)
        x = DataMatrix(rng.standard_normal((4, 6)))
        y = Labels(np.array([0, 0, 1, 1, 2, 2]), 3)
        path = tmp_path / "points.csv"
        save_csv(x, path, labels=y)
        x2, y2 = load_csv(path, has_labels=True)
        assert np.array_equal(x.values, x2.values)
        assert np.array_equal(y.assignments, y2.assignments)

    def test_header_is_skipped(self, tmp_path):
        path = tmp_path / "with_header.csv"
        path.write_text("f0,f1,label\n1,0,0\n0,1,0\n1,1,1\n0.5,0.5,1\n")
        x, y = load_csv(path, has_labels=True)
        assert x.n == 4 and x.dim == 2
        assert y.n_clusters == 2

    def test_labels_remapped_contiguously(self, tmp_path):
        path = tmp_path / "gappy.csv"
        path.write_text("1,0,7\n0,1,7\n1,1,3\n")
        _, y = load_csv(path, has_labels=True)
        # 3 -> 0, 7 -> 1
        assert y.assignments.tolist() == [1, 1, 0]

    def test_bad_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,oops\n5,6\n")
        with pytest.raises(ValueError, match=r"row 2, column 2"):
            load_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n3\n5,6\n")
        with pytest.raises(ValueError, match=r"row 2 has 1 fields"):
            load_csv(path)

    def test_non_integer_label_rejected(self, tmp_path):
        path = tmp_path / "fraclabel.csv"
        path.write_text("1,0,0.5\n0,1,1\n1,1,1\n")
        with pytest.raises(ValueError, match="not an integer"):
            load_csv(path, has_labels=True)

    def test_non_integer_label_message_prints_the_value(self, tmp_path):
        path = tmp_path / "fraclabel.csv"
        path.write_text("1,0,0.5\n0,1,1\n1,1,1\n")
        with pytest.raises(ValueError, match=r"row 1: label 0\.5 is not an integer"):
            load_csv(path, has_labels=True)

    @pytest.mark.parametrize("wide, shown", [("1e20", r"1e\+20"),
                                             ("9223372036854775808", r"9\.223372036854776e\+18")],
                             ids=["1e20", "2**63"])
    def test_labels_outside_int64_rejected(self, tmp_path, wide, shown):
        path = tmp_path / "widelabel.csv"
        path.write_text(f"f0,f1,label\n\n1,0,1\n0,1,{wide}\n1,1,2e20\n0,2,{wide}\n")
        with pytest.raises(ValueError, match=rf"row 3: label {shown} is outside the int64 range"):
            load_csv(path, has_labels=True)

    def test_int64_minimum_label_accepted(self, tmp_path):
        path = tmp_path / "minlabel.csv"
        path.write_text("1,0,-9223372036854775808\n0,1,0\n1,1,-9223372036854775808\n"
                        "0,2,0\n2,1,0\n")
        _, y = load_csv(path, has_labels=True)
        assert y.assignments.tolist() == [0, 1, 0, 1, 1]

    def test_integer_valued_float_labels_accepted(self, tmp_path):
        path = tmp_path / "floatlabels.csv"
        path.write_text("1,0,3.0\n0,1,3.0\n1,1,7.0\n0,2,7.0\n2,1,3.0\n")
        _, y = load_csv(path, has_labels=True)
        assert y.assignments.tolist() == [0, 0, 1, 1, 0]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_csv(path)

    @unreadable_csvs
    def test_unreadable_file_is_named(self, tmp_path, content, shown):
        path = tmp_path / "unreadable.csv"
        path.write_bytes(content)
        with pytest.raises(ValueError) as info:
            load_csv(path, has_labels=True)
        assert str(info.value).startswith(f"{path}: {shown}")


def test_labels_csv_round_trip(tmp_path):
    y = Labels([2, 0, 1, 1, 2, 0], 3)
    path = tmp_path / "labels.csv"
    save_labels(y, path)
    back = np.loadtxt(path, dtype=np.int64)
    assert np.array_equal(back, y.assignments)


class TestNormalize:
    def test_unit_norms(self):
        rng = np.random.default_rng(2)
        x = normalize_columns(DataMatrix(3.7 * rng.standard_normal((6, 9))))
        np.testing.assert_allclose(np.linalg.norm(x.values, axis=0), 1.0, atol=1e-12)

    def test_direction_preserved(self):
        x = DataMatrix(np.array([[3.0, 0, 1], [4.0, 2, 1]]))
        out = normalize_columns(x)
        np.testing.assert_allclose(out.values[:, 0], [0.6, 0.8])

    def test_norms_summed_as_linalg_norm_sums_them(self):
        # the norms are summed a block of columns at a time; each column must
        # still get the sum np.linalg.norm gives it, to the last bit
        x = DataMatrix(np.random.default_rng(14).standard_normal((2016, 100)))
        expected = x.values / np.linalg.norm(x.values, axis=0)
        assert np.array_equal(normalize_columns(x).values, expected)

    def test_zero_column_rejected(self):
        x = DataMatrix(np.array([[1.0, 0, 1], [0, 0, 1]]))
        with pytest.raises(ValueError, match="column 1"):
            normalize_columns(x)


class TestSynthetic:
    def test_shapes_labels_and_norms(self):
        spec = SyntheticSpec(3, 2, 12, 5, rng_seed=0)
        x, y = generate_synthetic(spec)
        assert x.values.shape == (12, 15)
        assert y.assignments.tolist() == [0] * 5 + [1] * 5 + [2] * 5
        np.testing.assert_allclose(np.linalg.norm(x.values, axis=0), 1.0, atol=1e-12)

    def test_orthogonal_subspaces_have_zero_cross_products(self):
        spec = SyntheticSpec(4, 3, 20, 6, rng_seed=5)
        x, y = generate_synthetic(spec)
        g = x.values.T @ x.values
        for a in range(4):
            for b in range(a + 1, 4):
                block = g[np.ix_(y.assignments == a, y.assignments == b)]
                assert np.abs(block).max() < 1e-12

    def test_random_bases_generally_not_orthogonal(self):
        spec = SyntheticSpec(3, 3, 30, 8, rng_seed=5, orthogonal=False)
        x, y = generate_synthetic(spec)
        g = x.values.T @ x.values
        cross = g[np.ix_(y.assignments == 0, y.assignments == 1)]
        assert np.abs(cross).max() > 1e-3

    def test_deterministic_under_seed(self):
        spec = SyntheticSpec(2, 2, 8, 4, rng_seed=9)
        x1, _ = generate_synthetic(spec)
        x2, _ = generate_synthetic(spec)
        assert np.array_equal(x1.values, x2.values)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="smaller than ambient"):
            SyntheticSpec(2, 5, 5, 4, rng_seed=0)
        with pytest.raises(ValueError, match="must not exceed ambient"):
            SyntheticSpec(4, 3, 10, 4, rng_seed=0)
        with pytest.raises(ValueError, match="n_subspaces must be an integer of at least 1, got 0"):
            SyntheticSpec(0, 2, 10, 4, rng_seed=0)
        # fractional sizes and seeds would only fail later, inside numpy
        for args, name in (((3.5, 2, 12, 8), "n_subspaces"), ((3, 2.5, 12, 8), "subspace_dim"),
                           ((3, 2, 12.0, 8), "ambient_dim"),
                           ((3, 2, 12, 8.5), "points_per_subspace")):
            with pytest.raises(ValueError, match=f"{name} must be an integer of at least 1"):
                SyntheticSpec(*args, rng_seed=0)
        with pytest.raises(ValueError, match="rng_seed must be an integer of at least 0"):
            SyntheticSpec(3, 2, 12, 8, rng_seed=0.5)


class TestNoise:
    def test_sigma_zero_is_exactly_normalization(self):
        rng = np.random.default_rng(3)
        x = DataMatrix(rng.standard_normal((7, 11)))
        assert np.array_equal(
            add_gaussian_noise(x, 0.0, rng_seed=4).values,
            normalize_columns(x).values,
        )
        assert np.array_equal(
            blend_gaussian_noise(x, 0.0, rng_seed=4).values,
            normalize_columns(x).values,
        )

    def test_corrupted_column_count(self):
        rng = np.random.default_rng(6)
        x = normalize_columns(DataMatrix(rng.standard_normal((5, 20))))
        for sigma in (0.0, 0.1, 0.25, 0.5, 0.9, 1.0):
            _, picked = _perturbed_values(x, sigma, 0.01, np.random.default_rng(1))
            assert len(picked) == round_half_away_from_zero(sigma * 20)
            assert len(set(picked.tolist())) == len(picked)

    def test_untouched_columns_match_plain_normalization(self):
        rng = np.random.default_rng(7)
        x = DataMatrix(rng.standard_normal((6, 10)))
        perturbed, picked = _perturbed_values(x, 0.3, 0.01, np.random.default_rng(2))
        untouched = sorted(set(range(10)) - set(picked.tolist()))
        assert np.array_equal(perturbed[:, untouched], x.values[:, untouched])

    @pytest.mark.parametrize("shape", [(2016, 640), (50, 2000), (5, 20000), (1, 10)])
    @pytest.mark.parametrize("sigma", [0.1, 0.5, 1.0])
    def test_blocked_add_equals_one_fancy_indexed_add(self, shape, sigma):
        # the add runs over blocks of picked columns; the draw and every sum
        # are those of one gather-add-scatter of the whole noise
        x = DataMatrix(np.random.default_rng(14).standard_normal(shape))
        got, picked = _perturbed_values(x, sigma, 0.3, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        count = round_half_away_from_zero(sigma * x.n)
        want_picked = rng.choice(x.n, size=count, replace=False)
        want = x.values.copy(order="F")
        want[:, want_picked] += rng.normal(0.0, math.sqrt(0.3), size=(x.dim, count))
        assert np.array_equal(picked, want_picked)
        assert np.array_equal(got, want) and got.flags.f_contiguous

    def test_noise_energy_matches_variance(self):
        # Monte Carlo: per corrupted column, E||noise||^2 = dim * variance
        dim, n, variance = 40, 30, 0.01
        rng = np.random.default_rng(8)
        x = normalize_columns(DataMatrix(rng.standard_normal((dim, n))))
        energies = []
        for rep in range(400):
            perturbed, picked = _perturbed_values(
                x, 0.5, variance, np.random.default_rng(1000 + rep)
            )
            delta = perturbed[:, picked] - x.values[:, picked]
            energies.append(float((delta**2).sum(axis=0).mean()))
        mean_energy = float(np.mean(energies))
        expected = dim * variance
        assert abs(mean_energy - expected) / expected < 0.05

    def test_output_has_unit_columns(self):
        rng = np.random.default_rng(9)
        x = DataMatrix(rng.standard_normal((5, 12)))
        for fn in (add_gaussian_noise, blend_gaussian_noise):
            out = fn(x, 0.4, rng_seed=3)
            np.testing.assert_allclose(
                np.linalg.norm(out.values, axis=0), 1.0, atol=1e-12
            )

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(10)
        x = DataMatrix(rng.standard_normal((4, 9)))
        a = add_gaussian_noise(x, 0.6, rng_seed=77)
        b = add_gaussian_noise(x, 0.6, rng_seed=77)
        assert np.array_equal(a.values, b.values)

    def test_parameter_validation(self):
        x = DataMatrix(np.eye(3))
        with pytest.raises(ValueError, match="sigma"):
            add_gaussian_noise(x, 1.5)
        with pytest.raises(ValueError, match="sigma"):
            blend_gaussian_noise(x, -0.1)
        with pytest.raises(ValueError, match="variance"):
            add_gaussian_noise(x, 0.5, variance=0.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="variance must be positive and finite"):
                blend_gaussian_noise(x, 0.5, variance=bad)

    @pytest.mark.parametrize("prep, args", [(add_gaussian_noise, (0.5,)),
                                            (blend_gaussian_noise, (0.5,)),
                                            (normalize_columns, ())])
    def test_preps_leave_their_input_and_return_column_major(self, prep, args):
        x = DataMatrix(np.random.default_rng(12).standard_normal((6, 10)))
        before = x.values.copy()
        out = prep(x, *args)
        assert np.array_equal(x.values, before) and not x.values.flags.writeable
        assert out.values.flags.f_contiguous and not out.values.flags.writeable
        assert not np.shares_memory(out.values, x.values)

    # one copy, corrupted and normalized in place: corruption holds the copy,
    # the noise draw (sigma times the matrix) and one block of columns
    # gathered for the add, so it stays under (1.25 + sigma)x the matrix;
    # normalizing holds the copy and one block of squares
    @pytest.mark.parametrize("prep, args, bound", [(add_gaussian_noise, (0.5,), 1.75),
                                                   (normalize_columns, (), 1.5),
                                                   (add_gaussian_noise, (1.0,), 2.25)])
    def test_prep_peak_memory(self, prep, args, bound):
        x = DataMatrix(np.random.default_rng(13).standard_normal((2016, 640)))
        tracemalloc.start()
        try:
            prep(x, *args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound * x.values.nbytes

    def test_blend_changes_every_column(self):
        rng = np.random.default_rng(11)
        x = normalize_columns(DataMatrix(rng.standard_normal((5, 8))))
        out = blend_gaussian_noise(x, 0.5, rng_seed=1)
        diffs = np.linalg.norm(out.values - x.values, axis=0)
        assert (diffs > 1e-6).all()
