import dataclasses
import json
import logging

import numpy as np
import pytest
from conftest import column, unreadable_csvs

from sscomp import DataMatrix, Labels, SyntheticSpec, experiment, generate_synthetic
from sscomp.data import save_csv
from sscomp.experiment import (
    CSV_COLUMNS,
    ExperimentConfig,
    ExperimentError,
    SweepSpec,
    _subsample,
    _trial_seeds,
    aggregate_reports,
    compare,
    dataset_id,
    load_dataset,
    read_aggregate_csv,
    run_sweep,
    run_trials,
    write_aggregate_csv,
    write_comparison_csv,
)

SMALL = SyntheticSpec(3, 2, 12, 8, rng_seed=5)


def small_config(**overrides):
    defaults = dict(dataset=SMALL, n_clusters=3, k=3, eps=1e-6, seed=7)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def rows_without_time(rows):
    return [{k: v for k, v in row.items() if k != "time"} for row in rows]


class TestExperimentConfig:
    def test_defaults(self):
        cfg = small_config()
        assert cfg.method == "omp"
        assert cfg.trials == 1
        assert cfg.noise_mode == "corrupt"

    @pytest.mark.parametrize(
        "field,value",
        [
            ("method", "lasso"),
            ("n_clusters", 1),
            ("n_clusters", 2.5),
            ("k", 0),
            ("k", 2.5),
            ("eps", -1.0),
            ("eps", np.nan),
            ("eps", np.inf),
            ("trials", 0),
            ("trials", 2.5),
            ("samples_per_cluster", 0),
            ("samples_per_cluster", 2.5),
            ("noise_sigma", 1.5),
            ("noise_variance", 0.0),
            ("noise_variance", np.nan),
            ("noise_variance", np.inf),
            ("noise_mode", "additive"),
            ("seed", -1),
            ("seed", 2.5),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            small_config(**{field: value})


class TestSweepSpec:
    def test_unknown_axis(self):
        with pytest.raises(ValueError, match="axis"):
            SweepSpec("learning_rate", (0.1,))

    def test_empty_values(self):
        with pytest.raises(ValueError, match="nonempty"):
            SweepSpec("k", ())

    def test_values_coerced_to_tuple(self):
        assert SweepSpec("k", [2, 3]).values == (2, 3)

    def test_repeated_value_rejected(self):
        with pytest.raises(ValueError, match=r"sweep value 2 repeats in n_clusters values "
                                             r"\(2, 3, 2\)"):
            SweepSpec("n_clusters", (2, 3, 2))


class TestDatasetHandling:
    def test_dataset_id_for_synthetic(self):
        assert dataset_id(SMALL) == "synthetic[s=3;d=2;D=12;m=8;seed=5;orth]"
        random_bases = SyntheticSpec(2, 2, 10, 4, rng_seed=1, orthogonal=False)
        assert dataset_id(random_bases).endswith(";rand]")

    def test_dataset_id_for_path(self):
        assert dataset_id("data/foo.csv") == "data/foo.csv"

    def test_load_synthetic(self):
        x, y = load_dataset(small_config())
        assert x.n == 24 and y.n_clusters == 3

    def test_load_csv_file(self, tmp_path):
        x, y = generate_synthetic(SMALL)
        path = tmp_path / "points.csv"
        save_csv(x, path, labels=y)
        loaded_x, loaded_y = load_dataset(small_config(dataset=path))
        np.testing.assert_allclose(loaded_x.values, x.values)
        assert (loaded_y.assignments == y.assignments).all()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ExperimentError, match="not found"):
            load_dataset(small_config(dataset=tmp_path / "nope.csv"))

    def test_csv_without_labels_rejected(self, tmp_path):
        # the last column of an unlabeled CSV is real-valued data, which
        # fails the integer-label parse
        x, _ = generate_synthetic(SMALL)
        path = tmp_path / "unlabeled.csv"
        save_csv(x, path)
        with pytest.raises(ValueError, match="label"):
            load_dataset(small_config(dataset=path))


class TestSubsample:
    def test_keeps_everything_by_default(self):
        x, y = generate_synthetic(SMALL)
        indices, truth = _subsample(x, y, small_config(), np.random.default_rng(0))
        assert indices.tolist() == list(range(24))
        assert (truth.assignments == y.assignments).all()

    def test_per_cluster_sampling(self):
        x, y = generate_synthetic(SMALL)
        cfg = small_config(samples_per_cluster=4)
        indices, truth = _subsample(x, y, cfg, np.random.default_rng(1))
        assert indices.size == 12
        assert indices.tolist() == sorted(indices.tolist())
        counts = np.bincount(truth.assignments)
        assert counts.tolist() == [4, 4, 4]

    def test_cluster_subset_remapped_contiguously(self):
        x, y = generate_synthetic(SMALL)
        cfg = small_config(n_clusters=2)
        indices, truth = _subsample(x, y, cfg, np.random.default_rng(2))
        assert indices.size == 16
        assert truth.n_clusters == 2
        assert set(truth.assignments.tolist()) == {0, 1}

    def test_deterministic_under_rng(self):
        x, y = generate_synthetic(SMALL)
        cfg = small_config(samples_per_cluster=3, n_clusters=2)
        a, _ = _subsample(x, y, cfg, np.random.default_rng(42))
        b, _ = _subsample(x, y, cfg, np.random.default_rng(42))
        assert a.tolist() == b.tolist()

    def test_too_many_clusters(self):
        x, y = generate_synthetic(SMALL)
        with pytest.raises(ExperimentError, match="clusters"):
            _subsample(x, y, small_config(n_clusters=5), np.random.default_rng(0))

    def test_too_many_samples(self):
        x, y = generate_synthetic(SMALL)
        cfg = small_config(samples_per_cluster=100)
        with pytest.raises(ExperimentError, match="sample"):
            _subsample(x, y, cfg, np.random.default_rng(0))


class TestTrialSeeds:
    def test_deterministic(self):
        assert _trial_seeds(3, 0) == _trial_seeds(3, 0)

    def test_distinct_across_trials_and_seeds(self):
        seen = {_trial_seeds(s, t) for s in range(4) for t in range(4)}
        assert len(seen) == 16

    def test_pinned_words(self):
        # the first two words of generate_state(3): the subsample and noise
        # draws of runs recorded with three trial seeds stay the same
        assert _trial_seeds(1, 0) == (7434755675892716031, 10007452063617845036)


class TestRunTrial:
    def test_orthogonal_oracle_scores(self):
        [(report, _)] = run_trials(small_config())
        assert report.accr == 100.0
        assert report.perc == 100.0
        assert report.ssr == 0.0
        assert 0.5 <= report.sea <= 1.0
        assert report.conn > 0.0

    def test_params_echo(self):
        cfg = small_config()
        report, _ = experiment.run_trial_detailed(cfg, 2, load_dataset(cfg))
        p = report.params
        for f in dataclasses.fields(ExperimentConfig):
            assert f.name in p, f.name
            if f.name != "dataset":
                assert p[f.name] == getattr(cfg, f.name), f.name
        assert p["dataset"] == dataset_id(SMALL)
        assert p["trial"] == 2
        assert p["n_points"] == 24
        assert len(p["subsample_sha1"]) == 12
        assert p["method"] == "omp"

    def test_deterministic_modulo_time(self):
        cfg = small_config(noise_sigma=0.3)
        data = load_dataset(cfg)
        a = experiment.run_trial_detailed(cfg, 1, data)[0].to_dict()
        b = experiment.run_trial_detailed(cfg, 1, data)[0].to_dict()
        a.pop("time"), b.pop("time")
        assert a == b

    def test_methods_share_subsample_and_noise(self):
        base = small_config(samples_per_cluster=5, noise_sigma=0.2, trials=1)
        [(baseline, _)] = run_trials(base)
        [(adaptive, _)] = run_trials(
            small_config(
                samples_per_cluster=5, noise_sigma=0.2, method="adaptive-omp"
            )
        )
        assert (
            baseline.params["subsample_sha1"] == adaptive.params["subsample_sha1"]
        )

    def test_methods_agree_when_budgets_degenerate(self):
        # identical points: the budget selector hits its MaxD = MinD branch
        # and hands every point the uniform budget, and every OMP run stops
        # after one atom anyway, so both methods must produce the same
        # report except for the clock
        column = np.random.default_rng(9).standard_normal(6)
        values = np.tile((column / np.linalg.norm(column))[:, None], (1, 10))
        x = DataMatrix(values)
        y = Labels(np.repeat([0, 1], 5), 2)
        base_cfg = small_config(dataset="ignored.csv", n_clusters=2, k=2)
        reports = {}
        for method in ("omp", "adaptive-omp"):
            cfg = small_config(dataset="ignored.csv", n_clusters=2, k=2, method=method)
            reports[method] = experiment.run_trial_detailed(cfg, 0, (x, y))[0].to_dict()
        del base_cfg
        for d in reports.values():
            d.pop("time")
            d["params"].pop("method")
        assert reports["omp"] == reports["adaptive-omp"]

    def test_failure_wrapped_with_context(self):
        # 3 clusters requested from a dataset that only has labels 0/1
        x, _ = generate_synthetic(SMALL)
        y = Labels(np.repeat([0, 1], 12), 2)
        with pytest.raises(ExperimentError, match="requested 3 clusters"):
            experiment.run_trial_detailed(small_config(), 0, (x, y))

    def test_noise_that_cancels_a_column_is_named(self):
        # column picked[0] is minus the noise the trial adds to it, drawn
        # with the trial's own seed, so its noisy copy is exactly zero
        cfg = small_config(dataset="cancel.csv", n_clusters=2, noise_sigma=0.5)
        values = np.random.default_rng(4).standard_normal((6, 12))
        y = Labels(np.repeat([0, 1], 6), 2)
        _, noise_seed = _trial_seeds(cfg.seed, 0)
        rng = np.random.default_rng(noise_seed)
        picked = rng.choice(12, size=6, replace=False)
        noise = rng.normal(0.0, np.sqrt(cfg.noise_variance), size=(6, 6))
        values[:, picked[0]] = -noise[:, 0]
        with pytest.raises(ExperimentError, match=(
            rf"trial failed \(dataset=cancel.csv, method=omp, seed=7, trial=0\): "
            rf"column {picked[0]} "
            r"has norm 0\.000e\+00, too close to zero to normalize"
        )):
            experiment.run_trial_detailed(cfg, 0, data=(DataMatrix(values), y))

    def test_adaptive_method_runs(self):
        [(report, _)] = run_trials(small_config(method="adaptive-omp"))
        assert report.accr == 100.0
        assert report.params["method"] == "adaptive-omp"

    @pytest.mark.parametrize("method", experiment.METHODS)
    def test_budget_at_least_a_cluster_size_stops_on_eps(self, method, caplog):
        # K=5 atoms allowed, but each 2-dim subspace holds 3 points: a point
        # is spanned by its 2 cluster mates, so every pursuit stops on eps
        # after 2 atoms and none crosses a cluster
        cfg = ExperimentConfig(SyntheticSpec(3, 2, 12, 3, rng_seed=0), n_clusters=3, k=5,
                               method=method)
        caplog.set_level(logging.DEBUG, logger="sscomp")
        [(report, _)] = run_trials(cfg)
        assert "self-expression: 9 points, nnz 18, stops eps=9 budget=0 zero_correlation=0 " \
               "rank=0" in caplog.messages
        assert report.perc == 100.0
        assert report.accr == 100.0

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("method", experiment.METHODS)
    def test_noisy_budget_above_a_cluster_size(self, method, seed, monkeypatch):
        # K=6 atoms for 4-point clusters, half the columns noisy: eps no
        # longer stops every pursuit at the subspace dimension, so budgets
        # bind and pursuits cross clusters; the trial must still complete
        # with budgets, coefficients and labels that keep their contracts
        seen = {}

        def recording(name):
            real = getattr(experiment, name)

            def call(*args, **kwargs):
                seen[name] = real(*args, **kwargs)
                return seen[name]
            monkeypatch.setattr(experiment, name, call)

        for name in ("compute_k_array", "ssc_omp", "ssc_omp_adaptive"):
            recording(name)
        cfg = ExperimentConfig(SyntheticSpec(3, 2, 12, 8, seed), n_clusters=3, method=method,
                               k=6, samples_per_cluster=4, noise_sigma=0.5,
                               noise_variance=0.1)
        [(report, predicted)] = run_trials(cfg)
        n = report.params["n_points"]
        budgets = seen["compute_k_array"].sizes if method == "adaptive-omp" else np.full(n, 6)
        assert 1 <= budgets.min() and budgets.max() <= n - 2
        coefs = seen["ssc_omp_adaptive" if method == "adaptive-omp" else "ssc_omp"]
        for i in range(n):
            support, _ = column(coefs, i)
            assert support.size <= budgets[i]
            assert i not in support
        assert 0.5 <= report.sea <= 1.0
        assert np.unique(predicted.assignments).size == 3


class TestRunTrials:
    def test_serial_count_and_order(self):
        cfg = small_config(trials=3)
        reports = [r for r, _ in run_trials(cfg)]
        assert [r.params["trial"] for r in reports] == [0, 1, 2]

    def test_dataset_loaded_once(self, monkeypatch):
        calls = []
        real = experiment.load_dataset

        def counting(cfg):
            calls.append(cfg)
            return real(cfg)

        monkeypatch.setattr(experiment, "load_dataset", counting)
        reports = [r for r, _ in run_trials(small_config(trials=2))]
        assert [r.params["trial"] for r in reports] == [0, 1]
        assert len(calls) == 1


class TestAggregation:
    def test_mean_row(self):
        cfg = small_config(trials=2)
        reports = [r for r, _ in run_trials(cfg)]
        row = aggregate_reports(cfg, reports)
        assert row["dataset"] == dataset_id(SMALL)
        assert row["n"] == 3
        assert row["K"] == 3
        assert row["method"] == "omp"
        want = np.mean([r.accr for r in reports])
        assert row["accr"] == f"{want:.4f}"
        assert row["error"] == ""
        assert row["samples"] == ""

    def test_csv_round_trip(self, tmp_path):
        cfg = small_config()
        rows = [aggregate_reports(cfg, [r for r, _ in run_trials(cfg)])]
        path = tmp_path / "agg.csv"
        write_aggregate_csv(rows, path)
        back = read_aggregate_csv(path)
        assert len(back) == 1
        assert back[0]["accr"] == rows[0]["accr"]
        assert list(back[0].keys()) == CSV_COLUMNS

    def test_read_rejects_foreign_csv(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="missing columns"):
            read_aggregate_csv(path)


class TestRunSweep:
    def test_paired_rows_per_value(self):
        rows = run_sweep(small_config(), SweepSpec("k", (2, 3)))
        assert len(rows) == 4
        assert [r["method"] for r in rows] == [
            "omp", "adaptive-omp", "omp", "adaptive-omp",
        ]
        assert [r["K"] for r in rows] == [2, 2, 3, 3]

    def test_deterministic_modulo_time(self):
        spec = SweepSpec("noise_sigma", (0.0, 0.3))
        first = run_sweep(small_config(trials=2), spec)
        second = run_sweep(small_config(trials=2), spec)
        assert rows_without_time(first) == rows_without_time(second)

    def test_one_load_per_sweep(self, monkeypatch):
        # every cell's rows are those of its own run_trials call
        base, spec = small_config(trials=2, noise_sigma=0.3), SweepSpec("k", (2, 3, 4))
        want = [aggregate_reports(cfg, [report for report, _ in run_trials(cfg)])
                for cfg in (small_config(trials=2, noise_sigma=0.3, k=k, method=method)
                            for k in spec.values for method in ("omp", "adaptive-omp"))]
        loads = []
        load = experiment.load_dataset
        monkeypatch.setattr(experiment, "load_dataset", lambda cfg: loads.append(cfg) or load(cfg))
        rows = run_sweep(base, spec)
        assert len(loads) == 1
        assert rows_without_time(rows) == rows_without_time(want)

    def test_error_rows_continue_the_sweep(self):
        rows = run_sweep(small_config(), SweepSpec("samples_per_cluster", (4, 500)))
        good = [r for r in rows if not r["error"]]
        bad = [r for r in rows if r["error"]]
        assert len(good) == 2 and len(bad) == 2
        assert all("cannot sample" in r["error"] for r in bad)
        assert all(r["accr"] == "" for r in bad)

    def test_invalid_value_raises_before_any_trial(self, tmp_path):
        out = tmp_path / "sweep"
        with pytest.raises(ValueError, match="k must be an integer of at least 1, got 0"):
            run_sweep(small_config(), SweepSpec("k", (3, 0)), out_dir=out)
        assert not out.exists()

    def test_adaptive_k_below_two_raises_before_any_trial(self, tmp_path):
        # K=1 is a valid omp cell but not an adaptive one, so no cell runs
        out = tmp_path / "sweep"
        with pytest.raises(ValueError, match="k must be an integer of at least 2, got 1"):
            run_sweep(small_config(), SweepSpec("k", (1, 2)), out_dir=out)
        assert not out.exists()

    def test_out_dir_artifacts(self, tmp_path):
        out = tmp_path / "sweep"
        rows = run_sweep(
            small_config(trials=2), SweepSpec("k", (2,)), out_dir=out
        )
        assert sorted(p.name for p in out.iterdir()) == ["aggregate.csv", "trials"]
        trial_files = sorted(p.name for p in (out / "trials").glob("*.json"))
        assert trial_files == [
            "k-2_adaptive-omp_trial0.json",
            "k-2_adaptive-omp_trial1.json",
            "k-2_omp_trial0.json",
            "k-2_omp_trial1.json",
        ]
        payload = json.loads((out / "trials" / trial_files[0]).read_text())
        assert payload["params"]["method"] == "adaptive-omp"
        assert read_aggregate_csv(out / "aggregate.csv") == [
            {k: str(v) for k, v in row.items()} for row in rows
        ]


def fake_row(method, accr, time="1.0", seed="7", error=""):
    row = {c: "" for c in CSV_COLUMNS}
    row.update(
        dataset="d", n="3", samples="", K="3", eps="1e-06", sigma="0",
        seed=seed, method=method, accr=accr, time=time, conn="0.5",
        perc="100.0000", ssr="0.0000", sea="0.75", error=error,
    )
    return row


class TestCompare:
    def test_zero_deltas_for_identical_scores(self):
        rows = [fake_row("omp", "90.0"), fake_row("adaptive-omp", "90.0")]
        result = compare(rows)
        assert len(result) == 1
        r = result[0]
        assert r["delta_accr"] == "0.0000"
        assert r["adaptive_loses"] == ""
        assert r["time_ratio"] == "1.0000"

    def test_loses_flag_set_when_baseline_wins(self):
        rows = [fake_row("omp", "90.0"), fake_row("adaptive-omp", "85.5")]
        r = compare(rows)[0]
        assert r["delta_accr"] == "-4.5000"
        assert r["adaptive_loses"] == "yes"

    def test_gain_keeps_flag_empty(self):
        rows = [fake_row("omp", "80.0"), fake_row("adaptive-omp", "88.0")]
        r = compare(rows)[0]
        assert r["delta_accr"] == "8.0000"
        assert r["adaptive_loses"] == ""

    def test_unpaired_keys_rejected(self):
        baseline = [fake_row("omp", "90.0", seed="1")]
        adaptive = [fake_row("adaptive-omp", "90.0", seed="2")]
        with pytest.raises(ValueError, match="do not pair up"):
            compare(baseline + adaptive)

    def test_no_rows_rejected(self):
        with pytest.raises(ValueError, match="no paired rows"):
            compare([])

    def test_error_rows_propagate(self):
        rows = [
            fake_row("omp", "", error="boom"),
            fake_row("adaptive-omp", "", error=""),
        ]
        r = compare(rows)[0]
        assert r["error"] == "boom"
        assert r["delta_accr"] == ""

    def test_comparison_csv_written(self, tmp_path):
        rows = [fake_row("omp", "90.0"), fake_row("adaptive-omp", "95.0")]
        result = compare(rows)
        path = tmp_path / "cmp.csv"
        write_comparison_csv(result, path)
        text = path.read_text().splitlines()
        assert text[0].startswith("dataset,n,samples,K,eps,sigma,seed,accr_baseline")
        assert len(text) == 2

    def test_rows_follow_first_occurrence_and_last_row_wins(self):
        baseline = [fake_row("omp", "70.0", seed="3"), fake_row("omp", "80.0", seed="1"),
                    fake_row("omp", "90.0", seed="2"), fake_row("omp", "75.0", seed="3")]
        adaptive = [fake_row("adaptive-omp", "80.0", seed=seed) for seed in ("1", "2", "3")]
        result = compare(baseline + adaptive)
        assert [r["seed"] for r in result] == ["3", "1", "2"]
        assert [r["accr_baseline"] for r in result] == ["75.0", "80.0", "90.0"]
        assert result[0]["dataset"] == "d" and result[0]["K"] == "3"

    def test_real_sweep_rows_compare(self):
        rows = run_sweep(small_config(), SweepSpec("k", (2, 3)))
        result = compare(rows)
        assert len(result) == 2
        assert all(r["error"] == "" for r in result)


class TestUnreadableDataset:
    @pytest.fixture
    def bad_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.5,0.5,0\n0.25,oops,1\n")
        return path

    def test_load_failure_names_the_run(self, bad_csv):
        with pytest.raises(ExperimentError, match=r"dataset failed to load "
                           r"\(dataset=.*bad\.csv, method=omp, seed=7\).*"
                           r"row 2, column 2"):
            run_trials(small_config(dataset=str(bad_csv)))

    def test_missing_file_names_the_run(self, tmp_path):
        with pytest.raises(ExperimentError, match=r"^dataset failed to load "
                           r"\(dataset=.*nope\.csv, method=omp, seed=7\): "
                           r"dataset not found: .*nope\.csv$"):
            run_trials(small_config(dataset=str(tmp_path / "nope.csv")))

    def test_sweep_over_missing_file_names_each_cell(self, tmp_path):
        path = tmp_path / "nope.csv"
        rows = run_sweep(small_config(dataset=str(path)), SweepSpec("k", (3,)))
        assert [r["error"] for r in rows] == [
            f"dataset failed to load (dataset={path}, method={method}, seed=7): "
            f"dataset not found: {path}" for method in ("omp", "adaptive-omp")]

    def test_sweep_records_error_rows(self, bad_csv, tmp_path):
        out = tmp_path / "out"
        rows = run_sweep(small_config(dataset=str(bad_csv)), SweepSpec("k", (3,)),
                         out_dir=out)
        assert [r["method"] for r in rows] == ["omp", "adaptive-omp"]
        assert all("dataset failed to load" in r["error"] for r in rows)
        written = read_aggregate_csv(out / "aggregate.csv")
        assert [r["error"] for r in written] == [r["error"] for r in rows]

    @unreadable_csvs
    def test_sweep_over_unreadable_csv_records_error_rows(self, tmp_path, content, shown):
        path = tmp_path / "unreadable.csv"
        path.write_bytes(content)
        out = tmp_path / "out"
        rows = run_sweep(small_config(dataset=str(path)), SweepSpec("k", (3,)),
                         out_dir=out)
        assert [r["method"] for r in rows] == ["omp", "adaptive-omp"]
        for row in rows:
            assert row["error"].startswith(
                f"dataset failed to load (dataset={path}, method={row['method']}, seed=7): "
                f"{path}: {shown}")
        written = read_aggregate_csv(out / "aggregate.csv")
        assert [r["error"] for r in written] == [r["error"] for r in rows]
