import csv
import json

import numpy as np
import pytest

from sscomp import generate_synthetic, load_labels, SyntheticSpec
from sscomp.cli import main
from sscomp.data import save_csv
from sscomp.experiment import read_aggregate_csv

SYNTH = "3,2,12,8"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCluster:
    def test_synthetic_run_prints_metrics(self, capsys):
        code, out, _ = run(
            capsys, "cluster", "--synth", SYNTH, "--k", "3", "--seed", "7"
        )
        assert code == 0
        assert "accr=100.00" in out
        assert "method: omp" in out

    def test_json_output(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "cluster", "--synth", SYNTH, "--k", "3", "--trials", "2",
            "--out", str(out_path),
        )
        assert code == 0
        assert "mean:" in out
        payload = json.loads(out_path.read_text())
        assert payload["method"] == "omp"
        assert len(payload["trials"]) == 2
        assert payload["mean"]["accr"] == pytest.approx(100.0)

    def test_labels_out(self, capsys, tmp_path):
        labels_path = tmp_path / "predicted.csv"
        code, _, _ = run(
            capsys,
            "cluster", "--synth", SYNTH, "--k", "3",
            "--labels-out", str(labels_path),
        )
        assert code == 0
        predicted = load_labels(labels_path)
        assert predicted.n == 24
        assert predicted.n_clusters == 3

    def test_labels_out_needs_single_trial(self, capsys):
        code, _, err = run(
            capsys,
            "cluster", "--synth", SYNTH, "--trials", "3",
            "--labels-out", "x.csv",
        )
        assert code == 1
        assert "--trials 1" in err

    def test_file_dataset_needs_n_clusters(self, capsys, tmp_path):
        x, y = generate_synthetic(SyntheticSpec(3, 2, 12, 8, rng_seed=5))
        path = tmp_path / "points.csv"
        save_csv(x, path, labels=y)
        code, _, err = run(capsys, "cluster", "--data", str(path))
        assert code == 1
        assert "--n-clusters" in err
        code, out, _ = run(
            capsys, "cluster", "--data", str(path), "--n-clusters", "3", "--k", "3"
        )
        assert code == 0
        assert "accr=100.00" in out

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_eps_named(self, capsys, bad):
        code, _, err = run(capsys, "cluster", "--synth", SYNTH, "--eps", bad)
        assert code == 1
        assert "eps must be a finite number" in err

    def test_data_and_synth_conflict(self, capsys):
        code, _, err = run(
            capsys, "cluster", "--data", "x.csv", "--synth", SYNTH
        )
        assert code == 1
        assert "exactly one" in err

    def test_adaptive_method(self, capsys):
        code, out, _ = run(
            capsys,
            "cluster", "--synth", SYNTH, "--k", "3", "--method", "adaptive-omp",
        )
        assert code == 0
        assert "method: adaptive-omp" in out


class TestSweep:
    def test_writes_artifacts_and_prints_rows(self, capsys, tmp_path):
        out_dir = tmp_path / "sweep"
        code, out, _ = run(
            capsys,
            "sweep", "--synth", SYNTH, "--k", "3",
            "--axis", "sigma", "--values", "0,0.3", "--out-dir", str(out_dir),
        )
        assert code == 0
        assert (out_dir / "aggregate.csv").exists()
        assert (out_dir / "plot.csv").exists()
        rows = read_aggregate_csv(out_dir / "aggregate.csv")
        assert len(rows) == 4
        assert "noise_sigma=0 omp" in out

    def test_failing_value_exits_nonzero(self, capsys, tmp_path):
        out_dir = tmp_path / "sweep"
        code, out, err = run(
            capsys,
            "sweep", "--synth", SYNTH, "--k", "3",
            "--axis", "samples", "--values", "4,999", "--out-dir", str(out_dir),
        )
        assert code == 1
        assert "ERROR" in out
        assert "2 sweep rows failed" in err
        # the good rows still landed in the CSV
        rows = read_aggregate_csv(out_dir / "aggregate.csv")
        assert sum(1 for r in rows if not r["error"]) == 2

    def test_unknown_axis_value_type(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "sweep", "--synth", SYNTH,
            "--axis", "k", "--values", "2.5,3", "--out-dir", str(tmp_path),
        )
        assert code == 1
        assert "must be ints" in err


class TestCompare:
    def make_sweep(self, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        code, _, _ = run(
            capsys,
            "sweep", "--synth", SYNTH, "--k", "3",
            "--axis", "k", "--values", "2,3", "--out-dir", str(out_dir),
        )
        assert code == 0
        return out_dir / "aggregate.csv"

    def test_single_file_comparison(self, capsys, tmp_path):
        agg = self.make_sweep(tmp_path, capsys)
        cmp_path = tmp_path / "cmp.csv"
        code, out, _ = run(capsys, "compare", str(agg), "--out", str(cmp_path))
        assert code == 0
        assert "rows favor the baseline" in out
        with open(cmp_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert all(r["delta_accr"] != "" for r in rows)

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "compare", str(tmp_path / "nope.csv"))
        assert code == 1
        assert "error:" in err


class TestKArray:
    def test_synthetic_stdout(self, capsys):
        code, out, err = run(capsys, "k-array", "--synth", SYNTH, "--k", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index,size"
        assert len(lines) == 25
        sizes = [int(line.split(",")[1]) for line in lines[1:]]
        assert all(1 <= s <= 22 for s in sizes)
        assert "base K=3" in err

    def test_file_output(self, capsys, tmp_path):
        out_path = tmp_path / "budgets.csv"
        code, out, _ = run(
            capsys, "k-array", "--synth", SYNTH, "--k", "3", "--out", str(out_path)
        )
        assert code == 0
        assert f"wrote {out_path}" in out
        text = out_path.read_text().strip().splitlines()
        assert text[0] == "index,size"
        assert len(text) == 25

    def test_labeled_file_input(self, capsys, tmp_path):
        x, y = generate_synthetic(SyntheticSpec(3, 2, 12, 8, rng_seed=5))
        data_path = tmp_path / "points.csv"
        save_csv(x, data_path, labels=y)
        code, out, _ = run(
            capsys, "k-array", "--data", str(data_path), "--has-labels", "--k", "3"
        )
        assert code == 0
        assert out.startswith("index,size")

    def test_data_and_synth_conflict(self, capsys):
        code, _, err = run(
            capsys, "k-array", "--data", "x.csv", "--synth", SYNTH, "--k", "3"
        )
        assert code == 1
        assert "exactly one" in err


class TestSynthAndNoise:
    def test_synth_writes_csv(self, capsys, tmp_path):
        out_path = tmp_path / "made.csv"
        code, out, _ = run(
            capsys,
            "synth", "--subspaces", "3", "--dim", "2", "--ambient", "12",
            "--points", "8", "--out", str(out_path),
        )
        assert code == 0
        assert "24 points" in out
        from sscomp.data import load_csv

        x, y = load_csv(out_path, has_labels=True)
        assert x.n == 24 and y.n_clusters == 3

    def test_synth_npz_no_labels(self, capsys, tmp_path):
        out_path = tmp_path / "made.npz"
        code, _, _ = run(
            capsys,
            "synth", "--subspaces", "2", "--dim", "2", "--ambient", "8",
            "--points", "5", "--no-labels", "--out", str(out_path),
        )
        assert code == 0
        from sscomp.data import load_npz

        x, y = load_npz(out_path)
        assert x.n == 10 and y is None

    def test_noise_round_trip(self, capsys, tmp_path):
        clean = tmp_path / "clean.csv"
        noisy = tmp_path / "noisy.csv"
        run(
            capsys,
            "synth", "--subspaces", "3", "--dim", "2", "--ambient", "12",
            "--points", "8", "--out", str(clean),
        )
        code, out, _ = run(
            capsys,
            "noise", "--in", str(clean), "--has-labels",
            "--sigma", "0.4", "--out", str(noisy),
        )
        assert code == 0
        assert "sigma=0.4" in out
        from sscomp.data import load_csv

        x_clean, y_clean = load_csv(clean, has_labels=True)
        x_noisy, y_noisy = load_csv(noisy, has_labels=True)
        assert (y_clean.assignments == y_noisy.assignments).all()
        assert not np.allclose(x_clean.values, x_noisy.values)
        np.testing.assert_allclose(
            np.linalg.norm(x_noisy.values, axis=0), 1.0, atol=1e-9
        )

    def test_noise_one_dimensional_npz_is_an_error_line(self, capsys, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, values=np.ones(6), labels=np.zeros(6, dtype=np.int64))
        code, _, err = run(
            capsys,
            "noise", "--in", str(path), "--has-labels",
            "--sigma", "0.2", "--out", str(tmp_path / "o.npz"),
        )
        assert code == 1
        assert err.startswith("error:") and "2-d array" in err

    def test_noise_missing_input(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "noise", "--in", str(tmp_path / "nope.csv"), "--sigma", "0.2",
            "--out", str(tmp_path / "o.csv"),
        )
        assert code == 1
        assert "not found" in err


def args_file(tmp_path, *lines):
    path = tmp_path / "run.args"
    path.write_text("".join(f"{line}\n" for line in lines))
    return f"@{path}"


def exit_code(*argv):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    return info.value.code


class TestArgumentFile:
    def test_file_supplies_flags(self, capsys, tmp_path):
        path = args_file(tmp_path, f"--synth={SYNTH}", "--k", "3", "--seed=7")
        code, out, _ = run(capsys, "cluster", path)
        assert code == 0
        assert "accr=100.00" in out

    def test_later_flag_overrides_the_file(self, capsys, tmp_path):
        path = args_file(tmp_path, f"--synth={SYNTH}", "--k=3", "--method=omp")
        code, out, _ = run(capsys, "cluster", path, "--method", "adaptive-omp")
        assert code == 0
        assert "method: adaptive-omp" in out

    def test_unknown_flag_rejected(self, capsys, tmp_path):
        path = args_file(tmp_path, f"--synth={SYNTH}", "--learning-rate=0.1")
        assert exit_code("cluster", path) == 2
        assert "unrecognized arguments: --learning-rate=0.1" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["", "--k 3"], ids=["blank", "flag-and-value"])
    def test_one_argument_per_line(self, capsys, tmp_path, line):
        path = args_file(tmp_path, f"--synth={SYNTH}", line)
        assert exit_code("cluster", path) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("trials", 2.5), ("k", 2.5), ("workers", 1.5)])
    def test_value_parsed_with_the_flag_type(self, capsys, tmp_path, key, value):
        path = args_file(tmp_path, f"--synth={SYNTH}", f"--{key}={value}")
        assert exit_code("cluster", path) == 2
        assert f"argument --{key}: invalid int value: '{value}'" in capsys.readouterr().err

    def test_untyped_value_is_parsed_as_text(self, capsys, tmp_path):
        code, _, err = run(capsys, "cluster", args_file(tmp_path, "--synth=5"))
        assert code == 1
        assert err.startswith("error: --synth wants 4 comma-separated integers")

    def test_choices_checked(self, capsys, tmp_path):
        clean, noisy = tmp_path / "clean.csv", tmp_path / "noisy.csv"
        x, y = generate_synthetic(SyntheticSpec(3, 2, 12, 8, rng_seed=0))
        save_csv(x, clean, labels=y)
        path = args_file(tmp_path, f"--in={clean}", "--has-labels", "--sigma=0.5",
                         "--noise-mode=bogus", f"--out={noisy}")
        assert exit_code("noise", path) == 2
        assert "argument --noise-mode: invalid choice: 'bogus'" in capsys.readouterr().err
        assert not noisy.exists()

    def test_required_flags_from_the_file(self, capsys, tmp_path):
        out_dir = tmp_path / "sweep"
        path = args_file(tmp_path, f"--synth={SYNTH}", "--k=3", "--axis=k", "--values=3",
                         f"--out-dir={out_dir}")
        code, _, _ = run(capsys, "sweep", path)
        assert code == 0
        assert len(read_aggregate_csv(out_dir / "aggregate.csv")) == 2
