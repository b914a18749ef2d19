"""The benchmark's tracer patches package names from outside (see
``perfbench/tracing.py``). Every name it patches must still be looked up at
call time, or a per-layer metric silently reads zero. This runs the
benchmark's call sequence on a tiny dataset with the full trace table
installed and checks that every span fired."""

import dataclasses
import sys
from pathlib import Path

from sscomp import cli, experiment

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracing import TRACE, Tracer  # noqa: E402


def test_every_traced_name_is_reached(tmp_path, capsys):
    path = tmp_path / "points.csv"
    tracer = Tracer(TRACE)
    with tracer.installed():
        assert cli.main(["synth", "--subspaces", "3", "--dim", "2", "--ambient", "12",
                         "--points", "8", "--seed", "1", "--random-bases",
                         "--out", str(path)]) == 0
        cfg = experiment.ExperimentConfig(dataset=path, n_clusters=3, k=3)
        data = experiment.load_dataset(cfg)
        for method in experiment.METHODS:
            report, _ = experiment.run_trial_detailed(
                dataclasses.replace(cfg, method=method), 0, data=data)
            experiment.write_trial_json(report, tmp_path / f"{method}.json")
    fired = {span["name"] for span in tracer.spans}
    assert sorted(set(TRACE) - fired) == []
