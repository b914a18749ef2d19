#!/usr/bin/env python3
"""Benchmark of the sscomp package, one workload per invocation.

    python3 perfbench/run.py --workload faces_d2016 --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Set-up generates the workload's dataset from ``--seed``, writes it
as a labeled CSV through ``sscomp synth`` and loads it back. Then the run
makes closed-loop passes (one caller, ``workers=1``, one BLAS thread) for
``--seconds`` seconds; a pass runs one trial per method on the loaded data
and writes both trial JSONs.

With ``--trace 0`` it prints the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` each pass runs twice, untraced and then with spans around
every layer boundary (see ``tracing.py``), and it prints the per-layer
metrics. The last line of standard output is one JSON object
``{correct, attempted, failed, metrics}``; the full result with provenance
goes to ``perfbench/out/<workload>-seed<seed>-trace<t>/result.json``. The
exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

import stats
from tracing import PROBE, TRACE, Tracer, trial_records

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

K = 8
METHODS = ("omp", "adaptive-omp")
SHORT = {"omp": "omp", "adaptive-omp": "adaptive"}
SETUP_REPEATS = 3
MIN_PASSES = 2
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import sscomp.cli, sscomp.experiment; print(time.perf_counter() - t)")


@dataclasses.dataclass(frozen=True)
class Workload:
    """Random (independent-basis) subspaces written as one labeled CSV."""

    name: str
    subspaces: int
    dim: int
    ambient: int
    points: int
    n_clusters: int
    sigma: float = 0.0
    variance: float = 0.01


WORKLOADS = {w.name: w for w in (
    Workload("faces_d2016", 10, 9, 2016, 64, 10, sigma=0.5, variance=1e-3),
    Workload("synth_n2000", 5, 5, 50, 400, 5),
)}


class Run:
    """One workload at one seed: set-up, passes, and the operations counted
    toward ``attempted``/``failed``."""

    def __init__(self, workload: Workload, seed: int, out: Path):
        self.w = workload
        self.seed = seed
        self.out = out
        self.input_csv = out / "input.csv"
        self.attempted = 0
        self.failures: list[str] = []

    def call(self, what: str, fn, *args, **kwargs):
        """Run one set-up, trial or write; a failure is counted and
        reported, and the caller gets None."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # keep running: the gate reports it
            traceback.print_exc(file=sys.stderr)
            self.failures.append(f"{what}: {exc!r}")
            return None

    def cli(self, argv: list[str], log: Path) -> None:
        from sscomp import cli

        with open(log, "a") as fh, contextlib.redirect_stdout(fh), \
                contextlib.redirect_stderr(fh):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"sscomp {argv[0]} exited with {code}, see {log}")

    def config(self, method: str, samples: int | None = None):
        from sscomp.experiment import ExperimentConfig

        return ExperimentConfig(
            dataset=str(self.input_csv), n_clusters=self.w.n_clusters, method=method,
            k=K, samples_per_cluster=samples, noise_sigma=self.w.sigma,
            noise_variance=self.w.variance, seed=self.seed,
        )

    def setup(self):
        """One full set-up: import the package in a fresh interpreter, write
        the input CSV with ``sscomp synth``, load it, and run one small
        warm-up trial on it. Returns its seconds (the import as timed inside
        that interpreter) and the loaded data the passes work on."""
        from sscomp import experiment

        imported = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True)
        import_s = float(imported.stdout.strip().splitlines()[-1])
        begin = time.perf_counter()
        w = self.w
        self.cli(["synth", "--subspaces", str(w.subspaces), "--dim", str(w.dim),
                  "--ambient", str(w.ambient), "--points", str(w.points),
                  "--seed", str(self.seed), "--random-bases",
                  "--out", str(self.input_csv)], self.out / "cli.log")
        data = experiment.load_dataset(self.config("omp"))
        experiment.run_trial_detailed(self.config("adaptive-omp", samples=8), 0, data=data)
        return import_s + time.perf_counter() - begin, data

    def one_pass(self, index: int, tag: str, data) -> None:
        """One closed-loop pass over both methods: a trial of each (the order
        alternates between passes), each followed by its trial JSON write."""
        from sscomp import experiment

        trials = self.out / tag / "trials"
        trials.mkdir(parents=True, exist_ok=True)
        for method in METHODS if index % 2 == 0 else METHODS[::-1]:
            done = self.call(f"trial {method}/{index}", experiment.run_trial_detailed,
                             self.config(method), index, data=data)
            if done is not None:
                self.call("write", experiment.write_trial_json, done[0],
                          trials / f"{method}_trial{index}.json")


def blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, or None when it cannot be read."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        loaded = [ctypes.CDLL(path) for path in libs]
    except OSError:
        return None
    for lib in loaded:
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha1()
    for path in sorted((SRC / "sscomp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_sha": git_sha(),
        "src_sha1": digest.hexdigest(),
        "seed": seed,
    }


def _durations(spans) -> list[float]:
    return [s["end"] - s["start"] for s in spans]


def _median(values) -> float:
    values = list(values)
    return stats.median(values) if values else 0.0


def by_method(records) -> dict:
    grouped = {m: [] for m in METHODS}
    for r in records:
        grouped[r["trial"].split("/")[0]].append(r)
    return grouped


def end_to_end(records, setup_s) -> dict:
    """Trial times are medians over the run's trials of each method. The
    overhead is adaptive over omp ``time_seconds`` within each pass, whose
    two trials ran back to back, and the median of that over passes."""
    grouped = by_method(records)
    ratios = []
    for index in sorted({r["pass"] for r in records}):
        pair = by_method(r for r in records if r["pass"] == index)
        if all(pair.values()):
            ratios.append(stats.ratio(pair["adaptive-omp"][0]["time_seconds"],
                                      pair["omp"][0]["time_seconds"]))
    return {
        **{f"trial_s.{SHORT[m]}": stats.median(r["wall"] for r in rs)
           for m, rs in grouped.items()},
        "adaptive_overhead": stats.median(ratios),
        **{f"accr.{SHORT[m]}": sum(r["accr"] for r in rs) / len(rs)
           for m, rs in grouped.items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }


def per_layer(tracer: Tracer, untraced, traced, n_passes: int) -> dict:
    """Per-layer numbers from the traced passes; the data and CLI layers
    work in set-up only, so theirs come from the traced set-ups."""
    own = stats.self_times(tracer.spans)

    def spans(name, phase="pass"):
        return tracer.named(name, phase)

    def self_median(name, phase="pass"):
        return _median(own[i] for i, s in enumerate(tracer.spans)
                       if s["name"] == name and (phase is None or s["phase"] == phase))

    def counts(name, key):
        return [s["counts"][key] for s in spans(name) if s["counts"]]

    m = {
        "data.load_csv_s": _median(_durations(spans("data.load_csv", None))),
        "data.save_csv_s": _median(_durations(spans("data.save_csv", None))),
        "data.noise_s": _median(_durations(spans("data.noise"))),
        "data.generate_s": _median(_durations(spans("data.generate", None))),
        "data.csv_mb": _median(s["counts"]["bytes"] / 1e6
                               for s in spans("data.load_csv", None) if s["counts"]),
        "adaptive.gram_s": _median(_durations(spans("adaptive.gram"))),
        "adaptive.budgets_s": _median(_durations(spans("adaptive.budgets"))),
        "adaptive.budget_mean": _median(counts("adaptive.budgets", "budget_mean")),
        "adaptive.budget_min": min(counts("adaptive.budgets", "budget_min"), default=0),
        "adaptive.budget_max": max(counts("adaptive.budgets", "budget_max"), default=0),
    }
    atoms = []
    for kind in ("fixed", "adaptive"):
        done = [s for s in spans(f"omp.{kind}") if s["counts"]]
        m[f"omp.{kind}_s"] = _median(_durations(done))
        m[f"omp.nnz.{kind}"] = _median(s["counts"]["nnz"] for s in done)
        m[f"omp.budget_use.{kind}"] = _median(
            s["counts"]["nnz"] / s["counts"]["budget_sum"] for s in done)
        atoms += [1e6 * (s["end"] - s["start"]) / s["counts"]["nnz"] for s in done]
    m["omp.us_per_atom"] = _median(atoms)
    m.update({
        "spectral.affinity_s": _median(_durations(spans("spectral.affinity"))),
        "spectral.laplacian_s": _median(_durations(spans("spectral.laplacian"))),
        "spectral.cluster_s": _median(_durations(spans("spectral.cluster"))),
        "spectral.cluster_self_s": self_median("spectral.cluster"),
        "spectral.affinity_nnz": _median(counts("spectral.affinity", "nnz")),
        **{f"metrics.{name}_s": _median(_durations(spans(f"metrics.{name}")))
           for name in ("connectivity", "perc", "ssr", "accuracy", "sea")},
        "experiment.trial_self_s": self_median("experiment.trial"),
        "experiment.write_s": sum(_durations(spans("experiment.write_json"))) / n_passes,
        "experiment.trial_json_count": len(spans("experiment.write_json")) / n_passes,
        "cli.self_s": self_median("cli.main", None),
        "trace.overhead_s": _median(t["wall"] - u["wall"] for u, t in zip(untraced, traced)),
        "trace.spans_per_trial": sum(1 for s in tracer.spans if s["trial"] is not None
                                     and s["phase"] == "pass") / max(1, len(traced)),
    })
    return m


def load_accuracy_table() -> dict:
    path = HERE / "accuracy.json"
    return json.loads(path.read_text()) if path.exists() else {}


def check(run: Run, records, traced) -> list[str]:
    """Every correctness problem of the run, as messages; empty when sound."""
    problems = list(run.failures)
    table = load_accuracy_table().get(run.w.name, {})
    floor = table.get("floor", 0.0)
    recorded = table.get("seeds", {}).get(str(run.seed), {})
    for r in records:
        if not 0.5 <= r["sea"] <= 1.0:
            problems.append(f"trial {r['trial']}: SEA {r['sea']} outside [0.5, 1]")
        if "budget_mean" in r and abs(r["budget_mean"] - r["base_k"]) > 1.0:
            problems.append(f"trial {r['trial']}: mean budget {r['budget_mean']} "
                            f"not within 1 of K={r['base_k']}")
        if r["accr"] < floor:
            problems.append(f"trial {r['trial']}: accuracy {r['accr']} below floor {floor}")
        # one point's worth of slack: another BLAS build may flip a tie
        if r["trial"] in recorded and r["accr"] < recorded[r["trial"]] - 100.0 / r["n_points"]:
            problems.append(f"trial {r['trial']}: accuracy {r['accr']} below the "
                            f"{recorded[r['trial']]} recorded for seed {run.seed}")
    if traced is not None:
        if [r["trial"] for r in traced] != [r["trial"] for r in records]:
            problems.append("traced passes ran other trials than the untraced ones")
        for u, t in zip(records, traced):
            for key in ("labels_sha1", "nnz", "sea", "accr"):
                if u.get(key) != t.get(key):
                    problems.append(f"trial {u['trial']}: traced {key} {t.get(key)!r} "
                                    f"differs from untraced {u.get(key)!r}")
    return problems


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sscomp" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'sscomp'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    # One BLAS thread, set before numpy loads: with two threads on a
    # two-core machine, another process taking one core slowed a
    # trial on 3000 synthetic points from 3.5 s to 6.7 s; with one thread,
    # 4.7 s to 4.9 s.
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    sys.path.insert(0, str(SRC))
    import sscomp.cli  # noqa: F401
    import sscomp.experiment  # noqa: F401

    if Path(sscomp.__file__).resolve().parent != SRC / "sscomp":
        print(f"error: imported sscomp from {sscomp.__file__}, not {SRC}", file=sys.stderr)
        return 2

    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    run = Run(WORKLOADS[args.workload], args.seed, out)
    trace = bool(args.trace)
    probe = Tracer(PROBE)
    full = Tracer(TRACE)

    setups, data = [], None
    full.phase = "setup"
    for _ in range(SETUP_REPEATS):
        with full.installed() if trace else contextlib.nullcontext():
            done = run.call("setup", run.setup)
        if done is not None:
            seconds, data = done
            setups.append(seconds)
    full.phase = "pass"

    # closed loop: start another pass while it is expected to end in time
    passes = []
    begin = time.perf_counter()
    while data is not None and (len(passes) < MIN_PASSES or (
            time.perf_counter() - begin + stats.median(passes) <= args.seconds)):
        probe.pass_index = full.pass_index = len(passes)
        started = time.perf_counter()
        with probe.installed():
            run.one_pass(len(passes), "a", data)
        if trace:
            with full.installed():
                run.one_pass(len(passes), "b", data)
        passes.append(time.perf_counter() - started)

    records = trial_records(probe.spans)
    traced = trial_records(full.spans) if trace else None
    problems = check(run, records, traced)
    try:
        if not records:
            raise ValueError("no trial completed")
        if trace:
            computed = per_layer(full, records, traced, len(passes))
        else:
            computed = end_to_end(records, stats.median(setups))
    except (ValueError, KeyError, ZeroDivisionError) as exc:  # a method lacks a trial
        computed = {}
        problems.append(f"metrics could not be computed: {exc!r}")
    declared = declared_metrics(trace)
    missing = [d["name"] for d in declared if d["name"] not in computed]
    if missing and not problems:
        problems.append(f"metrics not computed: {missing}")
    metrics = {d["name"]: {"value": computed[d["name"]], "unit": d["unit"]}
               for d in declared if d["name"] in computed}

    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance(args.seed),
        "setup_runs_s": setups, "pass_s": passes,
        "trials": records, "problems": problems,
        "correct": not problems, "attempted": run.attempted,
        "failed": len(run.failures), "metrics": metrics,
    }
    (out / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    if trace:
        (out / "spans.json").write_text(json.dumps(full.spans) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"trials {len(records)}  trace {args.trace}")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    for name, entry in metrics.items():
        print(f"  {name:28s} {entry['value']:.6g} {entry['unit']}")
    print(f"  {'failed_frac':28s} {len(run.failures) / max(1, run.attempted):.6g} ratio")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
