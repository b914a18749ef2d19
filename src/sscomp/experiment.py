"""Experiment orchestration: single trials, paired sweeps, comparisons.

A trial is the full pipeline on one (sub)sampled dataset: subsample ->
corrupt/normalize -> self-expression (uniform or per-point budgets) ->
affinity -> spectral segmentation -> metrics. Sweeps vary one axis and run
both methods on identical subsamples so their scores are directly paired.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import numbers
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .adaptive import compute_k_array, gram_matrix
from .data import (
    DataMatrix,
    Labels,
    SyntheticSpec,
    _check_noise_args,
    add_gaussian_noise,
    blend_gaussian_noise,
    generate_synthetic,
    load_csv,
    load_npz,
    normalize_columns,
)
from .metrics import (
    MetricsReport,
    accuracy,
    connectivity,
    sea_ratio,
    subspace_preserving_error,
    subspace_preserving_rate,
    timed,
)
from .omp import check_eps, ssc_omp, ssc_omp_adaptive
from .spectral import SpectralConfig, build_affinity, spectral_cluster

__all__ = [
    "ExperimentConfig",
    "SweepSpec",
    "ExperimentError",
    "load_data_file",
    "load_dataset",
    "run_trial",
    "run_trial_detailed",
    "run_trials",
    "run_sweep",
    "compare",
    "mean_metrics",
    "aggregate_reports",
    "write_aggregate_csv",
    "read_aggregate_csv",
    "write_plot_csv",
    "write_comparison_csv",
    "write_trial_json",
]

METHODS = ("omp", "adaptive-omp")

_AXIS_TO_COLUMN = {
    "n_clusters": "n",
    "k": "K",
    "samples_per_cluster": "samples",
    "noise_sigma": "sigma",
}

SWEEP_AXES = tuple(_AXIS_TO_COLUMN)

# aggregate columns that identify a run, shared by both methods' rows
_RUN_KEY = ("dataset", "n", "samples", "K", "eps", "sigma", "seed")

# aggregate column (a MetricsReport.to_dict key) -> format of its mean
_METRIC_FORMATS = {"accr": ".4f", "time": ".6f", "conn": ".6f",
                   "perc": ".4f", "ssr": ".4f", "sea": ".6f"}

# metrics whose adaptive-minus-baseline difference the comparison reports
_DELTA_METRICS = ("accr", "conn", "perc", "ssr", "sea")

CSV_COLUMNS = [*_RUN_KEY, "method", *_METRIC_FORMATS, "error"]

COMPARISON_COLUMNS = [
    *_RUN_KEY, "accr_baseline", "accr_adaptive",
    *(f"delta_{m}" for m in _DELTA_METRICS), "time_ratio", "adaptive_loses", "error",
]


class ExperimentError(RuntimeError):
    """A trial or sweep row failed; the message carries the run context."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one trial needs, minus the trial index.

    ``dataset`` is a file path (CSV with a trailing integer label column,
    or an .npz with ``values``/``labels`` arrays) or a synthetic recipe.
    ``samples_per_cluster=None`` keeps every point of each chosen cluster.
    """

    dataset: str | Path | SyntheticSpec
    n_clusters: int
    method: str = "omp"
    k: int = 8
    eps: float = 1e-6
    trials: int = 1
    samples_per_cluster: int | None = None
    noise_sigma: float = 0.0
    noise_variance: float = 0.01
    noise_mode: str = "corrupt"
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        for name, low in (("n_clusters", 2), ("k", 1), ("trials", 1),
                          ("samples_per_cluster", 1), ("seed", 0)):
            value = getattr(self, name)
            if value is None and name == "samples_per_cluster":
                continue
            if not isinstance(value, numbers.Integral) or value < low:
                raise ValueError(f"{name} must be an integer of at least {low}, got {value!r}")
        check_eps(self.eps)
        _check_noise_args(self.noise_sigma, self.noise_variance)
        if self.noise_mode not in ("corrupt", "blend"):
            raise ValueError("noise_mode must be 'corrupt' or 'blend'")


@dataclass(frozen=True)
class SweepSpec:
    """One swept axis and the values it takes."""

    axis: str
    values: tuple

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"axis must be one of {SWEEP_AXES}, got {self.axis!r}")
        values = tuple(self.values)
        if not values:
            raise ValueError("sweep values must be nonempty")
        object.__setattr__(self, "values", values)


def dataset_id(dataset) -> str:
    if isinstance(dataset, SyntheticSpec):
        bases = "orth" if dataset.orthogonal else "rand"
        return (
            f"synthetic[s={dataset.n_subspaces};d={dataset.subspace_dim};"
            f"D={dataset.ambient_dim};m={dataset.points_per_subspace};"
            f"seed={dataset.rng_seed};{bases}]"
        )
    return str(dataset)


def load_data_file(path, has_labels: bool = False):
    """Load a dataset file: an .npz with ``values``/``labels`` arrays, any
    other suffix as CSV rows. Returns ``(DataMatrix, Labels | None)``."""
    path = Path(path)
    if not path.exists():
        raise ExperimentError(f"dataset not found: {path}")
    if path.suffix == ".npz":
        return load_npz(path, has_labels=has_labels)
    return load_csv(path, has_labels=has_labels)


def load_dataset(cfg: ExperimentConfig):
    """Materialize the configured dataset as (DataMatrix, Labels)."""
    if isinstance(cfg.dataset, SyntheticSpec):
        return generate_synthetic(cfg.dataset)
    return load_data_file(cfg.dataset, has_labels=True)


def _subsample(x: DataMatrix, y: Labels, cfg: ExperimentConfig, rng):
    """Pick cfg.n_clusters cluster ids, then all points of each or a fixed
    per-cluster sample. Returns (point indices ascending, remapped labels)."""
    if cfg.n_clusters > y.n_clusters:
        raise ExperimentError(
            f"requested {cfg.n_clusters} clusters but dataset has {y.n_clusters}"
        )
    if cfg.n_clusters < y.n_clusters:
        chosen = np.sort(rng.choice(y.n_clusters, size=cfg.n_clusters, replace=False))
    else:
        chosen = np.arange(y.n_clusters)
    picked = []
    for cid in chosen:
        members = np.flatnonzero(y.assignments == cid)
        if cfg.samples_per_cluster is not None:
            if cfg.samples_per_cluster > members.size:
                raise ExperimentError(
                    f"cluster {cid} has {members.size} points, "
                    f"cannot sample {cfg.samples_per_cluster}"
                )
            members = rng.choice(members, size=cfg.samples_per_cluster, replace=False)
        picked.append(members)
    indices = np.sort(np.concatenate(picked))
    _, remapped = np.unique(y.assignments[indices], return_inverse=True)
    return indices, Labels(remapped, chosen.size)


def _trial_seeds(master_seed: int, trial: int):
    """Three independent integer seeds (subsample, noise, kmeans) derived
    from (master seed, trial index)."""
    state = np.random.SeedSequence((master_seed, trial)).generate_state(3, np.uint64)
    return (int(state[0]), int(state[1]), int(state[2]))


def run_trial(cfg: ExperimentConfig, trial: int = 0, data=None) -> MetricsReport:
    """Run the full pipeline once.

    The timed section covers budget selection (adaptive method only),
    self-expression, affinity construction, and spectral clustering; data
    loading, subsampling, and corruption are outside it. Deterministic
    under (cfg.seed, trial).
    """
    report, _ = run_trial_detailed(cfg, trial, data=data)
    return report


def run_trial_detailed(cfg: ExperimentConfig, trial: int = 0, data=None):
    """Like run_trial but also returns the predicted Labels."""
    context = f"dataset={dataset_id(cfg.dataset)}, seed={cfg.seed}, trial={trial}"
    try:
        x_full, y_full = data if data is not None else load_dataset(cfg)
        sub_seed, noise_seed, kmeans_seed = _trial_seeds(cfg.seed, trial)
        indices, truth = _subsample(x_full, y_full, cfg, np.random.default_rng(sub_seed))
        x = DataMatrix(x_full.values[:, indices])
        if cfg.noise_sigma > 0.0:
            corrupt = add_gaussian_noise if cfg.noise_mode == "corrupt" else blend_gaussian_noise
            x = corrupt(x, cfg.noise_sigma, cfg.noise_variance, rng_seed=noise_seed)
        else:
            x = normalize_columns(x)
        sample_hash = hashlib.sha1(indices.tobytes()).hexdigest()[:12]

        spectral_cfg = SpectralConfig(n_clusters=cfg.n_clusters, rng_seed=kmeans_seed)

        def pipeline():
            if cfg.method == "adaptive-omp":
                gram = gram_matrix(x)
                budgets = compute_k_array(x, cfg.k, gram=gram)
                coefs = ssc_omp_adaptive(x, budgets, cfg.eps, gram=gram)
            else:
                coefs = ssc_omp(x, cfg.k, cfg.eps)
            affinity = build_affinity(coefs)
            predicted = spectral_cluster(affinity, spectral_cfg)
            return coefs, affinity, predicted

        (coefs, affinity, predicted), seconds = timed(pipeline)

        report = MetricsReport(
            accr=accuracy(predicted, truth),
            time_seconds=seconds,
            conn=connectivity(affinity, truth),
            perc=subspace_preserving_rate(coefs, truth),
            ssr=subspace_preserving_error(coefs, truth),
            sea=sea_ratio(coefs),
            params={
                "dataset": dataset_id(cfg.dataset),
                "method": cfg.method,
                "n_clusters": cfg.n_clusters,
                "k": cfg.k,
                "eps": cfg.eps,
                "sigma": cfg.noise_sigma,
                "noise_variance": cfg.noise_variance,
                "noise_mode": cfg.noise_mode,
                "samples_per_cluster": cfg.samples_per_cluster,
                "seed": cfg.seed,
                "trial": trial,
                "n_points": int(indices.size),
                "subsample_sha1": sample_hash,
            },
        )
        return report, predicted
    except ExperimentError:
        raise
    except Exception as exc:
        raise ExperimentError(f"trial failed ({context}): {exc}") from exc


def run_trials(cfg: ExperimentConfig, workers: int = 1) -> list[MetricsReport]:
    """All cfg.trials trials of one configuration, on a pool of ``workers``
    processes when more than one. The dataset is loaded once, here, and
    passed to every trial. Trial order in the result is by trial index
    either way."""
    if workers < 1:
        raise ValueError("worker count must be positive")
    context = (f"dataset={dataset_id(cfg.dataset)}, method={cfg.method}, "
               f"seed={cfg.seed}")
    try:
        data = load_dataset(cfg)
    except (ValueError, OSError) as exc:
        raise ExperimentError(f"dataset failed to load ({context}): {exc}") from exc
    trials = range(cfg.trials)
    if workers == 1 or cfg.trials == 1:
        return [run_trial(cfg, t, data=data) for t in trials]
    try:
        with ProcessPoolExecutor(max_workers=min(workers, cfg.trials)) as pool:
            return list(pool.map(run_trial, repeat(cfg), trials, repeat(data)))
    except BrokenProcessPool as exc:
        raise ExperimentError(f"worker process died ({context})") from exc


def mean_metrics(reports: list[MetricsReport]) -> dict:
    """Mean of each metric over trials, keyed by its aggregate column."""
    scores = [r.to_dict() for r in reports]
    return {m: float(np.mean([s[m] for s in scores])) for m in _METRIC_FORMATS}


def _key_fields(cfg: ExperimentConfig) -> dict:
    """The aggregate columns that identify the run."""
    return {
        "dataset": dataset_id(cfg.dataset),
        "n": cfg.n_clusters,
        "samples": "" if cfg.samples_per_cluster is None else cfg.samples_per_cluster,
        "K": cfg.k,
        "eps": f"{cfg.eps:g}",
        "sigma": f"{cfg.noise_sigma:g}",
        "seed": cfg.seed,
        "method": cfg.method,
    }


def aggregate_reports(cfg: ExperimentConfig, reports: list[MetricsReport]) -> dict:
    """Mean over trials as one aggregate CSV row."""
    means = mean_metrics(reports)
    formatted = {m: f"{means[m]:{fmt}}" for m, fmt in _METRIC_FORMATS.items()}
    return {**_key_fields(cfg), **formatted, "error": ""}


def _error_row(cfg: ExperimentConfig, message: str) -> dict:
    row = {col: "" for col in CSV_COLUMNS}
    row.update(_key_fields(cfg), error=message)
    return row


def run_sweep(
    base: ExperimentConfig,
    sweep: SweepSpec,
    out_dir: str | Path | None = None,
    workers: int = 1,
) -> list[dict]:
    """Run both methods over every sweep value, mean-aggregated over trials.

    For each sweep value the two methods derive their subsamples and noise
    from the same (seed, trial) streams, so rows are paired point sets. A
    failing (value, method) cell is recorded in its row's error column and
    the sweep continues. An invalid sweep value is bad input, not a failing
    cell: every cell's config is built first, so it raises ValueError
    before any trial runs or any file is written.

    With ``out_dir`` set, writes aggregate.csv, plot.csv, and one JSON per
    trial under trials/.
    """
    cells = [(value, dataclasses.replace(base, method=method, **{sweep.axis: value}))
             for value in sweep.values for method in METHODS]
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        (out / "trials").mkdir(parents=True, exist_ok=True)
    rows = []
    for value, cfg in cells:
        try:
            reports = run_trials(cfg, workers=workers)
        except ExperimentError as exc:
            rows.append(_error_row(cfg, str(exc)))
            continue
        rows.append(aggregate_reports(cfg, reports))
        if out is not None:
            for t, report in enumerate(reports):
                name = f"{sweep.axis}-{value}_{cfg.method}_trial{t}.json"
                write_trial_json(report, out / "trials" / name)
    if out is not None:
        write_aggregate_csv(rows, out / "aggregate.csv")
        write_plot_csv(rows, out / "plot.csv", axis=sweep.axis)
    return rows


def write_trial_json(report: MetricsReport, path) -> None:
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_aggregate_csv(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


def read_aggregate_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in CSV_COLUMNS if c not in (reader.fieldnames or [])]
        if missing:
            raise ValueError(f"{path}: not an aggregate CSV, missing columns {missing}")
        return list(reader)


def write_plot_csv(rows: list[dict], path, axis: str = "noise_sigma") -> None:
    """Long-format plot data: one (x, series, value) line per metric per
    aggregate row, series named method.metric."""
    x_col = _AXIS_TO_COLUMN[axis]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "series", "value"])
        for row in rows:
            if row["error"]:
                continue
            for metric in _METRIC_FORMATS:
                writer.writerow([row[x_col], f"{row['method']}.{metric}", row[metric]])


def _row_key(row: dict):
    return tuple(row[c] for c in _RUN_KEY)


def compare(baseline_rows: list[dict], adaptive_rows: list[dict]) -> list[dict]:
    """Pair aggregate rows by run key and emit adaptive-minus-baseline deltas.

    Inputs may come from the same sweep CSV (rows are filtered by method
    here) or from two separate ones; after filtering, the two sides must
    cover exactly the same run keys.
    """
    base = {_row_key(r): r for r in baseline_rows if r["method"] == "omp"}
    adapt = {_row_key(r): r for r in adaptive_rows if r["method"] == "adaptive-omp"}
    if set(base) != set(adapt):
        only_base = sorted(set(base) - set(adapt))
        only_adapt = sorted(set(adapt) - set(base))
        raise ValueError(
            "aggregate rows do not pair up: "
            f"baseline-only keys {only_base}, adaptive-only keys {only_adapt}"
        )
    if not base:
        raise ValueError("no paired rows to compare (need omp and adaptive-omp rows)")

    out = []
    for key, b in base.items():
        a = adapt[key]
        row = dict(zip(_RUN_KEY, key))
        if b["error"] or a["error"]:
            row.update({c: "" for c in COMPARISON_COLUMNS if c not in row})
            row["error"] = b["error"] or a["error"]
            out.append(row)
            continue
        deltas = {m: float(a[m]) - float(b[m]) for m in _DELTA_METRICS}
        base_time = float(b["time"])
        row.update(
            accr_baseline=b["accr"],
            accr_adaptive=a["accr"],
            **{f"delta_{m}": f"{d:{_METRIC_FORMATS[m]}}" for m, d in deltas.items()},
            time_ratio="" if base_time <= 0 else f"{float(a['time']) / base_time:.4f}",
            adaptive_loses="yes" if deltas["accr"] < 0 else "",
            error="",
        )
        out.append(row)
    return out


def write_comparison_csv(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=COMPARISON_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
