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
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .adaptive import compute_k_array, gram_matrix
from .data import (
    DataMatrix,
    Labels,
    SyntheticSpec,
    _check_noise_args,
    _owned,
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
)
from .omp import check_eps, ssc_omp, ssc_omp_adaptive
from .spectral import build_affinity, spectral_cluster
from .util import check_integer

__all__ = [
    "ExperimentConfig",
    "SweepSpec",
    "ExperimentError",
    "load_data_file",
    "load_dataset",
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

# sweepable ExperimentConfig field -> (its aggregate column, value type)
SWEEP_AXES = {
    "n_clusters": ("n", int),
    "k": ("K", int),
    "samples_per_cluster": ("samples", int),
    "noise_sigma": ("sigma", float),
}

# aggregate columns that identify a run, shared by both methods' rows
_RUN_KEY = ("dataset", "n", "samples", "K", "eps", "sigma", "seed")

# aggregate column (a MetricsReport.to_dict key) -> format of its mean
METRIC_FORMATS = {"accr": ".4f", "time": ".6f", "conn": ".6f",
                  "perc": ".4f", "ssr": ".4f", "sea": ".6f"}

# metrics whose adaptive-minus-baseline difference the comparison reports
_DELTA_METRICS = ("accr", "conn", "perc", "ssr", "sea")

CSV_COLUMNS = [*_RUN_KEY, "method", *METRIC_FORMATS, "error"]

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
        # the adaptive budgets average each point's k-1 nearest neighbors
        k_low = 2 if self.method == "adaptive-omp" else 1
        for name, low in (("n_clusters", 2), ("k", k_low), ("trials", 1), ("seed", 0)):
            check_integer(getattr(self, name), name, low)
        if self.samples_per_cluster is not None:
            check_integer(self.samples_per_cluster, "samples_per_cluster", 1)
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
            raise ValueError(f"axis must be one of {tuple(SWEEP_AXES)}, got {self.axis!r}")
        values = tuple(self.values)
        if not values:
            raise ValueError("sweep values must be nonempty")
        for i, value in enumerate(values):
            # a repeated value would run its cells twice and overwrite their files
            if value in values[:i]:
                raise ValueError(f"sweep value {value!r} repeats in {self.axis} values {values}")
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
    """Two independent integer seeds (subsample, noise) derived from
    (master seed, trial index)."""
    state = np.random.SeedSequence((master_seed, trial)).generate_state(2, np.uint64)
    return (int(state[0]), int(state[1]))


def run_trial_detailed(cfg: ExperimentConfig, trial: int, data):
    """Run the full pipeline once on ``data``, the loaded dataset as
    (DataMatrix, Labels). Returns (MetricsReport, predicted Labels).

    The timed section covers budget selection (adaptive method only),
    self-expression, affinity construction, and spectral clustering;
    subsampling and corruption are outside it. Deterministic under
    (cfg.seed, trial).
    """
    context = (f"dataset={dataset_id(cfg.dataset)}, method={cfg.method}, "
               f"seed={cfg.seed}, trial={trial}")
    try:
        x_full, y_full = data
        sub_seed, noise_seed = _trial_seeds(cfg.seed, trial)
        indices, truth = _subsample(x_full, y_full, cfg, np.random.default_rng(sub_seed))
        # one full-size copy: the corrupt or normalize step's own. The gather
        # is a second one, made only when the subsample leaves points out.
        x = x_full if indices.size == x_full.n else _owned(x_full.values[:, indices])
        if cfg.noise_sigma > 0.0:
            corrupt = add_gaussian_noise if cfg.noise_mode == "corrupt" else blend_gaussian_noise
            x = corrupt(x, cfg.noise_sigma, cfg.noise_variance, rng_seed=noise_seed)
        else:
            x = normalize_columns(x)
        sample_hash = hashlib.sha1(indices.tobytes()).hexdigest()[:12]

        start = time.perf_counter()
        if cfg.method == "adaptive-omp":
            gram = gram_matrix(x)
            budgets = compute_k_array(x, cfg.k, gram=gram)
            coefs = ssc_omp_adaptive(x, budgets, cfg.eps, gram=gram)
        else:
            coefs = ssc_omp(x, cfg.k, cfg.eps)
        affinity = build_affinity(coefs)
        predicted = spectral_cluster(affinity, cfg.n_clusters)
        seconds = time.perf_counter() - start

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


# what load_dataset raises for a dataset that cannot be read
_LOAD_ERRORS = (ExperimentError, ValueError, OSError)


def _load_failure(cfg: ExperimentConfig, exc: Exception) -> ExperimentError:
    """A dataset load failure as the error that names cfg's run."""
    return ExperimentError(
        f"dataset failed to load (dataset={dataset_id(cfg.dataset)}, "
        f"method={cfg.method}, seed={cfg.seed}): {exc}")


def run_trials(cfg: ExperimentConfig) -> list[tuple[MetricsReport, Labels]]:
    """All cfg.trials trials of one configuration as (report, predicted
    labels) pairs, in trial-index order. The dataset is loaded once, here,
    and passed to every trial; a load failure, a missing file included,
    raises an ExperimentError that names the run."""
    try:
        data = load_dataset(cfg)
    except _LOAD_ERRORS as exc:
        raise _load_failure(cfg, exc) from exc
    return [run_trial_detailed(cfg, t, data) for t in range(cfg.trials)]


def mean_metrics(reports: list[MetricsReport]) -> dict:
    """Mean of each metric over trials, keyed by its aggregate column."""
    scores = [r.to_dict() for r in reports]
    return {m: float(np.mean([s[m] for s in scores])) for m in METRIC_FORMATS}


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
    formatted = {m: f"{means[m]:{fmt}}" for m, fmt in METRIC_FORMATS.items()}
    return {**_key_fields(cfg), **formatted, "error": ""}


def _error_row(cfg: ExperimentConfig, message: str) -> dict:
    row = {col: "" for col in CSV_COLUMNS}
    row.update(_key_fields(cfg), error=message)
    return row


def run_sweep(
    base: ExperimentConfig,
    sweep: SweepSpec,
    out_dir: str | Path | None = None,
) -> list[dict]:
    """Run both methods over every sweep value, mean-aggregated over trials.

    For each sweep value the two methods derive their subsamples and noise
    from the same (seed, trial) streams, so rows are paired point sets. No
    sweep axis changes the dataset, so it is loaded once for all cells. A
    failing (value, method) cell is recorded in its row's error column and
    the sweep continues; when the load fails, every cell's row records it
    as :func:`run_trials` would name that cell's run. An invalid sweep value
    is bad input, not a failing cell: every cell's config is built first,
    so it raises ValueError before any load, trial or file is written.

    With ``out_dir`` set, writes aggregate.csv, plot.csv, and one JSON per
    trial under trials/.
    """
    cells = [(value, dataclasses.replace(base, method=method, **{sweep.axis: value}))
             for value in sweep.values for method in METHODS]
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        (out / "trials").mkdir(parents=True, exist_ok=True)
    try:
        data, failure = load_dataset(base), None
    except _LOAD_ERRORS as exc:
        data, failure = None, exc
    rows = []
    for value, cfg in cells:
        try:
            if failure is not None:
                raise _load_failure(cfg, failure)
            reports = [run_trial_detailed(cfg, t, data)[0] for t in range(cfg.trials)]
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
    x_col, _ = SWEEP_AXES[axis]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "series", "value"])
        for row in rows:
            if row["error"]:
                continue
            for metric in METRIC_FORMATS:
                writer.writerow([row[x_col], f"{row['method']}.{metric}", row[metric]])


def _row_key(row: dict):
    return tuple(row[c] for c in _RUN_KEY)


def compare(rows: list[dict]) -> list[dict]:
    """Pair one aggregate's omp and adaptive-omp rows by run key and emit
    adaptive-minus-baseline deltas, one row per key in the order the omp
    rows first show it; a key repeated within a method takes its last row.
    The two methods' rows must cover exactly the same run keys.
    """
    base = {_row_key(r): r for r in rows if r["method"] == "omp"}
    adapt = {_row_key(r): r for r in rows if r["method"] == "adaptive-omp"}
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
            **{f"delta_{m}": f"{d:{METRIC_FORMATS[m]}}" for m, d in deltas.items()},
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
