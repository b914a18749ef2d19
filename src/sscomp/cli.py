"""Command-line front end.

Subcommands:
  cluster   run one configuration (possibly many trials) and report metrics
  sweep     vary one axis, running both methods paired, emitting CSV/JSON
  compare   diff the baseline and adaptive rows of one aggregate
  k-array   dump the per-point budgets for a dataset
  synth     write a synthetic union-of-subspaces dataset to disk
  noise     corrupt an existing dataset file

An argument @FILE is replaced by the lines of FILE, one argument per line
(``--k=3``, or ``--k`` and ``3`` on two lines), so ``sscomp cluster @run.args
--k 5`` parses the file's flags first and a later flag overrides them.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .adaptive import compute_k_array
from .data import (
    SyntheticSpec,
    add_gaussian_noise,
    blend_gaussian_noise,
    generate_synthetic,
    normalize_columns,
    save_csv,
    save_labels,
)
from .experiment import (
    METHODS,
    METRIC_FORMATS,
    SWEEP_AXES,
    ExperimentConfig,
    ExperimentError,
    SweepSpec,
    aggregate_reports,
    compare,
    dataset_id,
    load_data_file,
    mean_metrics,
    read_aggregate_csv,
    run_sweep,
    run_record,
    run_trials,
    write_comparison_csv,
)

# --axis spelling -> sweep axis: the field name or its lowercased column name
_AXIS_ALIASES = {spelling: axis for axis, (column, _) in SWEEP_AXES.items()
                 for spelling in (axis, column.lower())}


def _parse_synth(text: str, seed: int, random_bases: bool) -> SyntheticSpec:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(
            "--synth wants 4 comma-separated integers: "
            "subspaces,subspace-dim,ambient-dim,points-per-subspace"
        )
    try:
        s, d, ambient, points = (int(p) for p in parts)
    except ValueError:
        raise ValueError(f"--synth values must be integers, got {text!r}") from None
    return SyntheticSpec(s, d, ambient, points, rng_seed=seed, orthogonal=not random_bases)


def _dataset_from_args(args):
    if bool(args.data) == bool(args.synth):
        raise ValueError("exactly one of --data and --synth is required")
    if args.data:
        return args.data
    return _parse_synth(args.synth, args.synth_seed, args.synth_random_bases)


def _experiment_config(args, method: str) -> ExperimentConfig:
    dataset = _dataset_from_args(args)
    n_clusters = args.n_clusters
    if n_clusters is None:
        if isinstance(dataset, SyntheticSpec):
            n_clusters = dataset.n_subspaces
        else:
            raise ValueError("--n-clusters is required for file datasets")
    return ExperimentConfig(
        dataset=dataset,
        n_clusters=n_clusters,
        method=method,
        k=args.k,
        eps=args.eps,
        trials=args.trials,
        samples_per_cluster=args.samples,
        noise_sigma=args.sigma,
        noise_variance=args.noise_variance,
        noise_mode=args.noise_mode,
        seed=args.seed,
    )


def _metrics_text(row: dict) -> str:
    """An aggregate row's metrics as ``name=value`` pairs, in column order."""
    return " ".join(f"{m}={row[m]}" for m in METRIC_FORMATS)


def _cmd_cluster(args) -> int:
    cfg = _experiment_config(args, args.method)
    if args.labels_out and cfg.trials > 1:
        raise ValueError("--labels-out needs --trials 1 (labels are per-trial)")
    reports, labels = zip(*run_trials(cfg))
    if args.labels_out:
        save_labels(labels[0], args.labels_out)
    print(f"dataset: {dataset_id(cfg.dataset)}")
    print(f"method: {cfg.method}  trials: {cfg.trials}")
    for t, report in enumerate(reports):
        print(f"trial {t}: {_metrics_text(aggregate_reports(cfg, [report]))}")
    if len(reports) > 1:
        print(f"mean: {_metrics_text(aggregate_reports(cfg, reports))}")
    if args.out:
        payload = {**run_record(cfg), "trials": [r.to_dict() for r in reports],
                   "mean": mean_metrics(reports)}
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0


def _parse_sweep_values(axis: str, text: str) -> tuple:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("--values must list at least one value")
    _, cast = SWEEP_AXES[axis]
    try:
        return tuple(cast(p) for p in parts)
    except ValueError:
        raise ValueError(
            f"--values for axis {axis} must be {cast.__name__}s, got {text!r}"
        ) from None


def _cmd_sweep(args) -> int:
    axis = _AXIS_ALIASES[args.axis]
    values = _parse_sweep_values(axis, args.values)
    base = _experiment_config(args, "omp")
    sweep = SweepSpec(axis=axis, values=values)
    out_dir = Path(args.out_dir)
    rows = run_sweep(base, sweep, out_dir=out_dir)
    failures = [row for row in rows if row["error"]]
    for row in rows:
        tag = f"{axis}={row[SWEEP_AXES[axis][0]]} {row['method']}"
        if row["error"]:
            print(f"{tag}: ERROR {row['error']}")
        else:
            print(f"{tag}: {_metrics_text(row)}")
    print(f"wrote {out_dir / 'aggregate.csv'}")
    if failures:
        print(f"{len(failures)} sweep rows failed", file=sys.stderr)
        return 1
    return 0


def _cmd_compare(args) -> int:
    rows = compare(read_aggregate_csv(args.aggregate))
    losses = [r for r in rows if r.get("adaptive_loses") == "yes"]
    for row in rows:
        key = f"n={row['n']} K={row['K']} samples={row['samples']} sigma={row['sigma']}"
        if row.get("error"):
            print(f"{key}: ERROR {row['error']}")
        else:
            flag = "  [adaptive loses]" if row["adaptive_loses"] == "yes" else ""
            print(
                f"{key}: accr {row['accr_baseline']} -> {row['accr_adaptive']} "
                f"(delta {row['delta_accr']}), time ratio {row['time_ratio']}{flag}"
            )
    if args.out:
        write_comparison_csv(rows, args.out)
        print(f"wrote {args.out}")
    print(f"{len(losses)} of {len(rows)} rows favor the baseline")
    return 0


def _cmd_k_array(args) -> int:
    dataset = _dataset_from_args(args)
    if isinstance(dataset, SyntheticSpec):
        x, _ = generate_synthetic(dataset)
    else:
        x, _ = load_data_file(dataset, has_labels=args.has_labels)
    x = normalize_columns(x)
    budgets = compute_k_array(x, args.k)
    lines = ["index,size"]
    lines += [f"{i},{int(s)}" for i, s in enumerate(budgets.sizes)]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    print(
        f"base K={budgets.base_k}: sizes span [{int(budgets.sizes.min())}, "
        f"{int(budgets.sizes.max())}], mean {budgets.sizes.mean():.2f}",
        file=sys.stderr,
    )
    return 0


def _cmd_synth(args) -> int:
    spec = SyntheticSpec(args.subspaces, args.dim, args.ambient, args.points,
                         rng_seed=args.seed, orthogonal=not args.random_bases)
    x, labels = generate_synthetic(spec)
    out = Path(args.out)
    save_csv(x, out, labels=None if args.no_labels else labels)
    print(f"wrote {out} ({x.n} points, dim {x.dim}, {labels.n_clusters} clusters)")
    return 0


def _cmd_noise(args) -> int:
    x, labels = load_data_file(args.input, has_labels=args.has_labels)
    corrupt = add_gaussian_noise if args.noise_mode == "corrupt" else blend_gaussian_noise
    noisy = corrupt(x, args.sigma, args.noise_variance, rng_seed=args.seed)
    out = Path(args.out)
    save_csv(noisy, out, labels=labels)
    print(f"wrote {out} (sigma={args.sigma}, mode={args.noise_mode})")
    return 0


def _add_dataset_args(p) -> None:
    p.add_argument("--data", metavar="PATH",
                   help="dataset file: CSV rows of features with a trailing "
                        "integer label column")
    p.add_argument("--synth", metavar="S,D,AMB,M",
                   help="synthetic dataset: subspaces,subspace-dim,"
                        "ambient-dim,points-per-subspace")
    p.add_argument("--synth-seed", type=int, default=0,
                   help="generation seed for --synth (default 0)")
    p.add_argument("--synth-random-bases", action="store_true",
                   help="draw an independent basis per subspace instead of "
                        "mutually orthogonal ones")


def _add_run_args(p) -> None:
    p.add_argument("--n-clusters", type=int, default=None,
                   help="clusters to segment into (default: all synthetic subspaces)")
    p.add_argument("--k", type=int, default=8, help="base dictionary budget (default 8)")
    p.add_argument("--eps", type=float, default=1e-6,
                   help="residual-norm stopping threshold (default 1e-6)")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--samples", type=int, default=None,
                   help="points sampled per cluster (default: all)")
    p.add_argument("--sigma", type=float, default=0.0,
                   help="fraction of columns to corrupt with noise (default 0)")
    p.add_argument("--noise-variance", type=float, default=0.01)
    p.add_argument("--noise-mode", choices=["corrupt", "blend"], default="corrupt")
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sscomp",
        description="Sparse subspace clustering with per-point dictionary budgets.",
        fromfile_prefix_chars="@",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("cluster", help="run one configuration and report metrics")
    _add_dataset_args(p)
    p.add_argument("--method", choices=list(METHODS), default="omp")
    _add_run_args(p)
    p.add_argument("--out", metavar="JSON", help="write the full report as JSON")
    p.add_argument("--labels-out", metavar="CSV",
                   help="write predicted labels (requires --trials 1)")
    p.set_defaults(func=_cmd_cluster)

    p = subs.add_parser("sweep", help="sweep one axis, both methods paired")
    _add_dataset_args(p)
    _add_run_args(p)
    p.add_argument("--axis", required=True,
                   choices=sorted(_AXIS_ALIASES),
                   help="axis to sweep (aliases: "
                        f"{', '.join(column.lower() for column, _ in SWEEP_AXES.values())})")
    p.add_argument("--values", required=True, metavar="V1,V2,...",
                   help="comma-separated sweep values")
    p.add_argument("--out-dir", required=True, metavar="DIR",
                   help="directory for aggregate.csv and trials/*.json")
    p.set_defaults(func=_cmd_sweep)

    p = subs.add_parser("compare", help="adaptive-minus-baseline deltas per row")
    p.add_argument("aggregate", help="aggregate CSV holding the omp and adaptive-omp rows")
    p.add_argument("--out", metavar="CSV", help="write the comparison table")
    p.set_defaults(func=_cmd_compare)

    p = subs.add_parser("k-array", help="dump per-point budgets as CSV")
    _add_dataset_args(p)
    p.add_argument("--has-labels", action="store_true",
                   help="dataset file carries a trailing label column")
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--out", metavar="CSV")
    p.set_defaults(func=_cmd_k_array)

    p = subs.add_parser("synth", help="write a synthetic dataset file")
    p.add_argument("--subspaces", type=int, required=True)
    p.add_argument("--dim", type=int, required=True, help="dimension of each subspace")
    p.add_argument("--ambient", type=int, required=True, help="ambient dimension")
    p.add_argument("--points", type=int, required=True, help="points per subspace")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--random-bases", action="store_true")
    p.add_argument("--no-labels", action="store_true",
                   help="omit the label column")
    p.add_argument("--out", required=True, metavar="FILE",
                   help="written as CSV rows, whatever its suffix")
    p.set_defaults(func=_cmd_synth)

    p = subs.add_parser("noise", help="corrupt a dataset file")
    p.add_argument("--in", dest="input", required=True, metavar="FILE")
    p.add_argument("--has-labels", action="store_true")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--noise-variance", type=float, default=0.01)
    p.add_argument("--noise-mode", choices=["corrupt", "blend"], default="corrupt")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, metavar="FILE",
                   help="written as CSV rows, whatever its suffix")
    p.set_defaults(func=_cmd_noise)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ExperimentError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
