"""
Paired noise sweep: fixed budget vs per-point budgets
=====================================================

Corrupt a growing fraction of the columns and run both methods on the
same subsamples and the same noise, so their scores differ only by how
the sparsity budget was chosen. Everything lands in CSV files under
./sweep_out for plotting.
"""

from pathlib import Path

from sscomp import SyntheticSpec
from sscomp.experiment import (
    ExperimentConfig,
    SweepSpec,
    compare,
    run_sweep,
    write_comparison_csv,
)

base = ExperimentConfig(
    dataset=SyntheticSpec(
        n_subspaces=4, subspace_dim=4, ambient_dim=40,
        points_per_subspace=50, rng_seed=11,
    ),
    n_clusters=4,
    k=8,
    eps=1e-6,
    trials=5,
    seed=0,
)

out = Path("sweep_out")
rows = run_sweep(base, SweepSpec("noise_sigma", (0.0, 0.2, 0.4, 0.6)), out_dir=out)

print(f"{'sigma':>6} {'method':>14} {'accr':>8} {'ssr':>8} {'time':>9}")
for row in rows:
    print(f"{row['sigma']:>6} {row['method']:>14} {row['accr']:>8} "
          f"{row['ssr']:>8} {row['time']:>9}")

# pair the two methods row by row and diff them
deltas = compare(rows)
write_comparison_csv(deltas, out / "comparison.csv")

print()
for row in deltas:
    flag = "  (baseline won)" if row["adaptive_loses"] == "yes" else ""
    print(f"sigma={row['sigma']}: accr {row['accr_baseline']} -> "
          f"{row['accr_adaptive']} (delta {row['delta_accr']}), "
          f"time ratio {row['time_ratio']}{flag}")

print(f"\nwrote {out/'aggregate.csv'}, {out/'plot.csv'}, {out/'comparison.csv'}")
print(f"and one JSON per trial under {out/'trials'}/")
