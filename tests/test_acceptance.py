"""Release gate: the numbered guarantees this package ships under.

Each test prints one PASS/FAIL line (visible with -rA or on failure) and the
verbose test listing itself gives one line per criterion. Criteria 7a/7b
need the Extended Yale B and USPS datasets, which are not redistributable;
point SSCOMP_YALEB_CSV / SSCOMP_USPS_CSV at local CSV files (one point per
row, trailing integer label) to activate them.
"""

import os
import statistics
import time

import numpy as np
import pytest
from conftest import random_orthogonal
from oracles import accuracy_bruteforce

from sscomp import (
    DataMatrix,
    Labels,
    SyntheticSpec,
    generate_synthetic,
    normalize_columns,
)
from sscomp.adaptive import KArray, compute_k_array, neighborhood_scores
from sscomp.experiment import (
    ExperimentConfig,
    SweepSpec,
    run_sweep,
    run_trial_detailed,
    run_trials,
)
from sscomp.metrics import accuracy, sea_ratio, subspace_preserving_error, subspace_preserving_rate
from sscomp.omp import CoefMatrix, omp_solve, ssc_omp, ssc_omp_adaptive
from sscomp.util import round_half_away_from_zero


def _verdict(num: str, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _random_sparse_coefs(rng, n: int, density: float) -> CoefMatrix:
    mask = rng.random((n, n)) < density
    np.fill_diagonal(mask, False)
    rows, cols = np.nonzero(mask)
    values = rng.standard_normal(rows.size)
    values[values == 0.0] = 1.0
    return CoefMatrix.from_triplets(rows, cols, values, n)


def test_criterion_01_sea_ratio_bounds():
    """SEA ratio lies in [0.5, 1] over 1000 random sparse patterns; exactly
    0.5 on symmetric patterns and exactly 1.0 on one-way patterns."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        c = _random_sparse_coefs(rng, n, float(rng.uniform(0.02, 0.3)))
        if c.nnz == 0:
            c = CoefMatrix.from_triplets([0], [1], [1.0], n)
        assert 0.5 <= sea_ratio(c) <= 1.0
        checked += 1

    for n in (2, 5, 20, 50):
        dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3)
        np.fill_diagonal(dense, 0.0)
        sym = dense + dense.T
        if not sym.any():
            sym[0, 1] = sym[1, 0] = 1.0
        rows, cols = np.nonzero(sym)
        symmetric = CoefMatrix.from_triplets(rows, cols, sym[rows, cols], n)
        assert sea_ratio(symmetric) == 0.5

        upper = np.triu(np.abs(dense) + 1.0, k=1)
        rows, cols = np.nonzero(upper)
        one_way = CoefMatrix.from_triplets(rows, cols, upper[rows, cols], n)
        assert sea_ratio(one_way) == 1.0

    elapsed = time.perf_counter() - start
    ok = checked == 1000 and elapsed < 5.0
    _verdict("1", "SEA ratio bounds and edge values", ok,
             f"{checked} random patterns, {elapsed:.2f}s < 5s")
    assert ok


def test_criterion_02_omp_exact_recovery():
    """OMP recovers m-sparse combinations over random orthonormal
    dictionaries (dim <= 64, m <= 8) with residual < 1e-10, 500 cases."""
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for case in range(500):
        dim = int(rng.integers(8, 65))
        q = random_orthogonal(dim, seed=1000 + case)
        d = DataMatrix(q)
        m = int(rng.integers(1, 9))
        chosen = rng.choice(dim, size=m, replace=False)
        weights = rng.uniform(0.1, 2.0, size=m) * rng.choice([-1.0, 1.0], size=m)
        target = q[:, chosen] @ weights
        coefs = omp_solve(d, target, m, 1e-12)
        assert sorted(np.flatnonzero(coefs).tolist()) == sorted(chosen.tolist())
        residual = float(np.linalg.norm(q @ coefs - target))
        worst = max(worst, residual)
        assert residual < 1e-10

    elapsed = time.perf_counter() - start
    ok = elapsed < 5.0
    _verdict("2", "OMP exact recovery on orthonormal dictionaries", ok,
             f"500 cases, worst residual {worst:.2e}, {elapsed:.2f}s < 5s")
    assert ok


def test_criterion_03_uniform_budgets_reduce_to_baseline():
    """Per-point budgets that are all equal produce a coefficient matrix
    bit-identical to the fixed-budget solver, on 50 random inputs."""
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    for case in range(50):
        n = int(rng.integers(6, 61))
        dim = int(rng.integers(4, 21))
        x = normalize_columns(
            DataMatrix(np.random.default_rng(2000 + case).standard_normal((dim, n)))
        )
        k = int(rng.integers(1, min(7, n - 2) + 1))
        eps = float(rng.choice([0.0, 1e-6, 1e-3]))
        base = ssc_omp(x, k, eps)
        uniform = ssc_omp_adaptive(x, KArray.uniform(k, n), eps)
        assert np.array_equal(base.matrix.indptr, uniform.matrix.indptr)
        assert np.array_equal(base.matrix.indices, uniform.matrix.indices)
        assert np.array_equal(base.matrix.data, uniform.matrix.data)

    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    _verdict("3", "uniform budgets reproduce the fixed-budget solver bitwise",
             ok, f"50 inputs, {elapsed:.2f}s < 10s")
    assert ok


def test_criterion_04_budget_selector_contract():
    """On 200 random unit-norm matrices (N <= 300): every budget >= 1, the
    pre-clamp budget mean stays within 1 of K, normalized scores lie in
    [0, K], and rotating the data leaves the integer budgets unchanged."""
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    for case in range(200):
        n = int(rng.integers(10, 301))
        dim = int(rng.integers(5, 101))
        x = normalize_columns(
            DataMatrix(np.random.default_rng(3000 + case).standard_normal((dim, n)))
        )
        k = int(rng.integers(2, min(12, n - 1) + 1))

        scores = neighborhood_scores(x, k)
        assert scores.normalized.min() >= 0.0
        assert scores.normalized.max() <= k

        budgets = compute_k_array(x, k)
        assert budgets.sizes.min() >= 1

        per_point = round_half_away_from_zero(scores.normalized)
        offset = k - round_half_away_from_zero(float(scores.normalized.mean()))
        pre_clamp = offset + per_point
        assert abs(float(pre_clamp.mean()) - k) <= 1.0

        q = random_orthogonal(dim, seed=4000 + case)
        rotated = DataMatrix(q @ x.values)
        rotated_budgets = compute_k_array(rotated, k)
        assert np.array_equal(budgets.sizes, rotated_budgets.sizes)

    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    _verdict("4", "budget-selector contract on random matrices", ok,
             f"200 matrices, {elapsed:.2f}s < 10s")
    assert ok


def test_criterion_05_orthogonal_subspace_pipeline():
    """Full pipeline on 5 mutually orthogonal 5-dim subspaces in ambient
    dim 50, 100 points each (N=500), K=8, eps=1e-6: perfect accuracy,
    fully subspace-preserving coefficients, zero leaked mass, both
    methods."""
    start = time.perf_counter()
    spec = SyntheticSpec(5, 5, 50, 100, rng_seed=55)
    results = {}
    for method in ("omp", "adaptive-omp"):
        cfg = ExperimentConfig(
            dataset=spec, n_clusters=5, method=method, k=8, eps=1e-6, seed=0
        )
        [(report, _)] = run_trials(cfg)
        results[method] = (report.accr, report.perc, report.ssr)
        assert report.accr == 100.0, f"{method}: accr {report.accr}"
        assert report.perc == 100.0, f"{method}: perc {report.perc}"
        assert report.ssr == 0.0, f"{method}: ssr {report.ssr}"

    elapsed = time.perf_counter() - start
    ok = elapsed < 30.0
    _verdict("5", "end-to-end oracle on orthogonal subspaces", ok,
             f"both methods 100/100/0, {elapsed:.2f}s < 30s")
    assert ok


def test_criterion_06_adaptive_overhead():
    """Budget selection is nearly free: on N=1000, the adaptive pipeline's
    wall time is at most 1.15x the fixed-budget pipeline's, as the median
    over 31 paired runs of the per-seed ratio. Each pair runs both methods
    back to back on the same seed, alternating which goes first, so a
    slow spell on a shared machine hits both sides of a ratio. Single
    ratios on shared cores spread widely (0.6-1.9 seen); 31 pairs narrow
    the spread of the median from run to run, which also makes a true
    ratio above the bound fail more reliably."""
    spec = SyntheticSpec(5, 5, 50, 200, rng_seed=66)
    data = generate_synthetic(spec)
    ratios = []
    for run in range(31):
        methods = ("omp", "adaptive-omp") if run % 2 == 0 else ("adaptive-omp", "omp")
        seconds = {}
        for method in methods:
            cfg = ExperimentConfig(
                dataset=spec, n_clusters=5, method=method, k=8, eps=1e-6, seed=run
            )
            seconds[method] = run_trial_detailed(cfg, 0, data)[0].time_seconds
        ratios.append(seconds["adaptive-omp"] / seconds["omp"])
    ratio = statistics.median(ratios)
    ok = ratio <= 1.15
    _verdict("6", "adaptive overhead within 15%", ok,
             f"median paired ratio {ratio:.3f} <= 1.15 over {len(ratios)} runs "
             f"(range {min(ratios):.3f}-{max(ratios):.3f})")
    assert ok


YALEB_CSV = os.environ.get("SSCOMP_YALEB_CSV", "")
USPS_CSV = os.environ.get("SSCOMP_USPS_CSV", "")


@pytest.mark.skipif(
    not YALEB_CSV, reason="set SSCOMP_YALEB_CSV to a faces CSV to activate"
)
def test_criterion_07a_yaleb_reproduction():
    """Extended Yale B, 5 subjects per trial, K=8, 20 trials: fixed-budget
    accuracy within 8 points of the published 89.13, and the adaptive
    method at least ties in 15 of 20 paired trials."""
    base_cfg = ExperimentConfig(
        dataset=YALEB_CSV, n_clusters=5, method="omp", k=8, eps=1e-6,
        trials=20, seed=0,
    )
    adapt_cfg = ExperimentConfig(
        dataset=YALEB_CSV, n_clusters=5, method="adaptive-omp", k=8, eps=1e-6,
        trials=20, seed=0,
    )
    base_reports = [r for r, _ in run_trials(base_cfg)]
    adapt_reports = [r for r, _ in run_trials(adapt_cfg)]
    base_mean = float(np.mean([r.accr for r in base_reports]))
    wins = sum(
        1 for b, a in zip(base_reports, adapt_reports) if a.accr >= b.accr
    )
    ok = abs(base_mean - 89.13) <= 8.0 and wins >= 15
    _verdict("7a", "Extended Yale B reproduction", ok,
             f"baseline mean {base_mean:.2f} (target 89.13 +/- 8), "
             f"adaptive ties-or-wins {wins}/20 (need >= 15)")
    assert ok


@pytest.mark.skipif(
    not USPS_CSV, reason="set SSCOMP_USPS_CSV to a digits CSV to activate"
)
def test_criterion_07b_usps_reproduction():
    """USPS digits, 250 samples per class, K=8: adaptive beats the fixed
    budget by at least 3 accuracy points on 10-trial means."""
    means = {}
    for method in ("omp", "adaptive-omp"):
        cfg = ExperimentConfig(
            dataset=USPS_CSV, n_clusters=10, method=method, k=8, eps=1e-6,
            trials=10, samples_per_cluster=250, seed=0,
        )
        means[method] = float(np.mean([r.accr for r, _ in run_trials(cfg)]))
    delta = means["adaptive-omp"] - means["omp"]
    ok = delta >= 3.0
    _verdict("7b", "USPS reproduction", ok,
             f"adaptive {means['adaptive-omp']:.2f} vs baseline "
             f"{means['omp']:.2f}, delta {delta:+.2f} (need >= +3)")
    assert ok


def test_criterion_08_noise_sweep_direction():
    """Corrupting 0/20/40 percent of the columns: at every noise level the
    adaptive method's 10-trial mean accuracy stays within 1 point of the
    fixed budget or above it."""
    base = ExperimentConfig(
        dataset=SyntheticSpec(5, 5, 50, 50, rng_seed=88),
        n_clusters=5, k=8, eps=1e-6, trials=10, seed=0,
    )
    rows = run_sweep(base, SweepSpec("noise_sigma", (0.0, 0.2, 0.4)))
    by_key = {(r["sigma"], r["method"]): r for r in rows}
    deltas = {}
    for sigma in ("0", "0.2", "0.4"):
        b = float(by_key[(sigma, "omp")]["accr"])
        a = float(by_key[(sigma, "adaptive-omp")]["accr"])
        deltas[sigma] = a - b
    ok = all(d >= -1.0 for d in deltas.values())
    detail = ", ".join(f"sigma={s}: {d:+.2f}" for s, d in deltas.items())
    _verdict("8", "noise-sweep pairing never loses more than 1 point", ok,
             f"{detail} (each >= -1)")
    assert ok


def test_criterion_09_metric_cross_checks():
    """Optimal-assignment accuracy equals brute-force permutation accuracy
    (200 random cases, N <= 8, up to 4 clusters); PERC = 100 exactly when
    SSR = 0 on 200 random coefficient matrices with injected violations."""
    rng = np.random.default_rng(909)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        kt = int(rng.integers(1, 5))
        kp = int(rng.integers(1, 5))
        truth = rng.integers(0, kt, n)
        pred = rng.integers(0, kp, n)
        truth_ids = np.unique(truth)
        pred_ids = np.unique(pred)
        truth = np.searchsorted(truth_ids, truth)
        pred = np.searchsorted(pred_ids, pred)
        got = accuracy(Labels(pred, pred_ids.size), Labels(truth, truth_ids.size))
        want = accuracy_bruteforce(pred.tolist(), truth.tolist())
        assert got == pytest.approx(want), (pred, truth)

    for case in range(200):
        n = int(rng.integers(4, 13))
        assignment = rng.integers(0, 2, n)
        assignment[0], assignment[1] = 0, 1
        y = Labels(assignment, 2)
        c = _random_sparse_coefs(rng, n, 0.3)
        if case % 2 == 0 and c.nnz:
            # force one cross-cluster coefficient
            i = int(rng.integers(n))
            other = np.flatnonzero(assignment != assignment[i])
            j = int(rng.choice(other))
            rows, cols, vals = c.triplets()
            rows = np.append(rows, j)
            cols = np.append(cols, i)
            vals = np.append(vals, 1.0)
            c = CoefMatrix.from_triplets(rows, cols, vals, n)
        perc = subspace_preserving_rate(c, y)
        ssr = subspace_preserving_error(c, y)
        assert (perc == 100.0) == (ssr == 0.0)

    _verdict("9", "metric cross-checks", True,
             "200 assignment cases + 200 preservation cases")
