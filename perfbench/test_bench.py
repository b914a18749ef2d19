"""Self-tests for the benchmark's own arithmetic and span bookkeeping.

    python3 -m pytest perfbench/test_bench.py -q
"""

import statistics
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import stats  # noqa: E402
from tracing import Tracer, trial_records  # noqa: E402


def test_median_odd_and_even():
    assert stats.median([3, 1, 2]) == 2.0
    assert stats.median([4, 1, 3, 2]) == 2.5
    with pytest.raises(ValueError):
        stats.median([])


def test_quartiles_match_statistics_quantiles():
    values = [0.9, 1.3, 1.0, 1.1, 1.6, 1.2, 0.8, 1.05, 1.15, 1.4]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.quartiles(values) == (q1, q2, q3)
    assert stats.quartiles([5.0]) == (5.0, 5.0, 5.0)


def test_spread_is_iqr_over_median():
    values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)
    assert stats.spread([2.0, 2.0, 2.0]) == 0.0
    with pytest.raises(ValueError):
        stats.spread([-1.0, 0.0, 1.0])


def test_ratio_refuses_zero_base():
    assert stats.ratio(3.0, 2.0) == 1.5
    with pytest.raises(ValueError):
        stats.ratio(1.0, 0.0)


def test_self_time_subtracts_direct_children_only():
    spans = [
        {"start": 0.0, "end": 10.0, "parent": None},  # root
        {"start": 1.0, "end": 4.0, "parent": 0},      # child
        {"start": 2.0, "end": 3.0, "parent": 1},      # grandchild
        {"start": 5.0, "end": 9.0, "parent": 0},      # child
    ]
    assert stats.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(stats.self_times(spans)) == pytest.approx(10.0)


@pytest.fixture
def fake_module(monkeypatch):
    module = types.ModuleType("perfbench_fake")

    def inner(x):
        return x * 2

    def outer(x):
        return module.inner(x) + 1

    module.inner, module.outer = inner, outer
    monkeypatch.setitem(sys.modules, "perfbench_fake", module)
    return module


def test_tracer_nests_spans_and_restores_names(fake_module):
    originals = (fake_module.outer, fake_module.inner)
    tracer = Tracer({
        "outer": ([("perfbench_fake", "outer")], None),
        "inner": ([("perfbench_fake", "inner")], lambda args, kwargs, out: {"out": out}),
    })
    with tracer.installed():
        assert fake_module.outer(3) == 7
    assert (fake_module.outer, fake_module.inner) == originals
    names = [s["name"] for s in tracer.spans]
    assert names == ["outer", "inner"]
    assert tracer.spans[1]["parent"] == 0 and tracer.spans[0]["parent"] is None
    assert tracer.spans[1]["counts"] == {"out": 6}
    own = stats.self_times(tracer.spans)
    outer = tracer.spans[0]
    assert own[0] + own[1] == pytest.approx(outer["end"] - outer["start"])


def test_trial_records_attach_child_counts_and_skip_setup():
    def span(name, parent, phase="pass", counts=None, trial="omp/None/0"):
        return {"name": name, "start": 0.0, "end": 1.0, "parent": parent,
                "trial": trial, "phase": phase, "pass": 0, "counts": counts or {}}

    spans = [
        span("experiment.trial", None, phase="setup", counts={"accr": 50.0}),
        span("experiment.trial", None, counts={"accr": 100.0, "sea": 0.9}),
        span("omp.fixed", 1, counts={"nnz": 40, "budget_sum": 40}),
        span("experiment.trial", None, counts={"accr": 90.0}, trial="omp/None/1"),
    ]
    records = trial_records(spans)
    assert [r["trial"] for r in records] == ["omp/None/0", "omp/None/1"]
    assert records[0]["nnz"] == 40 and records[0]["wall"] == 1.0
    assert "nnz" not in records[1]


def test_end_to_end_medians_and_pairs_overhead_within_a_pass():
    import run

    def record(method, index, wall, seconds, accr=100.0):
        return {"trial": f"{method}/None/{index}", "pass": index, "wall": wall,
                "time_seconds": seconds, "accr": accr}

    records = [
        record("omp", 0, 2.0, 1.0), record("adaptive-omp", 0, 2.2, 1.1),
        record("adaptive-omp", 1, 4.4, 3.0), record("omp", 1, 4.0, 2.0, accr=90.0),
        record("omp", 2, 3.0, 1.0), record("adaptive-omp", 2, 3.3, 1.2),
        record("omp", 3, 9.0, 1.0),  # unpaired: no overhead sample
    ]
    m = run.end_to_end(records, setup_s=1.5)
    assert m["trial_s.omp"] == 3.5 and m["trial_s.adaptive"] == 3.3
    assert m["adaptive_overhead"] == pytest.approx(1.2)  # median of 1.1, 1.5, 1.2
    assert m["accr.omp"] == 97.5 and m["accr.adaptive"] == 100.0
    assert m["setup_s"] == 1.5 and m["peak_rss_mb"] > 0
