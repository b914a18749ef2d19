"""Spans around the package's public functions, recorded from outside.

The package itself is not edited: ``Tracer.installed`` replaces the names
that ``sscomp.experiment``, ``sscomp.spectral`` and ``sscomp.cli`` look up
at call time with wrappers that call the original, and restores them on
exit. So the traced code path is the unmodified one plus one Python call
per boundary.

A span is ``{name, start, end, parent, trial, phase, pass, counts}``:
``parent`` is the index of the enclosing span, ``trial`` the id of the trial
it ran under (``method/samples/trial``), ``phase`` is ``setup`` or ``pass``,
``pass`` the pass index, and ``counts`` is what the boundary saw in the
call's arguments and result.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import os
import time


def _trial_key(args, kwargs) -> str:
    cfg = args[0]
    trial = args[1] if len(args) > 1 else kwargs.get("trial", 0)
    return f"{cfg.method}/{cfg.samples_per_cluster}/{trial}"


def _count_trial(args, kwargs, out):
    report, labels = out
    labels_sha1 = hashlib.sha1(labels.assignments.tobytes()).hexdigest()
    return {"labels_sha1": labels_sha1, "time_seconds": report.time_seconds,
            "sea": report.sea, "accr": report.accr, "n_points": report.params["n_points"]}


def _count_budgets(args, kwargs, out):
    sizes = out.sizes
    return {"budget_mean": float(sizes.mean()), "budget_min": int(sizes.min()),
            "budget_max": int(sizes.max()), "base_k": int(out.base_k)}


def _count_omp_fixed(args, kwargs, out):
    x, k = args[0], args[1] if len(args) > 1 else kwargs["k"]
    return {"nnz": int(out.nnz), "budget_sum": int(k) * x.n}


def _count_omp_adaptive(args, kwargs, out):
    k_array = args[1] if len(args) > 1 else kwargs["k_array"]
    return {"nnz": int(out.nnz), "budget_sum": int(k_array.sizes.sum())}


def _count_nnz(args, kwargs, out):
    return {"nnz": int(out.nnz)}


def _count_file_in(args, kwargs, out):
    return {"bytes": os.path.getsize(args[0])}


def _count_file_out(args, kwargs, out):
    return {"bytes": os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])}


# span name -> (module-level names it wraps, counter); every name is one the
# calling module resolves at call time, so replacing the attribute reroutes it
_EXP, _CLI, _SPEC = "sscomp.experiment", "sscomp.cli", "sscomp.spectral"

PROBE = {
    "experiment.trial": ([(_EXP, "run_trial_detailed")], _count_trial),
    "adaptive.budgets": ([(_EXP, "compute_k_array")], _count_budgets),
    "omp.fixed": ([(_EXP, "ssc_omp")], _count_omp_fixed),
    "omp.adaptive": ([(_EXP, "ssc_omp_adaptive")], _count_omp_adaptive),
}

TRACE = {
    **PROBE,
    "cli.main": ([(_CLI, "main")], None),
    "experiment.write_json": ([(_EXP, "write_trial_json")], None),
    "data.load_csv": ([(_EXP, "load_csv")], _count_file_in),
    "data.save_csv": ([(_CLI, "save_csv")], _count_file_out),
    "data.generate": ([(_CLI, "generate_synthetic")], None),
    "data.noise": ([(_EXP, "add_gaussian_noise"), (_EXP, "blend_gaussian_noise"),
                    (_EXP, "normalize_columns")], None),
    "adaptive.gram": ([(_EXP, "gram_matrix")], None),
    "spectral.affinity": ([(_EXP, "build_affinity")], _count_nnz),
    "spectral.cluster": ([(_EXP, "spectral_cluster")], None),
    "spectral.laplacian": ([(_SPEC, "normalized_laplacian")], None),
    "metrics.connectivity": ([(_EXP, "connectivity")], None),
    "metrics.perc": ([(_EXP, "subspace_preserving_rate")], None),
    "metrics.ssr": ([(_EXP, "subspace_preserving_error")], None),
    "metrics.accuracy": ([(_EXP, "accuracy")], None),
    "metrics.sea": ([(_EXP, "sea_ratio")], None),
}


class Tracer:
    """Records spans for the boundaries in ``table`` while installed."""

    def __init__(self, table: dict):
        self.table = table
        self.spans: list[dict] = []
        self.phase = "pass"
        self.pass_index: int | None = None
        self._stack: list[int] = []
        self._trial: str | None = None

    def wrap(self, name: str, fn, count):
        def wrapper(*args, **kwargs):
            outer_trial = self._trial
            if name == "experiment.trial":
                self._trial = _trial_key(args, kwargs)
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": self._stack[-1] if self._stack else None,
                    "trial": self._trial, "phase": self.phase, "pass": self.pass_index,
                    "counts": {}}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                self._trial = outer_trial
            if count is not None:
                span["counts"] = count(args, kwargs, out)
            return out

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for name, (targets, count) in self.table.items():
                for module_name, attr in targets:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self.wrap(name, original, count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def named(self, name: str, phase: str | None = "pass") -> list[dict]:
        return [sp for sp in self.spans
                if sp["name"] == name and (phase is None or sp["phase"] == phase)]


def trial_records(spans, phase: str = "pass") -> list[dict]:
    """One record per finished trial span of ``phase``, in call order: its
    id, wall seconds and counts, plus the counts of its OMP and budget
    children."""
    records = {}
    for i, s in enumerate(spans):
        if s["name"] == "experiment.trial" and s["counts"] and s["phase"] == phase:
            records[i] = {"trial": s["trial"], "pass": s["pass"],
                          "wall": s["end"] - s["start"], **s["counts"]}
    for s in spans:
        if s["parent"] in records and s["name"] in ("omp.fixed", "omp.adaptive",
                                                    "adaptive.budgets"):
            records[s["parent"]].update(s["counts"])
    return [records[i] for i in sorted(records)]
