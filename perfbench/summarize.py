#!/usr/bin/env python3
"""Median, quartiles and spread of each metric over finished runs.

    python3 perfbench/summarize.py [RESULT_DIR ...]

Reads ``result.json`` from each given run directory (default: every one
under ``perfbench/out``) and prints, per workload and trace mode, each
metric's run count, median, quartiles and spread, the interquartile range
as a share of the median. For end-to-end metrics it also prints the bound
from ``BENCHMARK.json`` and whether the spread is within it.
"""

import json
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent


def main(argv: list[str]) -> int:
    dirs = [Path(a) for a in argv] or sorted(p.parent for p in (HERE / "out").glob("*/result.json"))
    bounds = {m["name"]: m["bound"]
              for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]}
    groups: dict[tuple, dict[str, list[float]]] = {}
    incorrect = 0
    for d in dirs:
        result = json.loads((d / "result.json").read_text())
        incorrect += not result["correct"]
        group = groups.setdefault((result["workload"], result["trace"]), {})
        for name, entry in result["metrics"].items():
            group.setdefault(name, []).append(entry["value"])
    for (workload, trace), metrics in sorted(groups.items()):
        print(f"{workload} trace={trace}")
        for name, values in metrics.items():
            q1, q2, q3 = stats.quartiles(values)
            line = (f"  {name:28s} n={len(values):<3d} median={q2:<12.6g} "
                    f"q1={q1:<12.6g} q3={q3:<12.6g}")
            if q2:
                spread = stats.spread(values)
                line += f" spread={spread:.4f}"
                if not trace and name in bounds:
                    verdict = "ok" if spread <= bounds[name] else "OVER"
                    line += f" bound={bounds[name]} {verdict}"
            print(line)
    if incorrect:
        print(f"{incorrect} run(s) failed their correctness checks")
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
