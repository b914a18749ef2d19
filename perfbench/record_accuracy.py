#!/usr/bin/env python3
"""Record the per-trial accuracies of finished benchmark runs.

    python3 perfbench/record_accuracy.py

Reads every ``perfbench/out/*/result.json`` of a correct untraced run and
stores each trial's accuracy under its workload, seed and trial id in
``perfbench/accuracy.json``. A later run of the same seed fails its
correctness check when a trial's accuracy falls below the recorded value.
Already recorded values are kept unless a run measured less; per-workload
floors are edited by hand.
"""

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
TABLE = HERE / "accuracy.json"


def main() -> int:
    table = json.loads(TABLE.read_text()) if TABLE.exists() else {}
    added = 0
    for path in sorted((HERE / "out").glob("*/result.json")):
        result = json.loads(path.read_text())
        if result["trace"] or not result["correct"]:
            continue
        seeds = table.setdefault(result["workload"], {}).setdefault("seeds", {})
        recorded = seeds.setdefault(str(result["seed"]), {})
        for trial in result["trials"]:
            before = recorded.get(trial["trial"])
            if before is None or trial["accr"] < before:
                recorded[trial["trial"]] = trial["accr"]
                added += 1
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {added} trial accuracies in {TABLE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
