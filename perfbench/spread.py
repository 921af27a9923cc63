"""Median and spread of each end-to-end metric over a set of runs.

    python3 perfbench/spread.py perfbench/reference/runs_401-410.txt

Each input line is ``<workload> <seed> <result JSON>``, the result being
the last line a ``--trace 0`` run printed.  Spread is (Q3 - Q1) / median,
with the quartiles of ``statistics.quantiles(values, n=4)``; it is shown
beside the metric's bound from BENCHMARK.json.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(paths: list[str]) -> int:
    bounds = {m["name"]: m["bound"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    for path in paths:
        values = defaultdict(lambda: defaultdict(list))
        runs = defaultdict(list)
        for line in Path(path).read_text().splitlines():
            workload, seed, result = line.split(" ", 2)
            result = json.loads(result)
            runs[workload].append(result)
            for name, metric in result["metrics"].items():
                values[workload][name].append(metric["value"])
        print(path)
        for workload, results in runs.items():
            print(f"  {workload}: {len(results)} runs, "
                  f"all correct {all(r['correct'] for r in results)}, "
                  f"failed {sum(r['failed'] for r in results)} of "
                  f"{sum(r['attempted'] for r in results)} operations")
            for name, vals in values[workload].items():
                median = statistics.median(vals)
                q1, _, q3 = statistics.quantiles(vals, n=4)
                print(f"    {name:13s} median {median:9.4f} spread "
                      f"{(q3 - q1) / median:.3f} (bound {bounds[name]}) "
                      f"range {min(vals):.4f}-{max(vals):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
