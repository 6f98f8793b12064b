#!/usr/bin/env python3
"""Gates on the committed bench results (wired into tools/run_checks.sh).

Each row of CHECKS names a committed JSON-lines file, a metric in it, the
comparison the metric must pass, the threshold and what a failure means.
The files hold one {"bench":..., "metric":..., "value":...} object per
line, as the benches print them. A metric missing from its file fails
the gate. These checks re-read the committed results; they do not re-run
the benches.

  python3 tools/bench_gate.py

Exits 1 listing every failed check.
"""

import json
import operator
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

COMPARE = {">=": operator.ge, ">": operator.gt, "<=": operator.le}

# (file, metric, comparison, threshold, what a failure means)
CHECKS = [
    # Aging (DESIGN.md §12): churn provokes read-cost drift with the
    # defragmenter off; with it on, read cost recovers to the §4 cost model
    # bar and foreground p99 stays close to the defrag-off run.
    ("BENCH_7.json", "drift_off_final", ">=", 1.5,
     "churn no longer provokes aging (read-cost drift, defrag off)"),
    ("BENCH_7.json", "drift_on_final", "<=", 1.25,
     "post-defrag read cost is above the cost model bar"),
    ("BENCH_7.json", "objects_migrated", ">", 0,
     "the defragmenter migrated nothing"),
    ("BENCH_7.json", "read_p99_ratio", "<=", 1.2,
     "foreground read p99 with defrag on, over the defrag-off run"),
    # Extent cache (DESIGN.md §14), at Zipf(0.99).
    ("BENCH_9.json", "zipf_hot_speedup", ">=", 3.0,
     "hot-set speedup with the cache on"),
    ("BENCH_9.json", "zipf_hit_rate", ">=", 80.0,
     "hot-phase hit rate (%)"),
    ("BENCH_9.json", "zipf_cold_ratio", ">=", 0.9,
     "uniform cold-set throughput with the cache on, over cache off"),
    ("BENCH_9.json", "zipf_hot_p99_ratio", "<=", 1.2,
     "hot-phase foreground p99 with the cache on, over cache off"),
    # Multi-volume sets (DESIGN.md §15), 3 members, IO-bound.
    ("BENCH_10.json", "scrub_parallel_speedup", ">=", 1.3,
     "parallel per-volume scrub over serial"),
    ("BENCH_10.json", "degraded_read_ratio", ">=", 0.5,
     "read throughput with 1 of 3 members offline, over healthy"),
    ("BENCH_10.json", "failover_reads", ">", 0,
     "reads the degraded pass failed over to a replica"),
]


def load(path):
    values = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                rec = json.loads(line)
                if "metric" in rec:
                    values[rec["metric"]] = rec["value"]
    return values


def main():
    files = {}
    failures = []
    for name, metric, op, threshold, meaning in CHECKS:
        if name not in files:
            try:
                files[name] = load(os.path.join(REPO, name))
            except (OSError, ValueError) as e:
                files[name] = e
        values = files[name]
        if isinstance(values, Exception):
            failures.append(f"{name}: unreadable ({values})")
            continue
        if metric not in values:
            failures.append(f"{name} is missing '{metric}'")
            continue
        value = values[metric]
        ok = COMPARE[op](value, threshold)
        print(f"bench gate: {name} {metric} = {value:.3f} "
              f"(needs {op} {threshold}) {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(f"{name} {metric} = {value:.3f}, needs {op} "
                            f"{threshold}: {meaning}")
    for failure in failures:
        print(f"bench gate: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
