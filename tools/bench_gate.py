#!/usr/bin/env python3
"""Gates on bench results (wired into tools/run_checks.sh).

Each row of CHECKS names a source, a metric in it, the comparison the
metric must pass, the threshold and what a failure means. A source ending
in .json is a committed JSON-lines file, which is re-read; any other source
names a bench binary, which is run. Both hold one
{"bench":..., "metric":..., "value":...} object per line, as the benches
print them. A metric missing from its source fails the gate.

  python3 tools/bench_gate.py                  # rows that read a file
  python3 tools/bench_gate.py --run build/bench  # rows that run a bench

Exits 1 listing every failed check.
"""

import argparse
import json
import operator
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

COMPARE = {">=": operator.ge, ">": operator.gt, "<=": operator.le}

# (source, metric, comparison, threshold, what a failure means)
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
    # Extent cache (DESIGN.md §14), at Zipf(0.99). BENCH_9.json keeps the
    # reference run of these rows.
    ("bench_throughput", "zipf_hot_speedup", ">=", 3.0,
     "hot-set speedup with the cache on"),
    ("bench_throughput", "zipf_hit_rate", ">=", 80.0,
     "hot-phase hit rate (%)"),
    ("bench_throughput", "zipf_cold_ratio", ">=", 0.9,
     "uniform cold-set throughput with the cache on, over cache off"),
    ("bench_throughput", "zipf_hot_p99_ratio", "<=", 1.2,
     "hot-phase foreground p99 with the cache on, over cache off"),
    # Multi-volume sets (DESIGN.md §15), 3 members, IO-bound.
    ("bench_volumes", "scrub_parallel_speedup", ">=", 1.3,
     "parallel per-volume scrub over serial"),
    ("bench_volumes", "degraded_read_ratio", ">=", 0.5,
     "read throughput with 1 of 3 members offline, over healthy"),
    ("bench_volumes", "failover_reads", ">", 0,
     "reads the degraded pass failed over to a replica"),
    # Section 4 cost-model conformance on a fresh volume (DESIGN.md §6):
    # measured over predicted transfers. A bench reads 0 when it compared
    # no operation at all, so a probe that records nothing fails "> 0".
    ("bench_read_cost", "conformance_read_mean_ratio", "<=", 1.25,
     "fresh-volume read I/O over the Section 4.2 model"),
    ("bench_read_cost", "conformance_read_mean_ratio", ">", 0,
     "no read recorded a conformance sample"),
    ("bench_fragmentation", "conformance_read_mean_ratio", "<=", 1.25,
     "fresh-volume read I/O over the Section 4.2 model"),
    ("bench_fragmentation", "conformance_read_mean_ratio", ">", 0,
     "no read recorded a conformance sample"),
    ("bench_fragmentation", "conformance_append_mean_ratio", "<=", 1.25,
     "fresh-volume append I/O over the Section 4.1 model"),
    ("bench_fragmentation", "conformance_append_mean_ratio", ">", 0,
     "no append recorded a conformance sample"),
]


def parse(lines):
    values = {}
    for line in lines:
        line = line.strip()
        if line.startswith("{"):
            rec = json.loads(line)
            if "metric" in rec:
                values[rec["metric"]] = rec["value"]
    return values


def load(source, bench_dir):
    if source.endswith(".json"):
        with open(os.path.join(REPO, source)) as f:
            return parse(f)
    run = subprocess.run([os.path.join(bench_dir, source)],
                         capture_output=True, text=True, check=False)
    if run.returncode != 0:
        raise OSError(f"exited {run.returncode}: {run.stderr.strip()}")
    return parse(run.stdout.splitlines())


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--run", metavar="BENCH_DIR",
                    help="run the rows that name a bench, from this "
                         "directory, instead of reading the committed files")
    args = ap.parse_args()
    sources = {}
    failures = []
    for source, metric, op, threshold, meaning in CHECKS:
        if source.endswith(".json") == (args.run is not None):
            continue
        if source not in sources:
            try:
                sources[source] = load(source, args.run)
            except (OSError, ValueError) as e:
                sources[source] = e
        values = sources[source]
        if isinstance(values, Exception):
            failures.append(f"{source}: unreadable ({values})")
            continue
        if metric not in values:
            failures.append(f"{source} is missing '{metric}'")
            continue
        value = values[metric]
        ok = COMPARE[op](value, threshold)
        print(f"bench gate: {source} {metric} = {value:.3f} "
              f"(needs {op} {threshold}) {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(f"{source} {metric} = {value:.3f}, needs {op} "
                            f"{threshold}: {meaning}")
    for failure in failures:
        print(f"bench gate: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
