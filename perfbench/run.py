#!/usr/bin/env python3
"""End-to-end benchmark of eos::Database.

Builds perfbench/eosbench from the engine sources of this checkout, runs one
workload and prints every metric by name with its unit. The last line of
standard output is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of an untraced run. --trace 1
reports the per-layer metrics: an untraced pass, a traced pass at the
workload's client count plus 1- and 4-client traced passes, and an untraced
pass under EOS_OBS=0. See perfbench/METRICS.md for what each metric means.

  python3 perfbench/run.py --workload hot_read --seed 1 --seconds 30 --trace 0

Exits 1 on a read mismatch, a failed integrity or leak check, or a traced
breakdown whose parts do not sum to the operation's wall time; 2 when the
benchmark cannot build or run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

# Closed-loop client threads of each workload's untraced run.
CLIENTS = {"hot_read": 4, "update_many": 2, "large_edit": 2}
# The untraced run times at least SETUPS set-ups, and more until they add
# up to SETUP_SECONDS; setup_s is the median.
SETUPS = 5
SETUP_SECONDS = 2.0
# The untraced window is split into this many consecutive sub-windows;
# rates and latencies are medians over them, so one stalled stretch does not
# move the result.
SUB_WINDOWS = 10
# The traced run's 1-client pass must split into parts that sum to the
# root spans' wall time within this share.
BREAKDOWN_TOLERANCE = 0.05
# Every eosbench process of one run must end within this many seconds of
# the start, build excluded.
RUN_BUDGET_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_s": "1/s",
    "read_p50_us": "us",
    "read_p99_us": "us",
    "write_p50_us": "us",
    "write_p99_us": "us",
    "read_mb_s": "MB/s",
    "space_amp": "ratio",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "eos.read_self_us": "us",
    "eos.write_self_us": "us",
    "eos.dir_pages": "pages",
    "eos.scaling_4c_over_1c": "ratio",
    "obs.read_overhead": "ratio",
    "cache.hit_rate": "ratio",
    "cache.evictions_per_kop": "1/kop",
    "pager.hit_rate": "ratio",
    "pager.writebacks_per_op": "1/op",
    "device.busy_us_per_op": "us/op",
    "device.read_calls_per_op": "1/op",
    "device.pages_read_per_op": "pages/op",
    "device.pages_written_per_op": "pages/op",
    "device.syncs_per_op": "1/op",
    "device.write_amp": "ratio",
    "device.read_amp": "ratio",
    "verify.busy_us_per_op": "us/op",
    "buddy.alloc_calls_per_op": "1/op",
    "buddy.allocated_pages": "pages",
    "lob.segments_per_mib": "1/MiB",
    "lob.depth_max": "levels",
    "lob.leaf_utilization": "ratio",
    "lob.read_cost_ratio": "ratio",
    "wal.bytes_per_write": "B/op",
    "wal.commit_batch_mean": "commits",
    "trace.overhead": "ratio",
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the eosbench target; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "eos", "database.h")):
        raise BenchError("engine sources not found under " + ROOT)
    target_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target_root, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "eosbench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr, check=True)
    return os.path.join(build_dir, "eosbench")


def run_eosbench(args, seconds, clients, setups, traced, obs_off=False,
                 setup_seconds=0.0):
    """Runs one eosbench process and returns its parsed JSON result."""
    env = dict(os.environ)
    if obs_off:
        env["EOS_OBS"] = "0"
    cmd = [args.binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds),
           "--clients", ",".join(str(c) for c in clients),
           "--setups", str(setups), "--setup-seconds", repr(setup_seconds),
           "--trace", "1" if traced else "0",
           "--workdir", args.workdir]
    timeout = max(1.0, args.deadline - time.monotonic())
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          env=env, timeout=timeout, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("eosbench printed no result (exit %d)"
                         % proc.returncode)
    result = json.loads(lines[-1])
    if proc.returncode not in (0, 1):
        raise BenchError("eosbench exited %d" % proc.returncode)
    return result


def fmt(v):
    return "%.6g" % v


def median_of(items, *keys):
    """Median over `items` of item[keys[0]][keys[1]]..."""
    values = []
    for item in items:
        for k in keys:
            item = item[k]
        values.append(item)
    return statistics.median(values)


def end_to_end(args, report):
    clients = CLIENTS[args.workload]
    r = run_eosbench(args, args.seconds / SUB_WINDOWS, [clients] * SUB_WINDOWS,
                     SETUPS, traced=False, setup_seconds=SETUP_SECONDS)
    passes = r["passes"]
    # hot_read runs no mutations in its window; its write figures are the
    # object creates of its set-ups, median over set-ups.
    if any(p["write"]["ops"] for p in passes):
        writes, write_src = [p["write"] for p in passes], "window mutations"
    else:
        writes, write_src = r["setup_create"], "set-up creates"
    m = {
        "setup_s": statistics.median(r["setup_s"]),
        "ops_s": median_of(passes, "ops_s"),
        "read_p50_us": median_of(passes, "read", "p50_us"),
        "read_p99_us": median_of(passes, "read", "p99_us"),
        "write_p50_us": median_of(writes, "p50_us"),
        "write_p99_us": median_of(writes, "p99_us"),
        "read_mb_s": median_of(passes, "read_mb_s"),
        "space_amp": r["shape"]["space_amp"],
        "peak_rss_mb": r["peak_rss_mb"],
    }
    ops = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    reads = sum(p["read"]["ops"] for p in passes)
    report.append("workload %s  seed %d  %d clients  %d windows of %.2f s  "
                  "(untraced)" % (args.workload, args.seed, clients,
                                  len(passes), passes[0]["seconds"]))
    report.append("  set-up times (s): " +
                  ", ".join(fmt(s) for s in r["setup_s"]))
    report.append("  rates and latencies are medians over the windows")
    notes = {
        "setup_s": "median of %d set-ups" % len(r["setup_s"]),
        "ops_s": "%d ops" % ops,
        "read_p50_us": "%d reads" % reads,
        "write_p50_us": "%d %s" % (sum(x["ops"] for x in writes), write_src),
    }
    for name, value in m.items():
        report.append("  %-14s %14s %-6s %s" % (
            name, fmt(value), END_TO_END_UNITS[name], notes.get(name, "")))
    for cls, lat in r["pooled"].items():
        if lat["ops"] == 0:
            continue
        report.append("  %s, all windows pooled: p50 %s us, p99 %s us%s, max "
                      "%s us (%d ops, %d samples)" % (
                          cls, fmt(lat["p50_us"]), fmt(lat["p99_us"]),
                          ", p999 %s us" % fmt(lat["p999_us"])
                          if "p999_us" in lat else "",
                          fmt(lat["max_us"]), lat["ops"], lat["samples"]))
    report.append("  %-14s %14s %-6s %d of %d ops failed" % (
        "failed_frac", fmt(failed / max(1, ops)), "ratio", failed, ops))
    for i, p in enumerate(passes):
        report.append("  window %d: %s ops/s, read p50/p99 %s/%s us (%d "
                      "samples), write p50/p99 %s/%s us (%d samples)" % (
                          i, fmt(p["ops_s"]), fmt(p["read"]["p50_us"]),
                          fmt(p["read"]["p99_us"]), p["read"]["samples"],
                          fmt(p["write"]["p50_us"]),
                          fmt(p["write"]["p99_us"]), p["write"]["samples"]))
    report_kinds(report, passes[0])
    return [r], m, ops, failed


def report_kinds(report, p):
    for kind, k in p["kinds"].items():
        report.append("    %-14s %9d ops  mean %s us" % (
            kind, k["count"], fmt(k["mean_us"])))


def breakdown_rows(p):
    """Per op kind: (kind, count, wall, eos, verify, device) in us/op."""
    return [(kind, b["count"], b["wall_us"], b["eos_us"], b["verify_us"],
             b["device_us"]) for kind, b in p["breakdown"].items()]


def report_breakdown(report, title, p):
    report.append("  breakdown, %s (%d clients): wall = eos self + verify + "
                  "device, us per op" % (title, p["clients"]))
    report.append("    %-14s %9s %10s %18s %18s %18s" % (
        "op", "count", "wall", "eos", "verify", "device"))
    for kind, n, wall, eos, ver, dev in breakdown_rows(p):
        def part(x):
            return "%9s (%5.1f%%)" % (fmt(x), 100.0 * x / wall if wall else 0)
        report.append("    %-14s %9d %10s %18s %18s %18s" % (
            kind, n, fmt(wall), part(eos), part(ver), part(dev)))


def breakdown_error(p):
    """Largest |eos + verify + device - wall| / wall over the pass."""
    worst = 0.0
    for _, _, wall, eos, ver, dev in breakdown_rows(p):
        if wall > 0:
            worst = max(worst, abs(eos + ver + dev - wall) / wall)
    return worst


def per_layer(args, report):
    clients = CLIENTS[args.workload]
    window = args.seconds / 5.0
    traced_clients = [clients] + [c for c in (1, 4) if c != clients]
    untraced = run_eosbench(args, window, [clients], 1, traced=False)
    traced = run_eosbench(args, window, traced_clients, 1, traced=True)
    obs_off = run_eosbench(args, window, [clients], 1, traced=False,
                           obs_off=True)
    results = [untraced, traced, obs_off]
    main = traced["passes"][0]
    by_clients = {p["clients"]: p for p in traced["passes"]}
    u = untraced["passes"][0]
    o = obs_off["passes"][0]
    m = {}
    for name in PER_LAYER_UNITS:
        if name in main["layers"]:
            m[name] = main["layers"][name]
        elif name in traced["shape"]:
            m[name] = traced["shape"][name]
    if not any(p["write"]["ops"] for p in traced["passes"]):
        # As for the end-to-end write metrics, a workload without window
        # mutations (hot_read) reports its set-up's object creates.
        m["eos.write_self_us"] = traced["setup_breakdown"]["eos_us"]
    m["eos.scaling_4c_over_1c"] = (by_clients[4]["ops_s"] /
                                   by_clients[1]["ops_s"])
    m["obs.read_overhead"] = u["read"]["p50_us"] / o["read"]["p50_us"] - 1.0
    m["trace.overhead"] = u["ops_s"] / main["ops_s"] - 1.0
    missing = set(PER_LAYER_UNITS) - set(m)
    if missing:
        raise BenchError("per-layer metrics not produced: %s"
                         % sorted(missing))

    report.append("workload %s  seed %d  traced passes at %s clients, "
                  "%.2f s each" % (args.workload, args.seed,
                                   "/".join(str(c) for c in traced_clients),
                                   window))
    for name in PER_LAYER_UNITS:
        report.append("  %-28s %14s %s" % (name, fmt(m[name]),
                                             PER_LAYER_UNITS[name]))
    report.append("  ops_s: untraced %s, traced %s; obs default read p50 %s "
                  "us vs EOS_OBS=0 %s us" % (
                      fmt(u["ops_s"]), fmt(main["ops_s"]),
                      fmt(u["read"]["p50_us"]), fmt(o["read"]["p50_us"])))
    report_breakdown(report, "traced pass", main)
    create = traced["setup_breakdown"]
    report.append("    %-14s %9d %10s %18s %18s %18s  (set-up creates)" % (
        "create", create["count"], fmt(create["wall_us"]),
        fmt(create["eos_us"]), fmt(create["verify_us"]),
        fmt(create["device_us"])))
    one = by_clients[1]
    report_breakdown(report, "1-client pass", one)
    err = breakdown_error(one)
    report.append("  1-client parts vs wall: worst deviation %.3f%% "
                  "(limit %.0f%%)" % (100 * err, 100 * BREAKDOWN_TOLERANCE))
    attempted = sum(p["ops"] for r in results for p in r["passes"])
    failed = sum(p["failed"] for r in results for p in r["passes"])
    return results, m, attempted, failed, err <= BREAKDOWN_TOLERANCE


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(CLIENTS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    started = time.monotonic()
    args.workdir = os.path.join(WORK_ROOT, "run-%d" % os.getpid())
    try:
        args.binary = build()
        args.deadline = time.monotonic() + RUN_BUDGET_S
        os.makedirs(args.workdir, exist_ok=True)
        report = []
        if args.trace:
            results, metrics, attempted, failed, sums_ok = per_layer(
                args, report)
            units = PER_LAYER_UNITS
        else:
            results, metrics, attempted, failed = end_to_end(args, report)
            sums_ok = True
            units = END_TO_END_UNITS
    except (BenchError, subprocess.SubprocessError, OSError,
            ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        return 2
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    correct = sums_ok and all(r["correct"] for r in results)
    for r in results:
        for e in r["errors"]:
            report.append("  ERROR: " + e)
        for p in r["passes"]:
            if p["mismatches"]:
                report.append("  ERROR: %d reads differ from the bench copy"
                              % p["mismatches"])
            if p.get("first_error"):
                report.append("  first failed op: " + p["first_error"])
    if not sums_ok:
        report.append("  ERROR: traced parts do not sum to the wall time")
    report.append("  correct: %s   wall %.1f s" % (
        correct, time.monotonic() - started))
    print("\n".join(report))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
