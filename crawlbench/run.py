#!/usr/bin/env python3
"""Crawl benchmark runner.

Builds the crawlbench binary (Release) from this checkout and runs one
workload for a given time: a reference crawl, then repeated crawls, each
in a process of its own. Checks that every crawl reproduces the
reference crawl's output and that the exact counts equal the values
pinned for the seed in crawlbench/pins.json, then prints the metrics. The last line of standard output is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1. Run from the root of the checkout:

  python3 crawlbench/run.py --workload harvest-inproc --seed 1 \
      --seconds 40 --trace 0

  python3 crawlbench/run.py --pin --seed 1 --seed 2   # print pins

Build products, crawl state and span files go under .bench_build/.
"""

import argparse
import fcntl
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(OUT_DIR, "crawlbench")
BINARY = os.path.join(BUILD_DIR, "crawlbench")
PINS = os.path.join(BENCH_DIR, "pins.json")
WORKLOADS = ["harvest-inproc", "tail-tcp-flaky", "paged-evict"]
# Counts pinned per workload and seed; the cache counters only mean
# something on the paged store.
PINNED_KEYS = ["rounds", "queries", "records", "waves", "transient_failures",
               "abandoned_values"]
CACHE_KEYS = ["cache_hits", "cache_misses", "cache_evictions",
              "cache_writebacks"]
# Crawls still running this long after the run started are killed.
RUN_TIMEOUT_S = 170
MB = 1e6


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures and builds the binary; returns False on failure. Runs
    started at the same time in one checkout take turns."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        return build_locked()


def build_locked():
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "crawlbench", "-j",
         str(min(4, os.cpu_count() or 1))],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("crawlbench: build step failed:", " ".join(step))
            return False
    return True


def source_id():
    """The git sha when this is a git checkout, else a digest of the
    sources the benchmark builds."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "crawlbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree:" + digest.hexdigest()[:16]


def run_binary(workload, seed, mode, timeout):
    """Runs one crawl in its own process; returns its JSON report, or None
    (with the reason on stderr) when it failed."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--state-base", os.path.join(OUT_DIR, "state"),
           "--spans-dir", os.path.join(OUT_DIR, "spans")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        log("crawlbench: %s crawl timed out" % mode)
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log("crawlbench: %s crawl exited with %d" % (mode, done.returncode))
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        log("crawlbench: unreadable report:", lines[-1][:200])
        return None


def run_workload(workload, seed, seconds, trace):
    """Runs the reference crawl, then repetitions for `seconds` (untraced,
    or alternating untraced and traced). Returns (reports by mode,
    attempted, failed, mismatches)."""
    started = time.monotonic()
    deadline = started + RUN_TIMEOUT_S
    reports = {"untraced": [], "traced": []}
    mismatches = []
    attempted = failed = 0

    reference = run_binary(workload, seed, "reference",
                           deadline - time.monotonic())
    attempted += 1
    if reference is None:
        return reports, attempted, attempted, ["reference crawl failed"]

    need = {"untraced": 2 if trace else 3, "traced": 2 if trace else 0}
    rep_times = []
    rep = 0
    measure_start = time.monotonic()
    while True:
        enough = all(len(reports[m]) >= n for m, n in need.items())
        elapsed = time.monotonic() - measure_start
        expected = statistics.median(rep_times) if rep_times else 0
        if enough and elapsed + expected > seconds:
            break
        mode = "traced" if trace and rep % 2 == 1 else "untraced"
        rep += 1
        attempted += 1
        t0 = time.monotonic()
        report = run_binary(workload, seed, mode, deadline - t0)
        rep_times.append(time.monotonic() - t0)
        if report is None:
            failed += 1
            break
        if report["digest"] != reference["digest"]:
            mismatches.append("%s repetition %d differs from the reference "
                              "crawl" % (mode, rep))
        reports[mode].append(report)
    return reports, attempted, failed, mismatches


def pinned_keys(workload):
    return PINNED_KEYS + (CACHE_KEYS if workload == "paged-evict" else [])


def check_pins(report):
    """Compares the report's counts with the pins for its seed. Returns
    (pinned, mismatches)."""
    with open(PINS) as f:
        pins = json.load(f)
    want = pins.get(report["workload"], {}).get(str(report["seed"]))
    if want is None:
        return False, []
    got = report["counts"]
    bad = ["%s: got %s, pinned %s" % (key, got.get(key), want[key])
           for key in pinned_keys(report["workload"])
           if got.get(key) != want[key]]
    return True, bad


def pin(seeds):
    """Prints pins.json content for the given seeds (one crawl each)."""
    if not build():
        return 1
    pins = {}
    for workload in WORKLOADS:
        pins[workload] = {}
        for seed in seeds:
            report = run_binary(workload, seed, "untraced", RUN_TIMEOUT_S)
            if report is None:
                log("crawlbench: cannot pin", workload, "seed", seed)
                return 1
            pins[workload][str(seed)] = {
                key: report["counts"][key] for key in pinned_keys(workload)}
            log("pinned", workload, "seed", seed)
    print(json.dumps(pins, indent=1, sort_keys=True))
    return 0


def end_to_end(untraced, everything):
    first = untraced[0]
    counts = first["counts"]
    return {
        "crawl_s": (median(r["crawl_s"] for r in untraced), "s"),
        "setup_s": (median(r["setup_s"] for r in everything), "s"),
        "peak_rss_mb": (median(r["peak_rss_bytes"] for r in untraced) / MB,
                        "MB"),
        "disk_mb": (median(r["disk_bytes"] for r in untraced) / MB, "MB"),
        "rounds": (counts["rounds"], "count"),
        "queries": (counts["queries"], "count"),
        "coverage": (counts["records"] / counts["table_records"], "share"),
    }


def per_layer(untraced, traced, everything):
    # Layer times come from the traced repetition with the median crawl
    # time, so that they add up to its crawl_s (trace.crawl_s).
    by_time = sorted(traced, key=lambda r: r["crawl_s"])
    rep = by_time[(len(by_time) - 1) // 2]
    metrics = {name: (m["value"], m["unit"])
               for name, m in rep["layers"].items()}
    metrics["server.build_s"] = (
        median(r["server_build_s"] for r in everything), "s")
    metrics["datagen.generate_s"] = (
        median(r["datagen_s"] for r in everything), "s")
    overhead = (median(r["crawl_s"] for r in traced)
                / median(r["crawl_s"] for r in untraced) - 1) * 100
    metrics["trace.overhead_pct"] = (overhead, "%")
    return metrics


def median(values):
    return statistics.median(list(values))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, action="append")
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--pin", action="store_true",
                        help="print pinned counts for the given seeds")
    args = parser.parse_args()
    if args.pin:
        return pin(args.seed or [1])
    if args.workload is None or not args.seed or len(args.seed) != 1:
        parser.error("give --workload and one --seed")
    seed = args.seed[0]

    if not build():
        return 1
    reports, attempted, failed, problems = run_workload(
        args.workload, seed, args.seconds, args.trace == 1)
    untraced, traced = reports["untraced"], reports["traced"]
    if not untraced or (args.trace and not traced):
        log("crawlbench: no successful repetition")
        return 1

    host = dict(untraced[0]["host"])
    host["source"] = source_id()
    print("host: " + json.dumps(host, sort_keys=True))
    if host["build_type"] != "Release":
        log("crawlbench: refusing a %s build; timings need Release"
            % host["build_type"])
        return 1
    pinned, mismatches = check_pins(untraced[0])
    problems += ["pinned count mismatch: " + m for m in mismatches]
    for line in problems:
        log("crawlbench:", line)
    counts = untraced[0]["counts"]
    print("counts: " + json.dumps(counts, sort_keys=True)
          + (" (pinned)" if pinned else " (seed not pinned)"))
    print("repetitions: %d untraced, %d traced" % (len(untraced), len(traced)))

    everything = untraced + traced
    if args.trace:
        metrics = per_layer(untraced, traced, everything)
    else:
        metrics = end_to_end(untraced, everything)
    for name, (value, unit) in metrics.items():
        print("%-28s %16.6f %s" % (name, value, unit))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
