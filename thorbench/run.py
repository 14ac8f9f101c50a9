#!/usr/bin/env python3
"""thorbench: build the benchmark from the sources beside it, then run it.

Run from the root of a checkout:

  python3 thorbench/run.py --workload W --seed N --seconds S --trace 0|1
      One workload run. The last line of stdout is the result JSON
      ({"correct", "attempted", "failed", "metrics"}); with --trace 1 the
      metrics are the per-layer set and the Chrome trace plus a per-layer
      summary land in .bench_build/thorbench-out/.
  python3 thorbench/run.py --self-test
      Builds and runs the benchmark's helper tests.
  python3 thorbench/run.py --check-shapes [--seconds S]
      Held-out seed check: runs every workload on the default and on a
      second train/serve probe-seed pair and checks the metric shapes.

Everything is built under .bench_build/ in the checkout (CMake, Release).
Exits non-zero, without a result line, when the build or an output check
fails.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "thorbench"
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "thorbench"
OUT = BUILD_ROOT / "thorbench-out"
WORKLOADS = ["serve_hot", "serve_net", "learn_cold", "serve_drift"]
# Per-process time limits: a measuring process runs its share of the
# seconds plus its set-up and checks (at most six of them stay under the
# run's 180 s), a traced one the full seconds plus the layer probes.
CHILD_TIMEOUT_S = 25
TRACED_TIMEOUT_S = 120
# Measuring processes per untraced run (see run_end_to_end). The drift
# workload serves two untimed 1-thread reference passes in each process,
# so it gets fewer.
PROCESSES = {"serve_hot": 5, "learn_cold": 6, "serve_net": 3, "serve_drift": 3}
# Serve/train probe-seed pairs of the held-out check: the defaults the
# workloads were written against, and a second pair used for nothing else.
DEFAULT_SEED, DEFAULT_TRAIN_SEED = 99, 7
HELD_OUT_SEED, HELD_OUT_TRAIN_SEED = 199, 17


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(target):
    """Configures (once) and builds `target`; build chatter goes to stderr."""
    BUILD_ROOT.mkdir(exist_ok=True)
    with open(BUILD_ROOT / "thorbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").exists():
            configure = subprocess.run(
                ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, stderr=sys.stderr)
            if configure.returncode != 0:
                return False
        jobs = str(max(1, len(os.sched_getaffinity(0))))
        made = subprocess.run(
            ["cmake", "--build", str(BUILD), "-j", jobs, "--target", target],
            stdout=sys.stderr, stderr=sys.stderr)
        # Write the build's dirty pages back now, not during the first
        # measurement.
        os.sync()
        return made.returncode == 0


def run_workload(workload, seed, seconds, trace, extra=(), capture=False):
    timeout = TRACED_TIMEOUT_S if trace else CHILD_TIMEOUT_S
    args = [str(BUILD / "thorbench"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--out-dir", str(OUT), *extra]
    try:
        return subprocess.run(args, cwd=ROOT, timeout=timeout,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        log(f"thorbench: {workload} exceeded {timeout}s")
        return None


def run_end_to_end(workload, seed, seconds):
    """The untraced measurement, split over PROCESSES[workload] fresh
    processes of equal length.

    Throughput under lock contention settles into a per-process level
    (thread and memory placement) that differs run to run by more than the
    in-process spread, so each figure is the median over processes; set-up
    runs once per process, giving a median over the processes' set-ups.
    Process p of n replays the pages of probe seed seed*n + p: how much
    work a page set costs varies with its probe words (on serve_drift, how
    many relearns it triggers), and several sets per run sample that
    variation more widely than one.
    """
    processes = PROCESSES[workload]
    results = []
    for part in range(processes):
        run = run_workload(workload, seed * processes + part,
                           seconds / processes, 0, capture=True)
        if run is None or run.returncode != 0:
            return 1
        sys.stdout.write(run.stdout[:run.stdout.rstrip().rfind("\n") + 1])
        results.append(json.loads(run.stdout.strip().splitlines()[-1]))
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values),
                         "unit": first["unit"]}
    print(json.dumps({"correct": True,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


def detail_of(run):
    for line in run.stdout.splitlines():
        if line.startswith("thorbench-detail "):
            return json.loads(line.split(" ", 1)[1])
    return None


def shape_failures(details):
    """The metric shapes every seed pair must show; returns what failed."""
    value = lambda workload, key: details[workload]["shape"][key]["value"]
    failures = []
    hot = value("serve_hot", "items_per_s")
    learn_pages = (value("learn_cold", "items_per_s")
                   * value("serve_hot", "pages_per_site"))
    if hot < 5 * learn_pages:
        failures.append(f"serve_hot {hot:.0f} pages/s is not 5x learn_cold "
                        f"{learn_pages:.0f} pages/s")
    rate = value("serve_net", "max_rate_rps")
    if not rate < hot:
        failures.append(f"serve_net max rate {rate:.0f} req/s is not below "
                        f"serve_hot {hot:.0f} pages/s")
    for epoch in range(1, 4):
        relearn = value("serve_drift", f"epoch{epoch}_hit_relearn")
        static = value("serve_drift", f"epoch{epoch}_hit_static")
        base = value("serve_drift", "epoch0_hit_relearn")
        if not (relearn > static and relearn > 0.75 * base):
            failures.append(f"serve_drift epoch {epoch}: hit ratio "
                            f"{relearn:.3f} (static {static:.3f}, epoch 0 "
                            f"{base:.3f}) did not recover")
    return failures


def check_shapes(seconds):
    ok = True
    for label, seed, train in [("default", DEFAULT_SEED, DEFAULT_TRAIN_SEED),
                               ("held-out", HELD_OUT_SEED, HELD_OUT_TRAIN_SEED)]:
        details = {}
        for workload in WORKLOADS:
            run = run_workload(workload, seed, seconds, 0,
                               ["--train-seed", str(train)], capture=True)
            detail = detail_of(run) if run is not None else None
            if run is None or run.returncode != 0 or detail is None:
                log(f"{label}: {workload} failed")
                return False
            details[workload] = detail
        failures = shape_failures(details)
        for failure in failures:
            log(f"{label}: {failure}")
        shapes = {w: {k: round(v["value"], 4) for k, v in d["shape"].items()}
                  for w, d in details.items()}
        print(json.dumps({"seeds": label, "seed": seed, "train_seed": train,
                          "ok": not failures, "shape": shapes}))
        ok = ok and not failures
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--check-shapes", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        if not build("thorbench_stats_test"):
            return 1
        return subprocess.run([str(BUILD / "thorbench_stats_test")]).returncode
    if not build("thorbench"):
        log("thorbench: build failed")
        return 1
    if args.check_shapes:
        return 0 if check_shapes(min(args.seconds, 5)) else 1
    if args.workload is None:
        parser.error("--workload is required")
    if args.trace == 0:
        return run_end_to_end(args.workload, args.seed, args.seconds)
    run = run_workload(args.workload, args.seed, args.seconds, 1)
    return 1 if run is None else run.returncode


if __name__ == "__main__":
    sys.exit(main())
