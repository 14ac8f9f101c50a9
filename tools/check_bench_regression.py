#!/usr/bin/env python3
"""CI gate: the hot extraction path must stay fast relative to legacy.

Reads a google-benchmark JSON report containing BM_ParseLocate (legacy
parse + locate) and BM_HotParseLocate (arena parse + locate), computes the
hot/legacy time ratio, and compares it against the committed baseline in
BENCH_micro_baseline.json. The *ratio* is what gets committed, not raw
nanoseconds: both sides run in the same process on the same host, so the
number is meaningful across differently-sized CI runners where absolute
timings are not.

Fails (exit 1) when the measured ratio exceeds the baseline ratio by more
than the baseline's allowed_regression fraction (default 0.2 = 20%).

Usage:
  bench_micro --benchmark_filter='BM_(Hot)?ParseLocate' \
      --benchmark_format=json > report.json
  check_bench_regression.py report.json BENCH_micro_baseline.json

Second mode (--serve-network): structural gate on the networked-serving
bench JSON (bench_serve_network). Absolute throughput is host-dependent,
so the gate checks shape invariants that must hold on any host:
  - every run completed its full request count with zero client errors;
  - the best multi-connection throughput beats the single-connection run
    (concurrency must pay for itself somewhere in the sweep);
  - at the highest concurrency, p99 stays within a generous multiple of
    p50 — the backlog cap and per-connection fairness bound the tail.

Usage:
  bench_serve_network 4 1024 report.json
  check_bench_regression.py --serve-network report.json

Third mode (--fleet): structural gate on the fleet-failover bench JSON
(bench_fleet_failover). Host-independent shape invariants:
  - both phases completed every request with zero untyped errors;
  - the healthy phase shed nothing at all;
  - the failover phase actually failed over: redirects and breaker
    ejections are visible in the counters, and typed sheds stay a
    minority of the phase;
  - the failover tail stays within a generous multiple of the healthy
    tail — a refused loopback connect must cost microseconds, never a
    timeout.

Usage:
  bench_fleet_failover 2048 report.json
  check_bench_regression.py --fleet report.json

Fourth mode (--scaling): in-process scaling gate on the threaded hot
parse+locate bench (BM_ThreadedHotParseLocate, one extractor per thread).
The aggregate items/s at T = min(cores, 4) threads must reach at least
0.5 * T times the 1-thread rate, measured in the same process, so the
ratio is host-independent where raw rates are not. A lock or other shared
state on the parse path caps the ratio near 1x. Skipped (exit 0, reason
printed) on a host with fewer than 2 cores, where there is no T > 1 run.

Usage:
  bench_micro --benchmark_filter='BM_ThreadedHotParseLocate' \
      --benchmark_format=json > report.json
  check_bench_regression.py --scaling report.json
"""

import json
import os
import sys

SCALING_BENCH = "BM_ThreadedHotParseLocate"
SCALING_EFFICIENCY = 0.5


def real_time(report, name):
    for bench in report.get("benchmarks", []):
        if bench.get("name") == name:
            return float(bench["real_time"])
    raise SystemExit(f"error: benchmark '{name}' missing from report")


def check_serve_network(path):
    """Exit code for the --serve-network structural gate."""
    with open(path) as f:
        report = json.load(f)
    results = report.get("results", [])
    if not results:
        raise SystemExit("error: no results in serve-network report")
    expected = int(report.get("requests_per_run", 0))
    failures = []
    for run in results:
        conns = run["connections"]
        if int(run.get("errors", 0)) != 0:
            failures.append(f"{conns} conns: {run['errors']} client errors")
        if int(run.get("requests", 0)) < expected:
            failures.append(
                f"{conns} conns: served {run['requests']}/{expected} requests"
            )
    single = [r for r in results if r["connections"] == 1]
    multi = [r for r in results if r["connections"] > 1]
    if single and multi:
        base = float(single[0]["throughput_rps"])
        best = max(float(r["throughput_rps"]) for r in multi)
        print(
            f"throughput: 1 conn {base:.0f} req/s, "
            f"best multi-conn {best:.0f} req/s"
        )
        if best < base:
            failures.append(
                f"no concurrency win: best multi-conn {best:.0f} req/s "
                f"< single-conn {base:.0f} req/s"
            )
    top = max(results, key=lambda r: r["connections"])
    tail_limit = 50.0
    p50 = float(top["p50_ms"])
    p99 = float(top["p99_ms"])
    print(
        f"tail at {top['connections']} conns: p50 {p50:.2f}ms, "
        f"p99 {p99:.2f}ms (limit {tail_limit:.0f}x p50)"
    )
    if p50 > 0 and p99 > tail_limit * p50:
        failures.append(
            f"unbounded tail at {top['connections']} conns: "
            f"p99 {p99:.2f}ms > {tail_limit:.0f}x p50 {p50:.2f}ms"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("OK: networked serving within budget")
    return 0


def check_fleet(path):
    """Exit code for the --fleet structural gate."""
    with open(path) as f:
        report = json.load(f)
    phases = {p["phase"]: p for p in report.get("phases", [])}
    counters = report.get("counters", {})
    if "healthy" not in phases or "failover" not in phases:
        raise SystemExit("error: fleet report is missing a phase")
    expected = int(report.get("requests_per_phase", 0))
    failures = []
    for name, phase in phases.items():
        if int(phase.get("errors", 0)) != 0:
            failures.append(f"{name}: {phase['errors']} untyped errors")
        if int(phase.get("requests", 0)) < expected:
            failures.append(
                f"{name}: {phase['requests']}/{expected} responses"
            )
    healthy = phases["healthy"]
    failover = phases["failover"]
    if int(healthy.get("shed", 0)) != 0:
        failures.append(f"healthy phase shed {healthy['shed']} requests")
    if int(failover.get("shed", 0)) >= expected / 2:
        failures.append(
            f"failover shed {failover['shed']}/{expected} — "
            "redirects never engaged"
        )
    redirects = int(counters.get("fleet.redirects", 0))
    ejections = int(counters.get("fleet.ejections", 0))
    print(f"failover counters: {redirects} redirects, {ejections} ejections")
    if redirects < 1:
        failures.append("no redirects recorded — the kill was not absorbed")
    if ejections < 1:
        failures.append("no ejections recorded — the breaker never opened")
    tail_limit = 50.0
    healthy_p99 = float(healthy["p99_ms"])
    failover_p99 = float(failover["p99_ms"])
    limit = max(tail_limit * healthy_p99, 100.0)
    print(
        f"tail: healthy p99 {healthy_p99:.2f}ms, "
        f"failover p99 {failover_p99:.2f}ms (limit {limit:.0f}ms)"
    )
    if failover_p99 > limit:
        failures.append(
            f"failover tail blew up: p99 {failover_p99:.2f}ms > "
            f"{limit:.0f}ms"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("OK: fleet failover within budget")
    return 0


def check_scaling(path):
    """Exit code for the --scaling in-process scaling gate."""
    cores = len(os.sched_getaffinity(0))
    if cores < 2:
        print(f"SKIP: scaling gate needs >= 2 cores, this host has {cores}")
        return 0
    with open(path) as f:
        report = json.load(f)
    rates = {}
    for bench in report.get("benchmarks", []):
        if bench.get("name", "").startswith(SCALING_BENCH + "/"):
            rates[int(bench["threads"])] = float(bench["items_per_second"])
    if 1 not in rates:
        raise SystemExit(f"error: {SCALING_BENCH} threads:1 missing")
    threads = max(rates)
    if threads < 2:
        print(f"SKIP: report has no multi-thread {SCALING_BENCH} run")
        return 0
    need = SCALING_EFFICIENCY * threads * rates[1]
    print(
        f"hot parse+locate: 1 thread {rates[1]:.0f} items/s, "
        f"{threads} threads {rates[threads]:.0f} items/s "
        f"({rates[threads] / rates[1]:.2f}x, need "
        f">= {SCALING_EFFICIENCY * threads:.2f}x)"
    )
    if rates[threads] < need:
        print(
            f"FAIL: {threads} threads reach {rates[threads]:.0f} items/s "
            f"< {need:.0f}; the hot parse path does not scale with cores"
        )
        return 1
    print("OK: hot parse path scales with cores")
    return 0


def main(argv):
    if len(argv) == 3 and argv[1] == "--serve-network":
        return check_serve_network(argv[2])
    if len(argv) == 3 and argv[1] == "--fleet":
        return check_fleet(argv[2])
    if len(argv) == 3 and argv[1] == "--scaling":
        return check_scaling(argv[2])
    if len(argv) != 3:
        raise SystemExit(__doc__)
    with open(argv[1]) as f:
        report = json.load(f)
    with open(argv[2]) as f:
        baseline = json.load(f)

    hot = real_time(report, "BM_HotParseLocate")
    legacy = real_time(report, "BM_ParseLocate")
    if legacy <= 0:
        raise SystemExit("error: non-positive legacy time in report")
    ratio = hot / legacy

    base = float(baseline["hot_over_legacy_parse_locate"])
    allowed = base * (1.0 + float(baseline.get("allowed_regression", 0.2)))
    print(
        f"hot/legacy parse+locate ratio: {ratio:.3f} "
        f"(baseline {base:.3f}, limit {allowed:.3f})"
    )
    if ratio > allowed:
        print(
            "FAIL: hot path regressed more than "
            f"{float(baseline.get('allowed_regression', 0.2)):.0%} "
            "vs the committed baseline.\n"
            "If the slowdown is intentional and justified, re-measure and "
            "update BENCH_micro_baseline.json in the same change."
        )
        return 1
    print("OK: hot path within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
