#!/usr/bin/env python3
"""End-to-end serving benchmark runner.

Builds perfbench/ (which compiles the repository's libraries from src/) into
.bench_build/perfbench, runs the serve_bench binary and prints the result.

  python3 perfbench/run.py --workload read_hot --seed 1 --seconds 10 --trace 0
      One workload. --trace 0 reports the end-to-end metrics of
      BENCHMARK.json; --trace 1 reports its per-layer metrics (a traced run,
      an untraced reference run and an allocation-counting run).
  python3 perfbench/run.py --all [--seed N] [--seconds S]
      Every workload, end-to-end metrics as a table, with read_p90_us,
      read_p99_us, write_* and failed_frac that the JSON result leaves out.
  python3 perfbench/run.py --selftest
      Very short runs that must print every named metric with its unit, and
      runs with a deliberately wrong canary or write expectation that must
      fail.

The last stdout line of a single-workload run is one JSON object with the
keys correct, attempted, failed and metrics. A run whose correctness gate
fails, or in which any call failed, prints no result and exits non-zero.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("read_hot", "read_miss", "ingest_mixed")
# Processes per end-to-end run, each with its own set-up and a share of the
# window.
MEASURED = 6
# Every invocation must finish within this many seconds.
BUDGET_S = 170

NOTES = (
    "note: stage p50/p99 are per node call; a client call fans out to both "
    "nodes in parallel, so stage totals add up busy time, not wall time",
    "note: background flush, eviction, merge and compaction threads record "
    "no spans; their layers are covered by counters only",
)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures on first use and builds incrementally; exits on failure."""
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 4)])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            sys.exit(1)


def serve_bench(binary, workload, seed, seconds, deadline, mode="untraced",
                flags=()):
    """Runs one serve_bench process; returns its parsed result or None."""
    cmd = [os.path.join(BUILD, binary), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           *flags]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"{binary} {workload}: timed out after {timeout:.0f}s")
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"{binary} {workload}: exit {proc.returncode}, no result")
        return None
    return json.loads(lines[-1])


def end_to_end(workload, seed, seconds, deadline, better):
    """MEASURED processes share the window; each metric is their best value.

    A process is the unit of run-to-run variation here (thread placement,
    heap layout, which episode of host contention it overlaps), so several
    shorter windows are steadier than one long one. Host contention only
    ever slows the program, so a metric named in `better` is the best value
    over the processes (the highest where higher is better, else the
    lowest); one process that misses a contention episode is enough. Other
    figures are medians. Each process sets up its own deployment, and
    setup_s is the best of those set-ups.
    """
    per_process = max(1, round(seconds / MEASURED))
    runs = []
    for _ in range(MEASURED):
        run = serve_bench("serve_bench", workload, seed, per_process, deadline)
        if run is None:
            return None
        runs.append(run)
    pick = {"higher": max, "lower": min}
    return {
        "inputs_digest": runs[0]["inputs_digest"],
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {
            name: pick.get(better.get(name), statistics.median)(
                r["metrics"][name] for r in runs)
            for name in runs[0]["metrics"]},
    }


def per_layer(workload, seed, seconds, deadline):
    """Traced run plus its untraced reference and the allocation count.

    Each gets half the window: the traced run keeps every call's span tree
    in memory until its window closes (about 2.5 KB per call).
    """
    half = max(1, seconds // 2)
    plain = serve_bench("serve_bench", workload, seed, half, deadline)
    if plain is None:
        return None
    traced = serve_bench("serve_bench", workload, seed, half, deadline,
                         mode="traced")
    if traced is None:
        return None
    allocs = serve_bench("serve_bench_allocs", workload, seed, half, deadline)
    if allocs is None:
        return None
    metrics = dict(traced["metrics"])
    for name in ("read_p90_us", "read_p99_us", "write_p50_us", "write_p99_us",
                 "failed_frac"):
        metrics[name] = plain["metrics"][name]
    metrics["path.allocs_per_op"] = allocs["metrics"]["path.allocs_per_op"]
    metrics["path.trace_overhead_frac"] = (
        1.0 - traced["metrics"]["ops_per_s"] / plain["metrics"]["ops_per_s"])
    return {
        "inputs_digest": traced["inputs_digest"],
        "attempted": sum(r["attempted"] for r in (plain, traced, allocs)),
        "failed": sum(r["failed"] for r in (plain, traced, allocs)),
        "metrics": metrics,
    }


def directions(spec):
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def result_line(run, wanted):
    metrics = {}
    for m in wanted:
        if m["name"] not in run["metrics"]:
            log(f"metric {m['name']} missing from the serve_bench output")
            return None
        metrics[m["name"]] = {"value": run["metrics"][m["name"]],
                              "unit": m["unit"]}
    return {"correct": True, "attempted": run["attempted"],
            "failed": run["failed"], "metrics": metrics}


def single(args, spec):
    deadline = time.monotonic() + BUDGET_S
    build()
    if args.trace:
        run = per_layer(args.workload, args.seed, args.seconds, deadline)
        wanted = spec["per_layer"]
    else:
        run = end_to_end(args.workload, args.seed, args.seconds, deadline,
                         directions(spec))
        wanted = spec["end_to_end"]
    if run is None or run["failed"] != 0:
        return 1
    line = result_line(run, wanted)
    if line is None:
        return 1
    print(f"workload {args.workload} seed {args.seed} "
          f"inputs_digest {run['inputs_digest']}")
    for name, m in line["metrics"].items():
        print(f"  {name:36s} {m['value']:>16.6g} {m['unit']}")
    if args.trace:
        for note in NOTES:
            print(note)
    print(json.dumps(line))
    return 0


# The table's end-to-end metrics: BENCHMARK.json bounds the ones that exist
# on every workload and hold steady on this host; read_p90_us and read_p99_us
# (too noisy to bound), write_* (absent on read_miss) and failed_frac (0 by
# the gate) are reported here and in the traced run.
TABLE = (("ops_per_s", "1/s"), ("read_p50_us", "us"), ("read_p90_us", "us"),
         ("read_p99_us", "us"),
         ("write_p50_us", "us"), ("write_p99_us", "us"),
         ("cpu_us_per_op", "us"), ("failed_frac", "frac"),
         ("peak_rss_mb", "MB"), ("setup_s", "s"))


def run_all(args, spec):
    build()
    rc = 0
    print(f"{'metric':16s} {'unit':5s}" +
          "".join(f"{w:>14s}" for w in WORKLOADS))
    rows = {}
    for w in WORKLOADS:
        run = end_to_end(w, args.seed, args.seconds,
                         time.monotonic() + BUDGET_S, directions(spec))
        if run is None or run["failed"] != 0:
            rc = 1
            continue
        rows[w] = run["metrics"]
        log(f"{w}: inputs_digest {run['inputs_digest']}")
    for name, unit in TABLE:
        cells = []
        for w in WORKLOADS:
            m = rows.get(w)
            absent = m is None or (name.startswith("write_")
                                   and m["write_samples"] == 0)
            cells.append(f"{'n/a':>14s}" if absent else f"{m[name]:>14.6g}")
        print(f"{name:16s} {unit:5s}" + "".join(cells))
    return rc


def selftest(spec):
    build()
    ok = True
    for w in WORKLOADS:
        deadline = time.monotonic() + BUDGET_S
        for wanted, run in (
                (spec["end_to_end"],
                 end_to_end(w, 1, 1, deadline, directions(spec))),
                (spec["per_layer"], per_layer(w, 1, 2, deadline))):
            line = None if run is None else result_line(run, wanted)
            if line is None or any(not m["unit"]
                                   for m in line["metrics"].values()):
                log(f"selftest: {w}: metrics incomplete")
                ok = False
    # A wrong canary total and one acknowledged write left out of the
    # expected totals must each fail the run.
    for workload, what in (("read_hot", "canary"), ("ingest_mixed", "write")):
        tampered = serve_bench("serve_bench", workload, 1, 1,
                               time.monotonic() + BUDGET_S,
                               flags=("--tamper", what))
        if tampered is not None:
            log(f"selftest: --tamper {what} did not trip the gate")
            ok = False
    print("selftest " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.selftest:
        return selftest(spec)
    if args.all:
        return run_all(args, spec)
    if args.workload is None:
        parser.error("--workload, --all or --selftest is required")
    return single(args, spec)


if __name__ == "__main__":
    sys.exit(main())
