#!/usr/bin/env bash
# Bench-artifact lint: every BENCH_*.json committed at the repo root must be
# parseable JSON and self-describing — a top-level "bench" field naming the
# harness that produced it. Catches truncated writes and accidental commits
# of a --smoke artifact clobbering a full run (smoke files say "mode":
# "smoke"; committed artifacts must be full runs).
set -euo pipefail

cd "$(dirname "$0")/.."

shopt -s nullglob
files=(BENCH_*.json)
if [[ ${#files[@]} -eq 0 ]]; then
  echo "check_bench: no BENCH_*.json artifacts committed"
  exit 0
fi

python3 - "${files[@]}" <<'EOF'
import json
import sys

fail = 0
for path in sys.argv[1:]:
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"check_bench: {path}: invalid JSON: {e}", file=sys.stderr)
        fail = 1
        continue
    if not isinstance(doc, dict) or not isinstance(doc.get("bench"), str):
        print(f"check_bench: {path}: missing top-level string field 'bench'",
              file=sys.stderr)
        fail = 1
        continue
    if doc.get("mode") == "smoke":
        print(f"check_bench: {path}: is a --smoke artifact; commit the full "
              "run instead", file=sys.stderr)
        fail = 1
        continue
    if doc["bench"] == "compaction_ablation":
        # The committed artifact must satisfy the PR acceptance gate: every
        # drain row carries the full shape, worker configurations performed
        # the identical nonzero set of full passes, and — when the artifact
        # was produced on a host with >= 4 cores — the 1-worker storm took
        # >= 2x the multi-worker storm. Artifacts recorded on fewer cores
        # skip the ratio check (parallel drain cannot beat the clock on one
        # core).
        rows = doc.get("drain")
        required = {"workers", "storm_ms", "full_passes", "partial_passes"}
        if (not isinstance(rows, list) or len(rows) < 2
                or any(not required.issubset(r) for r in rows)):
            print(f"check_bench: {path}: compaction_ablation artifact needs "
                  f">= 2 'drain' rows each carrying {sorted(required)}",
                  file=sys.stderr)
            fail = 1
            continue
        serial = min(rows, key=lambda r: r["workers"])
        parallel = max(rows, key=lambda r: r["workers"])
        gate_ok = (serial["workers"] == 1 and parallel["workers"] >= 4
                   and serial["full_passes"] > 0
                   and serial["full_passes"] == parallel["full_passes"])
        cores = doc.get("cores", 0)
        if gate_ok and cores >= 4:
            gate_ok = (parallel["storm_ms"] > 0
                       and serial["storm_ms"] / parallel["storm_ms"] >= 2.0)
        if not gate_ok:
            print(f"check_bench: {path}: parallel-drain gate not met "
                  f"(cores={cores}): 1w={serial}, "
                  f"{parallel['workers']}w={parallel}", file=sys.stderr)
            fail = 1
            continue
    if doc["bench"] == "flush_storm":
        # The committed artifact must satisfy the full run's gate: no more
        # than 0.0606 KV write round trips per flushed pid (the deleted
        # store-side coalescer's own result on this storm).
        rows = doc.get("rows")
        required = {"flushed_pids", "kv_write_round_trips",
                    "writes_per_flushed_pid"}
        if (not isinstance(rows, list) or len(rows) != 1
                or not required.issubset(rows[0])):
            print(f"check_bench: {path}: flush_storm artifact needs one row "
                  f"carrying {sorted(required)}", file=sys.stderr)
            fail = 1
            continue
        row = rows[0]
        if row["flushed_pids"] <= 0 or row["writes_per_flushed_pid"] > 0.0606:
            print(f"check_bench: {path}: flush-storm gate not met: "
                  f"{row['writes_per_flushed_pid']} KV write round trips per "
                  f"flushed pid (need <= 0.0606)", file=sys.stderr)
            fail = 1
            continue
    print(f"check_bench: {path}: ok (bench={doc['bench']})")
sys.exit(fail)
EOF
