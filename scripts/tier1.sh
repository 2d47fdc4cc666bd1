#!/usr/bin/env bash
# Tier-1 verification: configure, build, run the full test suite.
#
#   scripts/tier1.sh                        # plain Release build + ctest
#   IPS_SANITIZE=thread scripts/tier1.sh    # same suite under TSan
#   IPS_SANITIZE=address scripts/tier1.sh   # same suite under ASan
#   IPS_SANITIZE=undefined scripts/tier1.sh # same suite under UBSan
#   scripts/tier1.sh --all                  # plain, then ASan, TSan, UBSan
#
# Sanitized builds use a separate build directory so they don't thrash the
# incremental plain build.
set -euo pipefail

cd "$(dirname "$0")/.."

# Cheap lints first: metric/span names in docs/METRICS.md must match the
# source tree, and every committed BENCH_*.json must be well-formed. Fails
# fast before any compile time is spent.
scripts/check_docs.sh
scripts/check_bench.sh

run_suite() {
  local sanitize="$1"
  local build_dir="build"
  local cmake_args=()
  if [[ -n "${sanitize}" ]]; then
    build_dir="build-${sanitize}"
    cmake_args+=("-DIPS_SANITIZE=${sanitize}")
  fi
  echo "=== tier1: ${sanitize:-plain} (${build_dir}) ==="
  cmake -B "${build_dir}" -S . "${cmake_args[@]}"
  cmake --build "${build_dir}" -j "$(nproc)"
  (cd "${build_dir}" && ctest --output-on-failure -j "$(nproc)")
  if [[ -z "${sanitize}" ]]; then
    # Release perf smoke: the serving-path allocation gates must hold in the
    # exact configuration we benchmark (NDEBUG, -O2): a warm-scratch query
    # makes 0 allocations into a reused result and <= 1 into a fresh one (the
    # read_hot query shape 0 into a reused one), a resident 16-pid
    # MultiQuery makes <= 19, and the perfbench-shaped
    # profile decodes and deep-copies in <= slices + 1
    # allocations. ctest already runs it, but an
    # explicit pass here keeps the gates visible when someone trims the ctest
    # set, and prints the alloc/zero-copy evidence into the tier-1 log.
    echo "=== tier1: perf smoke (bench_micro --smoke) ==="
    "${build_dir}/bench/bench_micro" --smoke
    # Stage-sum gate: traced single-profile Query stages must sum to within
    # 5% of the measured end-to-end latency on the hit and the miss path.
    echo "=== tier1: perf smoke (bench_table2_latency --smoke) ==="
    "${build_dir}/bench/bench_table2_latency" --smoke
    # Overload gate: replaying the recorded trace at 5x capacity, goodput
    # with the admission controller on must beat controller-off >= 2x.
    echo "=== tier1: perf smoke (bench_overload --smoke) ==="
    "${build_dir}/bench/bench_overload" --smoke
    # Write-path batching gate: under a concurrent FlushAll storm, flush
    # passes serialized by the cache's write-back lock, each draining the one
    # dirty list in groups, must pay <= 0.090 KV write round trips per
    # flushed pid (the deleted store-side coalescer's own result on this
    # storm), with no write errors.
    echo "=== tier1: perf smoke (bench_flush_storm --smoke) ==="
    "${build_dir}/bench/bench_flush_storm" --smoke
    # Parallel-drain gate: identical full-pass sets across worker configs,
    # and (on >=4-core hosts) the 1-worker storm must take >= 2x the
    # 4-worker storm.
    echo "=== tier1: perf smoke (bench_compaction_ablation --smoke) ==="
    "${build_dir}/bench/bench_compaction_ablation" --smoke
    # Smokes write no committed file: every BENCH_*.json artifact and
    # recorded trace must still match the checkout.
    if git rev-parse --is-inside-work-tree >/dev/null 2>&1 &&
        ! git diff --quiet -- 'BENCH_*.json' '*_trace.txt'; then
      echo "tier1: a perf smoke rewrote a committed artifact:" >&2
      git diff --stat -- 'BENCH_*.json' '*_trace.txt' >&2
      exit 1
    fi
  fi
  if [[ "${sanitize}" == "thread" ]]; then
    # The thread pool's contract (exact queue bound, drain-on-destroy, Submit
    # racing the destructor), the compaction due-flag storm (writers, batch
    # readers, eviction, flushes, Invalidate, kill-switch flips and pool
    # passes racing on one pid set, after which no resident entry may still
    # be flagged queued) with the manager's Submit + Drain + SetEnabled
    # storm, GCache's write-back step (flush, eviction and Invalidate racing
    # writers, queueing on the write-back lock and racing loads of the pids
    # they unmap), ReplicatedKv's slave drains (concurrent readers applying
    # the replication queue), the client's fan-out (callers reclaiming
    # sub-calls from the shared pool, the client destroyed right after a
    # storm, spans from both threads) and the instance's maintenance loop
    # (swap, flush and merge racing CreateTable, serving writes,
    # SetIsolationEnabled and the destructor) are the tests TSan exists for;
    # ctest runs them with the rest of the suite, but explicit passes keep the
    # race gates visible in the tier-1 log.
    echo "=== tier1: TSan thread pool (common_test) ==="
    (cd "${build_dir}" && ctest --output-on-failure -R common_test)
    echo "=== tier1: TSan due-flag storm (GCacheCompactionTest, CompactionManagerTest) ==="
    "${build_dir}/tests/gcache_test" --gtest_filter='GCacheCompactionTest.*'
    (cd "${build_dir}" && ctest --output-on-failure -R compaction_test)
    echo "=== tier1: TSan write-back step (GCacheTest) ==="
    (cd "${build_dir}" && ctest --output-on-failure -R gcache_test)
    # The write-back step's races (store-and-commit, unmap, the dirty list)
    # get ten schedules per run, not one.
    "${build_dir}/tests/gcache_test" --gtest_repeat=10 \
      --gtest_filter='GCacheTest.*Evict*:GCacheTest.*Invalidate*:GCacheTest.WriteBacks*:GCacheTest.FlushAll*'
    echo "=== tier1: TSan replication drains (kvstore_test) ==="
    (cd "${build_dir}" && ctest --output-on-failure -R kvstore_test)
    echo "=== tier1: TSan client fan-out (cluster_test, trace_test) ==="
    (cd "${build_dir}" && ctest --output-on-failure -R 'cluster_test|trace_test')
    echo "=== tier1: TSan maintenance loop (ips_instance_test) ==="
    (cd "${build_dir}" && ctest --output-on-failure -R ips_instance_test)
  fi
}

if [[ "${1:-}" == "--all" ]]; then
  for sanitize in "" address thread undefined; do
    run_suite "${sanitize}"
  done
else
  run_suite "${IPS_SANITIZE:-}"
fi
