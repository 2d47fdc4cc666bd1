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
    # Release perf smoke: the serving-path allocation gate must hold in the
    # exact configuration we benchmark (NDEBUG, -O2). ctest already runs it,
    # but an explicit pass here keeps the gate visible when someone trims the
    # ctest set, and prints the alloc/zero-copy evidence into the tier-1 log.
    echo "=== tier1: perf smoke (bench_micro --smoke) ==="
    "${build_dir}/bench/bench_micro" --smoke
    # Read-path coalescing gate: the load-side Coalescer must keep cutting KV
    # round trips >= 3x at Zipf s=1.0 vs the coalescer-off ablation, with
    # live single-flight hits. ctest runs it too; this keeps the gate in the log.
    echo "=== tier1: perf smoke (bench_hotkey_skew --smoke) ==="
    "${build_dir}/bench/bench_hotkey_skew" --smoke
    # Overload gate: replaying the recorded trace at 5x capacity, goodput
    # with the admission controller on must beat controller-off >= 2x.
    echo "=== tier1: perf smoke (bench_overload --smoke) ==="
    "${build_dir}/bench/bench_overload" --smoke
    # Write-path coalescing gate: under a concurrent FlushAll storm, the
    # store-side Coalescer must cut KV write round trips per flushed pid >= 3x
    # vs the coalescer-off ablation, with cross-shard merges observed.
    echo "=== tier1: perf smoke (bench_flush_storm --smoke) ==="
    "${build_dir}/bench/bench_flush_storm" --smoke
    # Cache-tier gate: with a tiny L1 under eviction churn, the compressed L2
    # victim tier must cut KV read round trips per query >= 2x vs the
    # tier-off ablation, with live cache_l2.hit promotions.
    echo "=== tier1: perf smoke (bench_cache_tiers --smoke) ==="
    "${build_dir}/bench/bench_cache_tiers" --smoke
    # Parallel-drain gate: identical full-pass sets across worker configs,
    # and (on >=4-core hosts) the 1-worker storm must take >= 2x the
    # 4-worker storm.
    echo "=== tier1: perf smoke (bench_compaction_ablation --smoke) ==="
    "${build_dir}/bench/bench_compaction_ablation" --smoke
  fi
  if [[ "${sanitize}" == "thread" ]]; then
    # The thread pool's contract (exact queue bound, drain-on-destroy,
    # Submit racing the destructor), the drain-concurrency storm (concurrent
    # MaybeTrigger + Drain + SetEnabled flips over the pool), the
    # coalescer's group-commit storms (attach, claim, piggyback, requeue and
    # detach from many threads), GCache's write-back step (flush,
    # eviction and Invalidate racing writers and each other, with the L2
    # demotions), the client's fan-out (callers reclaiming sub-calls from
    # the shared pool, the client destroyed right after a storm, spans from
    # both threads) and the instance's maintenance loop (swap, flush and
    # merge racing CreateTable, serving writes, SetIsolationEnabled and the
    # destructor) are the tests TSan exists for; ctest runs them with the
    # rest of the suite, but explicit passes keep the race gates visible in
    # the tier-1 log.
    echo "=== tier1: TSan thread pool (common_test) ==="
    (cd "${build_dir}" && ctest --output-on-failure -R common_test)
    echo "=== tier1: TSan drain storm (CompactionManagerTest) ==="
    (cd "${build_dir}" && ctest --output-on-failure -R compaction_test)
    echo "=== tier1: TSan group-commit storm (CoalescerTest) ==="
    (cd "${build_dir}" && ctest --output-on-failure -R coalescer_test)
    echo "=== tier1: TSan write-back step (GCacheTest, VictimCacheTest) ==="
    (cd "${build_dir}" && ctest --output-on-failure -R 'gcache_test|victim_cache_test')
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
