// Figure 18 reproduction: cache hit ratio and memory usage ratio of an IPS
// node over time.
//
// Paper result: typical cache hit ratio above 90%; memory usage ratio
// stable around 85% (the swap threshold), thanks to the profile split and
// cache management machinery.
//
// Reproduced claims: (a) under Zipf-skewed traffic with a working set
// larger than the cache, the hit ratio settles above 90%; (b) the
// instance's maintenance loop, swapping the sharded LRU every tick, holds
// the memory usage ratio at the configured high watermark instead of
// oscillating or overshooting.
#include "bench/bench_util.h"

namespace ips {
namespace {

constexpr int kWindows = 14;
constexpr int kOpsPerWindow = 8'000;

void Run() {
  std::printf(
      "=== Fig 18: cache hit ratio and memory usage over time ===\n"
      "paper: hit ratio >90%%; memory usage stable ~85%%\n\n");

  ManualClock clock(700 * kMillisPerDay);
  DeploymentOptions options = bench::SingleRegion(/*calibrated=*/false);
  options.discovery_ttl_ms = 365 * kMillisPerDay;
  // Cache deliberately smaller than the working set.
  options.instance.cache.memory_limit_bytes = 32u << 20;
  options.instance.cache.high_watermark = 0.85;
  options.instance.cache.low_watermark = 0.80;
  Deployment deployment(options, &clock);
  TableSchema schema = DefaultTableSchema("user_profile");
  if (!deployment.CreateTableEverywhere(schema).ok()) return;

  WorkloadOptions workload_options;
  workload_options.num_users = 20'000;
  workload_options.user_zipf_theta = 0.99;
  workload_options.seed = 18;
  WorkloadGenerator workload(workload_options);

  IpsClientOptions client_options;
  client_options.caller = "ranker";
  client_options.local_region = "lf";
  IpsClient client(client_options, &deployment);
  auto* node = deployment.NodesInRegion("lf")[0];

  // Warm-up: build profile history so entries have realistic footprints.
  bench::Preload(deployment, workload, "user_profile", 120'000,
                 clock.NowMs(), 30 * kMillisPerDay);

  bench::PrintHeader({"window", "hit_pct", "mem_pct", "profiles",
                      "evicted", "flushed"});

  MetricsRegistry* metrics = deployment.metrics();
  double final_hit = 0, final_mem = 0;
  for (int window = 0; window < kWindows; ++window) {
    const int64_t hits_before = metrics->GetCounter("cache.hit")->Value();
    const int64_t misses_before = metrics->GetCounter("cache.miss")->Value();
    for (int op = 0; op < kOpsPerWindow; ++op) {
      ProfileId uid;
      if (op % 11 == 10) {
        auto records = workload.NextAddBatch(clock.NowMs(), &uid);
        client.AddProfiles("user_profile", uid, records).ok();
      } else {
        QuerySpec spec = workload.NextQuerySpec(&uid);
        client.Query("user_profile", uid, spec).ok();
      }
    }
    auto stats = node->instance().GetTableStats("user_profile");
    if (!stats.ok()) return;
    const int64_t hits = metrics->GetCounter("cache.hit")->Value() -
                         hits_before;
    const int64_t misses = metrics->GetCounter("cache.miss")->Value() -
                           misses_before;
    const double window_hit =
        100.0 * static_cast<double>(hits) /
        static_cast<double>(std::max<int64_t>(1, hits + misses));
    final_hit = window_hit;
    final_mem = 100.0 * stats->memory_usage_ratio;

    bench::PrintCell(static_cast<int64_t>(window + 1));
    bench::PrintCell(window_hit);
    bench::PrintCell(final_mem);
    bench::PrintCell(static_cast<int64_t>(stats->cached_profiles));
    bench::PrintCell(metrics->GetCounter("cache.evicted")->Value());
    bench::PrintCell(metrics->GetCounter("cache.flushed")->Value());
    bench::EndRow();
    clock.AdvanceMs(kMillisPerHour);
    deployment.HeartbeatAll();
  }

  std::printf(
      "\nshape checks vs paper:\n"
      "  steady-state hit ratio: %.1f%% (paper: >90%%)\n"
      "  steady-state memory usage: %.1f%% (paper: ~85%%, the swap "
      "threshold)\n",
      final_hit, final_mem);
}

}  // namespace
}  // namespace ips

int main() {
  ips::Run();
  return 0;
}
