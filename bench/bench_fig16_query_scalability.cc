// Figure 16 reproduction: query throughput, p99 and p50 latency of an IPS
// cluster under diurnal (Spring-Festival-like) traffic.
//
// Paper result (1000+ machine cluster): 30-40 M feature queries/s at peak;
// p99 9-10 ms tracking the load curve, p50 flat at ~1 ms.
//
// One simulated node serves a *paced, open-loop* offered load that follows
// the same diurnal curve. The claims to reproduce are shape claims:
// (a) served throughput tracks the offered curve across a 2-3x day/night
// swing without saturation collapse at the peak, (b) p50 stays flat in the
// ~1 ms band the whole day, (c) p99 stays bounded at single-digit
// milliseconds, rising modestly at peak.
#include <atomic>
#include <thread>
#include <vector>

#include "bench/bench_util.h"

namespace ips {
namespace {

constexpr int kHoursSimulated = 24;
constexpr int kThreads = 4;
// Paced per-thread offered rate at the daily peak. Total peak offered load
// is kThreads * kPeakQpsPerThread.
constexpr double kPeakQpsPerThread = 70.0;
// Wall-clock seconds spent measuring each simulated hour.
constexpr double kSecondsPerHour = 1.2;

void Run() {
  std::printf(
      "=== Fig 16: query throughput and latency under diurnal load ===\n"
      "paper: peak 30-40M qps cluster-wide; p99 9-10 ms; p50 flat ~1 ms\n"
      "here:  one node, paced offered load following the diurnal curve\n\n");

  ManualClock sim_clock(500 * kMillisPerDay);
  DeploymentOptions options = bench::SingleRegion(/*calibrated=*/true);
  options.discovery_ttl_ms = 365 * kMillisPerDay;
  options.instance.cache.memory_limit_bytes = 512u << 20;
  Deployment deployment(options, &sim_clock);
  TableSchema schema = DefaultTableSchema("user_profile");
  if (!deployment.CreateTableEverywhere(schema).ok()) return;

  WorkloadOptions workload_options;
  workload_options.num_users = 20'000;
  workload_options.seed = 16;
  WorkloadGenerator preload_workload(workload_options);
  bench::Preload(deployment, preload_workload, "user_profile", 60'000,
                 sim_clock.NowMs(), 30 * kMillisPerDay);
  // Bring profiles to production steady state: the paper's slice lists
  // average 62 entries because compaction continuously consolidates them.
  deployment.NodesInRegion("lf")[0]
      ->instance()
      .CompactTableNow("user_profile")
      .ok();

  bench::PrintHeader({"hour", "offered_qps", "served", "served_qps",
                      "p50_ms", "p99_ms", "errors"});

  double peak_served = 0, trough_served = 1e18;
  double max_p50 = 0, min_p50 = 1e18, max_p99 = 0;
  for (int hour = 0; hour < kHoursSimulated; ++hour) {
    const double load = DiurnalLoadFactor(hour * kMillisPerHour);
    const double thread_qps = kPeakQpsPerThread * load;
    const int queries_per_thread =
        static_cast<int>(thread_qps * kSecondsPerHour);
    const int64_t inter_arrival_ns =
        static_cast<int64_t>(1e9 / thread_qps);

    Histogram latency;
    std::atomic<int64_t> errors{0};
    const int64_t begin_ns = MonotonicNanos();
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        WorkloadOptions per_thread = workload_options;
        per_thread.seed = 1000 + hour * kThreads + t;
        WorkloadGenerator workload(per_thread);
        IpsClient client(bench::LocalClient("ranker"), &deployment);
        // Open-loop pacing: each request is due at a fixed offset; latency
        // does not slow the offered rate.
        int64_t next_due = MonotonicNanos();
        for (int q = 0; q < queries_per_thread; ++q) {
          next_due += inter_arrival_ns;
          while (MonotonicNanos() < next_due) {
            std::this_thread::yield();
          }
          ProfileId uid;
          QuerySpec spec = workload.NextQuerySpec(&uid);
          const int64_t q_begin = MonotonicNanos();
          auto result = client.Query("user_profile", uid, spec);
          latency.Record((MonotonicNanos() - q_begin) / 1000);
          if (!result.ok()) errors.fetch_add(1);
        }
      });
    }
    for (auto& t : threads) t.join();
    const double elapsed_sec =
        static_cast<double>(MonotonicNanos() - begin_ns) / 1e9;
    const double served =
        static_cast<double>(latency.count()) / elapsed_sec;

    peak_served = std::max(peak_served, served);
    trough_served = std::min(trough_served, served);
    const double p50 = bench::UsToMs(latency.Percentile(0.50));
    const double p99 = bench::UsToMs(latency.Percentile(0.99));
    max_p50 = std::max(max_p50, p50);
    min_p50 = std::min(min_p50, p50);
    max_p99 = std::max(max_p99, p99);

    bench::PrintCell(static_cast<int64_t>(hour));
    bench::PrintCell(thread_qps * kThreads);
    bench::PrintCell(latency.count());
    bench::PrintCell(served);
    bench::PrintCell(p50);
    bench::PrintCell(p99);
    bench::PrintCell(errors.load());
    bench::EndRow();

    sim_clock.AdvanceMs(kMillisPerHour);
    deployment.HeartbeatAll();
  }

  std::printf(
      "\nshape checks vs paper:\n"
      "  peak/trough served throughput ratio: %.2fx — tracks the offered "
      "diurnal swing (no saturation collapse; paper's curve ~2-3x)\n"
      "  p50 range: %.2f - %.2f ms (paper: flat ~1 ms)\n"
      "  max p99:   %.2f ms (paper: 9-10 ms, single-digit order)\n",
      peak_served / trough_served, min_p50, max_p50, max_p99);
}

}  // namespace
}  // namespace ips

int main() {
  ips::Run();
  return 0;
}
