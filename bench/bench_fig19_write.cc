// Figure 19 reproduction: add (write) throughput, p99 and p50 latency under
// diurnal traffic, with the paper's ~10:1 read:write mix running alongside.
//
// Paper result: peak 3-4 M writes/s cluster-wide (about a tenth of the
// query throughput); write p99 4-6 ms, p50 flat ~0.5 ms.
//
// Reproduced claims: (a) the served write throughput tracks the diurnal
// offered curve, (b) write p50 stays flat and well under the query p50,
// (c) write p99 stays single-digit milliseconds while reads hammer the same
// node, thanks to read-write isolation.
#include <atomic>
#include <thread>
#include <vector>

#include "bench/bench_util.h"

namespace ips {
namespace {

constexpr int kHoursSimulated = 24;
constexpr int kReadsPerWrite = 10;
constexpr int kThreads = 3;
// Paced open-loop offered write rate per thread at the daily peak; each
// write unit carries kReadsPerWrite accompanying reads (the 10:1 mix).
constexpr double kPeakWpsPerThread = 12.0;
constexpr double kSecondsPerHour = 2.0;

void Run() {
  std::printf(
      "=== Fig 19: add throughput and latency under diurnal load ===\n"
      "paper: peak 3-4M wps (~query/10); write p99 4-6 ms; p50 ~0.5 ms\n\n");

  ManualClock sim_clock(600 * kMillisPerDay);
  DeploymentOptions options = bench::SingleRegion(/*calibrated=*/true);
  options.discovery_ttl_ms = 365 * kMillisPerDay;
  options.instance.isolation_enabled = true;  // production default
  options.instance.isolation_merge_interval_ms = 500;
  options.instance.start_background_threads = true;
  Deployment deployment(options, &sim_clock);
  TableSchema schema = DefaultTableSchema("user_profile");
  if (!deployment.CreateTableEverywhere(schema).ok()) return;

  WorkloadOptions workload_options;
  workload_options.num_users = 20'000;
  workload_options.seed = 19;
  WorkloadGenerator preload_workload(workload_options);
  bench::Preload(deployment, preload_workload, "user_profile", 40'000,
                 sim_clock.NowMs(), 30 * kMillisPerDay);
  // Production steady state: slice lists consolidated by compaction.
  deployment.NodesInRegion("lf")[0]
      ->instance()
      .CompactTableNow("user_profile")
      .ok();

  bench::PrintHeader({"hour", "offered", "writes", "ach_wps", "w_p50_ms",
                      "w_p99_ms", "r_p50_ms"});

  double max_w_p50 = 0, min_w_p50 = 1e18, max_w_p99 = 0;
  double peak_wps = 0, trough_wps = 1e18;
  double read_p50_sum = 0;
  for (int hour = 0; hour < kHoursSimulated; ++hour) {
    const double load = DiurnalLoadFactor(hour * kMillisPerHour);
    const double thread_wps = kPeakWpsPerThread * load;
    const int writes_per_thread =
        static_cast<int>(thread_wps * kSecondsPerHour);
    const int64_t inter_arrival_ns =
        static_cast<int64_t>(1e9 / thread_wps);

    Histogram write_latency, read_latency;
    const int64_t begin_ns = MonotonicNanos();
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        WorkloadOptions per_thread = workload_options;
        per_thread.seed = 5000 + hour * kThreads + t;
        WorkloadGenerator workload(per_thread);
        IpsClient client(bench::LocalClient("ingest"), &deployment);
        int64_t next_due = MonotonicNanos();
        for (int w = 0; w < writes_per_thread; ++w) {
          next_due += inter_arrival_ns;
          while (MonotonicNanos() < next_due) {
            std::this_thread::yield();
          }
          ProfileId uid;
          auto records = workload.NextAddBatch(sim_clock.NowMs(), &uid);
          int64_t op_begin = MonotonicNanos();
          client.AddProfiles("user_profile", uid, records).ok();
          write_latency.Record((MonotonicNanos() - op_begin) / 1000);
          for (int r = 0; r < kReadsPerWrite; ++r) {
            ProfileId read_uid;
            QuerySpec spec = workload.NextQuerySpec(&read_uid);
            op_begin = MonotonicNanos();
            client.Query("user_profile", read_uid, spec).ok();
            read_latency.Record((MonotonicNanos() - op_begin) / 1000);
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    const double elapsed_sec =
        static_cast<double>(MonotonicNanos() - begin_ns) / 1e9;
    const double achieved_wps =
        static_cast<double>(write_latency.count()) / elapsed_sec;
    const double w_p50 = bench::UsToMs(write_latency.Percentile(0.50));
    const double w_p99 = bench::UsToMs(write_latency.Percentile(0.99));
    const double r_p50 = bench::UsToMs(read_latency.Percentile(0.50));
    max_w_p50 = std::max(max_w_p50, w_p50);
    min_w_p50 = std::min(min_w_p50, w_p50);
    max_w_p99 = std::max(max_w_p99, w_p99);
    peak_wps = std::max(peak_wps, achieved_wps);
    trough_wps = std::min(trough_wps, achieved_wps);
    read_p50_sum += r_p50;

    bench::PrintCell(static_cast<int64_t>(hour));
    bench::PrintCell(load);
    bench::PrintCell(write_latency.count());
    bench::PrintCell(achieved_wps);
    bench::PrintCell(w_p50);
    bench::PrintCell(w_p99);
    bench::PrintCell(r_p50);
    bench::EndRow();

    sim_clock.AdvanceMs(kMillisPerHour);
    deployment.HeartbeatAll();
  }

  std::printf(
      "\nshape checks vs paper:\n"
      "  peak/trough write throughput ratio: %.2fx (tracks the diurnal "
      "curve)\n"
      "  write p50 range: %.2f - %.2f ms (paper: flat ~0.5 ms)\n"
      "  max write p99:   %.2f ms (paper: 4-6 ms)\n"
      "  read:write mix held at %d:1 while writes stayed fast\n",
      peak_wps / trough_wps, min_w_p50, max_w_p50, max_w_p99,
      kReadsPerWrite);
}

}  // namespace
}  // namespace ips

int main() {
  ips::Run();
  return 0;
}
