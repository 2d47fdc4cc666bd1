// Flush-storm ablation: the store-side Coalescer (cross-shard flush
// coalescing + in-flight store-back dedup) vs the coalescer-off ablation.
//
// Writer threads keep dirtying a Zipf-skewed working set while flusher
// threads hammer FlushAll concurrently — the regime of aggressive flush
// intervals, failover write-backs and shutdown storms. Without the coalescer
// every flush pass pays one KvStore::MultiSet per dirty shard it drains, so
// concurrent small passes multiply round trips; with it, groups from
// different shards and different passes arriving while a MultiSet is on the
// wire group-commit into the next one, and a hot pid re-flushed while its
// store-back is on the wire rides or requeues instead of racing. The measured series is KV
// write round trips per flushed pid (PointWriteCalls + MultiSetCalls deltas
// over the cache.flushed delta).
//
// `--smoke` runs a shortened storm and exits nonzero unless the coalescer cuts
// write round trips per flushed pid by >= 3x with
// store_broker.cross_shard_batches > 0 (the PR acceptance gate). The full
// run emits BENCH_flush_storm.json.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/histogram.h"
#include "server/ips_instance.h"

namespace ips {
namespace {

constexpr int64_t kMinute = kMillisPerMinute;
constexpr int64_t kDay = kMillisPerDay;
constexpr const char* kTable = "user_profile";
constexpr size_t kNumUsers = 128;
constexpr size_t kWriterThreads = 4;
constexpr size_t kFlusherThreads = 4;

struct RunResult {
  bool broker = false;
  size_t writes = 0;
  size_t errors = 0;
  size_t flush_passes = 0;
  int64_t flushed = 0;
  int64_t kv_writes = 0;
  int64_t single_flight = 0;
  int64_t cross_shard = 0;
  int64_t requeued = 0;
  double mean_batch_pids = 0;
  double elapsed_ms = 0;
  double WritesPerFlush() const {
    return flushed == 0 ? 0
                        : static_cast<double>(kv_writes) /
                              static_cast<double>(flushed);
  }
};

IpsInstanceOptions BenchInstanceOptions(bool broker_on) {
  IpsInstanceOptions options;
  options.start_background_threads = false;
  options.isolation_enabled = false;
  options.cache.memory_limit_bytes = 64 << 20;  // no eviction write-backs
  options.enable_load_broker = false;           // write path is the subject
  options.enable_store_broker = broker_on;
  return options;
}

RunResult RunConfig(bool broker_on, size_t writes_per_writer) {
  MemKvStore kv(bench::CalibratedKv());
  ManualClock clock(500 * kDay);
  IpsInstance instance(BenchInstanceOptions(broker_on), &kv, &clock);
  instance.CreateTable(DefaultTableSchema(kTable)).ok();

  const int64_t point_writes_before = kv.PointWriteCalls();
  const int64_t multi_sets_before = kv.MultiSetCalls();
  const int64_t flushed_before =
      instance.metrics()->GetCounter("cache.flushed")->Value();

  std::atomic<size_t> writers_running{kWriterThreads};
  std::atomic<size_t> errors{0};
  std::atomic<size_t> flush_passes{0};
  const auto start = std::chrono::steady_clock::now();

  std::vector<std::thread> writers;
  writers.reserve(kWriterThreads);
  for (size_t t = 0; t < kWriterThreads; ++t) {
    writers.emplace_back([&, t] {
      WorkloadOptions wopts;
      wopts.num_users = kNumUsers;
      wopts.user_zipf_theta = 0.8;  // skewed, but with a broad dirty set
      wopts.seed = 2000 + 77 * t;
      WorkloadGenerator workload(wopts);
      for (size_t w = 0; w < writes_per_writer; ++w) {
        // Think time desynchronizes the writers from the flush passes, so
        // dirty pids trickle in continuously instead of arriving in lumps.
        std::this_thread::sleep_for(
            std::chrono::microseconds(workload.rng().Uniform(300)));
        const ProfileId pid = workload.SampleUser();
        Status status = instance.AddProfile(
            "bench", kTable, pid, clock.NowMs() - kMinute, 1, 1,
            static_cast<FeatureId>(1 + w % 5), CountVector{1});
        if (!status.ok()) errors.fetch_add(1);
      }
      writers_running.fetch_sub(1);
    });
  }

  std::vector<std::thread> flushers;
  flushers.reserve(kFlusherThreads);
  for (size_t t = 0; t < kFlusherThreads; ++t) {
    flushers.emplace_back([&, t] {
      Rng rng(9000 + 131 * t);
      while (writers_running.load(std::memory_order_relaxed) > 0) {
        instance.FlushAll();
        flush_passes.fetch_add(1);
        // Long, random pauses keep the flushers out of lock-step with the
        // coalescer's dispatch cycle: a pass that lands while another pass's
        // store is on the wire exercises the single-flight table.
        std::this_thread::sleep_for(
            std::chrono::microseconds(rng.Uniform(1500)));
      }
    });
  }
  for (auto& t : writers) t.join();
  for (auto& t : flushers) t.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;

  // Measure the storm phase only: the single-threaded drain below has no
  // concurrency to coalesce, identically for both configs.
  RunResult r;
  r.broker = broker_on;
  r.writes = kWriterThreads * writes_per_writer;
  r.errors = errors.load();
  r.flush_passes = flush_passes.load();
  r.kv_writes = (kv.PointWriteCalls() - point_writes_before) +
                (kv.MultiSetCalls() - multi_sets_before);
  MetricsRegistry* metrics = instance.metrics();
  r.flushed = metrics->GetCounter("cache.flushed")->Value() - flushed_before;
  r.single_flight =
      metrics->GetCounter("store_broker.single_flight_hits")->Value();
  r.cross_shard =
      metrics->GetCounter("store_broker.cross_shard_batches")->Value();
  r.requeued = metrics->GetCounter("store_broker.requeued_pids")->Value();
  r.mean_batch_pids =
      metrics->GetHistogram("store_broker.batch_pids")->Mean();
  r.elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count();

  instance.FlushAll();  // quiesce before teardown
  return r;
}

void PrintRow(const RunResult& r) {
  bench::PrintCell(r.broker ? "on" : "off");
  bench::PrintCell(static_cast<int64_t>(r.writes));
  bench::PrintCell(static_cast<int64_t>(r.flush_passes));
  bench::PrintCell(r.flushed);
  bench::PrintCell(r.kv_writes);
  bench::PrintCell(r.WritesPerFlush());
  bench::PrintCell(r.single_flight);
  bench::PrintCell(r.cross_shard);
  bench::PrintCell(r.requeued);
  bench::PrintCell(r.mean_batch_pids);
  bench::EndRow();
}

void WriteJson(const std::vector<RunResult>& rows) {
  std::FILE* f = std::fopen("BENCH_flush_storm.json", "w");
  if (f == nullptr) {
    std::printf("could not write BENCH_flush_storm.json\n");
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"flush_storm\",\n  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const RunResult& r = rows[i];
    std::fprintf(
        f,
        "    {\"broker\": %s, \"writes\": %zu, \"flush_passes\": %zu, "
        "\"flushed_pids\": %lld, \"kv_write_round_trips\": %lld, "
        "\"writes_per_flushed_pid\": %.4f, \"single_flight_hits\": %lld, "
        "\"cross_shard_batches\": %lld, \"requeued_pids\": %lld, "
        "\"mean_batch_pids\": %.2f, \"elapsed_ms\": %.0f}%s\n",
        r.broker ? "true" : "false", r.writes, r.flush_passes,
        static_cast<long long>(r.flushed),
        static_cast<long long>(r.kv_writes), r.WritesPerFlush(),
        static_cast<long long>(r.single_flight),
        static_cast<long long>(r.cross_shard),
        static_cast<long long>(r.requeued), r.mean_batch_pids, r.elapsed_ms,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote BENCH_flush_storm.json\n");
}

int Run(bool smoke) {
  std::printf(
      "=== Flush storm: store Coalescer vs coalescer-off ablation (%s) ===\n"
      "%zu writers dirtying %zu Zipf users, %zu concurrent FlushAll threads;"
      "\nseries = KV write round trips per flushed pid\n",
      smoke ? "smoke" : "full", kWriterThreads, kNumUsers, kFlusherThreads);

  const size_t writes_per_writer = smoke ? 400 : 1500;

  bench::PrintHeader({"broker", "writes", "passes", "flushed", "kv_wr",
                      "wr_per_flush", "sflight", "xshard", "requeued",
                      "batch_pids"});
  const RunResult off = RunConfig(/*broker_on=*/false, writes_per_writer);
  const RunResult on = RunConfig(/*broker_on=*/true, writes_per_writer);
  PrintRow(off);
  PrintRow(on);

  const double ratio =
      on.WritesPerFlush() > 0 ? off.WritesPerFlush() / on.WritesPerFlush()
                              : 0;
  std::printf("%14s coalescer cuts KV write round trips per flushed pid %.1fx "
              "(%.3f -> %.3f)\n",
              "", ratio, off.WritesPerFlush(), on.WritesPerFlush());

  int rc = 0;
  if (off.errors + on.errors != 0) {
    std::printf("FAIL: %zu writes returned errors\n",
                off.errors + on.errors);
    rc = 1;
  }
  std::printf(
      "\nacceptance: write rt reduction %.1fx (need >= 3.0), "
      "cross_shard_batches %lld (need > 0)\n",
      ratio, static_cast<long long>(on.cross_shard));
  if (ratio < 3.0 || on.cross_shard <= 0) {
    std::printf("FAIL: flush coalescing gate not met\n");
    rc = 1;
  } else {
    std::printf("PASS\n");
  }
  if (!smoke) WriteJson({off, on});
  return rc;
}

}  // namespace
}  // namespace ips

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const int rc = ips::Run(smoke);
  // The full run is also gated: the acceptance line must hold either way.
  return rc;
}
