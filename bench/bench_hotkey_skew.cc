// Hot-key skew sweep: the load-side Coalescer (server-side cross-request
// batching + single-flight dedup) vs the coalescer-off ablation, under Zipfian
// user popularity at s in {0.6, 0.8, 0.9, 0.99}. The sweep stays strictly
// inside ZipfGenerator's (0, 1) domain — the approximation degenerates at
// s >= 1 (and now aborts there); 0.99 is YCSB's standard hot anchor.
//
// Eight request threads issue single-profile queries against an instance
// whose cache is deliberately tiny, so the Zipf head keeps missing and every
// miss pays the calibrated KV round trip. Without the coalescer each miss
// loads inline (point reads per profile); with it, concurrent misses for the
// same hot pid share ONE fetch (single-flight) and misses arriving while a
// fetch is on the wire group-commit into the next KvStore::MultiGet. The
// measured series is
// storage round trips per query (PointReadCalls + MultiGetCalls deltas), the
// cost the paper's shared-profile design removes from the serving path.
//
// `--smoke` runs only s=0.99 and exits nonzero unless the coalescer cuts KV
// round trips per query by >= 3x with broker.single_flight_hits > 0 (the PR
// acceptance gate). The full run emits BENCH_hotkey_skew.json.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
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
constexpr size_t kNumUsers = 512;
constexpr size_t kThreads = 8;

struct RunResult {
  double theta = 0;
  bool broker = false;
  size_t queries = 0;
  size_t errors = 0;
  int64_t point_reads = 0;
  int64_t multi_gets = 0;
  int64_t single_flight = 0;
  int64_t batches = 0;
  int64_t dedup = 0;
  double hit_ratio = 0;
  double mean_ms = 0;
  double p99_ms = 0;
  double RtPerQuery() const {
    return queries == 0
               ? 0
               : static_cast<double>(point_reads + multi_gets) / queries;
  }
};

QuerySpec BenchSpec() {
  QuerySpec spec;
  spec.slot = 1;
  spec.time_range = TimeRange::Current(kDay);
  spec.sort_by = SortBy::kActionCount;
  spec.k = 10;
  return spec;
}

IpsInstanceOptions BenchInstanceOptions(bool broker_on) {
  IpsInstanceOptions options;
  options.start_background_threads = false;
  options.isolation_enabled = false;
  options.cache.write_granularity_ms = kMinute;
  // Tiny cache: the Zipf head cannot stay resident, so hot pids keep
  // missing — the regime where cross-request coalescing matters.
  options.cache.memory_limit_bytes = 8 * 1024;
  options.enable_load_broker = broker_on;
  return options;
}

// Persists kNumUsers profiles through a zero-latency store, then copies the
// bytes into the calibrated store every config reads from.
void SeedStore(MemKvStore& kv) {
  ManualClock clock(500 * kDay);
  MemKvStore fast_kv(bench::FastKv());
  IpsInstanceOptions options = BenchInstanceOptions(/*broker_on=*/false);
  options.cache.memory_limit_bytes = 64 << 20;  // seeding wants a real cache
  IpsInstance preload(options, &fast_kv, &clock);
  preload.CreateTable(DefaultTableSchema(kTable)).ok();
  for (ProfileId pid = 1; pid <= kNumUsers; ++pid) {
    for (int i = 1; i <= 3; ++i) {
      preload
          .AddProfile("preload", kTable, pid, clock.NowMs() - i * kMinute, 1,
                      1, static_cast<FeatureId>(i), CountVector{1})
          .ok();
    }
  }
  preload.FlushAll();
  fast_kv.ForEach([&](const std::string& key, const KvEntry& entry) {
    kv.Set(key, entry.value).ok();
  });
}

RunResult RunConfig(MemKvStore& kv, double theta, bool broker_on,
                    size_t queries_per_thread) {
  ManualClock clock(500 * kDay);
  IpsInstance instance(BenchInstanceOptions(broker_on), &kv, &clock);
  instance.CreateTable(DefaultTableSchema(kTable)).ok();
  const QuerySpec spec = BenchSpec();

  const int64_t points_before = kv.PointReadCalls();
  const int64_t multi_before = kv.MultiGetCalls();

  Histogram latency;
  std::mutex latency_mu;
  std::atomic<size_t> errors{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      WorkloadOptions wopts;
      wopts.num_users = kNumUsers;
      wopts.user_zipf_theta = theta;
      wopts.seed = 1000 + 77 * t;
      WorkloadGenerator workload(wopts);
      std::vector<int64_t> lats;
      lats.reserve(queries_per_thread);
      for (size_t q = 0; q < queries_per_thread; ++q) {
        // Short random think time: desynchronizes the request threads the
        // way independent frontends are desynchronized. Without it the
        // threads convoy on each shared batch (everyone wakes together and
        // lands in the next batch), which hides the single-flight path.
        std::this_thread::sleep_for(
            std::chrono::microseconds(workload.rng().Uniform(600)));
        const ProfileId pid = workload.SampleUser();
        const int64_t begin = MonotonicNanos();
        auto result = instance.Query("bench", kTable, pid, spec);
        lats.push_back((MonotonicNanos() - begin) / 1000);
        if (!result.ok()) errors.fetch_add(1);
      }
      std::lock_guard<std::mutex> lock(latency_mu);
      for (int64_t us : lats) latency.Record(us);
    });
  }
  for (auto& thread : threads) thread.join();

  RunResult r;
  r.theta = theta;
  r.broker = broker_on;
  r.queries = kThreads * queries_per_thread;
  r.errors = errors.load();
  r.point_reads = kv.PointReadCalls() - points_before;
  r.multi_gets = kv.MultiGetCalls() - multi_before;
  MetricsRegistry* metrics = instance.metrics();
  r.single_flight = metrics->GetCounter("broker.single_flight_hits")->Value();
  r.batches = static_cast<int64_t>(
      metrics->GetHistogram("broker.batch_pids")->count());
  r.dedup = metrics->GetCounter("broker.cross_request_dedup")->Value();
  const int64_t hits = metrics->GetCounter("cache.hit")->Value();
  const int64_t misses = metrics->GetCounter("cache.miss")->Value();
  r.hit_ratio = hits + misses > 0
                    ? static_cast<double>(hits) / (hits + misses)
                    : 0;
  r.mean_ms = latency.Mean() / 1000.0;
  r.p99_ms = bench::UsToMs(latency.Percentile(0.99));
  return r;
}

void PrintRow(const RunResult& r) {
  bench::PrintCell(r.theta);
  bench::PrintCell(r.broker ? "on" : "off");
  bench::PrintCell(static_cast<int64_t>(r.queries));
  bench::PrintCell(static_cast<int64_t>(r.point_reads + r.multi_gets));
  bench::PrintCell(r.RtPerQuery());
  bench::PrintCell(r.single_flight);
  bench::PrintCell(r.batches);
  bench::PrintCell(r.dedup);
  bench::PrintCell(r.hit_ratio);
  bench::PrintCell(r.p99_ms);
  bench::EndRow();
}

void WriteJson(const std::vector<RunResult>& rows) {
  std::FILE* f = std::fopen("BENCH_hotkey_skew.json", "w");
  if (f == nullptr) {
    std::printf("could not write BENCH_hotkey_skew.json\n");
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"hotkey_skew\",\n  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const RunResult& r = rows[i];
    std::fprintf(
        f,
        "    {\"theta\": %.2f, \"broker\": %s, \"queries\": %zu, "
        "\"kv_round_trips\": %lld, \"rt_per_query\": %.4f, "
        "\"single_flight_hits\": %lld, \"batches\": %lld, "
        "\"cross_request_dedup\": %lld, \"hit_ratio\": %.3f, "
        "\"mean_ms\": %.3f, \"p99_ms\": %.3f}%s\n",
        r.theta, r.broker ? "true" : "false", r.queries,
        static_cast<long long>(r.point_reads + r.multi_gets), r.RtPerQuery(),
        static_cast<long long>(r.single_flight),
        static_cast<long long>(r.batches),
        static_cast<long long>(r.dedup), r.hit_ratio, r.mean_ms, r.p99_ms,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote BENCH_hotkey_skew.json\n");
}

int Run(bool smoke) {
  std::printf(
      "=== Hot-key skew: load Coalescer vs coalescer-off ablation (%s) ===\n"
      "%zu threads, Zipf users over %zu profiles, tiny cache -> recurring\n"
      "misses; series = KV round trips per query\n",
      smoke ? "smoke" : "full", kThreads, kNumUsers);

  MemKvStore kv(bench::CalibratedKv());
  SeedStore(kv);

  const std::vector<double> thetas =
      smoke ? std::vector<double>{0.99}
            : std::vector<double>{0.6, 0.8, 0.9, 0.99};
  const size_t queries_per_thread = smoke ? 150 : 300;

  bench::PrintHeader({"zipf_s", "broker", "queries", "kv_rt", "rt_per_q",
                      "sflight", "batches", "dedup", "hit_ratio", "p99_ms"});
  std::vector<RunResult> rows;
  double accept_ratio = 0;
  int64_t accept_single_flight = 0;
  size_t total_errors = 0;
  for (double theta : thetas) {
    const RunResult off = RunConfig(kv, theta, /*broker_on=*/false,
                                    queries_per_thread);
    const RunResult on = RunConfig(kv, theta, /*broker_on=*/true,
                                   queries_per_thread);
    PrintRow(off);
    PrintRow(on);
    total_errors += off.errors + on.errors;
    const double ratio =
        on.RtPerQuery() > 0 ? off.RtPerQuery() / on.RtPerQuery() : 0;
    std::printf("%14s s=%.2f: coalescer cuts KV round trips per query %.1fx "
                "(%.2f -> %.2f)\n",
                "", theta, ratio, off.RtPerQuery(), on.RtPerQuery());
    if (theta == 0.99) {
      accept_ratio = ratio;
      accept_single_flight = on.single_flight;
    }
    rows.push_back(off);
    rows.push_back(on);
  }

  int rc = 0;
  if (total_errors != 0) {
    std::printf("FAIL: %zu queries returned errors\n", total_errors);
    rc = 1;
  }
  std::printf(
      "\nacceptance @ s=0.99: rt reduction %.1fx (need >= 3.0), "
      "single_flight_hits %lld (need > 0)\n",
      accept_ratio, static_cast<long long>(accept_single_flight));
  if (accept_ratio < 3.0 || accept_single_flight <= 0) {
    std::printf("FAIL: hot-key coalescing gate not met\n");
    rc = 1;
  } else {
    std::printf("PASS\n");
  }
  if (!smoke) WriteJson(rows);
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
