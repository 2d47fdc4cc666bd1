// Table II reproduction: client- and server-side query latency, split by
// cache hit vs cache miss.
//
// Paper result (ms):          avg   p50   p99
//   client, cache hit   ~      3-4   ~3    ~8
//   client, cache miss  ~      6-8   ~6   ~12
//   server, cache hit   ~      <1    ~0.4  ~2
//   server, cache miss  ~      3-5   ~3    ~8
// plus: ~3 ms network overhead growing with response size; a hit saves
// roughly 2-4 ms per query.
//
// The claims to reproduce: (a) the hit/miss delta is 2-4 ms (the KV round
// trip), (b) the client-server gap is the network overhead and is payload-
// proportional, (c) server-side hit cost is sub-millisecond.
//
// On top of the end-to-end numbers, every query is traced and the per-stage
// decomposition (rpc.transfer / server.queue / cache.lookup / kv.load /
// codec.decode / feature.compute) is reported per path, with a built-in
// self-check: the mean stage sum must land within 5% of the mean measured
// end-to-end latency for both hit and miss — the substitution table in
// DESIGN.md is only trustworthy if the stages account for the total. The
// server-side rows are each query's `server.query` span.
//
// The process exits nonzero when the self-check fails or a path saw no
// query. `--smoke` runs fewer queries for CI and writes no artifact, so a
// CI run from the repository root leaves the committed one in place.
#include <cstdio>
#include <cstring>
#include <map>

#include "bench/bench_util.h"
#include "common/trace.h"
#include "common/trace_collector.h"

namespace ips {
namespace {

constexpr int kQueries = 1500;
constexpr int kSmokeQueries = 400;
constexpr double kSumTolerance = 0.05;

struct Split {
  Histogram client_hit, client_miss, server_hit, server_miss;
};

// Per-path traced decomposition: one histogram per disjoint stage plus the
// per-trace stage sum.
struct StageSplit {
  std::map<std::string, Histogram> stages;
  Histogram stage_sum;
};

void PrintRow(const char* label, Histogram& h) {
  bench::PrintCell(label);
  bench::PrintCell(static_cast<int64_t>(h.count()));
  bench::PrintCell(bench::UsToMs(static_cast<int64_t>(h.Mean())));
  bench::PrintCell(bench::UsToMs(h.Percentile(0.50)));
  bench::PrintCell(bench::UsToMs(h.Percentile(0.99)));
  bench::EndRow();
}

int Run(bool smoke) {
  const int queries = smoke ? kSmokeQueries : kQueries;
  // The smoke run shrinks users, preload and cache together, keeping the
  // cold share of the working set (preload time grows with the users).
  const size_t scale = smoke ? 3 : 1;
  std::printf(
      "=== Table II: client/server query latency, hit vs miss ===\n"
      "paper: hit saves ~2-4 ms; network overhead ~3 ms, size-"
      "proportional; server-side hit is sub-ms\n\n");

  ManualClock sim_clock(500 * kMillisPerDay);
  DeploymentOptions options = bench::SingleRegion(/*calibrated=*/true);
  options.discovery_ttl_ms = 365 * kMillisPerDay;
  // Small cache so a cold working set reliably misses.
  options.instance.cache.memory_limit_bytes = (24u << 20) / scale;
  Deployment deployment(options, &sim_clock);
  TableSchema schema = DefaultTableSchema("user_profile");
  if (!deployment.CreateTableEverywhere(schema).ok()) return 1;

  WorkloadOptions workload_options;
  workload_options.num_users = 15'000 / scale;
  workload_options.user_zipf_theta = 0.99;
  workload_options.seed = 2;
  WorkloadGenerator workload(workload_options);
  bench::Preload(deployment, workload, "user_profile", 50'000 / scale,
                 sim_clock.NowMs(), 30 * kMillisPerDay);
  // Flush so cold profiles exist in the KV store and can be re-loaded, then
  // shrink the cache by evicting.
  auto* node = deployment.NodesInRegion("lf")[0];
  node->instance().FlushAll();

  IpsClientOptions client_options;
  client_options.caller = "ranker";
  client_options.local_region = "lf";
  IpsClient client(client_options, &deployment);

  MetricsRegistry* metrics = deployment.metrics();

  // Trace every query: the decomposition below is computed from the spans,
  // and the collector doubles as slow-query log + stage histogram feed.
  TraceCollectorOptions trace_options;
  trace_options.sample_every_n = 1;
  trace_options.ring_capacity = 32;
  trace_options.slow_log_capacity = 3;
  TraceCollector collector(trace_options, &sim_clock, metrics);
  const size_t num_stages = TraceCollector::DisjointStageCount();
  const std::vector<std::string>& stage_names = TraceCollector::StageNames();

  Split split;
  StageSplit traced_hit, traced_miss;
  for (int q = 0; q < queries; ++q) {
    ProfileId uid;
    QuerySpec spec = workload.NextQuerySpec(&uid);
    auto trace = collector.MaybeStartTrace();
    CallContext ctx;
    ctx.trace = TraceCollector::ContextFor(trace.get());
    const int64_t hits_before = metrics->GetCounter("cache.hit")->Value();
    const int64_t begin = MonotonicNanos();
    auto result = client.Query("user_profile", uid, spec, ctx);
    const int64_t micros = (MonotonicNanos() - begin) / 1000;
    if (!result.ok()) continue;
    const bool was_hit =
        metrics->GetCounter("cache.hit")->Value() > hits_before;
    (was_hit ? split.client_hit : split.client_miss).Record(micros);
    if (trace != nullptr) {
      (was_hit ? split.server_hit : split.server_miss)
          .Record(trace->StageNs("server.query") / 1000);
      StageSplit& traced = was_hit ? traced_hit : traced_miss;
      int64_t sum_us = 0;
      for (size_t s = 0; s < num_stages; ++s) {
        const int64_t us = trace->StageNs(stage_names[s].c_str()) / 1000;
        traced.stages[stage_names[s]].Record(us);
        sum_us += us;
      }
      traced.stage_sum.Record(sum_us);
      collector.Finish(std::move(trace));
    }
  }

  bench::PrintHeader({"side/path", "count", "avg_ms", "p50_ms", "p99_ms"});
  PrintRow("client/hit", split.client_hit);
  PrintRow("client/miss", split.client_miss);
  PrintRow("server/hit", split.server_hit);
  PrintRow("server/miss", split.server_miss);

  const double hit_saving_ms =
      bench::UsToMs(split.client_miss.Percentile(0.50) -
                    split.client_hit.Percentile(0.50));
  const double network_ms =
      bench::UsToMs(split.client_hit.Percentile(0.50) -
                    split.server_hit.Percentile(0.50));
  std::printf(
      "\nshape checks vs paper:\n"
      "  p50 saving from a cache hit: %.2f ms (paper: 2-4 ms)\n"
      "  network overhead (client - server, hit path): %.2f ms "
      "(paper: ~3 ms)\n"
      "  server-side hit p50: %.2f ms (paper: sub-ms compute)\n",
      hit_saving_ms, network_ms,
      bench::UsToMs(split.server_hit.Percentile(0.50)));

  // ---- Traced per-stage decomposition (Table II, from spans) ----
  std::printf("\n=== traced stage decomposition (avg ms/query) ===\n");
  bench::PrintHeader({"stage", "hit_ms", "miss_ms"});
  for (size_t s = 0; s < num_stages; ++s) {
    const std::string& stage = stage_names[s];
    bench::PrintCell(stage.c_str());
    bench::PrintCell(
        bench::UsToMs(static_cast<int64_t>(traced_hit.stages[stage].Mean())));
    bench::PrintCell(bench::UsToMs(
        static_cast<int64_t>(traced_miss.stages[stage].Mean())));
    bench::EndRow();
  }
  const double hit_sum_ms =
      bench::UsToMs(static_cast<int64_t>(traced_hit.stage_sum.Mean()));
  const double miss_sum_ms =
      bench::UsToMs(static_cast<int64_t>(traced_miss.stage_sum.Mean()));
  const double hit_e2e_ms =
      bench::UsToMs(static_cast<int64_t>(split.client_hit.Mean()));
  const double miss_e2e_ms =
      bench::UsToMs(static_cast<int64_t>(split.client_miss.Mean()));
  bench::PrintCell("stage sum");
  bench::PrintCell(hit_sum_ms);
  bench::PrintCell(miss_sum_ms);
  bench::EndRow();
  bench::PrintCell("measured e2e");
  bench::PrintCell(hit_e2e_ms);
  bench::PrintCell(miss_e2e_ms);
  bench::EndRow();

  // Self-check: the stages must account for the measured total. A path
  // that saw no query has zero coverage, so it fails too.
  const double hit_cov = hit_e2e_ms > 0 ? hit_sum_ms / hit_e2e_ms : 0;
  const double miss_cov = miss_e2e_ms > 0 ? miss_sum_ms / miss_e2e_ms : 0;
  const bool hit_ok = hit_cov >= 1.0 - kSumTolerance &&
                      hit_cov <= 1.0 + kSumTolerance;
  const bool miss_ok = miss_cov >= 1.0 - kSumTolerance &&
                       miss_cov <= 1.0 + kSumTolerance;
  std::printf(
      "\nstage-sum self-check (tolerance %.0f%%):\n"
      "  hit:  coverage %.1f%% -> %s\n"
      "  miss: coverage %.1f%% -> %s\n",
      kSumTolerance * 100, hit_cov * 100, hit_ok ? "PASS" : "FAIL",
      miss_cov * 100, miss_ok ? "PASS" : "FAIL");

  std::printf("\n%s", collector.SlowQueryReport().c_str());

  // ---- JSON artifact ----
  std::FILE* f =
      smoke ? nullptr : std::fopen("BENCH_table2_latency.json", "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n  \"bench\": \"table2_latency\",\n"
                 "  \"queries\": %d,\n  \"sum_tolerance\": %.2f,\n",
                 queries, kSumTolerance);
    std::fprintf(f,
                 "  \"server_us\": {\"hit_p50\": %lld, \"miss_p50\": %lld},\n",
                 static_cast<long long>(split.server_hit.Percentile(0.50)),
                 static_cast<long long>(split.server_miss.Percentile(0.50)));
    const struct {
      const char* label;
      Histogram* e2e;
      StageSplit* traced;
      double coverage;
      bool ok;
    } paths[] = {
        {"client_hit", &split.client_hit, &traced_hit, hit_cov, hit_ok},
        {"client_miss", &split.client_miss, &traced_miss, miss_cov, miss_ok},
    };
    std::fprintf(f, "  \"paths\": [\n");
    for (size_t p = 0; p < 2; ++p) {
      const auto& path = paths[p];
      std::fprintf(
          f,
          "    {\"path\": \"%s\", \"count\": %lld,\n"
          "     \"e2e_us\": {\"avg\": %lld, \"p50\": %lld, \"p99\": %lld},\n"
          "     \"stages_avg_us\": {",
          path.label, static_cast<long long>(path.e2e->count()),
          static_cast<long long>(path.e2e->Mean()),
          static_cast<long long>(path.e2e->Percentile(0.50)),
          static_cast<long long>(path.e2e->Percentile(0.99)));
      for (size_t s = 0; s < num_stages; ++s) {
        std::fprintf(
            f, "%s\"%s\": %lld", s == 0 ? "" : ", ",
            stage_names[s].c_str(),
            static_cast<long long>(path.traced->stages[stage_names[s]]
                                       .Mean()));
      }
      std::fprintf(f,
                   "},\n     \"stage_sum_avg_us\": %lld, "
                   "\"coverage\": %.4f, \"within_tolerance\": %s}%s\n",
                   static_cast<long long>(path.traced->stage_sum.Mean()),
                   path.coverage, path.ok ? "true" : "false",
                   p == 0 ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"shape\": {\"hit_saving_p50_ms\": %.2f, "
                 "\"network_overhead_p50_ms\": %.2f, "
                 "\"server_hit_p50_ms\": %.2f}\n}\n",
                 hit_saving_ms, network_ms,
                 bench::UsToMs(split.server_hit.Percentile(0.50)));
    std::fclose(f);
    std::printf("wrote BENCH_table2_latency.json\n");
  }
  return hit_ok && miss_ok ? 0 : 1;
}

}  // namespace
}  // namespace ips

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  return ips::Run(smoke);
}
