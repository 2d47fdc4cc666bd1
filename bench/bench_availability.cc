// Availability chaos harness (Fig 17 companion): error-rate-over-time for a
// two-region cluster while a fault schedule kills a node, takes the master
// KV cluster down, partitions a channel and fails the secondary region —
// all under steady MultiQuery load with a trickle of writes.
//
// Two runs over the identical schedule:
//   * policy_on  — deadlines + retry policy (backoff, budget) + per-node
//                  circuit breakers + region failover + degraded KV reads.
//   * policy_off — one blind attempt, no failover, no breaker, no degraded
//                  fallback: what the request layer looked like before the
//                  fault-tolerance work.
//
// The discovery view is frozen (huge refresh interval / TTL), so the client
// keeps routing to the killed node all through its outage window — masking
// it is entirely the breaker's and the retry policy's job, the stale-view
// scenario of Section III-G.
//
// Emits per-second error buckets for both runs to BENCH_availability.json.
// `--smoke` runs a compressed schedule and exits nonzero unless the
// policy_on error rate stays under 1% while policy_off shows a clear
// failure plateau.
#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "server/ips_instance.h"

namespace ips {
namespace {

constexpr int64_t kDay = kMillisPerDay;
constexpr int64_t kStepMs = 20;       // one load step = 20 simulated ms
constexpr size_t kBatchSize = 16;     // pids per MultiQuery
constexpr int kWriteEveryNSteps = 4;  // ~1 write per 4 batches
constexpr const char* kTable = "user_profile";

struct FaultWindow {
  const char* name;
  int start_s;
  int end_s;  // exclusive
};

struct Schedule {
  int duration_s;
  FaultWindow node_kill;
  FaultWindow kv_outage;
  FaultWindow partition;
  FaultWindow region_fail;
};

Schedule FullSchedule() {
  return {60,
          {"node_kill", 10, 15},
          {"kv_outage", 25, 30},
          {"partition", 40, 45},
          {"region_fail", 50, 55}};
}

Schedule SmokeSchedule() {
  return {16,
          {"node_kill", 2, 4},
          {"kv_outage", 6, 8},
          {"partition", 10, 12},
          {"region_fail", 13, 15}};
}

struct Bucket {
  int t_s = 0;
  int64_t requests = 0;
  int64_t errors = 0;
  int64_t degraded = 0;
  double ErrPct() const {
    return requests > 0
               ? 100.0 * static_cast<double>(errors) /
                     static_cast<double>(requests)
               : 0.0;
  }
};

struct RunResult {
  std::string name;
  std::vector<Bucket> buckets;
  int64_t retries = 0;
  int64_t breaker_skips = 0;
  int64_t degraded_reads = 0;
  int64_t budget_denials = 0;

  int64_t TotalRequests() const {
    int64_t n = 0;
    for (const auto& b : buckets) n += b.requests;
    return n;
  }
  int64_t TotalErrors() const {
    int64_t n = 0;
    for (const auto& b : buckets) n += b.errors;
    return n;
  }
  double OverallErrPct() const {
    const int64_t requests = TotalRequests();
    return requests > 0
               ? 100.0 * static_cast<double>(TotalErrors()) /
                     static_cast<double>(requests)
               : 0.0;
  }
  /// Error percentage over one fault window (with one trailing second of
  /// grace: a fault landing mid-batch surfaces in the next bucket).
  double WindowErrPct(const FaultWindow& window) const {
    int64_t requests = 0, errors = 0;
    for (const auto& b : buckets) {
      if (b.t_s >= window.start_s && b.t_s <= window.end_s) {
        requests += b.requests;
        errors += b.errors;
      }
    }
    return requests > 0
               ? 100.0 * static_cast<double>(errors) /
                     static_cast<double>(requests)
               : 0.0;
  }
};

/// Preloads every workload user into the master KV (and, via CatchUpAll,
/// the slave replica) through a throwaway instance: the cluster's node
/// caches start cold, every first-touch read pays a real storage round
/// trip, and during the KV outage each miss has a replica copy to degrade
/// to (a NotFound on the fallback is deliberately inconclusive and would
/// surface the primary outage instead).
void PreloadKv(Deployment& deployment, WorkloadGenerator& workload,
               TimestampMs now_ms) {
  IpsInstanceOptions loader_options;
  loader_options.isolation_enabled = false;
  loader_options.start_background_threads = false;
  // Write through kv().master() (the replication wrapper), not the raw
  // store: only wrapped writes are journaled for slave catch-up.
  IpsInstance loader(loader_options, deployment.kv().master(),
                     deployment.clock());
  loader.CreateTable(DefaultTableSchema(kTable)).ok();
  for (uint64_t rank = 0; rank < workload.options().num_users; ++rank) {
    ProfileId sampled;  // records are independent of the sampled user
    auto records = workload.NextAddBatch(
        now_ms - static_cast<TimestampMs>(
                     workload.rng().Uniform(7 * kMillisPerDay)),
        &sampled);
    // The workload samples users as ScrambleId(zipf rank); enumerate the
    // same bijection so every pid a query can draw has a stored profile.
    loader.AddProfiles("preload", kTable, ScrambleId(rank), records).ok();
  }
  loader.FlushAll();
  deployment.kv().CatchUpAll();
}

RunResult RunOnce(const Schedule& schedule, bool policy_on) {
  ManualClock clock(1000 * kDay);

  DeploymentOptions options;
  options.regions = {{"lf", 3, /*is_primary=*/true},
                     {"hl", 2, /*is_primary=*/false}};
  options.instance.isolation_enabled = false;
  options.instance.start_background_threads = false;
  options.channel = bench::FastChannel();
  options.kv.store_options = bench::FastKv();
  options.kv.replication_lag_ms = 100;
  // Freeze the discovery view: the killed node stays registered and routed
  // to for its whole outage window.
  options.discovery_ttl_ms = 365 * kDay;
  options.enable_degraded_fallback = policy_on;
  Deployment deployment(options, &clock);
  if (!deployment.CreateTableEverywhere(DefaultTableSchema(kTable)).ok()) {
    return {};
  }

  WorkloadOptions workload_options;
  workload_options.num_users = 20'000;
  workload_options.seed = 1717;
  WorkloadGenerator workload(workload_options);
  PreloadKv(deployment, workload, clock.NowMs());

  IpsClientOptions client_options;
  client_options.caller = "ranker";
  client_options.local_region = "lf";
  client_options.refresh_interval_ms = 365 * kDay;  // frozen view
  if (policy_on) {
    client_options.failover_regions = {"hl"};
    client_options.max_read_attempts = 3;
    client_options.default_timeout_ms = 250;
    // retry + breaker defaults: enabled.
  } else {
    client_options.max_read_attempts = 1;
    client_options.max_write_attempts = 1;
    client_options.retry.enabled = false;
    client_options.breaker.enabled = false;
  }
  IpsClient client(client_options, &deployment);
  ProfileId spec_uid = 0;
  const QuerySpec base_spec = workload.NextQuerySpec(&spec_uid);

  RunResult run;
  run.name = policy_on ? "policy_on" : "policy_off";
  run.buckets.resize(static_cast<size_t>(schedule.duration_s));
  for (int s = 0; s < schedule.duration_s; ++s) run.buckets[s].t_s = s;

  const int total_steps =
      schedule.duration_s * static_cast<int>(kMillisPerSecond / kStepMs);
  int prev_second = -1;
  for (int step = 0; step < total_steps; ++step) {
    const int second =
        static_cast<int>((step * kStepMs) / kMillisPerSecond);
    Bucket& bucket = run.buckets[static_cast<size_t>(second)];

    // Apply the fault schedule on second boundaries.
    if (second != prev_second) {
      prev_second = second;
      auto in = [second](const FaultWindow& w) {
        return second >= w.start_s && second < w.end_s;
      };
      deployment.FindNode("lf/ips-0")->SetDown(in(schedule.node_kill));
      deployment.kv().master_store()->SetDown(in(schedule.kv_outage));
      deployment.FindNode("lf/ips-2")->channel().SetPartitioned(
          in(schedule.partition));
      if (second == schedule.region_fail.start_s) {
        deployment.FailRegion("hl");
      } else if (second == schedule.region_fail.end_s) {
        deployment.RecoverRegion("hl");
      }
    }

    // Steady read load: one candidate batch per step, each pid a request.
    std::vector<ProfileId> pids;
    pids.reserve(kBatchSize);
    for (size_t i = 0; i < kBatchSize; ++i) {
      ProfileId uid;
      workload.NextQuerySpec(&uid);
      pids.push_back(uid);
    }
    bucket.requests += static_cast<int64_t>(kBatchSize);
    auto result = client.MultiQuery(kTable, pids, base_spec);
    if (!result.ok()) {
      bucket.errors += static_cast<int64_t>(kBatchSize);
    } else {
      for (const Status& s : result->statuses) {
        if (!s.ok()) ++bucket.errors;
      }
      bucket.degraded += static_cast<int64_t>(result->degraded);
    }

    // Write trickle (multi-region fan-out path).
    if (step % kWriteEveryNSteps == 0) {
      ProfileId uid;
      auto records = workload.NextAddBatch(clock.NowMs(), &uid);
      ++bucket.requests;
      if (!client.AddProfiles(kTable, uid, records).ok()) ++bucket.errors;
    }

    clock.AdvanceMs(kStepMs);
  }

  // Leave the deployment healthy (destructor hygiene for flush threads).
  deployment.RecoverRegion("hl");
  deployment.kv().master_store()->SetDown(false);

  run.retries = deployment.metrics()->GetCounter("client.retries")->Value();
  run.breaker_skips =
      deployment.metrics()->GetCounter("client.breaker_skips")->Value();
  run.degraded_reads =
      deployment.metrics()->GetCounter("client.degraded_reads")->Value();
  run.budget_denials = client.retry_policy().budget_denials();
  return run;
}

void PrintRun(const RunResult& run, const Schedule& schedule) {
  std::printf("\n--- %s ---\n", run.name.c_str());
  bench::PrintHeader({"second", "requests", "errors", "err_pct", "degraded"});
  for (const auto& b : run.buckets) {
    bench::PrintCell(static_cast<int64_t>(b.t_s));
    bench::PrintCell(b.requests);
    bench::PrintCell(b.errors);
    std::printf("%13.2f%%", b.ErrPct());
    bench::PrintCell(b.degraded);
    bench::EndRow();
  }
  std::printf(
      "overall: %.3f%% errors over %lld requests "
      "(retries=%lld breaker_skips=%lld degraded_reads=%lld "
      "budget_denials=%lld)\n",
      run.OverallErrPct(), static_cast<long long>(run.TotalRequests()),
      static_cast<long long>(run.retries),
      static_cast<long long>(run.breaker_skips),
      static_cast<long long>(run.degraded_reads),
      static_cast<long long>(run.budget_denials));
  std::printf("per-window error rates:\n");
  for (const FaultWindow* w :
       {&schedule.node_kill, &schedule.kv_outage, &schedule.partition,
        &schedule.region_fail}) {
    std::printf("  %-12s [%2ds, %2ds): %7.2f%%\n", w->name, w->start_s,
                w->end_s, run.WindowErrPct(*w));
  }
}

void WriteJson(const RunResult& on, const RunResult& off,
               const Schedule& schedule, bool smoke) {
  std::FILE* f = std::fopen("BENCH_availability.json", "w");
  if (f == nullptr) {
    std::printf("could not write BENCH_availability.json\n");
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"availability\",\n  \"mode\": \"%s\",\n"
               "  \"step_ms\": %lld,\n  \"batch_size\": %zu,\n",
               smoke ? "smoke" : "full", static_cast<long long>(kStepMs),
               kBatchSize);
  std::fprintf(f, "  \"fault_windows\": [\n");
  const FaultWindow* windows[] = {&schedule.node_kill, &schedule.kv_outage,
                                  &schedule.partition,
                                  &schedule.region_fail};
  for (size_t i = 0; i < 4; ++i) {
    std::fprintf(f, "    {\"name\": \"%s\", \"start_s\": %d, \"end_s\": %d}%s\n",
                 windows[i]->name, windows[i]->start_s, windows[i]->end_s,
                 i + 1 < 4 ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"runs\": {\n");
  const RunResult* runs[] = {&on, &off};
  for (size_t r = 0; r < 2; ++r) {
    const RunResult& run = *runs[r];
    std::fprintf(f, "    \"%s\": {\n      \"buckets\": [\n",
                 run.name.c_str());
    for (size_t i = 0; i < run.buckets.size(); ++i) {
      const Bucket& b = run.buckets[i];
      std::fprintf(f,
                   "        {\"t_s\": %d, \"requests\": %lld, "
                   "\"errors\": %lld, \"err_pct\": %.3f, "
                   "\"degraded\": %lld}%s\n",
                   b.t_s, static_cast<long long>(b.requests),
                   static_cast<long long>(b.errors), b.ErrPct(),
                   static_cast<long long>(b.degraded),
                   i + 1 < run.buckets.size() ? "," : "");
    }
    std::fprintf(f,
                 "      ],\n      \"overall_err_pct\": %.4f,\n"
                 "      \"retries\": %lld,\n      \"breaker_skips\": %lld,\n"
                 "      \"degraded_reads\": %lld,\n"
                 "      \"budget_denials\": %lld\n    }%s\n",
                 run.OverallErrPct(), static_cast<long long>(run.retries),
                 static_cast<long long>(run.breaker_skips),
                 static_cast<long long>(run.degraded_reads),
                 static_cast<long long>(run.budget_denials),
                 r == 0 ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("\nwrote BENCH_availability.json\n");
}

int Run(bool smoke) {
  const Schedule schedule = smoke ? SmokeSchedule() : FullSchedule();
  std::printf(
      "=== Availability under chaos: fault-tolerant request layer on vs off "
      "===\n"
      "schedule (%ds): node kill [%d,%d), master KV outage [%d,%d), "
      "channel partition [%d,%d), region failure [%d,%d)\n",
      schedule.duration_s, schedule.node_kill.start_s,
      schedule.node_kill.end_s, schedule.kv_outage.start_s,
      schedule.kv_outage.end_s, schedule.partition.start_s,
      schedule.partition.end_s, schedule.region_fail.start_s,
      schedule.region_fail.end_s);

  const RunResult on = RunOnce(schedule, /*policy_on=*/true);
  const RunResult off = RunOnce(schedule, /*policy_on=*/false);
  PrintRun(on, schedule);
  PrintRun(off, schedule);
  WriteJson(on, off, schedule, smoke);

  // Shape checks: with the policy on, the node kill and the KV outage stay
  // under 1% client-observed errors; with it off, both windows plateau.
  const double on_kill = on.WindowErrPct(schedule.node_kill);
  const double on_kv = on.WindowErrPct(schedule.kv_outage);
  const double off_kill = off.WindowErrPct(schedule.node_kill);
  const double off_kv = off.WindowErrPct(schedule.kv_outage);
  std::printf(
      "\nshape checks:\n"
      "  node_kill window:  policy_on %.2f%% (must be < 1%%)  vs  "
      "policy_off %.2f%% (must be > 5%%)\n"
      "  kv_outage window:  policy_on %.2f%% (must be < 1%%)  vs  "
      "policy_off %.2f%% (must be > 5%%)\n",
      on_kill, off_kill, on_kv, off_kv);
  const bool ok =
      on_kill < 1.0 && on_kv < 1.0 && off_kill > 5.0 && off_kv > 5.0;
  std::printf("%s\n", ok ? "shape OK" : "SHAPE VIOLATION");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace ips

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const int rc = ips::Run(smoke);
  // The full run is a report; only the smoke gate fails the process.
  return smoke ? rc : 0;
}
