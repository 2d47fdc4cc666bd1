// Compaction ablation (Section III-D), trace-driven: one recorded arrival
// trace (ingest/request_trace.h, round-tripped through its on-disk format
// and committed as compaction_trace.txt) replays the identical (pid, spec,
// arrival) sequence through every configuration, so the comparisons below
// measure drain mechanics, not sampling noise.
//
// Two phases:
//   A. sync vs async — the paper's claim: running compaction inline on the
//      triggering request (the non-optimized strategy) inflates serving tail
//      latency; the async drain keeps it off the serving path.
//   B. drain scaling — after a back-fill leaves every traced profile with a
//      deep uncompacted history, the replay storms the trigger path and the
//      drain pool is measured end-to-end (replay + Drain) with 1 worker vs
//      kDrainWorkers. Every configuration performs the IDENTICAL set of
//      full passes, one per traced pid: a back-filled profile is due on its
//      first touch, and once fully compacted it is not due again within the
//      storm (its next ladder crossing is an hour or more away), so later
//      touches submit nothing. The wall-clock ratio is therefore pure drain
//      parallelism. NOTE: the ratio only manifests on a multi-core host —
//      on a single core parallel drain merely relocates the same CPU
//      seconds — so the gate below is cores-aware.
//
// Emits BENCH_compaction_ablation.json and compaction_trace.txt. `--smoke`
// runs small, writes neither (the trace goes through a temp file) and exits
// nonzero unless (a) phase-B pass counts are equal and nonzero across worker
// configurations, and (b) on hosts with >= 4 cores, the 1-worker storm takes
// >= 2x the kDrainWorkers storm.
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench/bench_util.h"
#include "common/histogram.h"
#include "ingest/request_trace.h"
#include "kvstore/mem_kv_store.h"
#include "server/ips_instance.h"

namespace ips {
namespace {

constexpr const char* kTable = "user_profile";
constexpr const char* kTracePath = "compaction_trace.txt";
constexpr size_t kDrainWorkers = 4;

struct BenchConfig {
  size_t num_requests;     // trace length
  size_t backfill_slices;  // per-pid uncompacted history depth (phase B)
  size_t latency_pids;     // distinct-pid cap for phase A (sync is slow)
  size_t latency_slices;   // per-pid history depth for phase A
};

BenchConfig FullConfig() { return {4000, 160, 240, 120}; }
BenchConfig SmokeConfig() { return {1200, 80, 120, 80}; }

struct DrainRun {
  size_t workers = 0;
  int64_t storm_ms = 0;  // replay + Drain wall time
  int64_t full_passes = 0;
  int64_t partial_passes = 0;
  int64_t dropped = 0;
  int64_t overlap_stalls = 0;
};

std::vector<ProfileId> DistinctPids(const RequestTrace& trace, size_t cap) {
  std::vector<ProfileId> pids;
  std::unordered_set<ProfileId> seen;
  for (const TraceRequest& req : trace.requests) {
    if (seen.insert(req.pid).second) pids.push_back(req.pid);
    if (cap > 0 && pids.size() >= cap) break;
  }
  return pids;
}

/// Writes `slices` minute-granularity records per pid spread over three
/// days, leaving deep uncompacted slice ladders for the storm to chew on.
void Backfill(IpsInstance& instance, const std::vector<ProfileId>& pids,
              size_t slices) {
  const TimestampMs base =
      SystemClock::Instance()->NowMs() - 3 * kMillisPerDay;
  for (ProfileId pid : pids) {
    std::vector<MultiAddItem> items(1);
    items[0].pid = pid;
    items[0].records.reserve(slices);
    for (size_t i = 0; i < slices; ++i) {
      AddRecord rec;
      rec.timestamp = base + static_cast<TimestampMs>(i) * 60'000;
      rec.slot = 1;
      rec.type = 1;
      rec.fid = static_cast<FeatureId>(1 + (i % 50));
      rec.counts = CountVector{1};
      items[0].records.push_back(std::move(rec));
    }
    instance.MultiAdd("backfill", kTable, items).ok();
  }
}

std::unique_ptr<IpsInstance> MakeInstance(MemKvStore& kv, size_t workers,
                                          bool synchronous,
                                          size_t partial_threshold,
                                          size_t max_queue) {
  IpsInstanceOptions options;
  options.isolation_enabled = false;
  options.start_background_threads = false;
  // Everything stays resident: the storm must measure compaction drain, not
  // eviction or KV traffic.
  options.cache.memory_limit_bytes = 512 << 20;
  options.compaction.synchronous = synchronous;
  options.compaction.num_threads = workers;
  options.compaction.max_queue = max_queue;
  options.compaction.partial_threshold = partial_threshold;
  return std::make_unique<IpsInstance>(options, &kv,
                                       SystemClock::Instance());
}

/// Replays the whole trace as fast as possible (arrival offsets collapse:
/// the storm is the point). Reads and writes both touch the trigger path.
/// Write latencies are recorded into `write_latency_us` when non-null.
void Replay(IpsInstance& instance, const RequestTrace& trace,
            const QuerySpec& base_spec,
            Histogram* write_latency_us = nullptr) {
  for (const TraceRequest& req : trace.requests) {
    if (req.is_write) {
      std::vector<MultiAddItem> items(1);
      items[0].pid = req.pid;
      AddRecord rec;
      rec.timestamp = SystemClock::Instance()->NowMs();
      rec.slot = 1;
      rec.type = 1;
      rec.fid = 7;
      rec.counts = CountVector{1};
      items[0].records.push_back(std::move(rec));
      const int64_t begin_ns = MonotonicNanos();
      instance.MultiAdd("ingest", kTable, items).ok();
      if (write_latency_us != nullptr) {
        write_latency_us->Record((MonotonicNanos() - begin_ns) / 1000);
      }
    } else {
      QuerySpec spec = base_spec;
      spec.slot = req.slot;
      spec.k = req.k;
      instance.Query("ranker", kTable, req.pid, spec).ok();
    }
  }
}

int64_t Counter(IpsInstance& instance, const char* name) {
  return instance.metrics()->GetCounter(name)->Value();
}

/// Phase B core: back-fill deep histories with compaction paused, then
/// storm the trigger path and drain, measuring replay+drain wall time.
DrainRun RunStorm(const RequestTrace& trace, const QuerySpec& base_spec,
                  size_t workers, size_t backfill_slices,
                  size_t partial_threshold, size_t max_queue) {
  MemKvStore kv;  // zero latency: the drain's CPU work is the subject
  auto instance = MakeInstance(kv, workers, /*synchronous=*/false,
                               partial_threshold, max_queue);
  instance->CreateTable(DefaultTableSchema(kTable)).ok();
  instance->SetCompactionEnabled(false);
  Backfill(*instance, DistinctPids(trace, 0), backfill_slices);
  instance->SetCompactionEnabled(true);

  const int64_t begin_ns = MonotonicNanos();
  Replay(*instance, trace, base_spec);
  instance->DrainCompactions();
  const int64_t end_ns = MonotonicNanos();

  DrainRun run;
  run.workers = workers;
  run.storm_ms = (end_ns - begin_ns) / 1'000'000;
  run.full_passes = Counter(*instance, "compaction.full");
  run.partial_passes = Counter(*instance, "compaction.partial");
  run.dropped = Counter(*instance, "compaction.dropped");
  run.overlap_stalls = Counter(*instance, "compaction.overlap_stalls");
  return run;
}

void PrintDrainRun(const DrainRun& r) {
  std::printf(
      "  workers=%zu  storm=%-6lldms  full=%-5lld partial=%-5lld "
      "dropped=%-4lld stalls=%lld\n",
      r.workers, static_cast<long long>(r.storm_ms),
      static_cast<long long>(r.full_passes),
      static_cast<long long>(r.partial_passes),
      static_cast<long long>(r.dropped),
      static_cast<long long>(r.overlap_stalls));
}

void AppendDrainJson(std::FILE* f, const DrainRun& r, bool last) {
  std::fprintf(f,
               "    {\"workers\": %zu, \"storm_ms\": %lld, "
               "\"full_passes\": %lld, \"partial_passes\": %lld, "
               "\"dropped\": %lld, \"overlap_stalls\": %lld}%s\n",
               r.workers, static_cast<long long>(r.storm_ms),
               static_cast<long long>(r.full_passes),
               static_cast<long long>(r.partial_passes),
               static_cast<long long>(r.dropped),
               static_cast<long long>(r.overlap_stalls), last ? "" : ",");
}

int Run(bool smoke) {
  const BenchConfig config = smoke ? SmokeConfig() : FullConfig();
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());

  WorkloadOptions workload_options;
  workload_options.num_users = smoke ? 400 : 1200;
  workload_options.user_zipf_theta = 0.8;
  workload_options.seed = 20260807;
  WorkloadGenerator workload(workload_options);
  ProfileId spec_uid = 0;
  const QuerySpec base_spec = workload.NextQuerySpec(&spec_uid);

  // Record the arrival trace once, round-trip it through the replay file
  // format, and replay the loaded copy everywhere.
  TraceRecordOptions trace_options;
  trace_options.base_qps = 2000;
  trace_options.num_requests = config.num_requests;
  trace_options.seed = 811;
  RequestTrace recorded = RecordTrace(workload, trace_options);
  const std::string trace_path = bench::RoundTripPath(kTracePath, smoke);
  if (!recorded.SaveTo(trace_path).ok()) {
    std::printf("FAILED to save trace to %s\n", trace_path.c_str());
    return 1;
  }
  Result<RequestTrace> loaded = RequestTrace::LoadFrom(trace_path);
  if (smoke) std::filesystem::remove(trace_path);
  if (!loaded.ok() || loaded->requests.size() != recorded.requests.size()) {
    std::printf("FAILED to reload trace from %s\n", trace_path.c_str());
    return 1;
  }
  const RequestTrace& trace = *loaded;
  const size_t distinct_pids = DistinctPids(trace, 0).size();

  std::printf(
      "=== Compaction ablation: sync vs async, drain scaling ===\ncores=%u trace=%zu requests distinct_pids=%zu "
      "backfill=%zu slices/pid\n",
      cores, trace.requests.size(), distinct_pids, config.backfill_slices);

  // --- Phase A: sync vs async triggering-request write latency ----------
  // A shortened trace over a capped pid set (inline full passes over deep
  // histories are expensive by design — that is the phenomenon).
  RequestTrace latency_trace;
  {
    std::unordered_set<ProfileId> keep;
    for (ProfileId pid : DistinctPids(trace, config.latency_pids)) {
      keep.insert(pid);
    }
    for (const TraceRequest& req : trace.requests) {
      if (keep.count(req.pid) > 0) latency_trace.requests.push_back(req);
    }
  }
  Histogram sync_latency, async_latency;
  for (const bool synchronous : {true, false}) {
    MemKvStore kv;
    auto instance =
        MakeInstance(kv, kDrainWorkers, synchronous,
                     /*partial_threshold=*/64, /*max_queue=*/1 << 16);
    instance->CreateTable(DefaultTableSchema(kTable)).ok();
    instance->SetCompactionEnabled(false);
    Backfill(*instance, DistinctPids(latency_trace, 0),
             config.latency_slices);
    instance->SetCompactionEnabled(true);
    Replay(*instance, latency_trace, base_spec,
           synchronous ? &sync_latency : &async_latency);
    instance->DrainCompactions();
  }
  std::printf(
      "\n--- A. triggering-request write latency (us) ---\n"
      "  sync   p50=%-6lld p99=%lld\n  async  p50=%-6lld p99=%lld\n",
      static_cast<long long>(sync_latency.Percentile(0.5)),
      static_cast<long long>(sync_latency.Percentile(0.99)),
      static_cast<long long>(async_latency.Percentile(0.5)),
      static_cast<long long>(async_latency.Percentile(0.99)));

  // --- Phase B: drain scaling, 1 worker vs kDrainWorkers ----------------
  // partial_threshold is effectively infinite so every pass is FULL — the
  // per-pass work is identical and the wall-clock ratio is pure drain
  // parallelism.
  std::printf("\n--- B. post-back-fill storm drain scaling ---\n");
  std::vector<DrainRun> drain_runs;
  for (const size_t workers : {size_t{1}, kDrainWorkers}) {
    drain_runs.push_back(RunStorm(trace, base_spec, workers,
                                  config.backfill_slices,
                                  /*partial_threshold=*/1 << 30,
                                  /*max_queue=*/1 << 20));
    PrintDrainRun(drain_runs.back());
  }

  // --- JSON (full runs only) -------------------------------------------
  if (!smoke) {
    std::FILE* f = std::fopen("BENCH_compaction_ablation.json", "w");
    if (f == nullptr) {
      std::printf("could not write BENCH_compaction_ablation.json\n");
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"compaction_ablation\",\n"
                 "  \"mode\": \"full\",\n  \"cores\": %u,\n"
                 "  \"trace_requests\": %zu,\n  \"distinct_pids\": %zu,\n"
                 "  \"backfill_slices\": %zu,\n"
                 "  \"sync_vs_async\": {\"sync_p50_us\": %lld, "
                 "\"sync_p99_us\": %lld, \"async_p50_us\": %lld, "
                 "\"async_p99_us\": %lld},\n  \"drain\": [\n",
                 cores, trace.requests.size(), distinct_pids,
                 config.backfill_slices,
                 static_cast<long long>(sync_latency.Percentile(0.5)),
                 static_cast<long long>(sync_latency.Percentile(0.99)),
                 static_cast<long long>(async_latency.Percentile(0.5)),
                 static_cast<long long>(async_latency.Percentile(0.99)));
    for (size_t i = 0; i < drain_runs.size(); ++i) {
      AppendDrainJson(f, drain_runs[i], i + 1 == drain_runs.size());
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote BENCH_compaction_ablation.json (and %s)\n",
                kTracePath);
  }

  // --- Shape gates ------------------------------------------------------
  const DrainRun& serial = drain_runs.front();
  const DrainRun& parallel = drain_runs.back();
  const bool volume_ok =
      serial.full_passes > 0 &&
      serial.full_passes == parallel.full_passes &&
      serial.partial_passes == 0 && parallel.partial_passes == 0;
  const double ratio =
      parallel.storm_ms > 0 ? static_cast<double>(serial.storm_ms) /
                                  static_cast<double>(parallel.storm_ms)
                            : static_cast<double>(serial.storm_ms);
  const bool multi_core = cores >= kDrainWorkers;
  const bool ratio_ok = !multi_core || ratio >= 2.0;
  std::printf(
      "\nshape checks:\n"
      "  volumes: 1w full=%lld, %zuw full=%lld (need equal, nonzero, no "
      "partials)\n"
      "  ratio:   1w/%zuw storm = %.2fx%s\n%s\n",
      static_cast<long long>(serial.full_passes), parallel.workers,
      static_cast<long long>(parallel.full_passes), parallel.workers, ratio,
      multi_core
          ? " (need >= 2.0)"
          : " (single-core host: >= 2x gate skipped — parallel drain can "
            "only relocate CPU seconds here, not shorten them)",
      volume_ok && ratio_ok ? "shape OK" : "SHAPE VIOLATION");
  return volume_ok && ratio_ok ? 0 : 1;
}

}  // namespace
}  // namespace ips

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const int rc = ips::Run(smoke);
  // The full run is a report; only the smoke gate fails the process.
  return smoke ? rc : 0;
}
