// Overload / brown-out harness: goodput under 1x/2x/5x offered load with the
// adaptive overload controller on vs off.
//
// Mechanics (everything in REAL time — SystemClock — so deadlines, queue
// waits and the burned KV latency share one time domain):
//   * One IpsInstance over a calibrated-latency MemKvStore, small cache so
//     most reads pay a real storage round trip.
//   * A recorded request trace (ingest/request_trace.h) drives arrivals: the
//     SAME users, read/write mix and Poisson offsets replay through every
//     configuration; the time axis is scaled to produce each overload
//     multiplier. The trace round-trips through its on-disk format so the
//     replay file format is exercised on every run.
//   * A dispatcher thread paces arrivals into a bounded FIFO served by K
//     worker threads — the explicit "server queue" the controller watches
//     via OnEnqueue/OnDequeue. Front-end admission calls Admit at arrival
//     (the controller's intended placement); the instance re-checks at
//     dequeue like any embedded caller.
//   * Capacity is self-calibrated: a sequential warm-up measures the mean
//     service time, and 1x load is set to ~70% of K workers' throughput, so
//     the bench stays honest under sanitizers or a loaded host.
//
// Goodput = requests that completed OK within their deadline. The controller
// must not help at 1x (nothing sheds) and must win big at 5x: without it the
// standing queue grows until every served request has already burned its
// deadline budget waiting (bufferbloat), with it the brown-out ladder keeps
// the queue near target so admitted requests finish in time.
//
// Emits BENCH_overload.json and overload_trace.txt. `--smoke` runs a short
// trace, writes neither (the trace goes through a temp file) and exits
// nonzero unless goodput(on) >= 2x goodput(off) at the 5x point with sheds
// observed.
#include <atomic>
#include <chrono>
#include <memory>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "ingest/request_trace.h"
#include "kvstore/mem_kv_store.h"
#include "server/ips_instance.h"
#include "server/overload.h"

namespace ips {
namespace {

constexpr const char* kTable = "user_profile";
constexpr int kWorkers = 4;
constexpr const char* kTracePath = "overload_trace.txt";

struct BenchConfig {
  size_t num_requests;     // trace length
  double trace_seconds;    // 1x replay duration
  size_t preload_events;
};

BenchConfig FullConfig() { return {6000, 3.0, 4000}; }
BenchConfig SmokeConfig() { return {1500, 1.0, 1500}; }

struct RunStats {
  std::string name;
  double multiplier = 1.0;
  int64_t offered = 0;
  int64_t goodput = 0;        // OK within deadline
  int64_t late_ok = 0;        // OK but past deadline (wasted work)
  int64_t shed_front = 0;     // shed at arrival by the front-end Admit
  int64_t shed_server = 0;    // shed/throttled inside the instance
  int64_t deadline_errors = 0;
  int64_t other_errors = 0;
  // Heap-held because Histogram is atomic-based (non-movable) and RunStats
  // travels by value.
  std::shared_ptr<Histogram> completion_us = std::make_shared<Histogram>();

  double GoodputPct() const {
    return offered > 0 ? 100.0 * static_cast<double>(goodput) /
                             static_cast<double>(offered)
                       : 0.0;
  }
};

std::unique_ptr<IpsInstance> MakeInstance(MemKvStore& kv, bool controller_on,
                                          int64_t target_queue_us,
                                          int64_t service_us) {
  IpsInstanceOptions options;
  options.isolation_enabled = false;
  // Small enough that the Zipf hot set does NOT fit: most reads pay the
  // calibrated KV miss, so serving a doomed request burns real capacity
  // (with a hit-dominated cache the service time is so small that shedding
  // has nothing to save). The maintenance loop (on by default) keeps
  // evicting; isolation is off, so it never merges.
  options.cache.memory_limit_bytes = 32 << 10;
  options.compaction.num_threads = 1;
  options.overload.enabled = controller_on;
  options.overload.workers = kWorkers;
  options.overload.target_queue_us = target_queue_us;
  options.overload.default_service_us = service_us;
  return std::make_unique<IpsInstance>(options, &kv,
                                       SystemClock::Instance());
}

void Preload(IpsInstance& instance, WorkloadGenerator& workload,
             size_t num_events) {
  const TimestampMs now = SystemClock::Instance()->NowMs();
  std::vector<MultiAddItem> batch;
  for (size_t i = 0; i < num_events; ++i) {
    ProfileId uid;
    auto records = workload.NextAddBatch(
        now - static_cast<TimestampMs>(
                  workload.rng().Uniform(7 * kMillisPerDay)),
        &uid);
    batch.push_back({uid, std::move(records)});
    if (batch.size() == 128 || i + 1 == num_events) {
      instance.MultiAdd("preload", kTable, batch).ok();
      batch.clear();
    }
  }
  instance.FlushAll();
}

/// Mean sequential service time per request in microseconds, measured by
/// replaying a prefix of the ACTUAL trace on a throwaway instance with the
/// run's cache size. Probing the real request mix (same Zipf repeats, same
/// read/write split) is essential: synthetic cold probes overestimate the
/// per-request cost several-fold and the overload multipliers stop meaning
/// anything.
int64_t CalibrateServiceUs(MemKvStore& kv, const RequestTrace& trace,
                           const WorkloadOptions& workload_options,
                           const QuerySpec& base_spec) {
  auto instance = MakeInstance(kv, /*controller_on=*/false,
                               /*target_queue_us=*/5000,
                               /*service_us=*/2000);
  instance->CreateTable(DefaultTableSchema(kTable)).ok();
  WorkloadGenerator writes(workload_options);
  const TimestampMs now = SystemClock::Instance()->NowMs();
  const size_t probes = std::min<size_t>(300, trace.requests.size());
  const int64_t begin_ns = MonotonicNanos();
  for (size_t i = 0; i < probes; ++i) {
    const TraceRequest& req = trace.requests[i];
    if (req.is_write) {
      ProfileId ignored;
      std::vector<MultiAddItem> items;
      items.push_back({req.pid, writes.NextAddBatch(now, &ignored)});
      instance->MultiAdd("ingest", kTable, items).ok();
    } else {
      QuerySpec spec = base_spec;
      spec.slot = req.slot;
      spec.k = req.k;
      instance->Query("ranker", kTable, req.pid, spec).ok();
    }
  }
  return (MonotonicNanos() - begin_ns) / 1000 /
         static_cast<int64_t>(std::max<size_t>(probes, 1));
}

struct QueuedRequest {
  size_t trace_index = 0;
  int64_t arrival_ns = 0;
  TimestampMs deadline_ms = 0;  // server-side CallContext deadline
  int64_t deadline_ns = 0;      // goodput accounting (sub-ms precision)
};

RunStats RunOnce(const RequestTrace& trace, WorkloadGenerator& workload,
                 double multiplier, double base_qps, bool controller_on,
                 int64_t service_us, int64_t deadline_ms,
                 const QuerySpec& base_spec, size_t preload_events) {
  MemKvStore kv(bench::CalibratedKv());
  // Queue target ~2 service times: small enough that admitted requests keep
  // most of their deadline, large enough that 1x traffic never sheds.
  const int64_t target_queue_us = 2 * service_us;
  auto instance = MakeInstance(kv, controller_on, target_queue_us,
                               service_us);
  instance->CreateTable(DefaultTableSchema(kTable)).ok();
  WorkloadGenerator preload_workload(workload.options());
  Preload(*instance, preload_workload, preload_events);

  RunStats stats;
  stats.name = controller_on ? "controller_on" : "controller_off";
  stats.multiplier = multiplier;
  stats.offered = static_cast<int64_t>(trace.requests.size());

  // Pre-generate write payloads so workers do not contend on the generator.
  std::vector<std::vector<AddRecord>> write_records(trace.requests.size());
  {
    WorkloadGenerator writes(workload.options());
    const TimestampMs now = SystemClock::Instance()->NowMs();
    for (size_t i = 0; i < trace.requests.size(); ++i) {
      if (trace.requests[i].is_write) {
        ProfileId ignored;
        write_records[i] = writes.NextAddBatch(now, &ignored);
      }
    }
  }

  std::mutex qmu;
  std::condition_variable qcv;
  std::deque<QueuedRequest> queue;
  bool dispatch_done = false;

  std::mutex stats_mu;
  OverloadController& ctrl = instance->overload();

  auto worker_fn = [&] {
    for (;;) {
      QueuedRequest item;
      {
        std::unique_lock<std::mutex> lock(qmu);
        qcv.wait(lock, [&] { return !queue.empty() || dispatch_done; });
        if (queue.empty()) return;
        item = queue.front();
        queue.pop_front();
      }
      const int64_t waited_us = (MonotonicNanos() - item.arrival_ns) / 1000;
      ctrl.OnDequeue(waited_us);
      const TraceRequest& req = trace.requests[item.trace_index];
      CallContext ctx = CallContext::WithDeadline(item.deadline_ms);
      Status status;
      if (req.is_write) {
        std::vector<MultiAddItem> items;
        items.push_back({req.pid, write_records[item.trace_index]});
        auto result = instance->MultiAdd("ingest", kTable, items, ctx);
        status = result.ok() ? result->statuses[0] : result.status();
      } else {
        QuerySpec spec = base_spec;
        spec.slot = req.slot;
        spec.k = req.k;
        auto result = instance->Query("ranker", kTable, req.pid, spec, ctx);
        status = result.ok() ? Status::OK() : result.status();
      }
      const int64_t done_ns = MonotonicNanos();
      const int64_t done_us = (done_ns - item.arrival_ns) / 1000;
      // Judge goodput at nanosecond precision: under collapse, served
      // requests finish just past their deadline, and millisecond rounding
      // would flatter the no-controller run with work that arrived late.
      const bool in_deadline = done_ns <= item.deadline_ns;
      std::lock_guard<std::mutex> lock(stats_mu);
      if (status.ok()) {
        stats.completion_us->Record(done_us);
        if (in_deadline) {
          ++stats.goodput;
        } else {
          ++stats.late_ok;
        }
      } else if (status.IsThrottled()) {
        ++stats.shed_server;
      } else if (status.IsDeadlineExceeded()) {
        ++stats.deadline_errors;
      } else {
        ++stats.other_errors;
      }
    }
  };

  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) workers.emplace_back(worker_fn);

  // Dispatcher: replay the trace's arrival offsets compressed by the
  // multiplier. trace offsets were recorded at trace-native qps; rescale so
  // the replayed rate is base_qps * multiplier.
  const double native_qps =
      trace.DurationUs() > 0
          ? 1e6 * static_cast<double>(trace.requests.size() - 1) /
                static_cast<double>(trace.DurationUs())
          : base_qps;
  const double time_scale = native_qps / (base_qps * multiplier);
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < trace.requests.size(); ++i) {
    const auto due =
        start + std::chrono::microseconds(static_cast<int64_t>(
                    static_cast<double>(trace.requests[i].offset_us) *
                    time_scale));
    std::this_thread::sleep_until(due);
    const TimestampMs now_ms = SystemClock::Instance()->NowMs();
    QueuedRequest item;
    item.trace_index = i;
    item.arrival_ns = MonotonicNanos();
    item.deadline_ms = now_ms + deadline_ms;
    item.deadline_ns = item.arrival_ns + deadline_ms * 1'000'000;
    // Front-end admission at arrival: a shed request never enters the
    // queue (that is the whole point — reject in nanoseconds, not after
    // queueing for most of its deadline).
    const TraceRequest& req = trace.requests[i];
    const RequestTier tier = ctrl.TierFor(
        req.is_write ? "ingest" : "ranker", req.is_write);
    const Status admit =
        ctrl.Admit(tier, /*cost=*/1.0,
                   CallContext::WithDeadline(item.deadline_ms), now_ms);
    if (!admit.ok()) {
      std::lock_guard<std::mutex> lock(stats_mu);
      ++stats.shed_front;
      continue;
    }
    ctrl.OnEnqueue();
    {
      std::lock_guard<std::mutex> lock(qmu);
      queue.push_back(item);
    }
    qcv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(qmu);
    dispatch_done = true;
  }
  qcv.notify_all();
  for (auto& t : workers) t.join();
  return stats;
}

void PrintRun(const RunStats& s) {
  std::printf(
      "  %-14s %5.0fx  offered=%-6lld goodput=%-6lld (%5.1f%%)  late=%-5lld "
      "shed_front=%-5lld shed_server=%-5lld dl_err=%-5lld err=%-4lld "
      "p50=%.1fms p99=%.1fms\n",
      s.name.c_str(), s.multiplier, static_cast<long long>(s.offered),
      static_cast<long long>(s.goodput), s.GoodputPct(),
      static_cast<long long>(s.late_ok), static_cast<long long>(s.shed_front),
      static_cast<long long>(s.shed_server),
      static_cast<long long>(s.deadline_errors),
      static_cast<long long>(s.other_errors),
      bench::UsToMs(s.completion_us->Percentile(0.5)),
      bench::UsToMs(s.completion_us->Percentile(0.99)));
}

void WriteJson(const std::vector<std::pair<RunStats, RunStats>>& points,
               double base_qps, int64_t service_us, int64_t deadline_ms) {
  std::FILE* f = std::fopen("BENCH_overload.json", "w");
  if (f == nullptr) {
    std::printf("could not write BENCH_overload.json\n");
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"overload\",\n  \"mode\": \"full\",\n"
               "  \"workers\": %d,\n  \"base_qps\": %.1f,\n"
               "  \"service_us\": %lld,\n  \"deadline_ms\": %lld,\n"
               "  \"points\": [\n",
               kWorkers, base_qps,
               static_cast<long long>(service_us),
               static_cast<long long>(deadline_ms));
  for (size_t i = 0; i < points.size(); ++i) {
    const RunStats* runs[] = {&points[i].first, &points[i].second};
    std::fprintf(f, "    {\"multiplier\": %.0f,\n", points[i].first.multiplier);
    for (size_t r = 0; r < 2; ++r) {
      const RunStats& s = *runs[r];
      std::fprintf(f,
                   "     \"%s\": {\"offered\": %lld, \"goodput\": %lld, "
                   "\"goodput_pct\": %.2f, \"late_ok\": %lld, "
                   "\"shed_front\": %lld, \"shed_server\": %lld, "
                   "\"deadline_errors\": %lld, \"other_errors\": %lld, "
                   "\"p50_us\": %lld, \"p99_us\": %lld}%s\n",
                   s.name.c_str(), static_cast<long long>(s.offered),
                   static_cast<long long>(s.goodput), s.GoodputPct(),
                   static_cast<long long>(s.late_ok),
                   static_cast<long long>(s.shed_front),
                   static_cast<long long>(s.shed_server),
                   static_cast<long long>(s.deadline_errors),
                   static_cast<long long>(s.other_errors),
                   static_cast<long long>(s.completion_us->Percentile(0.5)),
                   static_cast<long long>(s.completion_us->Percentile(0.99)),
                   r == 0 ? "," : "");
    }
    std::fprintf(f, "    }%s\n", i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote BENCH_overload.json\n");
}

int Run(bool smoke) {
  const BenchConfig config = smoke ? SmokeConfig() : FullConfig();

  WorkloadOptions workload_options;
  workload_options.num_users = 4000;
  // Mild skew: with the default theta=0.99 the handful of hot users stay
  // resident even in the tiny cache, and their microsecond hits hand the
  // no-controller run lucky goodput right at the deadline boundary. The
  // overload comparison wants a read mix whose service time is honest.
  workload_options.user_zipf_theta = 0.5;
  workload_options.seed = 4242;
  WorkloadGenerator workload(workload_options);
  ProfileId spec_uid = 0;
  const QuerySpec base_spec = workload.NextQuerySpec(&spec_uid);

  // Record the arrival trace once, round-trip it through the replay file
  // format, and replay the loaded copy everywhere.
  TraceRecordOptions trace_options;
  trace_options.base_qps =
      static_cast<double>(config.num_requests) / config.trace_seconds;
  trace_options.num_requests = config.num_requests;
  RequestTrace recorded = RecordTrace(workload, trace_options);
  const std::string trace_path = bench::RoundTripPath(kTracePath, smoke);
  if (!recorded.SaveTo(trace_path).ok()) {
    std::printf("FAILED to save trace to %s\n", trace_path.c_str());
    return 1;
  }
  Result<RequestTrace> loaded = RequestTrace::LoadFrom(trace_path);
  if (smoke) std::filesystem::remove(trace_path);
  if (!loaded.ok() ||
      loaded->requests.size() != recorded.requests.size()) {
    std::printf("FAILED to reload trace from %s\n", trace_path.c_str());
    return 1;
  }
  const RequestTrace& trace = *loaded;

  // Calibrate capacity against the real store + cache config by replaying a
  // trace prefix, so the multipliers mean the same thing under sanitizers or
  // a loaded host.
  MemKvStore calibration_kv(bench::CalibratedKv());
  {
    WorkloadGenerator preload_workload(workload_options);
    auto calibration_instance =
        MakeInstance(calibration_kv, false, 5000, 2000);
    calibration_instance->CreateTable(DefaultTableSchema(kTable)).ok();
    Preload(*calibration_instance, preload_workload, config.preload_events);
  }
  const int64_t service_us =
      CalibrateServiceUs(calibration_kv, trace, workload_options, base_spec);
  const double capacity_qps =
      1e6 * kWorkers / static_cast<double>(std::max<int64_t>(service_us, 1));
  const double base_qps = 0.7 * capacity_qps;
  // Generous deadline: ~20 service times (>=10ms). The off-run fails it
  // anyway once the standing queue forms; the on-run keeps the queue at
  // ~2 service times, far inside it.
  const int64_t deadline_ms =
      std::max<int64_t>(10, 20 * service_us / 1000);

  std::printf(
      "=== Overload control: goodput with adaptive admission on vs off ===\n"
      "workers=%d service=%lldus capacity~%.0f qps base(1x)=%.0f qps "
      "deadline=%lldms trace=%zu requests\n",
      kWorkers, static_cast<long long>(service_us), capacity_qps, base_qps,
      static_cast<long long>(deadline_ms), config.num_requests);

  const std::vector<double> multipliers =
      smoke ? std::vector<double>{1.0, 5.0}
            : std::vector<double>{1.0, 2.0, 5.0};
  std::vector<std::pair<RunStats, RunStats>> points;
  for (double m : multipliers) {
    std::printf("\n--- %.0fx offered load (%.0f qps) ---\n", m,
                base_qps * m);
    RunStats on = RunOnce(trace, workload, m, base_qps, true, service_us,
                          deadline_ms, base_spec, config.preload_events);
    RunStats off = RunOnce(trace, workload, m, base_qps, false, service_us,
                           deadline_ms, base_spec, config.preload_events);
    PrintRun(on);
    PrintRun(off);
    points.emplace_back(std::move(on), std::move(off));
  }

  if (!smoke) WriteJson(points, base_qps, service_us, deadline_ms);

  // Shape gate at the highest multiplier: the controller must at least
  // double goodput and must actually shed (no vacuous pass where both
  // configurations sail through).
  const RunStats& peak_on = points.back().first;
  const RunStats& peak_off = points.back().second;
  const bool ratio_ok =
      peak_on.goodput >= 2 * std::max<int64_t>(peak_off.goodput, 1);
  const bool shed_ok = peak_on.shed_front + peak_on.shed_server > 0;
  std::printf(
      "\nshape checks @%.0fx:\n"
      "  goodput: on=%lld off=%lld (need on >= 2x off)\n"
      "  sheds:   front=%lld server=%lld (need > 0)\n%s\n",
      peak_on.multiplier, static_cast<long long>(peak_on.goodput),
      static_cast<long long>(peak_off.goodput),
      static_cast<long long>(peak_on.shed_front),
      static_cast<long long>(peak_on.shed_server),
      ratio_ok && shed_ok ? "shape OK" : "SHAPE VIOLATION");
  return ratio_ok && shed_ok ? 0 : 1;
}

}  // namespace
}  // namespace ips

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const int rc = ips::Run(smoke);
  // The full run is a report; only the smoke gate fails the process.
  return smoke ? rc : 0;
}
