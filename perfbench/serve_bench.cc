// serve_bench: the end-to-end serving benchmark.
//
// Closed-loop traffic goes through the public client API (IpsClient ->
// Channel -> IpsInstance -> GCache -> LoadBroker / StoreBroker -> Persister
// -> MemKvStore) on a one-region, two-node Deployment built from library
// defaults. Channel and KV simulated latency are zero, so every number is
// the program's own code cost plus the waits it imposes on itself (broker
// collection windows, flush cadence).
//
//   serve_bench --workload read_hot|read_miss|ingest_mixed --seed N
//               --seconds S [--mode untraced|traced]
//               [--tamper canary|write]
//
// Inputs (preloaded profiles, the op stream, canary records) are generated
// from the seed before timing starts; the op stream's digest is printed so
// two runs with one seed provably issue identical calls. A ManualClock owned
// by the benchmark advances by kStepMs per issued operation, so profile
// time, slice roll-over and compaction cadence per operation do not depend
// on how fast the build under test is.
//
// `untraced` measures the end-to-end metrics. `traced` attaches a Trace to
// every call and reports per-layer metrics from the span tree and from
// registry / KV counter deltas over the window; the span trees are analysed
// after the window closes. Either mode ends with the correctness gate; the
// JSON object on the last stdout line is emitted only when the gate passed
// and no call failed. perfbench/run.py orchestrates the runs and
// perfbench/NOTES.md defines every metric.
//
// The traffic shape (kStepMs, kProfileRecords, kWriteFids) is chosen for
// the benchmark, not taken from a source; NOTES.md says what each choice
// hides or drives.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cluster/client.h"
#include "cluster/deployment.h"
#include "common/call_context.h"
#include "common/clock.h"
#include "common/hash.h"
#include "common/histogram.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/trace.h"
#include "core/table_schema.h"
#include "query/query.h"
#include "server/persistence.h"

#ifdef SERVE_BENCH_ALLOC_HOOK
#include "common/alloc_hook.h"
#endif

namespace ips {
namespace {

constexpr const char* kTable = "user_profile";
constexpr size_t kNodes = 2;
constexpr size_t kClientThreads = 4;
constexpr size_t kQueryPids = 32;
constexpr size_t kAddItems = 16;
/// Simulated time per issued operation. A chosen value: it fixes how many
/// ops share a one-minute write slice and how many ops the per-profile
/// compaction rate limit spans.
constexpr int64_t kStepMs = 10;
constexpr TimestampMs kStartMs = 400 * kMillisPerDay;
/// Pre-generated ops; the stream wraps around when a run issues more.
constexpr size_t kStreamOps = size_t{1} << 15;
/// Ops of the workload's own mix run at the end of set-up, untimed.
constexpr size_t kWarmupOps = 2000;
/// Preloaded history per universe profile (a chosen size).
constexpr size_t kProfileRecords = 24;
constexpr int64_t kHistorySpanMs = 3 * kMillisPerDay;
constexpr uint32_t kTypes = 4;
constexpr uint64_t kFids = 512;
/// Writes draw from fids kWriteFidBase + 1 .. kWriteFidBase + kWriteFids,
/// which no preloaded profile or canary uses, so the gate can check every
/// acknowledged write's totals. The set is narrow by choice: with 512 write
/// fids a hot profile's slices grow larger, and throughput falls much
/// faster over a run (NOTES.md, "Program behaviours").
constexpr FeatureId kWriteFidBase = kFids;
constexpr uint64_t kWriteFids = 16;
/// User bytes of one written record: its key fields and four counts.
constexpr double kRecordBytes =
    sizeof(AddRecord::timestamp) + sizeof(AddRecord::slot) +
    sizeof(AddRecord::type) + sizeof(AddRecord::fid) + 4 * sizeof(int64_t);
constexpr size_t kCanaries = 64;
/// Times the gate re-reads a pid whose KV copy is wrong, 20 ms apart.
constexpr int kGateRereads = 25;
constexpr size_t kCanaryRecords = 6;
/// Rank bases keeping never-written pids and canaries outside the universe
/// (ScrambleId is a bijection, so distinct ranks give distinct pids).
constexpr uint64_t kNewUserBase = uint64_t{1} << 40;
constexpr uint64_t kNewUsers = uint64_t{1} << 20;
constexpr uint64_t kCanaryBase = uint64_t{1} << 41;

struct Workload {
  const char* name;
  /// Fraction of ops that are MultiQuery; the rest are MultiAdd.
  double query_frac;
  double zipf_theta;
  /// Preloaded (persisted) profiles the Zipf draws range over.
  uint64_t universe;
  /// Fraction of query pids drawn from never-written ids (new users).
  double new_user_frac;
  /// GCache memory budget per node; 0 keeps the library default.
  size_t l1_bytes;
};

constexpr Workload kWorkloads[] = {
    {"read_hot", 0.95, 0.99, 4096, 0.0, 0},
    {"read_miss", 1.0, 0.6, 12288, 0.05, size_t{3} << 20},
    {"ingest_mixed", 0.5, 0.99, 4096, 0.0, 0},
};

ProfileId UniversePid(uint64_t rank) { return ScrambleId(rank); }
ProfileId NewUserPid(uint64_t r) { return ScrambleId(kNewUserBase + r); }
ProfileId CanaryPid(size_t k) { return ScrambleId(kCanaryBase + k); }

QuerySpec ServingSpec() {
  QuerySpec spec;
  spec.slot = 1;
  spec.time_range = TimeRange::Current(7 * kMillisPerDay);
  spec.sort_by = SortBy::kActionCount;
  spec.k = 20;
  return spec;
}

/// Everything a profile holds, over all time: the canary check.
QuerySpec FullRangeSpec() {
  QuerySpec spec;
  spec.slot = 1;
  spec.time_range = TimeRange::Absolute(0, int64_t{1} << 60);
  spec.sort_by = SortBy::kFeatureId;
  spec.k = 0;
  return spec;
}

// --- Inputs ----------------------------------------------------------------

struct RecordSpec {
  TypeId type = 0;
  FeatureId fid = 0;
  int64_t c0 = 0;
  int64_t c1 = 0;
};

struct Op {
  bool query = true;
  std::vector<ProfileId> pids;
  std::vector<RecordSpec> records;  // one per pid on add ops
  /// Distinct never-written pids in a query (each pays a KV lookup).
  uint32_t new_users = 0;
};

uint64_t Fold(uint64_t digest, uint64_t v) { return Mix64(digest ^ v) + v; }

std::vector<Op> GenerateOps(const Workload& w, uint64_t seed,
                            uint64_t* digest) {
  Rng rng(Mix64(seed) ^ 0x5EEDull);
  ZipfGenerator zipf(w.universe, w.zipf_theta);
  std::vector<Op> ops(kStreamOps);
  uint64_t d = 0;
  for (Op& op : ops) {
    op.query = rng.NextDouble() < w.query_frac;
    d = Fold(d, op.query ? 1 : 2);
    if (op.query) {
      op.pids.reserve(kQueryPids);
      std::unordered_set<ProfileId> new_users;
      for (size_t i = 0; i < kQueryPids; ++i) {
        ProfileId pid;
        if (w.new_user_frac > 0 && rng.Bernoulli(w.new_user_frac)) {
          pid = NewUserPid(rng.Uniform(kNewUsers));
          new_users.insert(pid);
        } else {
          pid = UniversePid(zipf.Next(rng));
        }
        op.pids.push_back(pid);
        d = Fold(d, pid);
      }
      op.new_users = static_cast<uint32_t>(new_users.size());
    } else {
      op.pids.reserve(kAddItems);
      op.records.reserve(kAddItems);
      for (size_t i = 0; i < kAddItems; ++i) {
        const ProfileId pid = UniversePid(zipf.Next(rng));
        RecordSpec r;
        r.type = 1 + static_cast<TypeId>(rng.Uniform(kTypes));
        r.fid = kWriteFidBase + 1 + rng.Uniform(kWriteFids);
        r.c0 = 1;
        r.c1 = static_cast<int64_t>(rng.Uniform(2));
        op.pids.push_back(pid);
        op.records.push_back(r);
        d = Fold(Fold(Fold(d, pid), r.type), r.fid * 4 + r.c1);
      }
    }
  }
  *digest = d;
  return ops;
}

/// Deterministic history of one universe profile. Every profile has the
/// same slice layout (one record per step of an even grid over the history
/// span) so per-op cost does not depend on which pids the seed makes hot;
/// a per-profile phase keeps slices of different profiles from crossing
/// compaction-ladder boundaries at the same simulated instant.
ProfileData UniverseProfile(uint64_t seed, ProfileId pid) {
  Rng rng(Mix64(seed ^ Mix64(pid)));
  constexpr int64_t kGridMs =
      kHistorySpanMs / static_cast<int64_t>(kProfileRecords);
  const int64_t phase = static_cast<int64_t>(rng.Uniform(kGridMs));
  ProfileData profile(kMillisPerMinute);
  for (size_t i = 0; i < kProfileRecords; ++i) {
    const TimestampMs ts =
        kStartMs - phase - static_cast<TimestampMs>(i + 1) * kGridMs;
    const TypeId type = 1 + static_cast<TypeId>(i % kTypes);
    const FeatureId fid = 1 + rng.Uniform(kFids);
    const CountVector counts{1 + static_cast<int64_t>(rng.Uniform(3)),
                             static_cast<int64_t>(rng.Uniform(2)), 0,
                             static_cast<int64_t>(rng.Uniform(2))};
    profile.Add(ts, 1, type, fid, counts, ReduceFn::kSum).ok();
  }
  return profile;
}

/// Canary k's records: few features (far below the shrink retain limit),
/// all inside retention, each fid written exactly once.
std::vector<AddRecord> CanaryRecords(size_t k) {
  std::vector<AddRecord> records;
  for (size_t r = 0; r < kCanaryRecords; ++r) {
    AddRecord rec;
    rec.timestamp =
        kStartMs - static_cast<int64_t>(r + 1) * 47 * kMillisPerMinute;
    rec.slot = 1;
    rec.type = 1 + static_cast<TypeId>(r % kTypes);
    rec.fid = 900'001 + r;
    rec.counts = CountVector{static_cast<int64_t>(k + r + 1),
                             static_cast<int64_t>(r + 1), 1, 0};
    records.push_back(std::move(rec));
  }
  return records;
}

// --- Measurement helpers ---------------------------------------------------

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Nearest-rank percentile of nanosecond samples, in microseconds; 0 when
/// there are no samples.
double PercentileUs(std::vector<int64_t> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return static_cast<double>(v[rank - 1]) / 1000.0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

bool SameName(const char* a, std::string_view b) {
  return a != nullptr && std::string_view(a) == b;
}

/// Per-layer samples from the span trees of traced calls. Durations in ns.
struct LayerSamples {
  std::vector<int64_t> cluster_self;   // per client call
  std::vector<int64_t> server_query;   // per node call
  std::vector<int64_t> server_add;
  std::vector<int64_t> server_admit;   // server.queue, per node call
  std::vector<int64_t> cache_lookup;   // per server.query node call
  std::vector<int64_t> broker_wait;    // per server.query node call
  std::vector<int64_t> kv_load;        // per node call that loaded
  std::vector<int64_t> decode;         // per node call that decoded
  std::vector<int64_t> compute;        // per feature.compute span
  int64_t node_calls = 0;
};

int64_t Duration(const TraceSpan& s) {
  return s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
}

/// Folds one client call's span tree into `out`. The call's self time is
/// its root span minus the union of the server-side node-call spans below
/// it (they run in parallel on the scatter-gather workers). Stage spans on
/// one thread are disjoint, so a node call's stage totals are plain sums
/// over its descendants.
void AnalyzeTrace(const std::vector<TraceSpan>& spans, LayerSamples* out) {
  struct NodeCall {
    bool query = false;
    int64_t admit = 0, lookup = 0, broker = 0, kv_load = 0, decode = 0;
  };
  std::vector<int> server_of(spans.size(), -1);
  std::map<int, NodeCall> calls;
  std::vector<std::pair<int64_t, int64_t>> intervals;
  int root = -1;
  for (size_t i = 0; i < spans.size(); ++i) {
    const TraceSpan& s = spans[i];
    const bool is_query = SameName(s.name, "server.query");
    const bool is_add = SameName(s.name, "server.add");
    if (s.parent == kNoSpan) {
      if (root < 0) root = static_cast<int>(i);
      continue;
    }
    // Parents are always begun (appended) before their children.
    if (is_query || is_add) {
      server_of[i] = static_cast<int>(i);
      calls[static_cast<int>(i)].query = is_query;
      intervals.emplace_back(s.start_ns, s.end_ns);
      (is_query ? out->server_query : out->server_add).push_back(Duration(s));
      continue;
    }
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < i) {
      server_of[i] = server_of[static_cast<size_t>(s.parent)];
    }
    if (SameName(s.name, "feature.compute")) {
      out->compute.push_back(Duration(s));
    }
    if (server_of[i] < 0) continue;
    NodeCall& call = calls[server_of[i]];
    const int64_t d = Duration(s);
    if (SameName(s.name, "server.queue")) {
      call.admit += d;
    } else if (SameName(s.name, "cache.lookup")) {
      call.lookup += d;
    } else if (SameName(s.name, "server.coalesce") ||
               SameName(s.name, "kv.load.shared")) {
      call.broker += d;
    } else if (SameName(s.name, "kv.load")) {
      call.kv_load += d;
    } else if (SameName(s.name, "codec.decode")) {
      call.decode += d;
    }
  }
  for (const auto& [id, call] : calls) {
    ++out->node_calls;
    out->server_admit.push_back(call.admit);
    if (call.query) {
      out->cache_lookup.push_back(call.lookup);
      out->broker_wait.push_back(call.broker);
    }
    if (call.kv_load > 0) out->kv_load.push_back(call.kv_load);
    if (call.decode > 0) out->decode.push_back(call.decode);
  }
  if (root < 0) return;
  const int64_t begin = spans[static_cast<size_t>(root)].start_ns;
  const int64_t end = spans[static_cast<size_t>(root)].end_ns;
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cursor = begin;
  for (auto [a, b] : intervals) {
    a = std::max(a, cursor);
    b = std::min(b, end);
    if (b > a) {
      covered += b - a;
      cursor = b;
    }
  }
  out->cluster_self.push_back(std::max<int64_t>(0, end - begin - covered));
}

// --- The system under test -------------------------------------------------

/// A deliberately wrong expectation, to show the correctness gate trips.
enum class Tamper { kNone, kCanary, kWrite };

/// One deployment plus its client, preloaded and quiesced.
class Bench {
 public:
  Bench(const Workload& w, uint64_t seed) : w_(w), seed_(seed) {
    DeploymentOptions options;
    options.regions = {{"r0", kNodes, /*is_primary=*/true}};
    if (w.l1_bytes > 0) options.instance.cache.memory_limit_bytes = w.l1_bytes;
    // The benchmark clock runs ahead of wall time; keep registrations alive
    // for the whole run instead of heartbeating from the op loop.
    options.discovery_ttl_ms = 1000 * kMillisPerDay;
    // The instances' isolation merger loses writes; MergerLoop replaces it.
    options.instance.isolation_merge_interval_ms = 1000 * kMillisPerDay;
    deployment_ = std::make_unique<Deployment>(options, &clock_, &metrics_);
    client_ = std::make_unique<IpsClient>(IpsClientOptions{},
                                          deployment_.get());
  }

  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  /// Creates the table, bulk-loads the universe into the master KV, warms
  /// the caches, writes the canaries, runs the warm-up ops and quiesces.
  /// False (with a message on stderr) if any call failed.
  bool SetUp(const std::vector<Op>& ops) {
    if (!deployment_->CreateTableEverywhere(DefaultTableSchema(kTable)).ok()) {
      std::fprintf(stderr, "create table failed\n");
      return false;
    }
    client_->RefreshView();
    // Offline bulk load: the program's own Persister encodes the profiles
    // straight into the master store, as a back-fill job would.
    Persister loader(kTable, deployment_->kv().master_store(),
                     PersisterOptions{});
    for (uint64_t base = 0; base < w_.universe; base += 256) {
      std::vector<ProfileData> profiles;
      std::vector<ProfileId> pids;
      for (uint64_t r = base; r < std::min(w_.universe, base + 256); ++r) {
        pids.push_back(UniversePid(r));
        profiles.push_back(UniverseProfile(seed_, pids.back()));
        universe_bytes_ += profiles.back().ApproximateBytes();
      }
      std::vector<const ProfileData*> ptrs;
      for (const auto& p : profiles) ptrs.push_back(&p);
      for (const Status& s : loader.StoreBatch(pids, ptrs)) {
        if (!s.ok()) {
          std::fprintf(stderr, "preload failed: %s\n", s.ToString().c_str());
          return false;
        }
      }
    }
    // Warm pass over the universe in rank order (hot ranks last, so they
    // are the most recent in LRU when the universe exceeds L1).
    const QuerySpec spec = ServingSpec();
    std::atomic<bool> ok{true};
    std::atomic<uint64_t> next{0};
    RunThreads([&](size_t) {
      std::vector<ProfileId> pids;
      for (;;) {
        const uint64_t base = next.fetch_add(kQueryPids);
        if (base >= w_.universe) return;
        pids.clear();
        for (uint64_t r = base; r < std::min(w_.universe, base + kQueryPids);
             ++r) {
          pids.push_back(UniversePid(w_.universe - 1 - r));
        }
        auto result = client_->MultiQuery(kTable, pids, spec);
        if (!CallOk(result)) ok.store(false);
      }
    });
    if (!ok.load()) {
      std::fprintf(stderr, "warm pass failed\n");
      return false;
    }
    if (!WriteCanaries()) return false;
    RunOps(ops, kWarmupOps, /*window=*/nullptr);
    if (warmup_failed_.load() > 0) {
      std::fprintf(stderr, "%lld warm-up calls failed\n",
                   static_cast<long long>(warmup_failed_.load()));
      return false;
    }
    Quiesce();
    return true;
  }

  /// Merges isolation write tables, drains compactions, flushes every dirty
  /// entry and applies the replication queue.
  void Quiesce() {
    for (IpsNode* node : Nodes()) {
      node->instance().MergeWriteTablesOnce();
      node->instance().DrainCompactions();
      node->instance().FlushAll();
    }
    deployment_->kv().CatchUpAll();
  }

  struct OpRecord {
    int64_t end_ns;
    int64_t latency_ns;
    bool query;
    bool ok;
  };

  /// What a timed window collects (per thread, merged after the window).
  struct Window {
    int64_t deadline_ns = 0;
    bool traced = false;
    std::vector<std::vector<OpRecord>> records;
    /// Finished traces, analysed only after the window closes.
    std::vector<std::vector<std::unique_ptr<Trace>>> traces;
    std::vector<int64_t> acked_adds;  // acknowledged MultiAdd calls
    std::vector<int64_t> new_user_lookups;
  };

  /// Runs the op stream on kClientThreads closed-loop threads until `count`
  /// ops were issued (window == nullptr) or the window deadline passes.
  void RunOps(const std::vector<Op>& ops, size_t count, Window* window) {
    if (window != nullptr) {
      window->records.assign(kClientThreads, {});
      window->traces.clear();
      window->traces.resize(kClientThreads);
      window->acked_adds.assign(kClientThreads, 0);
      window->new_user_lookups.assign(kClientThreads, 0);
    }
    const uint64_t stop_at = next_op_.load() + count;
    merger_stop_ = false;
    std::thread merger([this] { MergerLoop(); });
    RunThreads([&](size_t t) {
      const QuerySpec spec = ServingSpec();
      std::vector<MultiAddItem> items(kAddItems);
      for (auto& item : items) item.records.resize(1);
      for (;;) {
        uint64_t index = next_op_.load();
        if (window == nullptr) {
          // Claim exactly `count` indices, so the window starts at the
          // same op index on every run.
          do {
            if (index >= stop_at) return;
          } while (!next_op_.compare_exchange_weak(index, index + 1));
        } else {
          if (MonotonicNanos() >= window->deadline_ns) return;
          index = next_op_.fetch_add(1);
        }
        const TimestampMs op_ms =
            kStartMs + static_cast<int64_t>(index + 1) * kStepMs;
        AdvanceClockTo(op_ms);
        const Op& op = ops[index % ops.size()];
        std::unique_ptr<Trace> trace;
        CallContext ctx;
        if (window != nullptr && window->traced) {
          trace = std::make_unique<Trace>(index, op_ms);
          ctx.trace = TraceContext{trace.get(), kNoSpan};
        }
        bool ok = true;
        int64_t begin = 0;
        int64_t end = 0;
        if (op.query) {
          begin = MonotonicNanos();
          auto result = client_->MultiQuery(kTable, op.pids, spec, ctx);
          end = MonotonicNanos();
          ok = CallOk(result);
        } else {
          for (size_t i = 0; i < op.pids.size(); ++i) {
            MultiAddItem& item = items[i];
            const RecordSpec& r = op.records[i];
            item.pid = op.pids[i];
            AddRecord& rec = item.records[0];
            rec.timestamp = op_ms;
            rec.slot = 1;
            rec.type = r.type;
            rec.fid = r.fid;
            rec.counts = CountVector{r.c0, r.c1, 0, 0};
          }
          // A wait for a running merge is outside the measured latency.
          std::shared_lock<std::shared_mutex> no_merge(add_mu_);
          begin = MonotonicNanos();
          auto result = client_->MultiAdd(kTable, items, ctx);
          end = MonotonicNanos();
          ok = CallOk(result);
          if (ok) {
            acked_adds_[t].push_back(index);
            if (window != nullptr) ++window->acked_adds[t];
          }
        }
        if (window == nullptr) {
          if (!ok) warmup_failed_.fetch_add(1);
          continue;
        }
        window->records[t].push_back(OpRecord{end, end - begin, op.query, ok});
        if (op.query) window->new_user_lookups[t] += op.new_users;
        if (trace != nullptr) window->traces[t].push_back(std::move(trace));
      }
    });
    {
      std::lock_guard<std::mutex> lock(merger_mu_);
      merger_stop_ = true;
    }
    merger_cv_.notify_all();
    merger.join();
  }

  /// Stands in for the instances' isolation merger thread: merges at the
  /// library's default cadence, but never while a MultiAdd is in flight.
  /// IpsInstance::MergeWriteTable moves the buffered profiles out and then
  /// clears the write table, so a write landing in between is acknowledged
  /// and lost (NOTES.md, "Program behaviours").
  void MergerLoop() {
    const auto interval = std::chrono::milliseconds(
        IpsInstanceOptions{}.isolation_merge_interval_ms);
    std::unique_lock<std::mutex> lock(merger_mu_);
    while (!merger_cv_.wait_for(lock, interval,
                                [this] { return merger_stop_; })) {
      std::unique_lock<std::shared_mutex> writers(add_mu_);
      for (IpsNode* node : Nodes()) node->instance().MergeWriteTablesOnce();
    }
  }

  /// The correctness gate: canaries read back exactly through the client;
  /// after FlushAll every canary and every pid an acknowledged MultiAdd
  /// wrote (warm-up and window) is in the master KV, each with exactly the
  /// per-fid totals that were written to it.
  bool CheckCorrectness(const std::vector<Op>& ops, Tamper tamper) {
    for (IpsNode* node : Nodes()) {
      node->instance().MergeWriteTablesOnce();
      node->instance().DrainCompactions();
    }
    std::vector<ProfileId> canaries;
    for (size_t k = 0; k < kCanaries; ++k) canaries.push_back(CanaryPid(k));
    const QuerySpec full = FullRangeSpec();
    auto result = client_->MultiQuery(kTable, canaries, full);
    if (!CallOk(result)) {
      std::fprintf(stderr, "gate: canary query failed\n");
      return false;
    }
    const bool wrong_canary = tamper == Tamper::kCanary;
    for (size_t k = 0; k < kCanaries; ++k) {
      if (!CanaryMatches(k, result->results[k], wrong_canary)) {
        std::fprintf(stderr, "gate: canary %zu read back wrong totals\n", k);
        return false;
      }
    }
    for (IpsNode* node : Nodes()) node->instance().FlushAll();
    Persister reader(kTable, deployment_->kv().master_store(),
                     PersisterOptions{});
    for (size_t k = 0; k < kCanaries; ++k) {
      auto profile = reader.Load(CanaryPid(k));
      if (!profile.ok()) {
        std::fprintf(stderr, "gate: canary %zu missing from master KV: %s\n",
                     k, profile.status().ToString().c_str());
        return false;
      }
      auto stored = ExecuteQuery(*profile, full, clock_.NowMs());
      if (!stored.ok() || !CanaryMatches(k, *stored, wrong_canary)) {
        std::fprintf(stderr, "gate: canary %zu persisted wrong totals\n", k);
        return false;
      }
    }
    const WrittenTotals expected =
        AcknowledgedTotals(ops, tamper == Tamper::kWrite);
    std::vector<ProfileId> unchecked;
    for (const auto& entry : expected) unchecked.push_back(entry.first);
    // FlushAll does not wait for a background flush pass that already took
    // an entry off the dirty list, so the KV copy may be one store behind
    // when it returns. Pids that read back wrong are re-read after another
    // FlushAll; a lost write reads back wrong on every try.
    size_t reread = 0;
    for (int attempt = 0;; ++attempt) {
      std::vector<ProfileId> wrong;
      for (ProfileId pid : unchecked) {
        auto profile = reader.Load(pid);
        if (!profile.ok()) {
          wrong.push_back(pid);
          continue;
        }
        auto stored = ExecuteQuery(*profile, full, clock_.NowMs());
        if (!stored.ok() || !WritesMatch(expected.at(pid), *stored)) {
          wrong.push_back(pid);
        }
      }
      if (wrong.empty()) break;
      if (attempt == kGateRereads) {
        std::fprintf(stderr,
                     "gate: %zu acknowledged pids (first %llu) missing from "
                     "the master KV or with wrong write totals\n",
                     wrong.size(), static_cast<unsigned long long>(wrong[0]));
        return false;
      }
      reread += wrong.size();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      for (IpsNode* node : Nodes()) node->instance().FlushAll();
      unchecked = std::move(wrong);
    }
    std::fprintf(stderr,
                 "gate: %zu canaries and %zu written pids exact (%zu pid "
                 "re-reads)\n",
                 kCanaries, expected.size(), reread);
    return true;
  }

  std::vector<IpsNode*> Nodes() {
    return deployment_->NodesInRegion(deployment_->region_names()[0]);
  }

  MetricsRegistry& metrics() { return metrics_; }
  ReplicatedKv& kv() { return deployment_->kv(); }
  size_t universe_bytes() const { return universe_bytes_; }
  size_t l1_budget_total() const {
    return kNodes * (w_.l1_bytes > 0 ? w_.l1_bytes
                                     : GCacheOptions{}.memory_limit_bytes);
  }

 private:
  template <typename Fn>
  static void RunThreads(Fn fn) {
    std::vector<std::thread> threads;
    threads.reserve(kClientThreads);
    for (size_t t = 0; t < kClientThreads; ++t) {
      threads.emplace_back([&fn, t] { fn(t); });
    }
    for (auto& thread : threads) thread.join();
  }

  /// A call counts as failed on a non-OK call status or any non-OK per-pid
  /// or per-item status (NotFound-as-empty is OK by the API contract).
  template <typename R>
  static bool CallOk(const Result<R>& result) {
    if (!result.ok()) return false;
    for (const Status& s : result->statuses) {
      if (!s.ok()) return false;
    }
    return true;
  }

  /// Written c0 / c1 totals per fid, per pid.
  using WrittenTotals =
      std::unordered_map<ProfileId, std::map<FeatureId, std::pair<int64_t,
                                                                  int64_t>>>;

  /// Sums the records of every acknowledged MultiAdd. With `drop_one`, the
  /// first acknowledged item is left out: a wrong expectation that the gate
  /// must catch.
  WrittenTotals AcknowledgedTotals(const std::vector<Op>& ops,
                                   bool drop_one) const {
    WrittenTotals totals;
    for (const auto& per_thread : acked_adds_) {
      for (uint64_t index : per_thread) {
        const Op& op = ops[index % ops.size()];
        for (size_t i = 0; i < op.pids.size(); ++i) {
          auto& sums = totals[op.pids[i]][op.records[i].fid];
          if (drop_one) {
            drop_one = false;
            continue;
          }
          sums.first += op.records[i].c0;
          sums.second += op.records[i].c1;
        }
      }
    }
    return totals;
  }

  /// The write-range features of `got` are exactly `want`.
  static bool WritesMatch(const std::map<FeatureId,
                                         std::pair<int64_t, int64_t>>& want,
                          const QueryResult& got) {
    size_t seen = 0;
    for (const FeatureResult& f : got.features) {
      if (f.fid <= kWriteFidBase || f.fid > kWriteFidBase + kWriteFids) {
        continue;
      }
      auto it = want.find(f.fid);
      if (it == want.end() || f.counts.At(0) != it->second.first ||
          f.counts.At(1) != it->second.second || f.counts.At(2) != 0 ||
          f.counts.At(3) != 0) {
        return false;
      }
      ++seen;
    }
    return seen == want.size();
  }

  /// The clock only moves forward: to the newest issued op's time.
  void AdvanceClockTo(TimestampMs ms) {
    std::lock_guard<std::mutex> lock(clock_mu_);
    if (clock_.NowMs() < ms) clock_.SetMs(ms);
  }

  bool WriteCanaries() {
    std::vector<MultiAddItem> items;
    for (size_t k = 0; k < kCanaries; ++k) {
      items.push_back(MultiAddItem{CanaryPid(k), CanaryRecords(k)});
    }
    auto result = client_->MultiAdd(kTable, items);
    if (!CallOk(result)) {
      std::fprintf(stderr, "canary write failed\n");
      return false;
    }
    return true;
  }

  static bool CanaryMatches(size_t k, const QueryResult& got, bool tamper) {
    const std::vector<AddRecord> expected = CanaryRecords(k);
    if (got.features.size() != expected.size()) return false;
    for (size_t r = 0; r < expected.size(); ++r) {
      const FeatureResult& f = got.features[r];
      CountVector want = expected[r].counts;
      if (tamper && k == 0 && r == 0) want[0] += 1;
      if (f.fid != expected[r].fid) return false;
      for (size_t a = 0; a < want.size(); ++a) {
        if (f.counts.At(a) != want[a]) return false;
      }
    }
    return true;
  }

  const Workload& w_;
  const uint64_t seed_;
  /// Shared by each MultiAdd call, exclusive for a merge.
  std::shared_mutex add_mu_;
  std::mutex merger_mu_;
  std::condition_variable merger_cv_;
  bool merger_stop_ = false;
  ManualClock clock_{kStartMs};
  std::mutex clock_mu_;
  MetricsRegistry metrics_;
  std::unique_ptr<Deployment> deployment_;
  std::unique_ptr<IpsClient> client_;
  std::atomic<uint64_t> next_op_{0};
  std::atomic<int64_t> warmup_failed_{0};
  /// Per client thread: op indices of acknowledged MultiAdd calls.
  std::vector<std::vector<uint64_t>> acked_adds_ =
      std::vector<std::vector<uint64_t>>(kClientThreads);
  size_t universe_bytes_ = 0;
};

// --- Reporting -------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool traced = false;
  Tamper tamper = Tamper::kNone;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      args->workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      args->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      args->seconds = std::atoi(argv[++i]);
    } else if (a == "--mode" && has_value) {
      const std::string_view mode = argv[++i];
      if (mode != "traced" && mode != "untraced") return false;
      args->traced = mode == "traced";
    } else if (a == "--tamper" && has_value) {
      const std::string_view what = argv[++i];
      if (what != "canary" && what != "write") return false;
      args->tamper = what == "canary" ? Tamper::kCanary : Tamper::kWrite;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

void Put(std::string* json, const char* name, double value) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s\"%s\": %.10g",
                json->size() > 1 ? ", " : "", name, value);
  *json += buf;
}

int Run(const Args& args) {
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (args.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  uint64_t digest = 0;
  const std::vector<Op> ops = GenerateOps(*w, args.seed, &digest);
  std::fprintf(stderr, "%s seed=%llu inputs_digest=%016llx\n", w->name,
               static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(digest));

  // One set-up per process, so peak RSS and set-up time never carry memory
  // over from an earlier deployment; run.py takes medians over processes.
  const int64_t setup_begin = MonotonicNanos();
  auto bench = std::make_unique<Bench>(*w, args.seed);
  if (!bench->SetUp(ops)) return 1;
  const double setup_s =
      static_cast<double>(MonotonicNanos() - setup_begin) / 1e9;
  std::fprintf(stderr, "universe %.1f MB vs L1 %.1f MB\n",
               static_cast<double>(bench->universe_bytes()) / 1048576.0,
               static_cast<double>(bench->l1_budget_total()) / 1048576.0);

  MetricsRegistry& metrics = bench->metrics();
  MemKvStore* master = bench->kv().master_store();
  const std::map<std::string, int64_t> counters_before =
      metrics.SnapshotValues();
  for (const char* h : {"compaction.micros", "broker.batch_pids",
                        "store_broker.batch_pids"}) {
    // Histograms are cumulative; the set-up ended quiesced, so resetting
    // here scopes them to the window.
    metrics.GetHistogram(h)->Reset();
  }
  const int64_t kv_reads_before =
      master->PointReadCalls() + master->MultiGetCalls();
  const int64_t kv_keys_before =
      master->PointReadCalls() + master->MultiGetKeys();
  const int64_t kv_writes_before =
      master->PointWriteCalls() + master->MultiSetCalls();
  const int64_t kv_bytes_before = master->TotalBytesWritten();
#ifdef SERVE_BENCH_ALLOC_HOOK
  const uint64_t allocs_before = GlobalAllocCount();
#endif

  // The timed window, cut into sub-windows: rates, CPU and read percentiles
  // are medians over sub-windows, so one transient stall moves one sample.
  const int sub_windows = args.seconds;
  const int64_t window_ns = static_cast<int64_t>(args.seconds) * 1'000'000'000;
  Bench::Window window;
  window.traced = args.traced;
  const int64_t start_ns = MonotonicNanos();
  window.deadline_ns = start_ns + window_ns;
  std::vector<double> cpu_marks{CpuSeconds()};
  std::thread sampler([&] {
    for (int s = 1; s <= sub_windows; ++s) {
      const int64_t mark = start_ns + window_ns * s / sub_windows;
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          std::max<int64_t>(0, mark - MonotonicNanos())));
      cpu_marks.push_back(CpuSeconds());
    }
  });
  bench->RunOps(ops, 0, &window);
  sampler.join();
#ifdef SERVE_BENCH_ALLOC_HOOK
  const uint64_t allocs_after = GlobalAllocCount();
#endif
  const std::map<std::string, int64_t> counters_after =
      metrics.SnapshotValues();
  auto delta = [&](const char* name) -> double {
    auto a = counters_after.find(name);
    auto b = counters_before.find(name);
    return static_cast<double>((a == counters_after.end() ? 0 : a->second) -
                               (b == counters_before.end() ? 0 : b->second));
  };
  const double peak_rss_mb = PeakRssMb();

  // Fold the per-thread records.
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<int64_t> write_lat;
  std::vector<std::vector<int64_t>> read_lat(static_cast<size_t>(sub_windows));
  std::vector<int64_t> ops_in(static_cast<size_t>(sub_windows), 0);
  for (const auto& per_thread : window.records) {
    for (const Bench::OpRecord& r : per_thread) {
      ++attempted;
      if (!r.ok) ++failed;
      const int64_t offset = r.end_ns - start_ns;
      if (offset >= window_ns) continue;  // completed after the window
      const size_t s = static_cast<size_t>(offset * sub_windows / window_ns);
      ++ops_in[s];
      if (r.query) {
        read_lat[s].push_back(r.latency_ns);
      } else {
        write_lat.push_back(r.latency_ns);
      }
    }
  }
  int64_t acked_adds = 0;
  int64_t new_user_lookups = 0;
  for (size_t t = 0; t < kClientThreads; ++t) {
    acked_adds += window.acked_adds[t];
    new_user_lookups += window.new_user_lookups[t];
  }
  // Every MultiAdd carries kAddItems items of one record each.
  const double writes = static_cast<double>(acked_adds * kAddItems);
  const double record_bytes = writes * kRecordBytes;
  const double sub_seconds = static_cast<double>(args.seconds) / sub_windows;
  std::vector<double> rates, cpus, p50s, p90s, p99s;
  int64_t completed = 0;
  for (size_t s = 0; s < static_cast<size_t>(sub_windows); ++s) {
    completed += ops_in[s];
    rates.push_back(static_cast<double>(ops_in[s]) / sub_seconds);
    cpus.push_back(Ratio((cpu_marks[s + 1] - cpu_marks[s]) * 1e6,
                         static_cast<double>(ops_in[s])));
    p50s.push_back(PercentileUs(read_lat[s], 0.50));
    p90s.push_back(PercentileUs(read_lat[s], 0.90));
    p99s.push_back(PercentileUs(read_lat[s], 0.99));
  }
  const double ops_total = static_cast<double>(std::max<int64_t>(1, completed));
  std::fprintf(stderr, "sub-window ops/s:");
  for (double r : rates) std::fprintf(stderr, " %.0f", r);
  std::fprintf(stderr, "\nsub-window read p99 us:");
  for (double p : p99s) std::fprintf(stderr, " %.0f", p);
  std::fprintf(stderr, "\n");

  std::string json = "{";
  Put(&json, "ops_per_s", Median(rates));
  Put(&json, "read_p50_us", Median(p50s));
  Put(&json, "read_p90_us", Median(p90s));
  Put(&json, "read_p99_us", Median(p99s));
  Put(&json, "write_p50_us", PercentileUs(write_lat, 0.50));
  Put(&json, "write_p99_us", PercentileUs(write_lat, 0.99));
  Put(&json, "cpu_us_per_op", Median(cpus));
  Put(&json, "failed_frac", Ratio(static_cast<double>(failed),
                                  static_cast<double>(attempted)));
  Put(&json, "peak_rss_mb", peak_rss_mb);
  Put(&json, "setup_s", setup_s);
  Put(&json, "write_samples", static_cast<double>(write_lat.size()));
#ifdef SERVE_BENCH_ALLOC_HOOK
  Put(&json, "path.allocs_per_op",
      static_cast<double>(allocs_after - allocs_before) / ops_total);
#endif
  if (args.traced) {
    // Counter and accessor metrics first, while they still describe the
    // window's end; the span trees are analysed last.
    const double reads = delta("cache.hit") + delta("cache.miss");
    const double passes =
        delta("compaction.full") + delta("compaction.partial");
    const double kv_keys = static_cast<double>(
        master->PointReadCalls() + master->MultiGetKeys() - kv_keys_before);
    Histogram* pass_hist = metrics.GetHistogram("compaction.micros");
    Put(&json, "cluster.retries_per_op", delta("client.retries") / ops_total);
    Put(&json, "server.shed_per_op",
        (delta("admission.shed_brownout") + delta("admission.shed_deadline")) /
            ops_total);
    Put(&json, "cache.hit_ratio", Ratio(delta("cache.hit"), reads));
    Put(&json, "cache.evictions_per_op", delta("cache.evicted") / ops_total);
    Put(&json, "cache.broker_pids_per_batch",
        metrics.GetHistogram("broker.batch_pids")->Mean());
    Put(&json, "cache.flushed_per_write", Ratio(delta("cache.flushed"), writes));
    Put(&json, "cache.store_broker_pids_per_batch",
        metrics.GetHistogram("store_broker.batch_pids")->Mean());
    double cache_bytes = 0;
    double cache_entries = 0;
    for (IpsNode* node : bench->Nodes()) {
      auto stats = node->instance().GetTableStats(kTable);
      if (!stats.ok()) continue;
      cache_bytes += static_cast<double>(stats->cache_bytes);
      cache_entries += static_cast<double>(stats->cached_profiles);
    }
    Put(&json, "cache.bytes_per_profile", Ratio(cache_bytes, cache_entries));
    Put(&json, "codec.zero_copy_ratio",
        Ratio(delta("codec.zero_copy_decodes"),
              kv_keys - static_cast<double>(new_user_lookups)));
    Put(&json, "kvstore.read_calls_per_op",
        static_cast<double>(master->PointReadCalls() + master->MultiGetCalls() -
                            kv_reads_before) /
            ops_total);
    Put(&json, "kvstore.read_keys_per_op", kv_keys / ops_total);
    Put(&json, "kvstore.write_calls_per_write",
        Ratio(static_cast<double>(master->PointWriteCalls() +
                                  master->MultiSetCalls() - kv_writes_before),
              writes));
    Put(&json, "kvstore.write_amp",
        Ratio(static_cast<double>(master->TotalBytesWritten() -
                                  kv_bytes_before),
              record_bytes));
    Put(&json, "kvstore.bytes_per_key",
        Ratio(static_cast<double>(master->TotalValueBytes()),
              static_cast<double>(master->KeyCount())));
    Put(&json, "kvstore.replication_backlog",
        static_cast<double>(bench->kv().PendingMutations(0)));
    Put(&json, "compaction.passes_per_op", passes / ops_total);
    Put(&json, "compaction.pass_p50_us",
        static_cast<double>(pass_hist->Percentile(0.50)));
    Put(&json, "compaction.pass_p99_us",
        static_cast<double>(pass_hist->Percentile(0.99)));
    Put(&json, "compaction.slices_merged_per_pass",
        Ratio(delta("compaction.slices_merged"), passes));
    Put(&json, "compaction.stalls_per_pass",
        Ratio(delta("compaction.overlap_stalls"), passes));
    Put(&json, "compaction.dropped_per_trigger",
        Ratio(delta("compaction.dropped"), delta("compaction.triggered")));

    LayerSamples layers;
    for (auto& per_thread : window.traces) {
      for (const auto& trace : per_thread) AnalyzeTrace(trace->Spans(), &layers);
      per_thread.clear();
    }
    Put(&json, "cluster.self_p50_us", PercentileUs(layers.cluster_self, 0.50));
    Put(&json, "cluster.self_p99_us", PercentileUs(layers.cluster_self, 0.99));
    Put(&json, "cluster.rpcs_per_op",
        static_cast<double>(layers.node_calls) / ops_total);
    Put(&json, "server.admit_p50_us", PercentileUs(layers.server_admit, 0.50));
    Put(&json, "server.admit_p99_us", PercentileUs(layers.server_admit, 0.99));
    Put(&json, "server.query_p50_us", PercentileUs(layers.server_query, 0.50));
    Put(&json, "server.query_p99_us", PercentileUs(layers.server_query, 0.99));
    Put(&json, "server.add_p50_us", PercentileUs(layers.server_add, 0.50));
    Put(&json, "server.add_p99_us", PercentileUs(layers.server_add, 0.99));
    Put(&json, "cache.lookup_p50_us", PercentileUs(layers.cache_lookup, 0.50));
    Put(&json, "cache.lookup_p99_us", PercentileUs(layers.cache_lookup, 0.99));
    Put(&json, "cache.broker_wait_p50_us",
        PercentileUs(layers.broker_wait, 0.50));
    Put(&json, "cache.broker_wait_p99_us",
        PercentileUs(layers.broker_wait, 0.99));
    int64_t compute_total = 0;
    for (int64_t c : layers.compute) compute_total += c;
    Put(&json, "query.compute_p50_us", PercentileUs(layers.compute, 0.50));
    Put(&json, "query.compute_p99_us", PercentileUs(layers.compute, 0.99));
    Put(&json, "query.compute_us_per_profile",
        Ratio(static_cast<double>(compute_total) / 1000.0,
              static_cast<double>(layers.compute.size())));
    Put(&json, "codec.decode_p50_us", PercentileUs(layers.decode, 0.50));
    Put(&json, "codec.decode_p99_us", PercentileUs(layers.decode, 0.99));
    Put(&json, "kvstore.load_p50_us", PercentileUs(layers.kv_load, 0.50));
    Put(&json, "kvstore.load_p99_us", PercentileUs(layers.kv_load, 0.99));
  }
  json += "}";

  if (!bench->CheckCorrectness(ops, args.tamper)) {
    std::fprintf(stderr, "correctness gate FAILED\n");
    return 1;
  }
  if (failed > 0) {
    std::fprintf(stderr, "%lld of %lld calls failed\n",
                 static_cast<long long>(failed),
                 static_cast<long long>(attempted));
    return 1;
  }
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"inputs_digest\": \"%016llx\", "
      "\"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
      w->name, static_cast<unsigned long long>(args.seed),
      static_cast<unsigned long long>(digest),
      static_cast<long long>(attempted), static_cast<long long>(failed),
      json.c_str());
  return 0;
}

}  // namespace
}  // namespace ips

int main(int argc, char** argv) {
  ips::Args args;
  if (!ips::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: serve_bench --workload NAME --seed N --seconds S "
                 "[--mode untraced|traced] [--tamper canary|write]\n");
    return 2;
  }
  return ips::Run(args);
}
