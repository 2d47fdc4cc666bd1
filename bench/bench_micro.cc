// Micro-benchmarks (google-benchmark) for the core building blocks, plus
// the design-choice ablations DESIGN.md calls out:
//   * sharded-LRU + try_lock swap vs a single global mutex (Fig 7/8),
//   * the serving query kernel on perfbench-shaped profiles,
//   * codec / compression throughput (the Fig 12 serialization path),
//   * consistent-hash routing cost,
//   * tracing hot-path overhead with sampling off vs a live trace.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "cluster/consistent_hash.h"
#include "codec/coding.h"
#include "codec/compress.h"
#include "codec/profile_codec.h"
#include "common/alloc_hook.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/trace.h"
#include "core/profile_data.h"
#include "core/table_schema.h"
#include "kvstore/mem_kv_store.h"
#include "query/query.h"
#include "server/ips_instance.h"
#include "server/quota.h"
#include "tests/perfbench_profile.h"

namespace ips {
namespace {

// Publishes the heap allocations performed per iteration as an "allocs/op"
// column (counted by the operator-new hook this binary links in).
void ReportAllocs(benchmark::State& state, uint64_t allocs_before) {
  state.counters["allocs/op"] = benchmark::Counter(
      static_cast<double>(ThreadAllocCount() - allocs_before),
      benchmark::Counter::kAvgIterations);
}

// ---------------------------------------------------------------- codec ---

void BM_VarintEncodeDecode(benchmark::State& state) {
  Rng rng(1);
  std::vector<uint64_t> values(1024);
  for (auto& v : values) v = rng.Next() >> (rng.Uniform(60));
  for (auto _ : state) {
    std::string buf;
    for (uint64_t v : values) PutVarint64(&buf, v);
    Decoder dec(buf);
    uint64_t out, sum = 0;
    while (dec.GetVarint64(&out)) sum += out;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * values.size());
}
BENCHMARK(BM_VarintEncodeDecode);

ProfileData BuildProfile(int slices, int features_per_slice) {
  Rng rng(3);
  ProfileData profile(kMillisPerMinute);
  const TimestampMs base = 100 * kMillisPerDay;
  for (int s = 0; s < slices; ++s) {
    for (int f = 0; f < features_per_slice; ++f) {
      profile
          .Add(base + s * kMillisPerMinute, static_cast<SlotId>(f % 4),
               static_cast<TypeId>(f % 3), rng.Next() | 1,
               CountVector{1, 2, 0, 1})
          .ok();
    }
  }
  return profile;
}

void BM_ProfileEncode(benchmark::State& state) {
  ProfileData profile = BuildProfile(static_cast<int>(state.range(0)), 20);
  std::string out;
  for (auto _ : state) {
    EncodeProfile(profile, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * out.size());
}
BENCHMARK(BM_ProfileEncode)->Arg(8)->Arg(62)->Arg(256);

void BM_ProfileDecode(benchmark::State& state) {
  ProfileData profile = BuildProfile(static_cast<int>(state.range(0)), 20);
  std::string encoded;
  EncodeProfile(profile, &encoded);
  for (auto _ : state) {
    ProfileData decoded;
    DecodeProfile(encoded, &decoded).ok();
    benchmark::DoNotOptimize(decoded.SliceCount());
  }
  state.SetBytesProcessed(state.iterations() * encoded.size());
}
BENCHMARK(BM_ProfileDecode)->Arg(8)->Arg(62)->Arg(256);

// The serving-path decode: the 3-arg DecodeProfile that aliases the
// uncompressed image straight out of the stored bytes when the frame was
// raw-stored (incompressible profiles), with an allocs/op column and the
// fraction of iterations served zero-copy.
void BM_DecodeProfile(benchmark::State& state) {
  ProfileData profile = BuildProfile(static_cast<int>(state.range(0)), 20);
  std::string encoded;
  EncodeProfile(profile, &encoded);
  const uint64_t zero_copy_before = ZeroCopyDecodeCount();
  const uint64_t allocs_before = ThreadAllocCount();
  for (auto _ : state) {
    ProfileData decoded;
    bool zero_copy = false;
    DecodeProfile(encoded, &decoded, &zero_copy).ok();
    benchmark::DoNotOptimize(decoded.SliceCount());
  }
  ReportAllocs(state, allocs_before);
  state.counters["zero_copy/op"] = benchmark::Counter(
      static_cast<double>(ZeroCopyDecodeCount() - zero_copy_before),
      benchmark::Counter::kAvgIterations);
  state.SetBytesProcessed(state.iterations() * encoded.size());
}
BENCHMARK(BM_DecodeProfile)->Arg(8)->Arg(62)->Arg(256);

// The serving benchmark's profile shape (tests/perfbench_profile.h: 24
// records on a 3-hour grid over 3 days, fully compacted to 10 slices): the
// decode every cache miss pays, the deep copy every write-back snapshot
// pays, and the serving query every hit pays, each with allocs/op.
void BM_PerfbenchDecode(benchmark::State& state) {
  std::string encoded;
  EncodeProfile(PerfbenchProfile(1, 7), &encoded);
  const uint64_t allocs_before = ThreadAllocCount();
  for (auto _ : state) {
    ProfileData decoded;
    DecodeProfile(encoded, &decoded).ok();
    benchmark::DoNotOptimize(decoded.SliceCount());
  }
  ReportAllocs(state, allocs_before);
}
BENCHMARK(BM_PerfbenchDecode);

// The frame checksum over the same profile's uncompressed image (359
// bytes): paid once per decoded frame and once per flushed value.
void BM_Checksum32(benchmark::State& state) {
  std::string raw;
  EncodeProfileRaw(PerfbenchProfile(1, 7), &raw);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Checksum32(raw.data(), raw.size()));
  }
  state.SetBytesProcessed(state.iterations() * raw.size());
}
BENCHMARK(BM_Checksum32);

void BM_PerfbenchDeepCopy(benchmark::State& state) {
  const ProfileData profile = PerfbenchProfile(1, 7);
  const uint64_t allocs_before = ThreadAllocCount();
  for (auto _ : state) {
    ProfileData copy = profile;
    benchmark::DoNotOptimize(copy.SliceCount());
  }
  ReportAllocs(state, allocs_before);
}
BENCHMARK(BM_PerfbenchDeepCopy);

// The serving query on `profile` into a reused result.
void RunServingQuery(benchmark::State& state, const ProfileData& profile) {
  const QuerySpec spec = PerfbenchServingSpec();
  QueryScratch scratch;
  QueryResult result;
  const uint64_t allocs_before = ThreadAllocCount();
  for (auto _ : state) {
    ExecuteQueryInto(profile, spec, kPerfbenchNowMs, &scratch, &result).ok();
    benchmark::DoNotOptimize(result.features.size());
  }
  ReportAllocs(state, allocs_before);
}

void BM_PerfbenchServingQuery(benchmark::State& state) {
  RunServingQuery(state, PerfbenchProfile(1, 7));
}
BENCHMARK(BM_PerfbenchServingQuery);

// The same query on perfbench's `read_hot` shape: the profile plus two
// one-minute write slices (tests/perfbench_profile.h).
void BM_PerfbenchHotServingQuery(benchmark::State& state) {
  RunServingQuery(state, PerfbenchHotProfile(1, 7));
}
BENCHMARK(BM_PerfbenchHotServingQuery);

void BM_BlockCompress(benchmark::State& state) {
  ProfileData profile = BuildProfile(62, 20);
  std::string raw;
  raw.reserve(EncodedProfileSizeUncompressed(profile));
  // Compress the serialized (pre-compression) profile bytes.
  {
    std::string compressed;
    EncodeProfile(profile, &compressed);
    BlockUncompress(compressed, &raw).ok();
  }
  std::string out;
  for (auto _ : state) {
    BlockCompress(raw, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * raw.size());
}
BENCHMARK(BM_BlockCompress);

// ---------------------------------------------------------------- query ---

void BM_QueryTopK(benchmark::State& state) {
  ProfileData profile = BuildProfile(62, static_cast<int>(state.range(0)));
  const TimestampMs now = 101 * kMillisPerDay;
  const uint64_t allocs_before = ThreadAllocCount();
  for (auto _ : state) {
    auto result = GetProfileTopK(profile, 1, std::nullopt,
                                 TimeRange::Current(2 * kMillisPerDay),
                                 SortBy::kActionCount, 0, 20, now);
    benchmark::DoNotOptimize(result.ok());
  }
  ReportAllocs(state, allocs_before);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QueryTopK)->Arg(10)->Arg(40)->Arg(160);

// The steady-state serving compute: warmed scratch + reused result, the
// configuration the --smoke gate asserts performs zero heap allocations.
void BM_QueryTopKWarmScratch(benchmark::State& state) {
  ProfileData profile = BuildProfile(62, static_cast<int>(state.range(0)));
  const TimestampMs now = 101 * kMillisPerDay;
  QuerySpec spec;
  spec.slot = 1;
  spec.time_range = TimeRange::Current(2 * kMillisPerDay);
  spec.sort_by = SortBy::kActionCount;
  spec.k = 20;
  QueryScratch scratch;
  QueryResult result;
  ExecuteQueryInto(profile, spec, now, &scratch, &result).ok();  // warm-up
  const uint64_t allocs_before = ThreadAllocCount();
  for (auto _ : state) {
    ExecuteQueryInto(profile, spec, now, &scratch, &result).ok();
    benchmark::DoNotOptimize(result.features.size());
  }
  ReportAllocs(state, allocs_before);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QueryTopKWarmScratch)->Arg(10)->Arg(40)->Arg(160);

void BM_QueryDecay(benchmark::State& state) {
  ProfileData profile = BuildProfile(62, 40);
  const TimestampMs now = 101 * kMillisPerDay;
  DecaySpec decay;
  decay.function = DecayFunction::kExponential;
  decay.factor = 0.9;
  decay.unit_ms = kMillisPerDay;
  for (auto _ : state) {
    auto result = GetProfileDecay(profile, 1, std::nullopt,
                                  TimeRange::Current(2 * kMillisPerDay),
                                  decay, now);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_QueryDecay);

// ------------------------------------------------------------ LRU ablation

// Minimal single-mutex LRU vs the sharded design: measures lock-acquisition
// throughput under contention from multiple threads (the phenomenon Fig 7
// addresses).
struct GlobalLru {
  std::mutex mu;
  std::list<uint64_t> lru;
  std::unordered_map<uint64_t, std::list<uint64_t>::iterator> pos;

  void Touch(uint64_t key) {
    std::lock_guard<std::mutex> lock(mu);
    auto it = pos.find(key);
    if (it != pos.end()) {
      lru.splice(lru.begin(), lru, it->second);
    } else {
      lru.push_front(key);
      pos[key] = lru.begin();
      if (lru.size() > 4096) {
        pos.erase(lru.back());
        lru.pop_back();
      }
    }
  }
};

struct ShardedLru {
  static constexpr int kShards = 16;
  GlobalLru shards[kShards];
  void Touch(uint64_t key) { shards[Mix64(key) % kShards].Touch(key); }
};

GlobalLru* TheGlobalLru() {
  static GlobalLru* const lru = new GlobalLru();
  return lru;
}
ShardedLru* TheShardedLru() {
  static ShardedLru* const lru = new ShardedLru();
  return lru;
}

void BM_LruGlobalMutex(benchmark::State& state) {
  Rng rng(state.thread_index() + 1);
  for (auto _ : state) {
    TheGlobalLru()->Touch(rng.Uniform(8192));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruGlobalMutex)->Threads(1)->Threads(4)->Threads(8);

void BM_LruSharded(benchmark::State& state) {
  Rng rng(state.thread_index() + 1);
  for (auto _ : state) {
    TheShardedLru()->Touch(rng.Uniform(8192));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruSharded)->Threads(1)->Threads(4)->Threads(8);

// ---------------------------------------------------------------- quota ---

// Admission-path cost of QuotaManager::Check under thread contention. Two
// shapes: every thread hammering ONE caller (all contend on a single
// bucket's shard) vs threads spread over many callers (the 16-way shard map
// keeps them apart). The gap between the two is what the sharded caller map
// buys on the hot admission path.
QuotaManager* TheQuotaManager() {
  static QuotaManager* const quota = [] {
    static SystemClock clock;
    auto* q = new QuotaManager(&clock);
    // Refills at 1e9 tokens/s in real time: never drains under bench load,
    // so every iteration measures the grant path, not rejection.
    q->SetQuota("hot", 1e9);
    for (int c = 0; c < 64; ++c) {
      q->SetQuota("caller-" + std::to_string(c), 1e9);
    }
    return q;
  }();
  return quota;
}

void BM_QuotaCheckHotCaller(benchmark::State& state) {
  QuotaManager* quota = TheQuotaManager();
  for (auto _ : state) {
    benchmark::DoNotOptimize(quota->Check("hot").ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QuotaCheckHotCaller)->Threads(1)->Threads(4)->Threads(8);

void BM_QuotaCheckShardedCallers(benchmark::State& state) {
  QuotaManager* quota = TheQuotaManager();
  Rng rng(state.thread_index() + 1);
  // Pre-build the names: the benchmark measures Check, not string concat.
  std::vector<std::string> callers;
  for (int c = 0; c < 64; ++c) callers.push_back("caller-" + std::to_string(c));
  for (auto _ : state) {
    benchmark::DoNotOptimize(quota->Check(callers[rng.Uniform(64)]).ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QuotaCheckShardedCallers)->Threads(1)->Threads(4)->Threads(8);

// ------------------------------------------------------- consistent hash ---

void BM_ConsistentHashLookup(benchmark::State& state) {
  ConsistentHashRing ring;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    ring.AddNode("node-" + std::to_string(i));
  }
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.Lookup(rng.Next()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConsistentHashLookup)->Arg(8)->Arg(64)->Arg(1024);

// -------------------------------------------------------------- tracing ---

// The cost a span site adds to an UNSAMPLED request: no trace installed, so
// ScopedSpan must reduce to a thread-local read and a branch. This is the
// per-site overhead every query pays when sampling is off.
void BM_SpanDisabled(benchmark::State& state) {
  const int64_t allocs_before = Trace::Allocations();
  for (auto _ : state) {
    ScopedSpan span("bench.noop");
    benchmark::DoNotOptimize(span.active());
  }
  state.SetItemsProcessed(state.iterations());
  if (Trace::Allocations() != allocs_before) {
    state.SkipWithError("disabled span allocated");
  }
}
BENCHMARK(BM_SpanDisabled);

// Same site with a live trace installed: one mutex-guarded vector append per
// span open/close pair.
void BM_SpanEnabled(benchmark::State& state) {
  Trace trace(/*trace_id=*/1, /*start_ms=*/0);
  TraceContext ctx{&trace, kNoSpan};
  TraceInstallScope install(ctx);
  for (auto _ : state) {
    ScopedSpan span("rpc.transfer");
    benchmark::DoNotOptimize(span.active());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanEnabled);

// ---------------------------------------------------------------- write ---

void BM_ProfileAdd(benchmark::State& state) {
  Rng rng(6);
  ProfileData profile(kMillisPerMinute);
  TimestampMs now = kMillisPerDay;
  for (auto _ : state) {
    now += 100;
    profile
        .Add(now, static_cast<SlotId>(rng.Uniform(8)),
             static_cast<TypeId>(rng.Uniform(4)), rng.Uniform(1000) + 1,
             CountVector{1})
        .ok();
    benchmark::DoNotOptimize(profile.SliceCount());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfileAdd);

// ---------------------------------------------------------------- smoke ---

// Heap allocations of one resident 16-pid IpsInstance::MultiQuery — the
// serving shape, where every pid gets a fresh QueryResult — as the most any
// of `calls` measured calls made. Background threads off and synchronous
// compaction keep every allocation on this thread and the count exact.
// Returns -1 when a call fails.
int64_t MultiQueryAllocs(const QuerySpec& spec, TimestampMs now, int calls) {
  constexpr size_t kPids = 16;
  ManualClock clock(now);
  MemKvStore kv;
  IpsInstanceOptions options;
  options.start_background_threads = false;
  options.compaction.synchronous = true;
  options.isolation_enabled = false;
  IpsInstance instance(options, &kv, &clock);
  if (!instance.CreateTable(DefaultTableSchema("t")).ok()) return -1;
  Rng rng(5);
  std::vector<ProfileId> pids;
  for (ProfileId pid = 1; pid <= kPids; ++pid) {
    std::vector<AddRecord> records;
    for (int r = 0; r < 160; ++r) {
      records.push_back(AddRecord{
          now - static_cast<TimestampMs>(rng.Uniform(kMillisPerDay)),
          static_cast<SlotId>(r % 4), static_cast<TypeId>(r % 3),
          rng.Next() | 1, CountVector{1, 2, 0, 1}});
    }
    if (!instance.AddProfiles("smoke", "t", pid, records).ok()) return -1;
    pids.push_back(pid);
  }
  int64_t most = 0;
  // The first calls warm the thread's scratch and settle compaction.
  for (int call = -4; call < calls; ++call) {
    const uint64_t allocs_before = ThreadAllocCount();
    auto result = instance.MultiQuery("smoke", "t", pids, spec);
    const uint64_t allocs = ThreadAllocCount() - allocs_before;
    if (!result.ok() || result->cache_hits != kPids) return -1;
    if (call >= 0) most = std::max(most, static_cast<int64_t>(allocs));
  }
  return most;
}

// ctest gate (`bench_micro --smoke`): a warmed QueryScratch must execute the
// serving compute core with ZERO heap allocations per query into a reused
// result and at most ONE (the features array) into a fresh one, the same
// holds for perfbench's read_hot query shape into a reused result, a
// resident 16-pid MultiQuery must stay within kMultiQueryAllocBudget, and
// the perfbench-shaped profile must decode and deep-copy within the layout
// budgets of ProfileLayoutSmoke. Runs in every build flavor, including the
// ASan/TSan tier-1 passes (the counting operator-new hook forwards to
// malloc, so the sanitizer interceptors still see every allocation that
// does happen).
// Heap allocations per call of `op`, averaged over `iters` calls after one
// warm-up call.
template <typename Op>
double AllocsPerCall(int iters, Op op) {
  op();
  const uint64_t before = ThreadAllocCount();
  for (int i = 0; i < iters; ++i) op();
  return static_cast<double>(ThreadAllocCount() - before) / iters;
}

// Profile layout gates on the perfbench-shaped profile: a decode
// (BM_PerfbenchDecode) and a deep copy (the write-back snapshot) each make
// one allocation per slice (its row block) plus the slice vector: 11.
// Returns the number of failed gates.
int ProfileLayoutSmoke() {
  const ProfileData profile = PerfbenchProfile(1, 7);
  const double slices = static_cast<double>(profile.SliceCount());
  std::string encoded;
  EncodeProfile(profile, &encoded);
  const double decode = AllocsPerCall(100, [&] {
    ProfileData decoded;
    DecodeProfile(encoded, &decoded).ok();
    benchmark::DoNotOptimize(decoded.SliceCount());
  });
  const double copy = AllocsPerCall(100, [&] {
    ProfileData snapshot = profile;
    benchmark::DoNotOptimize(snapshot.SliceCount());
  });
  std::fprintf(stderr,
               "[smoke] perfbench-shaped profile (%.0f slices, %zu bytes "
               "accounted): decode %.2f allocations (budget %.0f), deep "
               "copy %.2f (budget %.0f)\n",
               slices, profile.ApproximateBytes(), decode, slices + 1, copy,
               slices + 1);
  int failures = 0;
  if (decode > slices + 1) {
    std::fprintf(stderr, "[smoke] FAIL: profile decode over budget\n");
    ++failures;
  }
  if (copy > slices + 1) {
    std::fprintf(stderr, "[smoke] FAIL: profile deep copy over budget\n");
    ++failures;
  }
  return failures;
}

int RunAllocSmoke() {
  // 16 fresh results' feature arrays and the batch's two returned vectors
  // (measured: 18), plus one spare.
  constexpr int64_t kMultiQueryAllocBudget = 19;
  if (!AllocHookInstalled()) {
    std::fprintf(stderr, "[smoke] FAIL: alloc hook not linked in\n");
    return 1;
  }

  ProfileData profile = BuildProfile(62, 40);
  const TimestampMs now = 101 * kMillisPerDay;

  QuerySpec topk;
  topk.slot = 1;
  topk.time_range = TimeRange::Current(2 * kMillisPerDay);
  topk.sort_by = SortBy::kActionCount;
  topk.k = 20;

  QuerySpec decay = topk;
  decay.decay.function = DecayFunction::kExponential;
  decay.decay.factor = 0.9;
  decay.decay.unit_ms = kMillisPerDay;

  int failures = 0;
  const std::pair<const char*, const QuerySpec*> cases[] = {{"topk", &topk},
                                                            {"decay", &decay}};
  for (const auto& [name, spec_ptr] : cases) {
    const QuerySpec& spec = *spec_ptr;
    QueryScratch scratch;
    QueryResult result;
    // Warm-up: the first queries grow every scratch buffer (and the result's
    // feature elements) to their high-water size.
    for (int i = 0; i < 8; ++i) {
      if (!ExecuteQueryInto(profile, spec, now, &scratch, &result).ok()) {
        std::fprintf(stderr, "[smoke] FAIL: %s query errored\n", name);
        return 1;
      }
    }
    if (result.features.empty()) {
      std::fprintf(stderr, "[smoke] FAIL: %s query returned no features\n",
                   name);
      return 1;
    }
    constexpr int kIters = 1000;
    const uint64_t allocs_before = ThreadAllocCount();
    for (int i = 0; i < kIters; ++i) {
      ExecuteQueryInto(profile, spec, now, &scratch, &result).ok();
    }
    const uint64_t allocs = ThreadAllocCount() - allocs_before;
    std::fprintf(stderr,
                 "[smoke] %-5s warm path: %d queries, %llu heap allocations, "
                 "%zu features/query\n",
                 name, kIters, static_cast<unsigned long long>(allocs),
                 result.features.size());
    if (allocs != 0) {
      std::fprintf(stderr,
                   "[smoke] FAIL: warm %s query path allocated (want 0)\n",
                   name);
      ++failures;
    }

    // The serving shape: the server writes each pid into a fresh result, so
    // only its features array may allocate.
    const uint64_t fresh_before = ThreadAllocCount();
    for (int i = 0; i < kIters; ++i) {
      QueryResult fresh;
      ExecuteQueryInto(profile, spec, now, &scratch, &fresh).ok();
      benchmark::DoNotOptimize(fresh.features.data());
    }
    const uint64_t fresh_allocs = ThreadAllocCount() - fresh_before;
    std::fprintf(stderr,
                 "[smoke] %-5s fresh result: %d queries, %llu heap "
                 "allocations (%.2f/query, budget 1)\n",
                 name, kIters, static_cast<unsigned long long>(fresh_allocs),
                 static_cast<double>(fresh_allocs) / kIters);
    if (fresh_allocs > static_cast<uint64_t>(kIters)) {
      std::fprintf(stderr,
                   "[smoke] FAIL: %s query into a fresh result made more "
                   "than 1 allocation\n",
                   name);
      ++failures;
    }
  }

  {
    // perfbench's read_hot shape into a reused result: no allocation.
    const ProfileData hot = PerfbenchHotProfile(1, 7);
    const QuerySpec spec = PerfbenchServingSpec();
    QueryScratch scratch;
    QueryResult result;
    const double allocs = AllocsPerCall(1000, [&] {
      ExecuteQueryInto(hot, spec, kPerfbenchNowMs, &scratch, &result).ok();
      benchmark::DoNotOptimize(result.features.data());
    });
    std::fprintf(stderr,
                 "[smoke] read_hot-shaped query (%zu of %zu features): %.3f "
                 "heap allocations/query into a reused result (budget 0)\n",
                 result.features.size(), result.features_merged, allocs);
    if (result.features.empty() || allocs != 0) {
      std::fprintf(stderr,
                   "[smoke] FAIL: read_hot-shaped query allocated or "
                   "returned nothing\n");
      ++failures;
    }
  }

  const int64_t multi_allocs = MultiQueryAllocs(topk, now, 16);
  std::fprintf(stderr,
               "[smoke] 16-pid resident MultiQuery: %lld heap allocations "
               "(most of 16 calls, budget %lld)\n",
               static_cast<long long>(multi_allocs),
               static_cast<long long>(kMultiQueryAllocBudget));
  if (multi_allocs < 0) {
    std::fprintf(stderr, "[smoke] FAIL: resident MultiQuery failed\n");
    return 1;
  }
  if (multi_allocs > kMultiQueryAllocBudget) {
    std::fprintf(stderr,
                 "[smoke] FAIL: resident MultiQuery over its allocation "
                 "budget\n");
    ++failures;
  }

  failures += ProfileLayoutSmoke();

  // Zero-copy decode sanity: a raw-stored frame (incompressible payload)
  // must uncompress by aliasing, not by copying into the scratch.
  {
    Rng rng(11);
    std::string payload(512, '\0');
    for (auto& c : payload) c = static_cast<char>(rng.Next());
    std::string compressed;
    BlockCompress(payload, &compressed);
    std::string scratch;
    std::string_view view;
    bool aliased = false;
    if (!BlockUncompressView(compressed, &scratch, &view, &aliased).ok() ||
        view != payload) {
      std::fprintf(stderr, "[smoke] FAIL: BlockUncompressView roundtrip\n");
      return 1;
    }
    std::fprintf(stderr, "[smoke] raw-store decode aliased=%d\n",
                 aliased ? 1 : 0);
    if (!aliased) {
      std::fprintf(stderr,
                   "[smoke] FAIL: incompressible frame was not zero-copy\n");
      ++failures;
    }
  }

  if (failures == 0) std::fprintf(stderr, "[smoke] PASS\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace ips

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return ips::RunAllocSmoke();
  }
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
