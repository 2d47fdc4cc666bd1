// Tests for request tracing: span mechanics, the TraceCollector, and the
// end-to-end attribution path through client -> channel -> instance ->
// cache -> persister -> kv store.
#include "common/trace.h"
#include "common/trace_collector.h"

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/client.h"
#include "cluster/deployment.h"
#include "common/clock.h"
#include "common/config.h"

namespace ips {
namespace {

constexpr int64_t kMinute = kMillisPerMinute;
constexpr int64_t kDay = kMillisPerDay;

// ------------------------------------------------------- span mechanics ---

TEST(TraceTest, SpansNestViaThreadLocalContext) {
  Trace trace(/*trace_id=*/1, /*start_ms=*/0);
  {
    TraceInstallScope install(TraceCollector::ContextFor(&trace));
    ScopedSpan outer("client.query");
    EXPECT_TRUE(outer.active());
    {
      ScopedSpan inner("cache.lookup");
      EXPECT_TRUE(inner.active());
    }
    ScopedSpan sibling("feature.compute");
  }
  const std::vector<TraceSpan> spans = trace.Spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_STREQ(spans[0].name, "client.query");
  EXPECT_EQ(spans[0].parent, kNoSpan);
  EXPECT_STREQ(spans[1].name, "cache.lookup");
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_STREQ(spans[2].name, "feature.compute");
  EXPECT_EQ(spans[2].parent, 0);
  for (const TraceSpan& span : spans) {
    EXPECT_GT(span.end_ns, 0);
    EXPECT_GE(span.end_ns, span.start_ns);
  }
  EXPECT_GT(trace.DurationNs(), 0);
  EXPECT_GE(trace.StageNs("client.query"),
            trace.StageNs("cache.lookup") + trace.StageNs("feature.compute"));
  EXPECT_EQ(trace.StageNs("kv.load"), 0);
}

TEST(TraceTest, InstallScopeRestoresPreviousContext) {
  Trace outer_trace(1, 0);
  Trace inner_trace(2, 0);
  EXPECT_FALSE(CurrentTrace().active());
  {
    TraceInstallScope outer(TraceCollector::ContextFor(&outer_trace));
    EXPECT_EQ(CurrentTrace().trace, &outer_trace);
    {
      TraceInstallScope inner(TraceCollector::ContextFor(&inner_trace));
      EXPECT_EQ(CurrentTrace().trace, &inner_trace);
    }
    EXPECT_EQ(CurrentTrace().trace, &outer_trace);
    {
      // An inactive context must NOT sever the installed trace: inner layers
      // receive default CallContexts all the time.
      TraceInstallScope noop{TraceContext{}};
      EXPECT_EQ(CurrentTrace().trace, &outer_trace);
    }
  }
  EXPECT_FALSE(CurrentTrace().active());
}

TEST(TraceTest, NoInstalledTraceMeansNoAllocations) {
  const int64_t before = Trace::Allocations();
  for (int i = 0; i < 100; ++i) {
    ScopedSpan span("cache.lookup");
    EXPECT_FALSE(span.active());
  }
  EXPECT_EQ(Trace::Allocations(), before);
}

TEST(TraceTest, ConcurrentSpanAppendsAreSafe) {
  Trace trace(1, 0);
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&trace] {
      TraceInstallScope install(TraceCollector::ContextFor(&trace));
      for (int i = 0; i < 50; ++i) {
        ScopedSpan span("rpc.transfer");
      }
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(trace.Spans().size(), 200u);
}

// ------------------------------------------------------- TraceCollector ---

TEST(TraceCollectorTest, SamplesOneInEveryN) {
  ManualClock clock(0);
  MetricsRegistry metrics;
  TraceCollectorOptions options;
  options.sample_every_n = 3;
  TraceCollector collector(options, &clock, &metrics);
  int sampled = 0;
  for (int i = 0; i < 9; ++i) {
    if (collector.MaybeStartTrace() != nullptr) ++sampled;
  }
  EXPECT_EQ(sampled, 3);
  EXPECT_EQ(metrics.GetCounter("trace.sampled")->Value(), 3);
}

TEST(TraceCollectorTest, SamplingOffNeverStartsAndNeverAllocates) {
  ManualClock clock(0);
  MetricsRegistry metrics;
  TraceCollector collector(TraceCollectorOptions{}, &clock, &metrics);
  const int64_t before = Trace::Allocations();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(collector.MaybeStartTrace(), nullptr);
  }
  EXPECT_EQ(Trace::Allocations(), before);
  EXPECT_EQ(metrics.GetCounter("trace.sampled")->Value(), 0);
}

TEST(TraceCollectorTest, RingEvictsOldestAndSlowLogKeepsWorst) {
  ManualClock clock(0);
  MetricsRegistry metrics;
  TraceCollectorOptions options;
  options.sample_every_n = 1;
  options.ring_capacity = 2;
  options.slow_log_capacity = 2;
  TraceCollector collector(options, &clock, &metrics);

  // Three traces with clearly increasing durations (sleep only oversleeps,
  // so the ordering is robust).
  const int sleep_ms[] = {1, 8, 16};
  std::vector<uint64_t> ids;
  for (int ms : sleep_ms) {
    auto trace = collector.MaybeStartTrace();
    ASSERT_NE(trace, nullptr);
    ids.push_back(trace->trace_id());
    {
      TraceInstallScope install(TraceCollector::ContextFor(trace.get()));
      ScopedSpan span("server.query");
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    }
    collector.Finish(std::move(trace));
  }

  EXPECT_EQ(collector.RetainedCount(), 2u);
  EXPECT_EQ(metrics.GetCounter("trace.ring_evicted")->Value(), 1);
  EXPECT_EQ(metrics.GetGauge("trace.ring_size")->Value(), 2);
  EXPECT_EQ(metrics.GetCounter("trace.finished")->Value(), 3);

  const std::vector<SlowQueryEntry> slow = collector.SlowQueries();
  ASSERT_EQ(slow.size(), 2u);
  EXPECT_EQ(slow[0].trace_id, ids[2]);  // 16 ms
  EXPECT_EQ(slow[1].trace_id, ids[1]);  // 8 ms
  EXPECT_GT(slow[0].duration_us, slow[1].duration_us);
  ASSERT_FALSE(slow[0].stages.empty());
  EXPECT_EQ(slow[0].stages[0].first, "server.query");

  // The aggregate histogram saw all three traces.
  EXPECT_EQ(metrics.GetHistogram("trace.stage.server.query")->count(), 3);
  const std::string report = collector.SlowQueryReport();
  EXPECT_NE(report.find("server.query="), std::string::npos);
}

// ------------------------------------------------- end-to-end attribution ---

DeploymentOptions TracedClusterOptions() {
  DeploymentOptions options;
  options.regions = {{"lf", 2, /*is_primary=*/true}};
  options.instance.start_background_threads = false;
  options.instance.compaction.synchronous = true;
  options.instance.isolation_enabled = false;
  options.instance.cache.write_granularity_ms = kMinute;
  return options;
}

class TraceE2eTest : public ::testing::Test {
 protected:
  TraceE2eTest()
      : clock_(100 * kDay), deployment_(TracedClusterOptions(), &clock_) {
    TableSchema schema = DefaultTableSchema("profiles");
    schema.write_granularity_ms = kMinute;
    EXPECT_TRUE(deployment_.CreateTableEverywhere(schema).ok());
    IpsClientOptions client_options;
    client_options.caller = "trace-test";
    client_options.local_region = "lf";
    client_ = std::make_unique<IpsClient>(client_options, &deployment_);
  }

  QuerySpec Spec() const {
    QuerySpec spec;
    spec.slot = 1;
    spec.time_range = TimeRange::Current(kDay);
    spec.sort_by = SortBy::kActionCount;
    spec.k = 10;
    return spec;
  }

  void WriteProfile(ProfileId pid) {
    ASSERT_TRUE(client_
                    ->AddProfile("profiles", pid, clock_.NowMs() - kMinute, 1,
                                 1, 42, CountVector{1})
                    .ok());
  }

  static std::vector<std::string> SpanNames(const Trace& trace) {
    std::vector<std::string> names;
    for (const TraceSpan& span : trace.Spans()) names.push_back(span.name);
    return names;
  }

  static size_t CountName(const std::vector<std::string>& names,
                          const std::string& want) {
    return static_cast<size_t>(
        std::count(names.begin(), names.end(), want));
  }

  ManualClock clock_;
  Deployment deployment_;
  std::unique_ptr<IpsClient> client_;
};

TEST_F(TraceE2eTest, QueryRecordsHitAndMissStages) {
  WriteProfile(7);

  // First read misses the cache (write-path cache and read replicas differ
  // only after the first load), second read hits.
  ManualClock collector_clock(0);
  TraceCollectorOptions options;
  options.sample_every_n = 1;
  TraceCollector collector(options, &collector_clock,
                           deployment_.metrics());

  auto miss_trace = collector.MaybeStartTrace();
  ASSERT_NE(miss_trace, nullptr);
  CallContext miss_ctx;
  miss_ctx.trace = TraceCollector::ContextFor(miss_trace.get());
  const int64_t miss_before = deployment_.metrics()
                                  ->GetCounter("cache.hit")
                                  ->Value();
  ASSERT_TRUE(client_->Query("profiles", 7, Spec(), miss_ctx).ok());
  const bool first_was_hit = deployment_.metrics()
                                 ->GetCounter("cache.hit")
                                 ->Value() > miss_before;

  auto hit_trace = collector.MaybeStartTrace();
  ASSERT_NE(hit_trace, nullptr);
  CallContext hit_ctx;
  hit_ctx.trace = TraceCollector::ContextFor(hit_trace.get());
  ASSERT_TRUE(client_->Query("profiles", 7, Spec(), hit_ctx).ok());

  const std::vector<std::string> miss_names = SpanNames(*miss_trace);
  const std::vector<std::string> hit_names = SpanNames(*hit_trace);

  for (const char* stage : {"client.query", "rpc.transfer", "server.query",
                            "server.queue", "cache.lookup",
                            "feature.compute"}) {
    EXPECT_GE(CountName(hit_names, stage), 1u) << stage;
    EXPECT_GE(CountName(miss_names, stage), 1u) << stage;
  }
  EXPECT_EQ(CountName(hit_names, "rpc.transfer"), 2u);  // request + response
  if (!first_was_hit) {
    EXPECT_GE(CountName(miss_names, "kv.load"), 1u);
    EXPECT_GE(miss_trace->StageNs("kv.load"), 0);
  }
  // The served-from-memory path never touches the store.
  EXPECT_EQ(CountName(hit_names, "kv.load"), 0u);

  // Stage times are consistent: each disjoint stage fits inside the
  // end-to-end duration.
  const int64_t total = hit_trace->DurationNs();
  EXPECT_GT(total, 0);
  for (const char* stage : {"rpc.transfer", "server.queue", "cache.lookup",
                            "feature.compute"}) {
    EXPECT_LE(hit_trace->StageNs(stage), total) << stage;
  }

  collector.Finish(std::move(miss_trace));
  collector.Finish(std::move(hit_trace));
  EXPECT_EQ(collector.RetainedCount(), 2u);
  EXPECT_GE(
      deployment_.metrics()->GetHistogram("trace.stage.client.query")->count(),
      2);
}

TEST_F(TraceE2eTest, MultiQueryScatterGatherSpansNestUnderOneRoot) {
  std::vector<ProfileId> pids;
  for (ProfileId pid = 100; pid < 132; ++pid) {
    WriteProfile(pid);
    pids.push_back(pid);
  }

  Trace trace(/*trace_id=*/99, clock_.NowMs());
  CallContext ctx;
  ctx.trace = TraceCollector::ContextFor(&trace);
  auto result = client_->MultiQuery(
      "profiles", std::span<const ProfileId>(pids.data(), pids.size()),
      Spec(), ctx);
  ASSERT_TRUE(result.ok());

  const std::vector<TraceSpan> spans = trace.Spans();
  ASSERT_FALSE(spans.empty());

  // Exactly one root, and it is the client-side scatter-gather umbrella.
  size_t roots = 0;
  for (const TraceSpan& span : spans) {
    if (span.parent == kNoSpan) {
      ++roots;
      EXPECT_STREQ(span.name, "client.multi_query");
    }
  }
  EXPECT_EQ(roots, 1u);

  // Every parent reference resolves, and every child's interval is
  // contained in its parent's (spans close strictly after their children).
  for (const TraceSpan& span : spans) {
    if (span.parent == kNoSpan) continue;
    ASSERT_GE(span.parent, 0);
    ASSERT_LT(static_cast<size_t>(span.parent), spans.size());
    const TraceSpan& parent = spans[static_cast<size_t>(span.parent)];
    EXPECT_GE(span.start_ns, parent.start_ns);
    EXPECT_LE(span.end_ns, parent.end_ns);
  }

  // 32 pids over a 2-node ring: all but ~2^-31 runs scatter to both nodes,
  // giving at least two RPCs = four transfer legs recorded concurrently.
  const std::vector<std::string> names = SpanNames(trace);
  EXPECT_GE(CountName(names, "rpc.transfer"), 4u);
  EXPECT_GE(CountName(names, "server.query"), 2u);
}

TEST_F(TraceE2eTest, MultiAddScatterGatherSpansNestUnderOneRoot) {
  // Writes scatter like reads, with one sub-call on the caller's own
  // thread: every span still hangs under the one client.multi_add root.
  std::vector<MultiAddItem> items;
  for (ProfileId pid = 200; pid < 232; ++pid) {
    MultiAddItem item;
    item.pid = pid;
    AddRecord record;
    record.timestamp = clock_.NowMs() - kMinute;
    record.slot = 1;
    record.type = 1;
    record.fid = 42;
    record.counts = CountVector{1};
    item.records.push_back(record);
    items.push_back(item);
  }

  Trace trace(/*trace_id=*/101, clock_.NowMs());
  CallContext ctx;
  ctx.trace = TraceCollector::ContextFor(&trace);
  auto result = client_->MultiAdd("profiles", items, ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ok_items, items.size());

  const std::vector<TraceSpan> spans = trace.Spans();
  ASSERT_FALSE(spans.empty());

  size_t roots = 0;
  for (const TraceSpan& span : spans) {
    if (span.parent == kNoSpan) {
      ++roots;
      EXPECT_STREQ(span.name, "client.multi_add");
    }
  }
  EXPECT_EQ(roots, 1u);

  for (const TraceSpan& span : spans) {
    if (span.parent == kNoSpan) continue;
    ASSERT_GE(span.parent, 0);
    ASSERT_LT(static_cast<size_t>(span.parent), spans.size());
    const TraceSpan& parent = spans[static_cast<size_t>(span.parent)];
    EXPECT_GE(span.start_ns, parent.start_ns);
    EXPECT_LE(span.end_ns, parent.end_ns);
  }

  // 32 items over a 2-node ring: both nodes get a sub-batch (all but
  // ~2^-31 runs), so at least two server.add spans and four transfer legs.
  const std::vector<std::string> names = SpanNames(trace);
  EXPECT_GE(CountName(names, "rpc.transfer"), 4u);
  EXPECT_GE(CountName(names, "server.add"), 2u);
}

TEST_F(TraceE2eTest, SamplingDecisionIsHonoredEndToEnd) {
  WriteProfile(11);
  ASSERT_TRUE(client_->Query("profiles", 11, Spec()).ok());  // warm cache

  ManualClock collector_clock(0);
  TraceCollectorOptions options;
  options.sample_every_n = 2;
  TraceCollector collector(options, &collector_clock,
                           deployment_.metrics());

  int traced = 0;
  for (int i = 0; i < 10; ++i) {
    auto trace = collector.MaybeStartTrace();
    CallContext ctx;
    ctx.trace = TraceCollector::ContextFor(trace.get());
    if (trace != nullptr) {
      ++traced;
    } else {
      EXPECT_FALSE(ctx.trace.active());
    }
    const int64_t before = Trace::Allocations();
    ASSERT_TRUE(client_->Query("profiles", 11, Spec(), ctx).ok());
    if (trace == nullptr) {
      // Unsampled requests must not create spans anywhere in the stack.
      EXPECT_EQ(Trace::Allocations(), before);
    } else {
      EXPECT_FALSE(trace->Spans().empty());
    }
    collector.Finish(std::move(trace));
  }
  EXPECT_EQ(traced, 5);
  EXPECT_EQ(deployment_.metrics()->GetCounter("trace.finished")->Value(), 5);
  EXPECT_EQ(collector.RetainedCount(), 5u);
}

TEST_F(TraceE2eTest, TracingDisabledAddsZeroAllocationsOnHotPath) {
  WriteProfile(21);
  ASSERT_TRUE(client_->Query("profiles", 21, Spec()).ok());  // warm cache

  const int64_t before = Trace::Allocations();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(client_->Query("profiles", 21, Spec()).ok());
  }
  EXPECT_EQ(Trace::Allocations(), before);
}

TEST_F(TraceE2eTest, ExportsAreWellFormedJson) {
  WriteProfile(31);

  ManualClock collector_clock(0);
  TraceCollectorOptions options;
  options.sample_every_n = 1;
  TraceCollector collector(options, &collector_clock,
                           deployment_.metrics());
  for (int i = 0; i < 3; ++i) {
    auto trace = collector.MaybeStartTrace();
    ASSERT_NE(trace, nullptr);
    CallContext ctx;
    ctx.trace = TraceCollector::ContextFor(trace.get());
    ASSERT_TRUE(client_->Query("profiles", 31, Spec(), ctx).ok());
    collector.Finish(std::move(trace));
  }

  // Chrome-trace export: one JSON document with a traceEvents array of
  // complete ("X") events.
  const std::string chrome = collector.ExportChromeTrace();
  Result<ConfigValue> chrome_doc = ParseConfig(chrome);
  ASSERT_TRUE(chrome_doc.ok()) << chrome_doc.status().ToString();
  const ConfigValue& events = chrome_doc->Get("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_GT(events.size(), 0u);
  for (const ConfigValue& event : events.items()) {
    EXPECT_TRUE(event.is_object());
    EXPECT_EQ(event.Get("ph").AsString(), "X");
    EXPECT_TRUE(event.Get("name").is_string());
    EXPECT_TRUE(event.Get("ts").is_number());
    EXPECT_TRUE(event.Get("dur").is_number());
  }

  // JSONL export: every line parses on its own.
  const std::string jsonl = collector.ExportJsonl();
  size_t lines = 0;
  size_t pos = 0;
  while (pos < jsonl.size()) {
    const size_t eol = jsonl.find('\n', pos);
    ASSERT_NE(eol, std::string::npos);
    const std::string line = jsonl.substr(pos, eol - pos);
    Result<ConfigValue> doc = ParseConfig(line);
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    EXPECT_TRUE(doc->Get("spans").is_array());
    EXPECT_TRUE(doc->Get("trace_id").is_number());
    ++lines;
    pos = eol + 1;
  }
  EXPECT_EQ(lines, 3u);
}

}  // namespace
}  // namespace ips
