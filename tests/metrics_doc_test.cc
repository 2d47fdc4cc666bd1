// Catalogue-completeness check for docs/METRICS.md: drive a representative
// traffic mix through a full deployment (writes, hit/miss reads, batch
// reads, traced requests), then assert that every metric name the live
// registry contains is documented. scripts/check_docs.sh covers the static
// direction (every literal in the source tree appears in the doc and vice
// versa); this test catches names assembled at runtime that a grep could
// miss.
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "cluster/client.h"
#include "cluster/deployment.h"
#include "common/clock.h"
#include "common/trace_collector.h"

#ifndef IPS_SOURCE_DIR
#error "build must define IPS_SOURCE_DIR"
#endif

namespace ips {
namespace {

constexpr int64_t kMinute = kMillisPerMinute;
constexpr int64_t kDay = kMillisPerDay;

// Every backticked token in the doc; metric names are a strict subset, so
// an undocumented metric cannot hide while a documented one gains context.
std::set<std::string> DocumentedNames() {
  const std::string path = std::string(IPS_SOURCE_DIR) + "/docs/METRICS.md";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  std::set<std::string> names;
  size_t pos = 0;
  while ((pos = text.find('`', pos)) != std::string::npos) {
    const size_t end = text.find('`', pos + 1);
    if (end == std::string::npos) break;
    names.insert(text.substr(pos + 1, end - pos - 1));
    pos = end + 1;
  }
  return names;
}

TEST(MetricsDocTest, EveryLiveMetricNameIsDocumented) {
  ManualClock clock(100 * kDay);
  DeploymentOptions options;
  options.regions = {{"lf", 2, /*is_primary=*/true}};
  options.instance.start_background_threads = false;
  options.instance.compaction.synchronous = true;
  options.instance.isolation_enabled = false;
  Deployment deployment(options, &clock);
  TableSchema schema = DefaultTableSchema("profiles");
  schema.write_granularity_ms = kMinute;
  ASSERT_TRUE(deployment.CreateTableEverywhere(schema).ok());

  IpsClientOptions client_options;
  client_options.caller = "doc-test";
  client_options.local_region = "lf";
  IpsClient client(client_options, &deployment);

  QuerySpec spec;
  spec.slot = 1;
  spec.time_range = TimeRange::Current(kDay);
  spec.sort_by = SortBy::kActionCount;
  spec.k = 10;

  // Writes, single reads (miss then hit), a scatter-gather batch read, an
  // unknown table (error counters), and traced requests.
  std::vector<ProfileId> pids;
  for (ProfileId pid = 1; pid <= 16; ++pid) {
    ASSERT_TRUE(client
                    .AddProfile("profiles", pid, clock.NowMs() - kMinute, 1,
                                1, 7, CountVector{1})
                    .ok());
    pids.push_back(pid);
  }
  for (ProfileId pid = 1; pid <= 16; ++pid) {
    ASSERT_TRUE(client.Query("profiles", pid, spec).ok());
  }
  ASSERT_TRUE(client
                  .MultiQuery("profiles",
                              std::span<const ProfileId>(pids.data(),
                                                         pids.size()),
                              spec)
                  .ok());
  EXPECT_FALSE(client.Query("no_such_table", 1, spec).ok());

  TraceCollectorOptions trace_options;
  trace_options.sample_every_n = 1;
  TraceCollector collector(trace_options, &clock, deployment.metrics());
  for (int i = 0; i < 3; ++i) {
    auto trace = collector.MaybeStartTrace();
    ASSERT_NE(trace, nullptr);
    CallContext ctx;
    ctx.trace = TraceCollector::ContextFor(trace.get());
    ASSERT_TRUE(client.Query("profiles", 1, spec, ctx).ok());
    collector.Finish(std::move(trace));
  }

  const std::set<std::string> documented = DocumentedNames();
  ASSERT_FALSE(documented.empty());
  // Sanity: the doc walk really extracted metric names.
  EXPECT_TRUE(documented.count("server.queries"));
  EXPECT_TRUE(documented.count("trace.stage.kv.load"));

  for (const std::string& name : deployment.metrics()->MetricNames()) {
    EXPECT_TRUE(documented.count(name))
        << "metric '" << name
        << "' is live but missing from docs/METRICS.md";
  }
}

}  // namespace
}  // namespace ips
