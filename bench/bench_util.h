// Shared scaffolding for the reproduction bench binaries (one per paper
// table/figure). Provides the calibrated latency model, deployment presets
// and table-formatted reporting.
//
// Latency model calibration (all simulated, see DESIGN.md):
//   * RPC channel: ~0.4 ms one-way base + exponential tail + size-
//     proportional cost -> ~1 ms round trip for small payloads, ~3 ms
//     for multi-KiB feature responses (Table II's network overhead).
//   * KV store: ~1.2 ms base per op + tail -> a cache miss adds the 2-4 ms
//     the paper reports between hit and miss rows of Table II.
// Absolute numbers are not the target; the paper's *shape* (hit-vs-miss
// deltas, flat p50, bounded p99, who wins by what factor) is.
#ifndef IPS_BENCH_BENCH_UTIL_H_
#define IPS_BENCH_BENCH_UTIL_H_

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "cluster/client.h"
#include "cluster/deployment.h"
#include "common/clock.h"
#include "common/histogram.h"
#include "ingest/workload.h"

namespace ips {
namespace bench {

/// Channel options matching the Table II network-cost decomposition.
inline ChannelOptions CalibratedChannel() {
  ChannelOptions options;
  options.base_latency_us = 400;
  options.tail_latency_us = 120;
  options.per_kib_us = 150;
  return options;
}

/// KV options making a cache miss cost ~2-4 ms more than a hit.
inline MemKvOptions CalibratedKv() {
  MemKvOptions options;
  options.base_latency_us = 1200;
  options.tail_latency_us = 500;
  options.per_kib_us = 20;
  return options;
}

/// Zero-latency variants for long simulations where wall-clock time, not
/// per-op latency, is the subject (availability, memory studies).
inline ChannelOptions FastChannel() { return ChannelOptions{}; }
inline MemKvOptions FastKv() { return MemKvOptions{}; }

/// One-region deployment preset.
inline DeploymentOptions SingleRegion(bool calibrated_latency) {
  DeploymentOptions options;
  options.regions = {{"lf", 1, /*is_primary=*/true}};
  options.instance.isolation_enabled = false;
  options.instance.compaction.synchronous = false;
  options.instance.compaction.num_threads = 1;
  options.channel =
      calibrated_latency ? CalibratedChannel() : FastChannel();
  options.kv.store_options = calibrated_latency ? CalibratedKv() : FastKv();
  return options;
}

/// Options for a client of `caller` in the SingleRegion deployment.
inline IpsClientOptions LocalClient(const char* caller) {
  IpsClientOptions options;
  options.caller = caller;
  options.local_region = "lf";
  return options;
}

/// Loads `num_users` profiles with `writes_per_user` historical actions so
/// queries have data to chew on. Writes go straight into the node instances
/// (bulk import), bypassing the client-side latency simulation.
inline void Preload(Deployment& deployment, WorkloadGenerator& workload,
                    const std::string& table, size_t num_events,
                    TimestampMs now_ms, int64_t history_span_ms) {
  auto nodes = deployment.NodesInRegion(deployment.region_names()[0]);
  for (size_t i = 0; i < num_events; ++i) {
    ProfileId uid;
    auto records = workload.NextAddBatch(
        now_ms - static_cast<TimestampMs>(
                     workload.rng().Uniform(history_span_ms)),
        &uid);
    for (auto* node : deployment.NodesInRegion("lf")) {
      node->instance().AddProfiles("preload", table, uid, records).ok();
    }
  }
  (void)nodes;
}

/// Fixed-width row printer for the result tables.
inline void PrintHeader(const std::vector<std::string>& columns) {
  for (const auto& c : columns) std::printf("%14s", c.c_str());
  std::printf("\n");
  for (size_t i = 0; i < columns.size(); ++i) std::printf("%14s", "------");
  std::printf("\n");
}

inline void PrintCell(double v) { std::printf("%14.2f", v); }
inline void PrintCell(int64_t v) {
  std::printf("%14lld", static_cast<long long>(v));
}
inline void PrintCell(const char* v) { std::printf("%14s", v); }
inline void EndRow() { std::printf("\n"); }

/// Microseconds -> milliseconds for display.
inline double UsToMs(int64_t us) { return static_cast<double>(us) / 1000.0; }

/// Where a bench saves a file it reads straight back (a recorded trace): the
/// working directory on a full run, next to the committed artifacts, and a
/// per-process name in the system temp directory on a `--smoke` run, so CI
/// never rewrites a committed file. Smoke callers remove the file after use.
inline std::string RoundTripPath(const std::string& name, bool smoke) {
  if (!smoke) return name;
  return (std::filesystem::temp_directory_path() /
          (std::to_string(::getpid()) + "_" + name))
      .string();
}

}  // namespace bench
}  // namespace ips

#endif  // IPS_BENCH_BENCH_UTIL_H_
