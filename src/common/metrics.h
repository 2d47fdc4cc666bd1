// Lightweight process-local metrics: named counters, gauges and histograms.
// Every subsystem (cache swap/flush, compaction, quota, RPC transport)
// publishes here so the bench harnesses can report the same series the
// paper's production dashboards show (hit ratio, memory usage, error rate).
#ifndef IPS_COMMON_METRICS_H_
#define IPS_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/histogram.h"

namespace ips {

/// Monotonically increasing counter.
class Counter {
 public:
  void Increment(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-writer-wins gauge.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Registry of named metrics. Lookup is mutex-guarded but callers cache the
/// returned pointer, so the hot path is a single relaxed atomic op.
class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Snapshot of all counter/gauge values, for test assertions and reports.
  std::map<std::string, int64_t> SnapshotValues() const;

  /// Every metric name the registry has seen — counters, gauges AND
  /// histograms (which SnapshotValues omits because a histogram has no
  /// single value). The docs/METRICS.md completeness test walks this.
  std::vector<std::string> MetricNames() const;

  std::string Report() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace ips

#endif  // IPS_COMMON_METRICS_H_
