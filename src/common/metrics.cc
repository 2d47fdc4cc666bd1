#include "common/metrics.h"

#include <sstream>

namespace ips {

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

std::map<std::string, int64_t> MetricsRegistry::SnapshotValues() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, int64_t> out;
  for (const auto& [name, counter] : counters_) out[name] = counter->Value();
  for (const auto& [name, gauge] : gauges_) out[name] = gauge->Value();
  return out;
}

std::vector<std::string> MetricsRegistry::MetricNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& [name, counter] : counters_) out.push_back(name);
  for (const auto& [name, gauge] : gauges_) out.push_back(name);
  for (const auto& [name, histogram] : histograms_) out.push_back(name);
  return out;
}

std::string MetricsRegistry::Report() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  for (const auto& [name, counter] : counters_) {
    out << name << " = " << counter->Value() << "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    out << name << " = " << gauge->Value() << "\n";
  }
  for (const auto& [name, histogram] : histograms_) {
    out << name << " : " << histogram->Summary() << "\n";
  }
  return out.str();
}

}  // namespace ips
