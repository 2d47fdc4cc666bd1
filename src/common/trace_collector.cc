#include "common/trace_collector.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <string_view>

namespace ips {

namespace {

// Stage spans aggregated into MetricsRegistry. Histogram names are spelled
// out in full (not concatenated) so scripts/check_docs.sh can cross-check
// them against docs/METRICS.md with a plain grep.
struct StageMetric {
  const char* span;       // span name as recorded by instrumentation sites
  const char* histogram;  // "trace.stage.<span>" registry histogram
};

// The first kDisjointStages entries are the disjoint pipeline stages whose
// per-request sum approximates end-to-end latency; the rest are umbrella
// spans that overlap them (useful for nesting, excluded from any sum).
constexpr StageMetric kStageMetrics[] = {
    {"rpc.dispatch", "trace.stage.rpc.dispatch"},
    {"rpc.transfer", "trace.stage.rpc.transfer"},
    {"server.queue", "trace.stage.server.queue"},
    {"cache.lookup", "trace.stage.cache.lookup"},
    {"kv.load", "trace.stage.kv.load"},
    {"codec.decode", "trace.stage.codec.decode"},
    {"feature.compute", "trace.stage.feature.compute"},
    {"kv.store", "trace.stage.kv.store"},
    {"server.query", "trace.stage.server.query"},
    {"server.add", "trace.stage.server.add"},
    {"client.query", "trace.stage.client.query"},
    {"client.add", "trace.stage.client.add"},
    {"client.multi_query", "trace.stage.client.multi_query"},
    {"client.multi_add", "trace.stage.client.multi_add"},
    {"assembler.batch", "trace.stage.assembler.batch"},
    {"compaction.run", "trace.stage.compaction.run"},
};
constexpr size_t kDisjointStages = 8;

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void Appendf(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out->append(buf);
}

int64_t TraceBaseNs(const std::vector<TraceSpan>& spans) {
  int64_t base = 0;
  bool any = false;
  for (const TraceSpan& span : spans) {
    if (!any || span.start_ns < base) {
      base = span.start_ns;
      any = true;
    }
  }
  return base;
}

}  // namespace

TraceCollector::TraceCollector(TraceCollectorOptions options, Clock* clock,
                               MetricsRegistry* metrics)
    : options_(options), clock_(clock), metrics_(metrics) {}

std::unique_ptr<Trace> TraceCollector::MaybeStartTrace() {
  if (options_.sample_every_n <= 0) return nullptr;
  const int64_t seq = request_seq_.fetch_add(1, std::memory_order_relaxed);
  if (seq % options_.sample_every_n != 0) return nullptr;
  metrics_->GetCounter("trace.sampled")->Increment();
  const uint64_t id = next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  return std::make_unique<Trace>(id, clock_->NowMs());
}

void TraceCollector::Finish(std::unique_ptr<Trace> trace) {
  if (trace == nullptr) return;
  metrics_->GetCounter("trace.finished")->Increment();

  const std::vector<TraceSpan> spans = trace->Spans();
  SlowQueryEntry entry;
  entry.trace_id = trace->trace_id();
  entry.start_ms = trace->start_ms();
  entry.duration_us = trace->DurationNs() / 1000;
  for (const StageMetric& stage : kStageMetrics) {
    int64_t total_ns = 0;
    bool present = false;
    for (const TraceSpan& span : spans) {
      if (span.end_ns != 0 && std::string_view(stage.span) == span.name) {
        total_ns += span.end_ns - span.start_ns;
        present = true;
      }
    }
    if (!present) continue;
    metrics_->GetHistogram(stage.histogram)->Record(total_ns / 1000);
    entry.stages.emplace_back(stage.span, total_ns / 1000);
  }

  std::lock_guard<std::mutex> lock(mu_);
  slow_log_.push_back(std::move(entry));
  std::stable_sort(slow_log_.begin(), slow_log_.end(),
                   [](const SlowQueryEntry& a, const SlowQueryEntry& b) {
                     return a.duration_us > b.duration_us;
                   });
  if (slow_log_.size() > options_.slow_log_capacity) {
    slow_log_.resize(options_.slow_log_capacity);
  }

  ring_.push_back(std::move(trace));
  while (ring_.size() > options_.ring_capacity) {
    ring_.pop_front();
    metrics_->GetCounter("trace.ring_evicted")->Increment();
  }
  metrics_->GetGauge("trace.ring_size")->Set(
      static_cast<int64_t>(ring_.size()));
}

size_t TraceCollector::RetainedCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

std::string TraceCollector::ExportJsonl() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const std::unique_ptr<Trace>& trace : ring_) {
    const std::vector<TraceSpan> spans = trace->Spans();
    const int64_t base_ns = TraceBaseNs(spans);
    Appendf(&out, "{\"trace_id\":%" PRIu64 ",\"start_ms\":%lld",
            trace->trace_id(),
            static_cast<long long>(trace->start_ms()));
    Appendf(&out, ",\"duration_us\":%lld,\"spans\":[",
            static_cast<long long>(trace->DurationNs() / 1000));
    for (size_t i = 0; i < spans.size(); ++i) {
      if (i > 0) out.push_back(',');
      out.append("{\"name\":");
      AppendJsonString(&out, spans[i].name);
      const double start_us =
          static_cast<double>(spans[i].start_ns - base_ns) / 1000.0;
      const double dur_us =
          spans[i].end_ns == 0
              ? 0.0
              : static_cast<double>(spans[i].end_ns - spans[i].start_ns) /
                    1000.0;
      Appendf(&out, ",\"parent\":%d,\"start_us\":%.3f,\"dur_us\":%.3f}",
              spans[i].parent, start_us, dur_us);
    }
    out.append("]}\n");
  }
  return out;
}

std::string TraceCollector::ExportChromeTrace() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const std::unique_ptr<Trace>& trace : ring_) {
    const std::vector<TraceSpan> spans = trace->Spans();
    const int64_t base_ns = TraceBaseNs(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].end_ns == 0) continue;
      if (!first) out.push_back(',');
      first = false;
      out.append("{\"name\":");
      AppendJsonString(&out, spans[i].name);
      // One chrome "process" per trace keeps concurrent scatter-gather
      // siblings from stacking onto one timeline row.
      Appendf(&out,
              ",\"cat\":\"ips\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
              "\"pid\":%" PRIu64 ",\"tid\":%d,\"args\":{\"parent\":%d}}",
              static_cast<double>(spans[i].start_ns - base_ns) / 1000.0,
              static_cast<double>(spans[i].end_ns - spans[i].start_ns) /
                  1000.0,
              trace->trace_id(), spans[i].parent, spans[i].parent);
    }
  }
  out.append("]}");
  return out;
}

std::vector<SlowQueryEntry> TraceCollector::SlowQueries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slow_log_;
}

std::string TraceCollector::SlowQueryReport() const {
  const std::vector<SlowQueryEntry> entries = SlowQueries();
  std::string out;
  Appendf(&out, "slow queries (%zu retained, worst first):\n",
          entries.size());
  for (const SlowQueryEntry& entry : entries) {
    Appendf(&out, "  trace %" PRIu64 ": %lld us @ sim t=%lld ms |",
            entry.trace_id, static_cast<long long>(entry.duration_us),
            static_cast<long long>(entry.start_ms));
    for (const auto& [stage, us] : entry.stages) {
      Appendf(&out, " %s=%lldus", stage.c_str(),
              static_cast<long long>(us));
    }
    out.push_back('\n');
  }
  return out;
}

const std::vector<std::string>& TraceCollector::StageNames() {
  static const std::vector<std::string>* names = [] {
    auto* v = new std::vector<std::string>();
    for (const StageMetric& stage : kStageMetrics) v->push_back(stage.span);
    return v;
  }();
  return *names;
}

size_t TraceCollector::DisjointStageCount() { return kDisjointStages; }

}  // namespace ips
