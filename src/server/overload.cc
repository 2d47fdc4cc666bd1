#include "server/overload.h"

#include <algorithm>
#include <cmath>

namespace ips {
namespace {

// EWMA smoothing for queue and service samples (weight of the newest sample).
constexpr double kEwmaAlpha = 0.2;

// The queue-wait EWMA decayed by `age_ns` of real time without samples.
double Decayed(double ewma_us, int64_t age_ns) {
  constexpr double kHalfLifeNs =
      static_cast<double>(OverloadController::kEstimateHalfLifeMs) * 1e6;
  return ewma_us * std::exp2(-static_cast<double>(age_ns) / kHalfLifeNs);
}

}  // namespace

const char* RequestTierName(RequestTier tier) {
  switch (tier) {
    case RequestTier::kCritical:
      return "critical";
    case RequestTier::kRead:
      return "read";
    case RequestTier::kWrite:
      return "write";
    case RequestTier::kBulk:
      return "bulk";
  }
  return "unknown";
}

std::optional<RequestTier> ParseRequestTier(std::string_view name) {
  if (name == "critical") return RequestTier::kCritical;
  if (name == "read") return RequestTier::kRead;
  if (name == "write") return RequestTier::kWrite;
  if (name == "bulk") return RequestTier::kBulk;
  return std::nullopt;
}

OverloadController::OverloadController(OverloadControllerOptions options,
                                       Clock* clock, MetricsRegistry* metrics)
    : options_(options),
      clock_(clock),
      metrics_(metrics),
      shed_deadline_(metrics->GetCounter("admission.shed_deadline")),
      shed_brownout_(metrics->GetCounter("admission.shed_brownout")),
      retry_after_hist_(metrics->GetHistogram("admission.retry_after_ms")),
      queue_est_gauge_(metrics->GetGauge("overload.queue_est_us")),
      level_gauge_(metrics->GetGauge("overload.level")) {}

int64_t OverloadController::ServiceUsLocked() const {
  return service_ewma_us_ > 0
             ? static_cast<int64_t>(service_ewma_us_)
             : options_.default_service_us;
}

int64_t OverloadController::EstimateQueueUsLocked() const {
  // Wait-EWMA component, decayed toward zero by real elapsed time since the
  // newest sample: a burst that ended must not pin the instance in brown-out
  // (samples stop arriving exactly when everything drains).
  double wait_est = 0;
  if (queue_ewma_us_ > 0 && last_queue_sample_ns_ > 0) {
    wait_est =
        Decayed(queue_ewma_us_, MonotonicNanos() - last_queue_sample_ns_);
  }
  // Little's-law component: with `queued_` requests ahead and `workers`
  // drains, a new arrival waits ~ depth * service / workers. This reacts to
  // a burst the instant it lands, before any delayed request has drained to
  // report a wait sample.
  double depth_est = 0;
  if (options_.workers > 0 && queued_ > 0) {
    depth_est = static_cast<double>(queued_) *
                static_cast<double>(ServiceUsLocked()) /
                static_cast<double>(options_.workers);
  }
  return static_cast<int64_t>(std::max(wait_est, depth_est));
}

int64_t OverloadController::EstimateQueueUs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return EstimateQueueUsLocked();
}

int OverloadController::LevelForEstimate(int64_t estimate_us) const {
  // Brown-out ladder: each tier sheds above target_queue_us times its
  // factor, 1/2/4/8 from bulk to critical.
  const double est = static_cast<double>(estimate_us);
  const double target = static_cast<double>(options_.target_queue_us);
  if (est > target * 8) return 4;
  if (est > target * 4) return 3;
  if (est > target * 2) return 2;
  if (est > target) return 1;
  return 0;
}

int OverloadController::Level() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (level_override_ >= 0) return level_override_;
  return LevelForEstimate(EstimateQueueUsLocked());
}

void OverloadController::SetLevelOverride(int level) {
  std::lock_guard<std::mutex> lock(mu_);
  level_override_ = level;
}

int64_t OverloadController::RetryAfterMsForEstimate(int64_t estimate_us) const {
  // Time for the standing queue to drain back to target, i.e. the excess
  // queue converted to milliseconds. Clamped: never so small the client
  // hot-loops, never so large a brief spike parks callers for seconds.
  const int64_t excess_us =
      std::max<int64_t>(0, estimate_us - options_.target_queue_us);
  const int64_t ms = excess_us / 1000;
  return std::clamp(ms, kMinRetryAfterMs, kMaxRetryAfterMs);
}

Status OverloadController::Admit(RequestTier tier, double cost,
                                 const CallContext& ctx, TimestampMs now_ms) {
  if (!options_.enabled) return Status::OK();

  int64_t estimate_us;
  int level;
  int64_t service_us;
  {
    std::lock_guard<std::mutex> lock(mu_);
    estimate_us = EstimateQueueUsLocked();
    level = level_override_ >= 0 ? level_override_
                                 : LevelForEstimate(estimate_us);
    service_us = ServiceUsLocked();
  }
  queue_est_gauge_->Set(estimate_us);
  level_gauge_->Set(level);

  // Deadline-derived shed: queue wait plus this request's expected service
  // time must fit in the remaining deadline budget, or the work is already
  // dead on arrival — reject now, in nanoseconds, instead of completing it
  // milliseconds after the caller gave up.
  if (ctx.has_deadline()) {
    const int64_t needed_us =
        estimate_us +
        static_cast<int64_t>(service_us * std::max(cost, 1.0));
    const int64_t budget_us = ctx.RemainingMs(now_ms) * 1000;
    if (needed_us > budget_us) {
      const int64_t hint = RetryAfterMsForEstimate(estimate_us);
      shed_deadline_->Increment();
      retry_after_hist_->Record(hint);
      return Status::Overloaded("overloaded: queue exceeds deadline headroom",
                                hint);
    }
  }

  // Brown-out ladder: at level L every tier numbered >= 4 - L sheds, so
  // bulk (tier 3) goes first at level 1 and critical reads (tier 0) only at
  // level 4.
  if (level > 0 && static_cast<int>(tier) >= 4 - level) {
    const int64_t hint = RetryAfterMsForEstimate(estimate_us);
    shed_brownout_->Increment();
    retry_after_hist_->Record(hint);
    return Status::Overloaded(
        std::string("overloaded: shedding ") + RequestTierName(tier) +
            " tier at brown-out level " + std::to_string(level),
        hint);
  }
  return Status::OK();
}

void OverloadController::RecordQueueSample(int64_t queue_us) {
  if (queue_us < 0) queue_us = 0;
  std::lock_guard<std::mutex> lock(mu_);
  // Decay the EWMA for the time elapsed since the previous sample before
  // folding in the new one, so the estimate is consistent with what
  // EstimateQueueUs() reported a moment ago.
  const int64_t now_ns = MonotonicNanos();
  if (queue_ewma_us_ > 0 && last_queue_sample_ns_ > 0) {
    queue_ewma_us_ = Decayed(queue_ewma_us_, now_ns - last_queue_sample_ns_);
  }
  queue_ewma_us_ +=
      kEwmaAlpha * (static_cast<double>(queue_us) - queue_ewma_us_);
  last_queue_sample_ns_ = now_ns;
}

void OverloadController::RecordServiceSample(int64_t service_us, double cost) {
  if (service_us < 0 || cost <= 0) return;
  const double per_item = static_cast<double>(service_us) / cost;
  std::lock_guard<std::mutex> lock(mu_);
  if (service_ewma_us_ <= 0) {
    service_ewma_us_ = per_item;
  } else {
    service_ewma_us_ += kEwmaAlpha * (per_item - service_ewma_us_);
  }
}

void OverloadController::OnEnqueue() {
  std::lock_guard<std::mutex> lock(mu_);
  ++queued_;
}

void OverloadController::OnDequeue(int64_t waited_us) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queued_ > 0) --queued_;
  }
  RecordQueueSample(waited_us);
}

void OverloadController::SetCallerTier(const std::string& caller,
                                       RequestTier tier) {
  std::lock_guard<std::mutex> lock(tiers_mu_);
  caller_tiers_[caller] = tier;
}

void OverloadController::RemoveCallerTier(const std::string& caller) {
  std::lock_guard<std::mutex> lock(tiers_mu_);
  caller_tiers_.erase(caller);
}

RequestTier OverloadController::TierFor(const std::string& caller,
                                        bool is_write) const {
  {
    std::lock_guard<std::mutex> lock(tiers_mu_);
    auto it = caller_tiers_.find(caller);
    if (it != caller_tiers_.end()) return it->second;
  }
  return is_write ? RequestTier::kWrite : RequestTier::kRead;
}

}  // namespace ips
