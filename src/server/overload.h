// Adaptive overload control (the robustness layer in front of QuotaManager):
// queue-aware admission, deadline-derived shedding, and a graceful brown-out
// ladder. IPS clusters are multi-tenant and front heavy fan-out traffic
// (Sections IV, V-b); the static per-caller QPS quota cannot tell "caller is
// greedy" from "server is drowning" — under a 2-5x overload burst every
// queued request still runs to completion, burning CPU on work that will
// miss its deadline while client retries amplify the storm.
//
// The controller keeps a lightweight sliding estimate of server queue time
// (an EWMA over reported `server.queue` stage samples, plus a Little's-law
// depth estimate when a front-end reports its queue depth — NOT the sampled
// trace collector, which sees only 1-in-N requests) and sheds at admission,
// cheapest first:
//
//   * Deadline-derived shed: a request whose remaining deadline headroom
//     cannot cover the current queue estimate plus its expected service cost
//     is going to miss its deadline anyway — reject it in nanoseconds
//     instead of serving it in milliseconds nobody waits for (CoDel's "is
//     the standing queue useful work" question asked per request).
//   * Brown-out ladder: when the queue estimate is above the CoDel-style
//     target, traffic tiers shed lowest-value first — bulk/batch traffic at
//     1x target, writes (deferrable; ingestion pipelines retry) at 2x,
//     normal serving reads at 4x, and critical reads only at 8x, so a
//     saturated instance degrades by dropping the cheapest work instead of
//     timing out uniformly at random.
//
// Shed responses are Status::Overloaded — ResourceExhausted carrying a
// retry-after hint derived from the estimated drain time — and the client
// side (RetryPolicy) backs off by the hint without burning retry-budget
// tokens, so shedding reduces re-offered load instead of reshaping it.
#ifndef IPS_SERVER_OVERLOAD_H_
#define IPS_SERVER_OVERLOAD_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/call_context.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "common/status.h"

namespace ips {

/// Traffic tiers for the brown-out ladder, ordered by shed priority:
/// higher-numbered tiers shed first.
enum class RequestTier : int {
  kCritical = 0,  // interactive reads from callers ops marked critical
  kRead = 1,      // normal serving reads
  kWrite = 2,     // ingestion writes (deferrable; upstream pipelines retry)
  kBulk = 3,      // back-fill / batch jobs (pure background)
};

const char* RequestTierName(RequestTier tier);

/// Parses "critical"/"read"/"write"/"bulk" (the config-registry spelling);
/// nullopt for anything else.
std::optional<RequestTier> ParseRequestTier(std::string_view name);

struct OverloadControllerOptions {
  /// Master switch. Off = the pre-controller behaviour: quota is the only
  /// admission gate (the bench_overload ablation baseline).
  bool enabled = true;

  /// CoDel-style acceptable standing queue time. Below this the instance is
  /// healthy and every tier admits.
  int64_t target_queue_us = 5'000;

  /// Expected per-profile service cost before any sample has been observed
  /// (replaced by the live service EWMA as soon as requests complete).
  int64_t default_service_us = 2'000;

  /// Number of workers the admission queue drains through. Supplied by the
  /// serving front-end; 0 = unknown, which disables the depth-based estimate
  /// (the wait EWMA still works).
  int workers = 0;
};

/// Thread-safe. One controller per instance; every admission point
/// (Query/MultiQuery/AddProfiles/MultiAdd) consults it before the quota
/// check, and serving front-ends feed it queue observations.
class OverloadController {
 public:
  /// Bounds on the retry-after hint attached to shed responses.
  static constexpr int64_t kMinRetryAfterMs = 2;
  static constexpr int64_t kMaxRetryAfterMs = 500;
  /// Half-life of the queue-wait EWMA in real (monotonic) time: with no
  /// fresh samples the estimate decays toward zero instead of pinning the
  /// instance in brown-out after a burst ends.
  static constexpr int64_t kEstimateHalfLifeMs = 100;

  OverloadController(OverloadControllerOptions options, Clock* clock,
                     MetricsRegistry* metrics);

  bool enabled() const { return options_.enabled; }

  /// Admission decision for one request (batch = one decision, mirroring the
  /// quota charge). `cost` is the batch size in profiles/items. OK, or
  /// Status::Overloaded with a retry-after hint.
  Status Admit(RequestTier tier, double cost, const CallContext& ctx,
               TimestampMs now_ms);

  // --- Signal feeds ---------------------------------------------------

  /// One observed `server.queue` duration: the time a request spent between
  /// arrival and the start of its per-profile work. Front-ends report their
  /// real queue wait here; the instance feeds its own admission-stage span.
  void RecordQueueSample(int64_t queue_us);

  /// One completed request's service time, normalized per profile/item.
  void RecordServiceSample(int64_t service_us, double cost);

  /// Front-end queue depth hooks (the RPC server's request queue). Together
  /// with the `workers` option they drive the Little's-law component of the
  /// estimate, which reacts to a burst instantly instead of after the first
  /// delayed request drains.
  void OnEnqueue();
  void OnDequeue(int64_t waited_us);

  // --- Caller tiers ---------------------------------------------------

  /// Ops marking of a caller's criticality (hot-reconfigurable alongside
  /// quotas). Unmarked callers default to kRead for reads and kWrite for
  /// writes.
  void SetCallerTier(const std::string& caller, RequestTier tier);
  void RemoveCallerTier(const std::string& caller);

  /// The tier a request from `caller` lands in. Explicit marks win; a
  /// caller marked kBulk stays kBulk for reads AND writes.
  RequestTier TierFor(const std::string& caller, bool is_write) const;

  // --- Observability / ops --------------------------------------------

  /// Current queue-time estimate in microseconds.
  int64_t EstimateQueueUs() const;

  /// Brown-out level: 0 = healthy, 1 = shedding bulk, 2 = +writes,
  /// 3 = +reads, 4 = shedding everything including critical reads.
  int Level() const;

  /// Manual brown-out override (ops kill switch, tests): forces Level() to
  /// `level` regardless of the estimate. -1 restores automatic control.
  void SetLevelOverride(int level);

  /// Retry-after hint for the current estimate: the time the queue needs to
  /// drain back to target, clamped to [kMinRetryAfterMs, kMaxRetryAfterMs].
  int64_t RetryAfterMsForEstimate(int64_t estimate_us) const;

 private:
  int LevelForEstimate(int64_t estimate_us) const;
  int64_t EstimateQueueUsLocked() const;
  int64_t ServiceUsLocked() const;

  OverloadControllerOptions options_;
  Clock* clock_;
  MetricsRegistry* metrics_;
  Counter* shed_deadline_;
  Counter* shed_brownout_;
  Histogram* retry_after_hist_;
  Gauge* queue_est_gauge_;
  Gauge* level_gauge_;

  mutable std::mutex mu_;
  double queue_ewma_us_ = 0;
  int64_t last_queue_sample_ns_ = 0;  // MonotonicNanos of the newest sample
  double service_ewma_us_ = 0;        // 0 until the first service sample
  int64_t queued_ = 0;                // front-end reported depth
  int level_override_ = -1;

  mutable std::mutex tiers_mu_;
  std::unordered_map<std::string, RequestTier> caller_tiers_;
};

}  // namespace ips

#endif  // IPS_SERVER_OVERLOAD_H_
