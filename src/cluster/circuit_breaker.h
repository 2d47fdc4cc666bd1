// Per-node circuit breaker. A node that keeps failing is skipped at
// candidate-selection time — before the RPC is issued — instead of every
// request paying a timeout against it first. States:
//
//   Closed    -> normal operation; consecutive failures are counted.
//   Open      -> after `kFailureThreshold` consecutive failures; requests
//                are rejected locally for `kOpenCooldownMs`.
//   Half-open -> cooldown elapsed; the next request is let through as a
//                probe. Success closes the breaker, failure re-opens it and
//                re-arms the cooldown.
//
// Only node faults trip the breaker (Unavailable, DeadlineExceeded). Errors
// where the server demonstrably responded — quota rejections, NotFound,
// InvalidArgument — count as proof of liveness and reset the failure streak.
#ifndef IPS_CLUSTER_CIRCUIT_BREAKER_H_
#define IPS_CLUSTER_CIRCUIT_BREAKER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/clock.h"
#include "common/status.h"

namespace ips {

struct CircuitBreakerOptions {
  /// Master switch. When false every AllowRequest returns true and nothing
  /// is recorded.
  bool enabled = true;
};

/// Thread-safe. One instance per (client, node) pair, owned by the client's
/// CircuitBreakerRegistry — breaker state is a client-local opinion about a
/// node, not shared cluster state.
class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  /// Consecutive node faults that open the breaker.
  static constexpr int kFailureThreshold = 3;
  /// How long an open breaker rejects before letting a probe through.
  static constexpr int64_t kOpenCooldownMs = 3000;

  explicit CircuitBreaker(CircuitBreakerOptions options);

  /// Whether a request may be sent to the node at `now_ms`: true when
  /// closed, or when open but cooled down (the half-open probe).
  bool AllowRequest(TimestampMs now_ms) const;

  /// Records the outcome of a call to the node. `IsNodeFault` classifies
  /// which statuses count as failures.
  void RecordSuccess();
  void RecordFailure(TimestampMs now_ms);

  /// True when `status` indicates the node itself misbehaved (vs the server
  /// answering with an application error).
  static bool IsNodeFault(const Status& status) {
    return status.IsUnavailable() || status.IsDeadlineExceeded();
  }

  State state(TimestampMs now_ms) const;
  int consecutive_failures() const;

 private:
  CircuitBreakerOptions options_;
  mutable std::mutex mu_;
  int consecutive_failures_ = 0;
  bool open_ = false;
  TimestampMs opened_at_ms_ = 0;
};

/// Lazily creates one breaker per node id. Thread-safe; pointers remain
/// valid for the registry's lifetime.
class CircuitBreakerRegistry {
 public:
  explicit CircuitBreakerRegistry(CircuitBreakerOptions options)
      : options_(options) {}

  CircuitBreaker* Get(const std::string& node_id);

  bool enabled() const { return options_.enabled; }

 private:
  CircuitBreakerOptions options_;
  std::mutex mu_;
  std::unordered_map<std::string, std::unique_ptr<CircuitBreaker>> breakers_;
};

}  // namespace ips

#endif  // IPS_CLUSTER_CIRCUIT_BREAKER_H_
