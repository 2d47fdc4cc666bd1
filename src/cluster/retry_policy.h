// Client-side retry policy (the replacement for the bare fixed-attempt
// loops): retryable-vs-terminal classification on StatusCode, exponential
// backoff with decorrelated jitter, and a token-bucket retry *budget* so a
// broad outage cannot turn every client into a retry storm against the
// survivors. The paper's availability result (Fig 17) depends on failed
// nodes being routed around quickly but without amplifying load.
#ifndef IPS_CLUSTER_RETRY_POLICY_H_
#define IPS_CLUSTER_RETRY_POLICY_H_

#include <cstdint>
#include <mutex>
#include <optional>

#include "common/random.h"
#include "common/status.h"

namespace ips {

struct RetryPolicyOptions {
  /// Master switch. When false the client keeps the seed behaviour: blind
  /// successor attempts with no backoff, budget or classification.
  bool enabled = true;
  uint64_t seed = 23;
};

/// Thread-safe. One instance per client; all of the client's requests share
/// the budget, which is the point — the budget bounds the *client's* total
/// retry amplification, not each request's.
class RetryPolicy {
 public:
  /// First backoff draw is uniform in [initial, initial * 3].
  static constexpr int64_t kInitialBackoffMs = 5;
  /// Hard cap on any single backoff.
  static constexpr int64_t kMaxBackoffMs = 1000;
  /// Token ceiling (also the initial balance, so a cold client can absorb a
  /// failure burst). A retry withdraws 1.0.
  static constexpr double kBudgetCap = 100.0;

  explicit RetryPolicy(RetryPolicyOptions options);

  bool enabled() const { return options_.enabled; }

  /// Deposits budget for one incoming request. Call once per logical
  /// request (not per attempt).
  void OnRequestStart();

  /// Decides whether the previous attempt's `error` may be retried. Returns
  /// the backoff to sleep before the retry, or nullopt when the error is
  /// terminal or the retry budget is exhausted. Withdraws one budget token
  /// on success.
  ///
  /// Backoff is "decorrelated jitter": each delay is drawn uniform in
  /// [initial, 3 * previous], capped at kMaxBackoffMs — spreading retries
  /// in time so synchronized failures do not produce synchronized retries.
  ///
  /// Throttle decisions with a retry-after hint (the overload controller's
  /// shed responses) are the one exception to "ResourceExhausted is
  /// terminal": the server itself named the backoff that makes a retry
  /// useful, so the hint is granted as the delay WITHOUT withdrawing a
  /// budget token — the client is complying with server pacing, not
  /// amplifying load. A plain quota rejection (no hint) stays terminal.
  std::optional<int64_t> NextRetryDelayMs(const Status& error);

  /// Cumulative count of server-paced (retry-after) backoffs granted.
  int64_t throttle_backoffs() const;

  /// Remaining budget tokens (observability / tests).
  double budget_tokens() const;

  /// Cumulative counts (observability / tests).
  int64_t retries_granted() const;
  int64_t budget_denials() const;

 private:
  RetryPolicyOptions options_;
  mutable std::mutex mu_;
  Rng rng_;
  double tokens_;
  int64_t prev_backoff_ms_;
  int64_t retries_granted_ = 0;
  int64_t budget_denials_ = 0;
  int64_t throttle_backoffs_ = 0;
};

}  // namespace ips

#endif  // IPS_CLUSTER_RETRY_POLICY_H_
