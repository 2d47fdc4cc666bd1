#include "cluster/retry_policy.h"

#include <algorithm>

namespace ips {

RetryPolicy::RetryPolicy(RetryPolicyOptions options)
    : options_(options),
      rng_(options.seed),
      tokens_(kBudgetCap),
      prev_backoff_ms_(kInitialBackoffMs) {}

void RetryPolicy::OnRequestStart() {
  if (!options_.enabled) return;
  // Retry tokens deposited per request start: the sustained retry rate is
  // capped at ~10% of offered load.
  constexpr double kBudgetPerRequest = 0.1;
  std::lock_guard<std::mutex> lock(mu_);
  tokens_ = std::min(kBudgetCap, tokens_ + kBudgetPerRequest);
  // Decorrelated jitter is a per-retry-sequence walk: a fresh request starts
  // from the initial backoff again. Without this reset one failure burst
  // ratchets prev_backoff_ms_ toward the max and every later request's
  // *first* retry inherits a near-max delay.
  prev_backoff_ms_ = kInitialBackoffMs;
}

std::optional<int64_t> RetryPolicy::NextRetryDelayMs(const Status& error) {
  if (!options_.enabled) return std::nullopt;
  // A shed response carrying a retry-after hint is server-paced: honor the
  // hint as the backoff and do NOT burn a budget token — the server asked
  // for exactly this retry, and shedding must reduce re-offered load, not
  // convert it into budget exhaustion for real faults. Hint-less throttles
  // (plain quota) remain terminal below via IsRetryable().
  if (error.IsThrottled() && error.has_retry_after()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++throttle_backoffs_;
    // Feed the jitter walk so a transient failure right after a shed does
    // not restart from the minimum delay against a loaded server.
    prev_backoff_ms_ = std::max(prev_backoff_ms_, error.retry_after_ms());
    return error.retry_after_ms();
  }
  if (!error.IsRetryable()) return std::nullopt;
  std::lock_guard<std::mutex> lock(mu_);
  if (tokens_ < 1.0) {
    ++budget_denials_;
    return std::nullopt;
  }
  tokens_ -= 1.0;
  ++retries_granted_;
  const int64_t hi = std::min(
      kMaxBackoffMs, std::max(kInitialBackoffMs, prev_backoff_ms_ * 3));
  const int64_t delay = rng_.UniformRange(kInitialBackoffMs, hi);
  prev_backoff_ms_ = delay;
  return delay;
}

double RetryPolicy::budget_tokens() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tokens_;
}

int64_t RetryPolicy::retries_granted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retries_granted_;
}

int64_t RetryPolicy::budget_denials() const {
  std::lock_guard<std::mutex> lock(mu_);
  return budget_denials_;
}

int64_t RetryPolicy::throttle_backoffs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return throttle_backoffs_;
}

}  // namespace ips
