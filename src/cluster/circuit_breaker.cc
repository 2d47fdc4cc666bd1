#include "cluster/circuit_breaker.h"

namespace ips {

CircuitBreaker::CircuitBreaker(CircuitBreakerOptions options)
    : options_(options) {}

bool CircuitBreaker::AllowRequest(TimestampMs now_ms) const {
  if (!options_.enabled) return true;
  std::lock_guard<std::mutex> lock(mu_);
  if (!open_) return true;
  // Half-open: cooldown elapsed, let a probe through. Several concurrent
  // probes are acceptable (and cheap in the simulation) — the first outcome
  // recorded decides the state.
  return now_ms - opened_at_ms_ >= kOpenCooldownMs;
}

void CircuitBreaker::RecordSuccess() {
  if (!options_.enabled) return;
  std::lock_guard<std::mutex> lock(mu_);
  consecutive_failures_ = 0;
  open_ = false;
}

void CircuitBreaker::RecordFailure(TimestampMs now_ms) {
  if (!options_.enabled) return;
  std::lock_guard<std::mutex> lock(mu_);
  ++consecutive_failures_;
  if (open_) {
    // A half-open probe failed: re-arm the cooldown from now.
    opened_at_ms_ = now_ms;
    return;
  }
  if (consecutive_failures_ >= kFailureThreshold) {
    open_ = true;
    opened_at_ms_ = now_ms;
  }
}

CircuitBreaker::State CircuitBreaker::state(TimestampMs now_ms) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!open_) return State::kClosed;
  return now_ms - opened_at_ms_ >= kOpenCooldownMs
             ? State::kHalfOpen
             : State::kOpen;
}

int CircuitBreaker::consecutive_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return consecutive_failures_;
}

CircuitBreaker* CircuitBreakerRegistry::Get(const std::string& node_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = breakers_.find(node_id);
  if (it == breakers_.end()) {
    it = breakers_
             .emplace(node_id, std::make_unique<CircuitBreaker>(options_))
             .first;
  }
  return it->second.get();
}

}  // namespace ips
