// Simulated RPC transport. Production IPS speaks a C++ Thrift RPC between
// layers; here the "network" is an in-process channel that charges a latency
// (base + exponential tail + payload-proportional cost, mirroring the
// paper's ~3 ms size-proportional transmission overhead in Table II) and can
// drop requests or be partitioned — the levers behind the availability
// experiment (Fig 17).
#ifndef IPS_CLUSTER_RPC_H_
#define IPS_CLUSTER_RPC_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>

#include "common/call_context.h"
#include "common/clock.h"
#include "common/random.h"
#include "common/status.h"

namespace ips {

struct ChannelOptions {
  /// One-way base latency in microseconds.
  int64_t base_latency_us = 0;
  /// Mean of the exponential one-way tail in microseconds.
  int64_t tail_latency_us = 0;
  /// Extra microseconds per KiB of payload in either direction.
  int64_t per_kib_us = 0;
  /// Probability a call is dropped (Unavailable) before reaching the server.
  double drop_probability = 0.0;
  uint64_t seed = 7;
};

/// One simulated network path to a server. Thread-safe.
///
/// When constructed with a Clock, the channel enforces call deadlines: a
/// request whose drawn network latency would land past the deadline fails
/// with DeadlineExceeded *without burning that latency* — the caller walked
/// away, so nobody pays for the rest of the exchange.
class Channel {
 public:
  explicit Channel(ChannelOptions options, Clock* clock = nullptr)
      : options_(options),
        clock_(clock),
        drop_probability_(options.drop_probability) {
    rng_.Seed(options.seed);
  }

  /// Invokes `handler` with simulated network cost around it.
  /// `request_bytes`/`response_bytes` drive the size-proportional part;
  /// response size may be unknown upfront, in which case the caller passes
  /// an estimate (feature responses are small and bounded by K).
  Status Call(size_t request_bytes, size_t response_bytes,
              const std::function<Status()>& handler) {
    return Call(CallContext{}, request_bytes, response_bytes, handler);
  }

  /// Deadline-aware variant. Deadlines require a Clock; without one the
  /// context is carried but not enforced at the transport.
  Status Call(const CallContext& ctx, size_t request_bytes,
              size_t response_bytes, const std::function<Status()>& handler);

  /// Severs / restores the path (network partition injection).
  void SetPartitioned(bool partitioned) {
    partitioned_.store(partitioned, std::memory_order_relaxed);
  }
  bool IsPartitioned() const {
    return partitioned_.load(std::memory_order_relaxed);
  }

  void SetDropProbability(double p);

 private:
  int64_t DrawOneWayDelayUs(size_t payload_bytes);

  ChannelOptions options_;
  Clock* clock_;
  std::atomic<bool> partitioned_{false};
  /// Read on every call without a lock; rng_mu_ is taken only to draw when
  /// it is > 0, so a drop-free channel never serializes its callers.
  std::atomic<double> drop_probability_;
  std::mutex rng_mu_;
  Rng rng_;
};

}  // namespace ips

#endif  // IPS_CLUSTER_RPC_H_
