#include "cluster/rpc.h"

#include <optional>
#include <thread>

#include "common/trace.h"

namespace ips {

namespace {

void BurnMicros(int64_t us) {
  if (us <= 0) return;
  if (us >= 1000) {
    std::this_thread::sleep_for(std::chrono::microseconds(us));
    return;
  }
  const int64_t deadline = MonotonicNanos() + us * 1000;
  while (MonotonicNanos() < deadline) {
    // spin
  }
}

}  // namespace

int64_t Channel::DrawOneWayDelayUs(size_t payload_bytes) {
  int64_t delay = options_.base_latency_us;
  if (options_.tail_latency_us > 0) {
    std::lock_guard<std::mutex> lock(rng_mu_);
    delay += static_cast<int64_t>(
        rng_.Exponential(static_cast<double>(options_.tail_latency_us)));
  }
  if (options_.per_kib_us > 0) {
    delay +=
        options_.per_kib_us * static_cast<int64_t>(payload_bytes / 1024);
  }
  return delay;
}

Status Channel::Call(const CallContext& ctx, size_t request_bytes,
                     size_t response_bytes,
                     const std::function<Status()>& handler) {
  // Scatter-gather clients dispatch Call on worker threads, so the trace
  // context must be (re)installed here for the spans below and for every
  // layer the handler reaches.
  TraceInstallScope trace_install(ctx.trace);
  // Each leg's span covers the whole transport path — fault/deadline
  // checks and the delay draw, not just the burn — suspended around the
  // handler so it stays disjoint from the server-side stages.
  std::optional<ScopedSpan> transfer;
  transfer.emplace("rpc.transfer");
  if (partitioned_.load(std::memory_order_relaxed)) {
    return Status::Unavailable("network partition");
  }
  const double drop = drop_probability_.load(std::memory_order_relaxed);
  if (drop > 0.0) {
    std::lock_guard<std::mutex> lock(rng_mu_);
    if (rng_.Bernoulli(drop)) return Status::Unavailable("request dropped");
  }
  const bool enforce = clock_ != nullptr && ctx.has_deadline();
  if (enforce && ctx.Expired(clock_->NowMs())) {
    return Status::DeadlineExceeded("deadline expired before send");
  }
  const int64_t request_delay_us = DrawOneWayDelayUs(request_bytes);
  if (enforce &&
      request_delay_us / 1000 >= ctx.RemainingMs(clock_->NowMs())) {
    // The request would reach the server after the caller stopped waiting;
    // fail fast instead of burning the latency.
    return Status::DeadlineExceeded("request latency exceeds deadline");
  }
  BurnMicros(request_delay_us);
  transfer.reset();
  Status status = handler();
  transfer.emplace("rpc.transfer");
  const int64_t response_delay_us = DrawOneWayDelayUs(response_bytes);
  if (enforce &&
      response_delay_us / 1000 >= ctx.RemainingMs(clock_->NowMs())) {
    // The server did the work, but the reply lands too late to matter.
    return Status::DeadlineExceeded("response latency exceeds deadline");
  }
  BurnMicros(response_delay_us);
  return status;
}

void Channel::SetDropProbability(double p) {
  drop_probability_.store(p, std::memory_order_relaxed);
}

}  // namespace ips
