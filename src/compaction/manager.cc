#include "compaction/manager.h"

#include "common/clock.h"
#include "common/trace.h"

namespace ips {

CompactionManager::CompactionManager(
    CompactionManagerOptions options,
    std::function<void(ProfileId, bool)> run_compaction,
    MetricsRegistry* metrics)
    : options_(std::move(options)),
      run_compaction_(std::move(run_compaction)) {
  if (!options_.synchronous) {
    pool_ = std::make_unique<ThreadPool>(options_.num_threads,
                                         options_.max_queue);
  }
  if (metrics != nullptr) {
    triggered_counter_ = metrics->GetCounter("compaction.triggered");
    dropped_counter_ = metrics->GetCounter("compaction.dropped");
    full_counter_ = metrics->GetCounter("compaction.full");
    partial_counter_ = metrics->GetCounter("compaction.partial");
    micros_histogram_ = metrics->GetHistogram("compaction.micros");
    if (pool_) {
      queue_depth_histogram_ = metrics->GetHistogram("compaction.queue_depth");
    }
  }
}

bool CompactionManager::Submit(ProfileId pid) {
  if (!enabled_.load(std::memory_order_relaxed)) return false;
  if (triggered_counter_ != nullptr) triggered_counter_->Increment();

  // Load-adaptive degradation: a full pass while the drain queue is
  // shallower than partial_threshold, a partial pass beyond it. Never a
  // skip — the pool's queue bound is the only drop point. Sync mode has no
  // queue to be behind.
  const size_t depth = pool_ ? pool_->QueueDepth() : 0;
  if (queue_depth_histogram_ != nullptr) {
    queue_depth_histogram_->Record(static_cast<int64_t>(depth));
  }
  const bool full = depth < options_.partial_threshold;

  if (options_.synchronous) {
    Execute(pid, full);
    return true;
  }
  if (!pool_->Submit([this, pid, full] { Execute(pid, full); })) {
    if (dropped_counter_ != nullptr) dropped_counter_->Increment();
    return false;
  }
  return true;
}

void CompactionManager::Execute(ProfileId pid, bool full) {
  const int64_t begin_ns = MonotonicNanos();
  {
    // Umbrella stage: in sync mode this attributes the inline pass to the
    // triggering request's trace; on pool workers no trace is installed and
    // the span is a free no-op.
    ScopedSpan span("compaction.run");
    run_compaction_(pid, full);
  }
  if (full_counter_ != nullptr) {
    (full ? full_counter_ : partial_counter_)->Increment();
    micros_histogram_->Record((MonotonicNanos() - begin_ns) / 1000);
  }
}

}  // namespace ips
