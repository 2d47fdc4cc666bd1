#include "compaction/manager.h"

#include "common/hash.h"
#include "common/trace.h"

namespace ips {

CompactionManager::CompactionManager(
    CompactionManagerOptions options, Clock* clock,
    std::function<void(ProfileId, bool)> run_compaction,
    MetricsRegistry* metrics)
    : options_(std::move(options)),
      clock_(clock),
      run_compaction_(std::move(run_compaction)),
      metrics_(metrics) {
  if (!options_.synchronous) {
    pool_ = std::make_unique<ThreadPool>(options_.num_threads,
                                         options_.max_queue);
  }
  if (metrics_ != nullptr) {
    triggered_counter_ = metrics_->GetCounter("compaction.triggered");
    dropped_counter_ = metrics_->GetCounter("compaction.dropped");
    rate_limit_evictions_counter_ =
        metrics_->GetCounter("compaction.rate_limit_evictions");
    full_counter_ = metrics_->GetCounter("compaction.full");
    partial_counter_ = metrics_->GetCounter("compaction.partial");
    micros_histogram_ = metrics_->GetHistogram("compaction.micros");
    if (pool_) {
      queue_depth_histogram_ = metrics_->GetHistogram("compaction.queue_depth");
    }
  }
}

CompactionManager::~CompactionManager() {
  if (pool_) pool_->Wait();
}

void CompactionManager::ClearInFlight(ProfileId pid, TriggerShard& shard) {
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.in_flight.erase(pid);
}

bool CompactionManager::MaybeTrigger(ProfileId pid) {
  if (!enabled_.load(std::memory_order_relaxed)) return false;
  const TimestampMs now = clock_->NowMs();
  TriggerShard& shard = shards_[static_cast<size_t>(Mix64(pid)) &
                                (kTriggerShards - 1)];
  const int64_t interval = options_.min_interval_ms;
  size_t cap_evicted = 0;
  {
    // Admission only: dedupe + per-profile rate limit. The dispatch below
    // (queue-depth probe, pool submit) stays outside the critical section so
    // serving threads contend only on their pid's shard, and only briefly.
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.in_flight.count(pid) > 0) return false;
    auto it = shard.last_run_ms.find(pid);
    if (it != shard.last_run_ms.end() && now - it->second < interval) {
      return false;
    }
    shard.in_flight.insert(pid);
    shard.last_run_ms[pid] = now;
    // Bound the rate-limit map: it only needs recent entries. Age out stale
    // ones first; if the shard is still over budget (a flood of distinct
    // pids all inside the interval), evict arbitrarily down to the cap — a
    // prematurely forgotten pid merely becomes re-triggerable early, which
    // the in-flight dedupe and queue bound absorb, whereas an unbounded map
    // is a slow memory leak proportional to the live pid universe.
    const size_t cap = RateLimitShardCap();
    if (shard.last_run_ms.size() > cap) {
      for (auto li = shard.last_run_ms.begin();
           li != shard.last_run_ms.end();) {
        if (now - li->second >= interval) {
          li = shard.last_run_ms.erase(li);
        } else {
          ++li;
        }
      }
      for (auto li = shard.last_run_ms.begin();
           shard.last_run_ms.size() > cap &&
           li != shard.last_run_ms.end();) {
        if (li->first == pid) {
          ++li;  // keep the entry just written for this trigger
          continue;
        }
        li = shard.last_run_ms.erase(li);
        ++cap_evicted;
      }
    }
  }

  if (metrics_ != nullptr) {
    triggered_counter_->Increment();
    if (cap_evicted > 0) {
      rate_limit_evictions_counter_->Increment(
          static_cast<int64_t>(cap_evicted));
    }
  }

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
    ClearInFlight(pid, shard);
    if (metrics_ != nullptr) dropped_counter_->Increment();
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
  if (metrics_ != nullptr) {
    (full ? full_counter_ : partial_counter_)->Increment();
    micros_histogram_->Record((MonotonicNanos() - begin_ns) / 1000);
  }
  TriggerShard& shard = shards_[static_cast<size_t>(Mix64(pid)) &
                                (kTriggerShards - 1)];
  ClearInFlight(pid, shard);
}

void CompactionManager::Drain() {
  if (pool_) pool_->Wait();
}

size_t CompactionManager::QueueDepth() const {
  return pool_ ? pool_->QueueDepth() : 0;
}

size_t CompactionManager::RateLimitEntriesForTest() const {
  size_t total = 0;
  for (const TriggerShard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.last_run_ms.size();
  }
  return total;
}

}  // namespace ips
