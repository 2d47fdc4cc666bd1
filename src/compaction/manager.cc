#include "compaction/manager.h"

#include "common/hash.h"
#include "common/trace.h"

namespace ips {

CompactionManager::CompactionManager(
    CompactionManagerOptions options, Clock* clock,
    std::function<void(ProfileId, bool)> run_compaction,
    MetricsRegistry* metrics, std::unique_ptr<CompactionController> controller)
    : options_(std::move(options)),
      clock_(clock),
      run_compaction_(std::move(run_compaction)),
      metrics_(metrics),
      controller_(std::move(controller)) {
  if (controller_ == nullptr) {
    controller_ = MakeCompactionController(options_.policy);
  }
  if (controller_ == nullptr) {
    // Unknown policy name: fail safe to the legacy behavior rather than
    // crash the serving process over a config typo.
    controller_ = std::make_unique<DefaultCompactionController>();
  }
  if (!options_.synchronous) {
    pool_ = std::make_unique<StripedThreadPool>(
        options_.num_threads, options_.queue_shards, options_.max_queue);
  }
  if (metrics_ != nullptr) {
    triggered_counter_ = metrics_->GetCounter("compaction.triggered");
    full_counter_ = metrics_->GetCounter("compaction.full");
    partial_counter_ = metrics_->GetCounter("compaction.partial");
    micros_histogram_ = metrics_->GetHistogram("compaction.micros");
    if (pool_) {
      queue_depth_histogram_ = metrics_->GetHistogram("compaction.queue_depth");
      shard_queue_depth_histogram_ =
          metrics_->GetHistogram("compaction.shard_queue_depth");
    }
  }
}

CompactionManager::~CompactionManager() {
  if (pool_) {
    pool_->Wait();
    SyncStealMetric();
  }
}

void CompactionManager::ClearInFlight(ProfileId pid, TriggerShard& shard) {
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.in_flight.erase(pid);
}

bool CompactionManager::MaybeTrigger(ProfileId pid) {
  if (!enabled_.load(std::memory_order_relaxed)) return false;
  const TimestampMs now = clock_->NowMs();
  const uint64_t hash = Mix64(pid);
  TriggerShard& shard = shards_[static_cast<size_t>(hash) &
                                (kTriggerShards - 1)];
  const int64_t interval =
      controller_->MinIntervalMs(options_.min_interval_ms);
  size_t cap_evicted = 0;
  {
    // Admission only: dedupe + per-profile rate limit. The dispatch below
    // (queue-depth probe, controller classify, pool submit) stays outside
    // the critical section so serving threads contend only on their pid's
    // shard, and only briefly.
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
      metrics_->GetCounter("compaction.rate_limit_evictions")
          ->Increment(static_cast<int64_t>(cap_evicted));
    }
  }

  CompactionPressure pressure;
  pressure.max_queue = options_.max_queue;
  pressure.partial_threshold = options_.partial_threshold;
  if (pool_) {
    pressure.queue_depth = pool_->QueueDepth();
    pressure.shard_queue_depth =
        pool_->ShardQueueDepth(static_cast<size_t>(hash));
    if (metrics_ != nullptr) {
      queue_depth_histogram_->Record(
          static_cast<int64_t>(pressure.queue_depth));
      shard_queue_depth_histogram_->Record(
          static_cast<int64_t>(pressure.shard_queue_depth));
    }
  }

  const CompactionKind kind = controller_->Classify(pressure);
  if (kind == CompactionKind::kSkip) {
    ClearInFlight(pid, shard);
    if (metrics_ != nullptr) {
      metrics_->GetCounter("compaction.backoff")->Increment();
    }
    return false;
  }
  const bool full = kind == CompactionKind::kFull;

  if (options_.synchronous) {
    Execute(pid, full);
    return true;
  }

  const bool submitted =
      pool_->Submit(hash, [this, pid, full] { Execute(pid, full); });
  if (!submitted) {
    ClearInFlight(pid, shard);
    if (metrics_ != nullptr) {
      metrics_->GetCounter("compaction.dropped")->Increment();
    }
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

void CompactionManager::SyncStealMetric() {
  if (pool_ == nullptr) return;
  const uint64_t total = pool_->StealCount();
  const uint64_t prev = steals_reported_.exchange(total);
  if (metrics_ != nullptr && total > prev) {
    metrics_->GetCounter("compaction.steals")
        ->Increment(static_cast<int64_t>(total - prev));
  }
}

void CompactionManager::Drain() {
  if (pool_) {
    pool_->Wait();
    SyncStealMetric();
  }
}

size_t CompactionManager::QueueDepth() const {
  return pool_ ? pool_->QueueDepth() : 0;
}

uint64_t CompactionManager::StealCount() const {
  return pool_ ? pool_->StealCount() : 0;
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
