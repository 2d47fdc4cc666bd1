// Background compaction manager (Section III-D): compaction is triggered by
// serving traffic but executed asynchronously in a dedicated pool with
// capped parallelism, keeping the CPU cost off the main serving path. Under
// load it degrades from full to partial passes: a trigger that finds the
// drain queue at or beyond partial_threshold schedules a partial pass.
#ifndef IPS_COMPACTION_MANAGER_H_
#define IPS_COMPACTION_MANAGER_H_

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "compaction/compactor.h"
#include "core/types.h"

namespace ips {

struct CompactionManagerOptions {
  /// Worker threads for asynchronous compactions (capped parallelism).
  size_t num_threads = 2;
  /// Maximum queued compaction jobs; beyond this, triggers are dropped (the
  /// profile will be re-triggered by later traffic).
  size_t max_queue = 1024;
  /// Minimum interval between two compactions of the same profile.
  int64_t min_interval_ms = 60'000;
  /// Queue depth at which full compactions degrade to partial ones (the
  /// paper's load-adaptive full-vs-partial strategy).
  size_t partial_threshold = 64;
  /// When true, compactions run inline in the caller thread — the
  /// non-optimized strategy the paper started from; kept for the ablation
  /// bench.
  bool synchronous = false;
};

class CompactionManager {
 public:
  /// `run_compaction(pid, full)` performs the actual work against the
  /// owning table's cache; the manager only decides *when* and *what kind*.
  /// Metrics may be null.
  CompactionManager(CompactionManagerOptions options, Clock* clock,
                    std::function<void(ProfileId, bool full)> run_compaction,
                    MetricsRegistry* metrics = nullptr);
  ~CompactionManager();

  CompactionManager(const CompactionManager&) = delete;
  CompactionManager& operator=(const CompactionManager&) = delete;

  /// Called from the serving path after a write or query touched `pid`.
  /// Cheap: dedupes in-flight profiles and rate-limits per profile. Returns
  /// true when a compaction was scheduled (or executed, in sync mode).
  bool MaybeTrigger(ProfileId pid);

  /// True when compactions run inline on the triggering thread (tests and
  /// the III-D ablation) rather than on the async pool. Serving-path callers
  /// use this to decide whether MaybeTrigger may open trace spans.
  bool synchronous() const { return options_.synchronous; }

  /// Kill switch: while disabled, MaybeTrigger is a no-op. Operators pause
  /// compaction during heavy back-fills and run a sweep afterwards.
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool IsEnabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Blocks until queued compactions complete (tests/benches).
  void Drain();

  size_t QueueDepth() const;

  /// Total per-profile rate-limit entries across trigger shards; the
  /// bounded-growth regression test asserts this stays capped under a flood
  /// of distinct pids.
  size_t RateLimitEntriesForTest() const;

 private:
  /// Trigger bookkeeping is sharded by pid hash: MaybeTrigger runs on every
  /// served query, and a single mutex over the dedupe/rate-limit state would
  /// serialize all serving threads. Each shard's critical section covers
  /// only the admission decision — the dispatch (queue-depth probe, pool
  /// submit, metrics) happens outside any lock.
  struct TriggerShard {
    mutable std::mutex mu;
    std::unordered_set<ProfileId> in_flight;
    std::unordered_map<ProfileId, TimestampMs> last_run_ms;
  };
  static constexpr size_t kTriggerShards = 16;

  /// Per-shard cap on last_run_ms entries (admission sweeps age out stale
  /// entries first, then evicts arbitrarily down to this bound, so a flood
  /// of distinct fresh pids cannot grow the maps without limit).
  size_t RateLimitShardCap() const {
    return (4 * options_.max_queue + 1024) / kTriggerShards;
  }

  void Execute(ProfileId pid, bool full);
  void ClearInFlight(ProfileId pid, TriggerShard& shard);

  CompactionManagerOptions options_;
  Clock* clock_;
  std::function<void(ProfileId, bool)> run_compaction_;
  MetricsRegistry* metrics_;
  /// Metrics touched once per trigger or pass, resolved once at
  /// construction (null without a registry; the queue-depth histogram also
  /// without a pool).
  Counter* triggered_counter_ = nullptr;
  Counter* dropped_counter_ = nullptr;
  Counter* rate_limit_evictions_counter_ = nullptr;
  Counter* full_counter_ = nullptr;
  Counter* partial_counter_ = nullptr;
  Histogram* micros_histogram_ = nullptr;
  Histogram* queue_depth_histogram_ = nullptr;
  std::unique_ptr<ThreadPool> pool_;

  std::atomic<bool> enabled_{true};
  std::array<TriggerShard, kTriggerShards> shards_;
};

}  // namespace ips

#endif  // IPS_COMPACTION_MANAGER_H_
