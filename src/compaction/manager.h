// Background compaction manager (Section III-D): compaction is triggered by
// serving traffic but executed asynchronously in a dedicated pool with
// capped parallelism, keeping the CPU cost off the main serving path. Under
// load it degrades from full to partial passes: a submit that finds the
// drain queue at or beyond partial_threshold schedules a partial pass.
//
// Which pids are due, and that a pid is queued once, is decided by GCache's
// per-entry due time and queued flag (see GCache::set_compaction).
#ifndef IPS_COMPACTION_MANAGER_H_
#define IPS_COMPACTION_MANAGER_H_

#include <atomic>
#include <functional>
#include <memory>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "core/types.h"

namespace ips {

struct CompactionManagerOptions {
  /// Worker threads for asynchronous compactions (capped parallelism).
  size_t num_threads = 2;
  /// Maximum queued compaction jobs; beyond this, submits are dropped (the
  /// profile stays due and the next touch submits it again).
  size_t max_queue = 1024;
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
  /// owning table's cache; the manager only decides *what kind* and
  /// *where*. Metrics may be null.
  CompactionManager(CompactionManagerOptions options,
                    std::function<void(ProfileId, bool full)> run_compaction,
                    MetricsRegistry* metrics = nullptr);

  CompactionManager(const CompactionManager&) = delete;
  CompactionManager& operator=(const CompactionManager&) = delete;

  /// Schedules one pass over a due `pid` (or runs it, in sync mode). False
  /// when the pass was refused (compaction disabled) or dropped (queue
  /// full); the caller then still owns the pid's due state.
  bool Submit(ProfileId pid);

  /// Kill switch: while disabled, Submit refuses every pid. Operators pause
  /// compaction during heavy back-fills and run a sweep afterwards.
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Blocks until queued compactions complete (tests/benches). The
  /// destructor also runs every accepted pass (the pool drains on exit).
  void Drain() {
    if (pool_) pool_->Wait();
  }
  size_t QueueDepth() const { return pool_ ? pool_->QueueDepth() : 0; }

 private:
  void Execute(ProfileId pid, bool full);

  CompactionManagerOptions options_;
  std::function<void(ProfileId, bool)> run_compaction_;
  /// Metrics touched once per submit or pass, resolved once at
  /// construction (null without a registry; the queue-depth histogram also
  /// without a pool).
  Counter* triggered_counter_ = nullptr;
  Counter* dropped_counter_ = nullptr;
  Counter* full_counter_ = nullptr;
  Counter* partial_counter_ = nullptr;
  Histogram* micros_histogram_ = nullptr;
  Histogram* queue_depth_histogram_ = nullptr;
  std::unique_ptr<ThreadPool> pool_;

  std::atomic<bool> enabled_{true};
};

}  // namespace ips

#endif  // IPS_COMPACTION_MANAGER_H_
