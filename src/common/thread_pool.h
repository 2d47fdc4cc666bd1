// Fixed-size worker pool with a bounded, sharded queue, used by the
// asynchronous compaction drain (Section III-D: compaction runs off the
// serving path in a dedicated pool "with capped parallelism") and by the
// IpsClient's per-owner sub-call fan-out: tasks land in per-shard FIFO
// queues and N workers drain N shards concurrently, stealing from foreign
// shards when their own stripe runs dry, so a drain storm never funnels
// through one queue mutex.
#ifndef IPS_COMMON_THREAD_POOL_H_
#define IPS_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ips {

/// Sharded work queue + striped workers. Submissions carry a shard hint
/// (e.g. a pid hash): tasks for one shard run in FIFO order, different
/// shards drain concurrently. Each worker owns the stripe of shards
/// `{s : s % num_threads == worker}` and scans it first; when the stripe is
/// empty it steals from foreign shards (oldest-first within each), so a
/// skewed shard cannot idle the rest of the pool. Queue mutexes are
/// per-shard — submitters and workers touching different shards never
/// contend; the pool-wide mutex is only taken around condition-variable
/// sleeps and wakeups, never across queue operations or task bodies.
class StripedThreadPool {
 public:
  /// `num_shards` is rounded up to a power of two and to at least
  /// `num_threads`. `max_queue` bounds the TOTAL queued (not yet running)
  /// tasks across all shards; submissions beyond it are rejected (callers
  /// degrade, e.g. drop a compaction trigger for later traffic to re-raise).
  StripedThreadPool(size_t num_threads, size_t num_shards,
                    size_t max_queue = 4096);

  /// Drains queued tasks and joins all workers.
  ~StripedThreadPool();

  StripedThreadPool(const StripedThreadPool&) = delete;
  StripedThreadPool& operator=(const StripedThreadPool&) = delete;

  /// Enqueues a task on the shard `shard_hint % num_shards`; returns false
  /// when the pool-wide queue bound is hit or the pool is shutting down.
  bool Submit(uint64_t shard_hint, std::function<void()> task);

  /// Blocks until all submitted tasks have completed.
  void Wait();

  size_t num_threads() const { return num_workers_; }
  size_t num_shards() const { return shards_.size(); }

  /// Total queued (not yet running) tasks.
  size_t QueueDepth() const {
    return queued_.load(std::memory_order_relaxed);
  }
  /// Queued tasks on one shard (shard < num_shards()).
  size_t ShardQueueDepth(size_t shard) const;

  /// Tasks a worker popped from a shard outside its home stripe. Monotone;
  /// the compaction manager surfaces deltas as the compaction.steals metric.
  uint64_t StealCount() const {
    return steals_.load(std::memory_order_relaxed);
  }

 private:
  struct Shard {
    mutable std::mutex mu;
    std::deque<std::function<void()>> queue;
  };

  void WorkerLoop(size_t worker);
  /// Pops the next task for `worker`, home stripe first, then steals.
  /// Returns false when every shard is empty.
  bool PopTask(size_t worker, std::function<void()>* out_task);

  /// unique_ptr so shards stay put; the vector itself is immutable after
  /// construction.
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Fixed before any worker spawns: a worker's PopTask must not read
  /// workers_.size() while the constructor is still appending threads.
  size_t num_workers_;
  size_t max_queue_;

  /// Tasks sitting in shard queues (not yet popped).
  std::atomic<size_t> queued_{0};
  /// queued + running, for Wait().
  std::atomic<size_t> pending_{0};
  std::atomic<uint64_t> steals_{0};

  /// Guards only the sleep/wake protocol (see class comment).
  mutable std::mutex wake_mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  bool shutdown_ = false;

  std::vector<std::thread> workers_;
};

}  // namespace ips

#endif  // IPS_COMMON_THREAD_POOL_H_
