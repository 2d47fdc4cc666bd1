// Fixed-size worker pool with one bounded FIFO queue, used by the
// asynchronous compaction drain (Section III-D: compaction runs off the
// serving path in a dedicated pool "with capped parallelism") and by the
// IpsClient's per-owner sub-call fan-out.
#ifndef IPS_COMMON_THREAD_POOL_H_
#define IPS_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ips {

/// N workers draining one FIFO queue. One mutex guards the queue, the
/// running count and the shutdown flag; task bodies run outside it.
class ThreadPool {
 public:
  /// `max_queue` bounds the queued (not yet running) tasks; submissions
  /// beyond it are rejected (callers degrade, e.g. drop a compaction trigger
  /// for later traffic to re-raise).
  explicit ThreadPool(size_t num_threads, size_t max_queue = 4096);

  /// Runs every accepted task, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; returns false when the queue holds max_queue tasks or
  /// the pool is shutting down.
  bool Submit(std::function<void()> task);

  /// Blocks until the queue is empty and no task is running.
  void Wait();

  /// Queued (not yet running) tasks.
  size_t QueueDepth() const;

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  const size_t max_queue_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> queue_;
  /// Tasks popped and not yet finished, for Wait().
  size_t running_ = 0;
  bool shutdown_ = false;

  std::vector<std::thread> workers_;
};

}  // namespace ips

#endif  // IPS_COMMON_THREAD_POOL_H_
