#include "common/thread_pool.h"

namespace ips {

ThreadPool::ThreadPool(size_t num_threads, size_t max_queue)
    : max_queue_(max_queue) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::Submit(std::function<void()> task) {
  {
    // Checking shutdown_ under the same lock the destructor sets it with
    // means a task is either queued before shutdown (a worker runs it
    // before exiting) or rejected; it is never accepted and then dropped.
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_ || queue_.size() >= max_queue_) return false;
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
  return true;
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
    // Shutdown drains the queue first: exit only once it is empty.
    if (queue_.empty()) return;
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    ++running_;
    lock.unlock();
    task();
    // Release the task's captures before reporting it done, so Wait()
    // returning implies they are gone.
    task = nullptr;
    lock.lock();
    if (--running_ == 0 && queue_.empty()) idle_cv_.notify_all();
  }
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && running_ == 0; });
}

size_t ThreadPool::QueueDepth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

}  // namespace ips
