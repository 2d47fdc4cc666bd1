// Helpers shared by the cache and instance tests: a gate that holds a round
// trip at a deterministic point, a bounded spin-wait, a KV store whose
// batched calls can be held at that gate while an IpsInstance runs on top of
// it, and the instance options and schema those tests start from.
#ifndef IPS_TESTS_TEST_UTIL_H_
#define IPS_TESTS_TEST_UTIL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "kvstore/mem_kv_store.h"
#include "server/ips_instance.h"

namespace ips {
namespace test_util {

// Holds round trips until the test opens it, and lets the test wait until
// one has entered (is on the wire), so a race runs in a deterministic order.
// Once open, every later round trip passes straight through.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool open = false;

  void Enter() {
    std::unique_lock<std::mutex> lock(mu);
    entered = true;
    cv.notify_all();
    cv.wait(lock, [&] { return open; });
  }
  void AwaitEntered() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu);
    open = true;
    cv.notify_all();
  }
};

// Yields (never sleeps) until pred holds; gives up after 10 s so a broken
// build fails instead of hanging.
template <typename Pred>
::testing::AssertionResult SpinUntil(Pred pred) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > give_up) {
      return ::testing::AssertionFailure() << "condition not reached in 10s";
    }
    std::this_thread::yield();
  }
  return ::testing::AssertionSuccess();
}

// MemKvStore whose batched calls can be held at a gate: once armed, every
// MultiGet / MultiSet records its key count and then waits for the gate.
class GatedKv final : public KvStore {
 public:
  Status Set(std::string_view key, std::string_view value) override {
    return inner_.Set(key, value);
  }
  Status Get(std::string_view key, std::string* value) override {
    return inner_.Get(key, value);
  }
  Status Delete(std::string_view key) override { return inner_.Delete(key); }
  Status XGet(std::string_view key, KvEntry* entry) override {
    return inner_.XGet(key, entry);
  }
  Status XSet(std::string_view key, std::string_view value,
              KvVersion expected_version, KvVersion* new_version) override {
    return inner_.XSet(key, value, expected_version, new_version);
  }
  void MultiGet(const std::vector<std::string>& keys,
                std::vector<std::string>* values,
                std::vector<Status>* statuses) override {
    Pass(&multi_get_keys_, keys.size());
    inner_.MultiGet(keys, values, statuses);
  }
  void MultiSet(const std::vector<std::string>& keys,
                const std::vector<std::string>& values,
                std::vector<Status>* statuses) override {
    Pass(&multi_set_keys_, keys.size());
    inner_.MultiSet(keys, values, statuses);
  }
  size_t KeyCount() const override { return inner_.KeyCount(); }

  void Arm() { armed_.store(true); }
  Gate& gate() { return gate_; }
  MemKvStore& inner() { return inner_; }
  /// Key counts of the batched calls made since Arm().
  std::vector<size_t> MultiGetKeys() {
    std::lock_guard<std::mutex> lock(mu_);
    return multi_get_keys_;
  }
  std::vector<size_t> MultiSetKeys() {
    std::lock_guard<std::mutex> lock(mu_);
    return multi_set_keys_;
  }

 private:
  void Pass(std::vector<size_t>* calls, size_t keys) {
    if (!armed_.load()) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      calls->push_back(keys);
    }
    gate_.Enter();
  }

  MemKvStore inner_;
  Gate gate_;
  std::atomic<bool> armed_{false};
  std::mutex mu_;
  std::vector<size_t> multi_get_keys_;
  std::vector<size_t> multi_set_keys_;
};

inline IpsInstanceOptions ManualInstanceOptions() {
  IpsInstanceOptions options;
  options.start_background_threads = false;
  options.compaction.synchronous = true;
  options.isolation_enabled = false;
  return options;
}

inline TableSchema TestSchema() {
  TableSchema schema = DefaultTableSchema("profiles");
  schema.write_granularity_ms = kMillisPerMinute;
  return schema;
}

}  // namespace test_util
}  // namespace ips

#endif  // IPS_TESTS_TEST_UTIL_H_
