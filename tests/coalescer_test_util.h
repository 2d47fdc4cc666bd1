// Helpers shared by the load-coalescer and write-back tests: a gate that
// holds round trips at a deterministic point, a bounded spin-wait, fetch
// and decode stand-ins for a coalescer without a persister, and a KV store
// whose batched calls can be held at that gate while an IpsInstance runs on
// top of it.
#ifndef IPS_TESTS_COALESCER_TEST_UTIL_H_
#define IPS_TESTS_COALESCER_TEST_UTIL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "codec/profile_codec.h"
#include "common/clock.h"
#include "kvstore/mem_kv_store.h"
#include "server/ips_instance.h"

namespace ips {
namespace coalescer_test {

// Holds round trips until the test opens it, and lets the test wait until
// one has entered (is on the wire), so attach-vs-dispatch ordering is
// deterministic. Once open, every later round trip passes straight through.
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

// What a bulk-mode fetch of `profile` reads.
inline FetchedProfile FetchedOf(const ProfileData& profile,
                                bool degraded = false) {
  FetchedProfile fetched;
  EncodeProfile(profile, &fetched.bulk);
  fetched.degraded = degraded;
  return fetched;
}

// Decodes like Persister::DecodeBatch (a fetch error passes through), with
// no persister behind it.
inline std::vector<Result<ProfileData>> DecodeAll(
    const std::vector<FetchedProfile>& fetched, std::vector<bool>* degraded) {
  if (degraded != nullptr) degraded->assign(fetched.size(), false);
  std::vector<Result<ProfileData>> out;
  for (size_t i = 0; i < fetched.size(); ++i) {
    if (!fetched[i].status.ok()) {
      out.emplace_back(fetched[i].status);
      continue;
    }
    ProfileData profile;
    Status status = DecodeFetchedProfile(fetched[i], &profile, nullptr);
    if (!status.ok()) {
      out.emplace_back(status);
      continue;
    }
    out.emplace_back(std::move(profile));
    if (degraded != nullptr) (*degraded)[i] = fetched[i].degraded;
  }
  return out;
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

}  // namespace coalescer_test
}  // namespace ips

#endif  // IPS_TESTS_COALESCER_TEST_UTIL_H_
