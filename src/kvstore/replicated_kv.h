// Master/slave replicated key-value store (Section III-G, Fig 15): in the
// multi-region deployment only one region's IPS persists to the master
// cluster; all other regions read from their local slave cluster, which lags
// the master by an asynchronous replication delay. A failed-over node can
// therefore load stale data — the weak-consistency trade-off the paper
// explicitly accepts.
#ifndef IPS_KVSTORE_REPLICATED_KV_H_
#define IPS_KVSTORE_REPLICATED_KV_H_

#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "common/clock.h"
#include "kvstore/mem_kv_store.h"

namespace ips {

struct ReplicatedKvOptions {
  size_t num_slaves = 1;
  /// Asynchronous replication delay applied to every mutation.
  int64_t replication_lag_ms = 1000;
  MemKvOptions store_options;
};

class ReplicatedKv {
 public:
  ReplicatedKv(ReplicatedKvOptions options, Clock* clock);
  ~ReplicatedKv();  // out of line: proxy/view types are incomplete here

  /// The writable master cluster.
  KvStore* master();
  MemKvStore* master_store() { return master_.get(); }

  /// Read-only view of slave `i`; mutations return Unavailable. Reads first
  /// apply every replicated mutation whose lag has elapsed.
  KvStore* slave(size_t i);
  MemKvStore* slave_store(size_t i) { return slaves_[i]->store.get(); }

  size_t num_slaves() const { return slaves_.size(); }

  /// Read-preference fallback for degraded reads (graceful degradation):
  /// a reader bound to the master falls back to a slave replica when the
  /// master is unavailable, and a slave-bound reader escalates to the
  /// master. Fallback data may lag replication — callers must flag results
  /// served this way as degraded.
  KvStore* read_fallback(bool primary_region, size_t slave_index) {
    if (primary_region) return slave(slave_index % slaves_.size());
    return master();
  }

  /// Applies all pending mutations regardless of lag (used on controlled
  /// failover, where operators wait for replication to catch up).
  void CatchUpAll();

  /// Mutations queued but not yet applied to slave `i`.
  size_t PendingMutations(size_t i) const;

 private:
  struct PendingWrite {
    TimestampMs apply_at_ms;
    bool is_delete;
    std::string key;
    std::string value;
  };

  struct SlaveState {
    std::unique_ptr<MemKvStore> store;
    /// Held by DrainSlave across taking and applying a run of mutations;
    /// taken before `mu`.
    std::mutex apply_mu;
    /// Guards `pending`.
    mutable std::mutex mu;
    std::deque<PendingWrite> pending;
  };

  // Forwards master mutations into each slave's pending queue.
  class MasterProxy;
  class SlaveView;

  void EnqueueReplication(bool is_delete, std::string_view key,
                          std::string_view value);
  void DrainSlave(SlaveState& slave, TimestampMs now_ms, bool force);

  ReplicatedKvOptions options_;
  Clock* clock_;
  std::unique_ptr<MemKvStore> master_;
  std::unique_ptr<MasterProxy> master_proxy_;
  std::vector<std::unique_ptr<SlaveState>> slaves_;
  std::vector<std::unique_ptr<SlaveView>> slave_views_;
};

}  // namespace ips

#endif  // IPS_KVSTORE_REPLICATED_KV_H_
