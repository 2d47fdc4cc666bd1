#include "kvstore/replicated_kv.h"

#include <iterator>

namespace ips {

/// Writable facade over the master store that also fans mutations into the
/// slaves' pending queues.
class ReplicatedKv::MasterProxy final : public KvStore {
 public:
  explicit MasterProxy(ReplicatedKv* parent) : parent_(parent) {}

  Status Set(std::string_view key, std::string_view value) override {
    IPS_RETURN_IF_ERROR(parent_->master_->Set(key, value));
    parent_->EnqueueReplication(/*is_delete=*/false, key, value);
    return Status::OK();
  }

  Status Get(std::string_view key, std::string* value) override {
    return parent_->master_->Get(key, value);
  }

  Status Delete(std::string_view key) override {
    IPS_RETURN_IF_ERROR(parent_->master_->Delete(key));
    parent_->EnqueueReplication(/*is_delete=*/true, key, {});
    return Status::OK();
  }

  Status XGet(std::string_view key, KvEntry* entry) override {
    return parent_->master_->XGet(key, entry);
  }

  Status XSet(std::string_view key, std::string_view value,
              KvVersion expected_version, KvVersion* new_version) override {
    IPS_RETURN_IF_ERROR(
        parent_->master_->XSet(key, value, expected_version, new_version));
    parent_->EnqueueReplication(/*is_delete=*/false, key, value);
    return Status::OK();
  }

  void MultiGet(const std::vector<std::string>& keys,
                std::vector<std::string>* values,
                std::vector<Status>* statuses) override {
    parent_->master_->MultiGet(keys, values, statuses);
  }

  void MultiSet(const std::vector<std::string>& keys,
                const std::vector<std::string>& values,
                std::vector<Status>* statuses) override {
    parent_->master_->MultiSet(keys, values, statuses);
    // Only keys the master actually accepted replicate; bounced keys must
    // not resurrect on a slave.
    for (size_t i = 0; i < keys.size() && i < statuses->size(); ++i) {
      if ((*statuses)[i].ok()) {
        parent_->EnqueueReplication(/*is_delete=*/false, keys[i], values[i]);
      }
    }
  }

  size_t KeyCount() const override { return parent_->master_->KeyCount(); }

 private:
  ReplicatedKv* parent_;
};

/// Read-only facade over one slave that applies matured replication entries
/// before serving a read.
class ReplicatedKv::SlaveView final : public KvStore {
 public:
  SlaveView(ReplicatedKv* parent, size_t index)
      : parent_(parent), index_(index) {}

  Status Set(std::string_view, std::string_view) override {
    return Status::Unavailable("slave cluster is read-only");
  }

  Status Get(std::string_view key, std::string* value) override {
    auto& slave = *parent_->slaves_[index_];
    parent_->DrainSlave(slave, parent_->clock_->NowMs(), /*force=*/false);
    return slave.store->Get(key, value);
  }

  Status Delete(std::string_view) override {
    return Status::Unavailable("slave cluster is read-only");
  }

  Status XGet(std::string_view key, KvEntry* entry) override {
    auto& slave = *parent_->slaves_[index_];
    parent_->DrainSlave(slave, parent_->clock_->NowMs(), /*force=*/false);
    return slave.store->XGet(key, entry);
  }

  Status XSet(std::string_view, std::string_view, KvVersion,
              KvVersion*) override {
    return Status::Unavailable("slave cluster is read-only");
  }

  void MultiGet(const std::vector<std::string>& keys,
                std::vector<std::string>* values,
                std::vector<Status>* statuses) override {
    auto& slave = *parent_->slaves_[index_];
    parent_->DrainSlave(slave, parent_->clock_->NowMs(), /*force=*/false);
    slave.store->MultiGet(keys, values, statuses);
  }

  void MultiSet(const std::vector<std::string>& keys,
                const std::vector<std::string>&,
                std::vector<Status>* statuses) override {
    statuses->assign(keys.size(),
                     Status::Unavailable("slave cluster is read-only"));
  }

  size_t KeyCount() const override {
    return parent_->slaves_[index_]->store->KeyCount();
  }

 private:
  ReplicatedKv* parent_;
  size_t index_;
};

ReplicatedKv::ReplicatedKv(ReplicatedKvOptions options, Clock* clock)
    : options_(options), clock_(clock) {
  master_ = std::make_unique<MemKvStore>(options_.store_options);
  master_proxy_ = std::make_unique<MasterProxy>(this);
  for (size_t i = 0; i < options_.num_slaves; ++i) {
    auto state = std::make_unique<SlaveState>();
    MemKvOptions slave_options = options_.store_options;
    slave_options.seed = options_.store_options.seed + 1000 + i;
    state->store = std::make_unique<MemKvStore>(slave_options);
    slaves_.push_back(std::move(state));
    slave_views_.push_back(std::make_unique<SlaveView>(this, i));
  }
}

ReplicatedKv::~ReplicatedKv() = default;

KvStore* ReplicatedKv::master() { return master_proxy_.get(); }

KvStore* ReplicatedKv::slave(size_t i) { return slave_views_[i].get(); }

void ReplicatedKv::EnqueueReplication(bool is_delete, std::string_view key,
                                      std::string_view value) {
  const TimestampMs apply_at = clock_->NowMs() + options_.replication_lag_ms;
  for (auto& slave : slaves_) {
    std::lock_guard<std::mutex> lock(slave->mu);
    slave->pending.push_back(PendingWrite{apply_at, is_delete,
                                          std::string(key),
                                          std::string(value)});
  }
}

void ReplicatedKv::DrainSlave(SlaveState& slave, TimestampMs now_ms,
                              bool force) {
  // One drainer applies at a time, so two concurrent slave reads cannot
  // apply a key's older value after its newer one.
  std::lock_guard<std::mutex> apply_lock(slave.apply_mu);
  std::deque<PendingWrite> ready;
  {
    std::lock_guard<std::mutex> lock(slave.mu);
    while (!slave.pending.empty() &&
           (force || slave.pending.front().apply_at_ms <= now_ms)) {
      ready.push_back(std::move(slave.pending.front()));
      slave.pending.pop_front();
    }
  }
  while (!ready.empty()) {
    // Applies go through the plain store interface, so a down slave keeps
    // its backlog and retries later.
    const PendingWrite& w = ready.front();
    const Status status = w.is_delete ? slave.store->Delete(w.key)
                                      : slave.store->Set(w.key, w.value);
    if (!status.ok()) break;
    ready.pop_front();
  }
  if (ready.empty()) return;
  // The failed mutation and everything after it go back in front of what
  // was enqueued meanwhile, in their original order.
  std::lock_guard<std::mutex> lock(slave.mu);
  slave.pending.insert(slave.pending.begin(),
                       std::make_move_iterator(ready.begin()),
                       std::make_move_iterator(ready.end()));
}

void ReplicatedKv::CatchUpAll() {
  const TimestampMs now = clock_->NowMs();
  for (auto& slave : slaves_) DrainSlave(*slave, now, /*force=*/true);
}

size_t ReplicatedKv::PendingMutations(size_t i) const {
  std::lock_guard<std::mutex> lock(slaves_[i]->mu);
  return slaves_[i]->pending.size();
}

}  // namespace ips
