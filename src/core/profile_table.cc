#include "core/profile_table.h"

#include <cassert>

namespace ips {

ProfileTable::ProfileTable(TableSchema schema, size_t num_shards)
    : schema_(std::move(schema)) {
  assert(num_shards > 0 && (num_shards & (num_shards - 1)) == 0 &&
         "num_shards must be a power of two");
  shard_mask_ = num_shards - 1;
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

Status ProfileTable::Add(ProfileId pid, TimestampMs timestamp, SlotId slot,
                         TypeId type, FeatureId fid,
                         const CountVector& counts) {
  Shard& shard = ShardFor(pid);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto [it, inserted] = shard.profiles.try_emplace(
      pid, ProfileData(schema_.write_granularity_ms));
  return it->second.Add(timestamp, slot, type, fid, counts, schema_.reduce);
}

Status ProfileTable::WithProfile(
    ProfileId pid, const std::function<void(const ProfileData&)>& fn) const {
  const Shard& shard = ShardFor(pid);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.profiles.find(pid);
  if (it == shard.profiles.end()) {
    return Status::NotFound("profile " + std::to_string(pid));
  }
  fn(it->second);
  return Status::OK();
}

void ProfileTable::WithProfileMutable(
    ProfileId pid, const std::function<void(ProfileData&)>& fn) {
  Shard& shard = ShardFor(pid);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto [it, inserted] = shard.profiles.try_emplace(
      pid, ProfileData(schema_.write_granularity_ms));
  fn(it->second);
}

bool ProfileTable::Erase(ProfileId pid) {
  Shard& shard = ShardFor(pid);
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.profiles.erase(pid) > 0;
}

bool ProfileTable::Contains(ProfileId pid) const {
  const Shard& shard = ShardFor(pid);
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.profiles.find(pid) != shard.profiles.end();
}

size_t ProfileTable::ProfileCount() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->profiles.size();
  }
  return total;
}

size_t ProfileTable::ApproximateBytes() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [pid, data] : shard->profiles) {
      total += sizeof(ProfileId) + data.ApproximateBytes() + 32;
    }
  }
  return total;
}

std::vector<std::pair<ProfileId, ProfileData>> ProfileTable::Drain() {
  std::vector<std::pair<ProfileId, ProfileData>> drained;
  for (const auto& shard : shards_) {
    std::unordered_map<ProfileId, ProfileData> profiles;
    {
      std::lock_guard<std::mutex> lock(shard->mu);
      profiles.swap(shard->profiles);
    }
    for (auto& [pid, data] : profiles) {
      drained.emplace_back(pid, std::move(data));
    }
  }
  return drained;
}

}  // namespace ips
