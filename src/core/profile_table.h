// Profile Table (Section III-B): the logical container mapping profile IDs
// to profile data, sharded by hashed profile id. This is the plain in-memory
// table used directly by the library API and by the write-isolation side
// table; the serving path wraps profiles in the GCache layer (src/cache) for
// LRU/dirty management.
#ifndef IPS_CORE_PROFILE_TABLE_H_
#define IPS_CORE_PROFILE_TABLE_H_

#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "core/profile_data.h"
#include "core/table_schema.h"
#include "core/types.h"

namespace ips {

class ProfileTable {
 public:
  /// `num_shards` must be a power of two.
  explicit ProfileTable(TableSchema schema, size_t num_shards = 16);

  const TableSchema& schema() const { return schema_; }

  /// Records one observation (the add_profile API of Section II-B).
  Status Add(ProfileId pid, TimestampMs timestamp, SlotId slot, TypeId type,
             FeatureId fid, const CountVector& counts);

  /// Runs `fn` with shared access to the profile; returns NotFound when the
  /// profile does not exist.
  Status WithProfile(ProfileId pid,
                     const std::function<void(const ProfileData&)>& fn) const;

  /// Runs `fn` with exclusive access, creating the profile when absent.
  void WithProfileMutable(ProfileId pid,
                          const std::function<void(ProfileData&)>& fn);

  /// Removes a profile entirely; returns whether it existed.
  bool Erase(ProfileId pid);

  bool Contains(ProfileId pid) const;
  size_t ProfileCount() const;
  size_t ApproximateBytes() const;

  /// Moves every profile out, emptying each shard under one lock hold (the
  /// isolation merge's drain). A write to a shard already drained lands in
  /// the emptied map and waits for the next drain; none is lost.
  std::vector<std::pair<ProfileId, ProfileData>> Drain();

 private:
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<ProfileId, ProfileData> profiles;
  };

  Shard& ShardFor(ProfileId pid) {
    return *shards_[Mix64(pid) & shard_mask_];
  }
  const Shard& ShardFor(ProfileId pid) const {
    return *shards_[Mix64(pid) & shard_mask_];
  }

  TableSchema schema_;
  size_t shard_mask_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace ips

#endif  // IPS_CORE_PROFILE_TABLE_H_
