// Profile Table (Section III-B): the logical container mapping profile IDs
// to profile data, sharded by hashed profile id. This plain in-memory table
// is the write-isolation side table (Section III-F); the serving path wraps
// profiles in the GCache layer (src/cache) for LRU/dirty management.
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

  /// Runs `fn` with exclusive access, creating the profile when absent.
  void WithProfileMutable(ProfileId pid,
                          const std::function<void(ProfileData&)>& fn);

  size_t ProfileCount() const;

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

  TableSchema schema_;
  size_t shard_mask_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace ips

#endif  // IPS_CORE_PROFILE_TABLE_H_
