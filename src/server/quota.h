// Per-caller QPS quota enforcement (Sections IV opening and V-b): IPS
// clusters are multi-tenant; each upstream application is identified by a
// caller name and holds a QPS quota. Requests above the quota are rejected
// with ResourceExhausted until usage falls back under the limit. Quotas are
// hot-reconfigurable.
#ifndef IPS_SERVER_QUOTA_H_
#define IPS_SERVER_QUOTA_H_

#include <array>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/clock.h"
#include "common/rate_limiter.h"
#include "common/status.h"

namespace ips {

/// Thread-safe. The bucket map is sharded by caller-name hash so that
/// admission checks from many serving threads never serialize on one global
/// mutex: each Check touches exactly one shard's lock (and the TokenBucket
/// itself is internally synchronized). 16 shards is plenty — caller
/// cardinality is tens of applications, contention comes from request
/// threads, not from distinct callers.
class QuotaManager {
 public:
  /// A caller without an explicit quota is unlimited.
  explicit QuotaManager(Clock* clock);

  /// Sets (or replaces) a caller's quota. Burst defaults to one second of
  /// traffic.
  void SetQuota(const std::string& caller, double qps, double burst = 0);

  void RemoveQuota(const std::string& caller);

  /// Admission check for one request (optionally weighted, e.g. batched
  /// writes). OK or ResourceExhausted.
  Status Check(const std::string& caller, double cost = 1.0);

  /// Current configured QPS for a caller (0 = unlimited, when unset).
  double QuotaFor(const std::string& caller) const;

 private:
  static constexpr size_t kShards = 16;

  struct Shard {
    mutable std::mutex mu;
    /// shared_ptr so a bucket grabbed by an in-flight Check survives a
    /// concurrent RemoveQuota (the race resolves as "checked under the old
    /// quota", never as a dangling pointer).
    std::unordered_map<std::string, std::shared_ptr<TokenBucket>> buckets;
  };

  Shard& ShardFor(const std::string& caller) {
    return shards_[std::hash<std::string>{}(caller) % kShards];
  }
  const Shard& ShardFor(const std::string& caller) const {
    return shards_[std::hash<std::string>{}(caller) % kShards];
  }

  Clock* clock_;
  std::array<Shard, kShards> shards_;
};

}  // namespace ips

#endif  // IPS_SERVER_QUOTA_H_
