#include "server/quota.h"

namespace ips {

QuotaManager::QuotaManager(Clock* clock) : clock_(clock) {}

void QuotaManager::SetQuota(const std::string& caller, double qps,
                            double burst) {
  if (burst <= 0) burst = qps;
  Shard& shard = ShardFor(caller);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.buckets.find(caller);
  if (it != shard.buckets.end()) {
    it->second->Reconfigure(qps, burst);
  } else {
    shard.buckets[caller] = std::make_shared<TokenBucket>(qps, burst, clock_);
  }
}

void QuotaManager::RemoveQuota(const std::string& caller) {
  Shard& shard = ShardFor(caller);
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.buckets.erase(caller);
}

Status QuotaManager::Check(const std::string& caller, double cost) {
  Shard& shard = ShardFor(caller);
  std::shared_ptr<TokenBucket> bucket;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.buckets.find(caller);
    if (it == shard.buckets.end()) return Status::OK();  // no quota
    bucket = it->second;
  }
  // TryAcquire runs outside the shard lock (TokenBucket is internally
  // synchronized); the shared_ptr keeps the bucket alive across a
  // concurrent RemoveQuota.
  if (bucket->TryAcquire(cost)) return Status::OK();
  return Status::ResourceExhausted("quota exceeded for caller " + caller);
}

double QuotaManager::QuotaFor(const std::string& caller) const {
  const Shard& shard = ShardFor(caller);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.buckets.find(caller);
  if (it == shard.buckets.end()) return 0;
  return it->second->rate_per_sec();
}

}  // namespace ips
