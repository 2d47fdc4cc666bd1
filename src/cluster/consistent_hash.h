// ID-based consistent-hash ring (Section III): the IPS client routes each
// profile id to the instance owning its hash range, so every instance serves
// a stable fraction of the cluster's data and nodes can join/leave with
// minimal key movement.
#ifndef IPS_CLUSTER_CONSISTENT_HASH_H_
#define IPS_CLUSTER_CONSISTENT_HASH_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/types.h"

namespace ips {

class ConsistentHashRing {
 public:
  /// `virtual_nodes` replicas per member smooth the load distribution.
  explicit ConsistentHashRing(int virtual_nodes = 128)
      : virtual_nodes_(virtual_nodes) {}

  void AddNode(const std::string& node_id);
  void RemoveNode(const std::string& node_id);
  bool HasNode(const std::string& node_id) const;

  /// Replaces the membership in one step (client view refresh).
  void SetMembers(const std::vector<std::string>& node_ids);

  /// Owner of `pid`; empty string when the ring is empty.
  const std::string& Lookup(ProfileId pid) const;

  /// Owner plus the next `count - 1` distinct successors (retry targets).
  std::vector<std::string> LookupN(ProfileId pid, size_t count) const;

  /// LookupN as indices into members(): writes min(count, NodeCount())
  /// distinct indices to `out` and returns how many. No allocation, so a
  /// batch can route every pid under one lock hold.
  size_t LookupNIndices(ProfileId pid, size_t count, uint32_t* out) const;

  size_t NodeCount() const { return members_.size(); }
  /// Sorted by node id.
  const std::vector<std::string>& members() const { return members_; }

 private:
  /// Recomputes ring_ from members_ (member indices shift on every change).
  void Rebuild();

  int virtual_nodes_;
  /// (point, index into members_), sorted by point.
  std::vector<std::pair<uint64_t, uint32_t>> ring_;
  std::vector<std::string> members_;
};

}  // namespace ips

#endif  // IPS_CLUSTER_CONSISTENT_HASH_H_
