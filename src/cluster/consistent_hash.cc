#include "cluster/consistent_hash.h"

#include <algorithm>

#include "common/hash.h"

namespace ips {

namespace {

const std::string& EmptyString() {
  static const std::string* const kEmpty = new std::string();
  return *kEmpty;
}

}  // namespace

void ConsistentHashRing::Rebuild() {
  ring_.clear();
  ring_.reserve(members_.size() * static_cast<size_t>(virtual_nodes_));
  for (size_t m = 0; m < members_.size(); ++m) {
    const uint64_t node_hash = Fnv1a(members_[m]);
    for (int v = 0; v < virtual_nodes_; ++v) {
      ring_.emplace_back(HashCombine(node_hash, Mix64(static_cast<uint64_t>(v))),
                         static_cast<uint32_t>(m));
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

void ConsistentHashRing::AddNode(const std::string& node_id) {
  if (HasNode(node_id)) return;
  members_.push_back(node_id);
  std::sort(members_.begin(), members_.end());
  Rebuild();
}

void ConsistentHashRing::RemoveNode(const std::string& node_id) {
  auto it = std::find(members_.begin(), members_.end(), node_id);
  if (it == members_.end()) return;
  members_.erase(it);
  Rebuild();
}

bool ConsistentHashRing::HasNode(const std::string& node_id) const {
  return std::binary_search(members_.begin(), members_.end(), node_id);
}

void ConsistentHashRing::SetMembers(const std::vector<std::string>& node_ids) {
  members_ = node_ids;
  std::sort(members_.begin(), members_.end());
  members_.erase(std::unique(members_.begin(), members_.end()),
                 members_.end());
  Rebuild();
}

const std::string& ConsistentHashRing::Lookup(ProfileId pid) const {
  uint32_t owner;
  if (LookupNIndices(pid, 1, &owner) == 0) return EmptyString();
  return members_[owner];
}

std::vector<std::string> ConsistentHashRing::LookupN(ProfileId pid,
                                                     size_t count) const {
  std::vector<uint32_t> indices(std::min(count, members_.size()));
  indices.resize(LookupNIndices(pid, count, indices.data()));
  std::vector<std::string> out;
  out.reserve(indices.size());
  for (uint32_t m : indices) out.push_back(members_[m]);
  return out;
}

size_t ConsistentHashRing::LookupNIndices(ProfileId pid, size_t count,
                                          uint32_t* out) const {
  if (ring_.empty() || count == 0) return 0;
  const uint64_t point = Mix64(pid);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), point,
      [](const std::pair<uint64_t, uint32_t>& p, uint64_t v) {
        return p.first < v;
      });
  const size_t distinct = std::min(count, members_.size());
  size_t n = 0;
  while (n < distinct) {
    if (it == ring_.end()) it = ring_.begin();  // wrap around
    if (std::find(out, out + n, it->second) == out + n) out[n++] = it->second;
    ++it;
  }
  return n;
}

}  // namespace ips
