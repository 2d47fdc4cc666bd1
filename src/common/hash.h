// Hashing utilities shared by the shard routers, the consistent-hash ring
// and the cache partitioning.
#ifndef IPS_COMMON_HASH_H_
#define IPS_COMMON_HASH_H_

#include <cstdint>
#include <cstring>
#include <string_view>

namespace ips {

/// 64-bit finalizer-style mixer (murmur3 fmix64). Bijective; used to spread
/// sequential profile IDs across shards.
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

/// FNV-1a over arbitrary bytes; used for string keys (table names, node ids).
inline uint64_t Fnv1a(std::string_view data) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (unsigned char c : data) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// Combines two hashes (boost-style with 64-bit constant).
inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return a ^ (b + 0x9E3779B97F4A7C15ULL + (a << 12) + (a >> 4));
}

/// Checksum for codec framing, eight bytes per step. Not a real CRC32C (no
/// hardware dependency). Each step xors in a native-order word and applies
/// a bijection (odd multiply, xor-shift), so two inputs of one length that
/// differ in any bits leave different 64-bit states; only the final fold to
/// 32 bits can collide. The length seeds the state and the tail word is
/// zero-padded, so truncation changes the sum too.
inline uint32_t Checksum32(const void* data, size_t len) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  constexpr uint64_t kMul = 0x9E3779B97F4A7C15ULL;
  uint64_t h = 0x811C9DC5ULL ^ (len * kMul);
  const auto step = [&h](uint64_t word) {
    h ^= word;
    h *= kMul;
    h ^= h >> 29;
  };
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    uint64_t word;
    std::memcpy(&word, p + i, 8);
    step(word);
  }
  if (i < len) {
    uint64_t word = 0;
    std::memcpy(&word, p + i, len - i);
    step(word);
  }
  h = Mix64(h);
  return static_cast<uint32_t>(h ^ (h >> 32));
}

}  // namespace ips

#endif  // IPS_COMMON_HASH_H_
