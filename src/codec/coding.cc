#include "codec/coding.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace ips {

void PutFixed32(std::string* dst, uint32_t value) {
  char buf[4];
  buf[0] = static_cast<char>(value & 0xFF);
  buf[1] = static_cast<char>((value >> 8) & 0xFF);
  buf[2] = static_cast<char>((value >> 16) & 0xFF);
  buf[3] = static_cast<char>((value >> 24) & 0xFF);
  dst->append(buf, 4);
}

void PutFixed64(std::string* dst, uint64_t value) {
  PutFixed32(dst, static_cast<uint32_t>(value & 0xFFFFFFFFULL));
  PutFixed32(dst, static_cast<uint32_t>(value >> 32));
}

void PutVarint64(std::string* dst, uint64_t value) {
  char buf[10];
  int n = 0;
  while (value >= 0x80) {
    buf[n++] = static_cast<char>((value & 0x7F) | 0x80);
    value >>= 7;
  }
  buf[n++] = static_cast<char>(value);
  dst->append(buf, n);
}

void PutVarintSigned64(std::string* dst, int64_t value) {
  PutVarint64(dst, ZigZagEncode(value));
}

void PutLengthPrefixed(std::string* dst, std::string_view value) {
  PutVarint64(dst, value.size());
  dst->append(value.data(), value.size());
}

bool Decoder::GetFixed32(uint32_t* value) {
  if (input_.size() < 4) return false;
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(input_.data());
  *value = static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
  input_.remove_prefix(4);
  return true;
}

bool Decoder::GetFixed64(uint64_t* value) {
  uint32_t lo, hi;
  if (!GetFixed32(&lo) || !GetFixed32(&hi)) return false;
  *value = static_cast<uint64_t>(lo) | (static_cast<uint64_t>(hi) << 32);
  return true;
}

size_t Decoder::DecodeVarint64Slow(const char* data, size_t size,
                                   uint64_t* value) {
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  if (std::endian::native == std::endian::little && size >= 8) {
    // Up to eight bytes (56 bits: timestamps, hashed ids) without a loop:
    // find the terminating byte in one word, drop what follows it and the
    // continuation bits, then close the 7-bit groups up pairwise.
    uint64_t word;
    std::memcpy(&word, p, 8);
    const uint64_t stops = ~word & 0x8080808080808080ULL;
    if (stops != 0) {
      const size_t len = static_cast<size_t>(__builtin_ctzll(stops) >> 3) + 1;
      if (len < 8) word &= (uint64_t{1} << (8 * len)) - 1;
      word &= 0x7F7F7F7F7F7F7F7FULL;
      word = ((word & 0x7F007F007F007F00ULL) >> 1) |
             (word & 0x007F007F007F007FULL);
      word = ((word & 0x3FFF00003FFF0000ULL) >> 2) |
             (word & 0x00003FFF00003FFFULL);
      word = ((word & 0x0FFFFFFF00000000ULL) >> 4) |
             (word & 0x000000000FFFFFFFULL);
      *value = word;
      return len;
    }
  }
  const size_t limit = std::min<size_t>(size, 10);
  uint64_t result = 0;
  for (size_t i = 0; i < limit; ++i) {
    const uint64_t byte = p[i];
    result |= (byte & 0x7F) << (7 * i);
    if ((byte & 0x80) == 0) {
      *value = result;
      return i + 1;
    }
  }
  return 0;
}

bool Decoder::GetLengthPrefixed(std::string_view* value) {
  uint64_t len;
  if (!GetVarint64(&len)) return false;
  return GetBytes(static_cast<size_t>(len), value);
}

}  // namespace ips
