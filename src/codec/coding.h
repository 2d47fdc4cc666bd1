// Byte-oriented primitives for the profile wire format: little-endian fixed
// integers, LEB128 varints and zigzag signed mapping. This is the substrate
// for the Protocol-Buffers-style hierarchical profile encoding of Fig 12.
#ifndef IPS_CODEC_CODING_H_
#define IPS_CODEC_CODING_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/status.h"

namespace ips {

void PutFixed32(std::string* dst, uint32_t value);
void PutFixed64(std::string* dst, uint64_t value);

/// Appends an unsigned LEB128 varint (1-10 bytes).
void PutVarint64(std::string* dst, uint64_t value);

/// Appends a zigzag-mapped signed varint.
void PutVarintSigned64(std::string* dst, int64_t value);

/// Appends varint length + raw bytes.
void PutLengthPrefixed(std::string* dst, std::string_view value);

inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}

inline int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// Sequential decoder over an input buffer. All getters return false on
/// truncated/malformed input and leave the cursor unspecified; callers wrap
/// failures into Status::Corruption.
class Decoder {
 public:
  explicit Decoder(std::string_view input) : input_(input) {}

  bool GetFixed32(uint32_t* value);
  bool GetFixed64(uint64_t* value);
  /// One- and two-byte values (most tags, offsets, deltas and counts) take
  /// the inlined fast path; longer ones an out-of-line helper that does not
  /// take the decoder's address, so a decoder held in a local stays in
  /// registers.
  bool GetVarint64(uint64_t* value) {
    const auto* p = reinterpret_cast<const unsigned char*>(input_.data());
    if (!input_.empty() && p[0] < 0x80) {
      *value = p[0];
      input_.remove_prefix(1);
      return true;
    }
    if (input_.size() >= 2 && p[1] < 0x80) {
      *value = (p[0] & 0x7Fu) | (static_cast<uint64_t>(p[1]) << 7);
      input_.remove_prefix(2);
      return true;
    }
    const size_t used = DecodeVarint64Slow(input_.data(), input_.size(), value);
    input_.remove_prefix(used);
    return used != 0;
  }
  bool GetVarintSigned64(int64_t* value) {
    uint64_t raw;
    if (!GetVarint64(&raw)) return false;
    *value = ZigZagDecode(raw);
    return true;
  }
  bool GetLengthPrefixed(std::string_view* value);
  /// Reads exactly n raw bytes.
  bool GetBytes(size_t n, std::string_view* value) {
    if (input_.size() < n) return false;
    *value = input_.substr(0, n);
    input_.remove_prefix(n);
    return true;
  }

  bool Empty() const { return input_.empty(); }
  size_t Remaining() const { return input_.size(); }

 private:
  /// Decodes a varint of any length from the `size` bytes at `data`;
  /// returns the bytes it took, 0 when truncated or malformed.
  static size_t DecodeVarint64Slow(const char* data, size_t size,
                                   uint64_t* value);

  std::string_view input_;
};

}  // namespace ips

#endif  // IPS_CODEC_CODING_H_
