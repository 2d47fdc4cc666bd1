#include "codec/compress.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "codec/coding.h"
#include "common/hash.h"

namespace ips {

namespace {

std::atomic<uint64_t> g_zero_copy_decodes{0};

}  // namespace

uint64_t ZeroCopyDecodeCount() {
  return g_zero_copy_decodes.load(std::memory_order_relaxed);
}

namespace {

// Greedy LZ with a 14-bit hash table over 4-byte sequences. Ops:
//   literal: varint(len << 1 | 0) + raw bytes
//   copy:    varint(len << 1 | 1) + varint(offset)
constexpr size_t kMinMatch = 4;
constexpr size_t kMaxOffset = 1 << 16;
constexpr int kHashBits = 14;
constexpr size_t kHashSize = 1 << kHashBits;

inline uint32_t HashQuad(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 0x9E3779B1u) >> (32 - kHashBits);
}

inline void EmitLiteral(std::string* out, const char* data, size_t len) {
  if (len == 0) return;
  PutVarint64(out, (static_cast<uint64_t>(len) << 1) | 0);
  out->append(data, len);
}

inline void EmitCopy(std::string* out, size_t len, size_t offset) {
  PutVarint64(out, (static_cast<uint64_t>(len) << 1) | 1);
  PutVarint64(out, offset);
}

}  // namespace

void BlockCompress(std::string_view input, std::string* output) {
  output->clear();
  PutVarint64(output, input.size());
  PutFixed32(output, Checksum32(input.data(), input.size()));
  if (input.empty()) return;

  const char* const base = input.data();
  const size_t n = input.size();
  size_t table[kHashSize];
  // Positions are stored +1 so zero means "empty".
  std::memset(table, 0, sizeof(table));

  const size_t header_len = output->size();
  size_t pos = 0;
  size_t literal_start = 0;
  while (pos + kMinMatch <= n) {
    const uint32_t h = HashQuad(base + pos);
    const size_t candidate = table[h];
    table[h] = pos + 1;
    bool matched = false;
    if (candidate != 0) {
      const size_t cand_pos = candidate - 1;
      const size_t offset = pos - cand_pos;
      if (offset > 0 && offset <= kMaxOffset &&
          std::memcmp(base + cand_pos, base + pos, kMinMatch) == 0) {
        // Extend the match.
        size_t len = kMinMatch;
        while (pos + len < n && base[cand_pos + len] == base[pos + len]) {
          ++len;
        }
        EmitLiteral(output, base + literal_start, pos - literal_start);
        EmitCopy(output, len, offset);
        // Seed hash entries inside the match sparsely to keep speed.
        const size_t end = pos + len;
        for (size_t i = pos + 1; i + kMinMatch <= end && i + kMinMatch <= n;
             i += 3) {
          table[HashQuad(base + i)] = i + 1;
        }
        pos = end;
        literal_start = pos;
        matched = true;
      }
    }
    if (!matched) ++pos;
  }
  EmitLiteral(output, base + literal_start, n - literal_start);

  // Raw-store fallback: when matching saved less than 1/8th of the input,
  // re-emit the payload as ONE literal. The frame format is unchanged (a
  // single-literal op sequence was always legal); what it buys is the
  // decode side — BlockUncompressView can alias a single-literal payload
  // straight out of the stored value instead of copying it.
  if (output->size() - header_len + n / 8 >= n) {
    output->resize(header_len);
    EmitLiteral(output, base, n);
  }
}

Status BlockUncompressView(std::string_view compressed, std::string* scratch,
                           std::string_view* out, bool* out_aliased) {
  Decoder dec(compressed);
  uint64_t expected_len;
  uint32_t checksum;
  if (!dec.GetVarint64(&expected_len) || !dec.GetFixed32(&checksum)) {
    return Status::Corruption("compressed frame header truncated");
  }
  if (expected_len == 0 && dec.Empty()) {
    if (checksum != Checksum32(nullptr, 0)) {
      return Status::Corruption("payload checksum mismatch");
    }
    *out = std::string_view();
    if (out_aliased != nullptr) *out_aliased = true;
    g_zero_copy_decodes.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }
  uint64_t tag;
  if (dec.GetVarint64(&tag) && (tag & 1) == 0 && (tag >> 1) == expected_len &&
      dec.Remaining() == expected_len) {
    // Whole payload is one literal: alias it, no copy.
    std::string_view literal;
    dec.GetBytes(expected_len, &literal);
    if (Checksum32(literal.data(), literal.size()) != checksum) {
      return Status::Corruption("payload checksum mismatch");
    }
    *out = literal;
    if (out_aliased != nullptr) *out_aliased = true;
    g_zero_copy_decodes.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }
  IPS_RETURN_IF_ERROR(BlockUncompress(compressed, scratch));
  *out = *scratch;
  if (out_aliased != nullptr) *out_aliased = false;
  return Status::OK();
}

Status BlockUncompress(std::string_view compressed, std::string* output) {
  Decoder dec(compressed);
  uint64_t expected_len;
  uint32_t checksum;
  if (!dec.GetVarint64(&expected_len) || !dec.GetFixed32(&checksum)) {
    return Status::Corruption("compressed frame header truncated");
  }
  // The header is outside the checksum: size the output once, to no more
  // than the ops in this frame could plausibly produce, and refuse any op
  // that would write past the declared length before it writes. Only a
  // frame expanding more than 8x (long runs) grows the output again. The
  // kSlack spare bytes let a short op move a fixed 16 bytes, which compiles
  // to two loads and two stores instead of a memcpy call.
  constexpr size_t kSlack = 16;
  uint64_t capacity = std::min<uint64_t>(expected_len, 8 * compressed.size());
  output->resize(capacity + kSlack);
  char* out = output->data();
  size_t pos = 0;
  while (!dec.Empty()) {
    uint64_t tag;
    if (!dec.GetVarint64(&tag)) {
      return Status::Corruption("truncated op tag");
    }
    const uint64_t len = tag >> 1;
    const bool literal = (tag & 1) == 0;
    if (len == 0) return Status::Corruption("zero-length op");
    if (len > expected_len - pos) {
      return Status::Corruption("decompressed past declared length");
    }
    // A literal carries its bytes: check they are there before growing the
    // output for them.
    if (literal && len > dec.Remaining()) {
      return Status::Corruption("truncated literal");
    }
    if (len > capacity - pos) {
      capacity = std::min<uint64_t>(expected_len,
                                    std::max<uint64_t>(pos + len, 2 * capacity));
      output->resize(capacity + kSlack);
      out = output->data();
    }
    char* dst = out + pos;
    if (literal) {
      // Bytes past the literal are read only when the frame has them.
      const bool short_op = len <= kSlack && dec.Remaining() >= kSlack;
      std::string_view bytes;
      dec.GetBytes(len, &bytes);
      if (short_op) {
        std::memcpy(dst, bytes.data(), kSlack);
      } else {
        std::memcpy(dst, bytes.data(), len);
      }
    } else {
      uint64_t offset;
      if (!dec.GetVarint64(&offset)) {
        return Status::Corruption("truncated copy offset");
      }
      if (offset == 0 || offset > pos) {
        return Status::Corruption("copy offset out of range");
      }
      const char* src = dst - offset;
      if (len <= kSlack && offset >= kSlack) {
        std::memcpy(dst, src, kSlack);
      } else {
        // Overlapping copies are legal (RLE-style): the output repeats with
        // period `offset`, so a chunk may copy as many bytes as are already
        // written from `src` on. Chunks double, and every source byte was
        // written before its chunk starts.
        for (uint64_t done = 0; done < len;) {
          const uint64_t n = std::min(len - done, done + offset);
          std::memcpy(dst + done, src, n);
          done += n;
        }
      }
    }
    pos += len;
  }
  output->resize(pos);
  if (pos != expected_len) {
    return Status::Corruption("decompressed length mismatch");
  }
  if (Checksum32(output->data(), pos) != checksum) {
    return Status::Corruption("payload checksum mismatch");
  }
  return Status::OK();
}

Result<size_t> GetUncompressedLength(std::string_view compressed) {
  Decoder dec(compressed);
  uint64_t len;
  if (!dec.GetVarint64(&len)) {
    return Status::Corruption("compressed frame header truncated");
  }
  return static_cast<size_t>(len);
}

}  // namespace ips
