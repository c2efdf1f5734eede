#ifndef GRIDDECL_COMMON_BYTES_H_
#define GRIDDECL_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "griddecl/common/check.h"

/// \file
/// Little-endian byte serialization helpers shared by the binary formats
/// (grid-file storage, catalog manifest). Writers append to a std::string;
/// the reader is a bounds-checked cursor so adversarial length fields can
/// never walk off the buffer — every parser in the repo is expected to be
/// safe on arbitrary bytes.

namespace griddecl {

/// dst[i] ^= src[i] for i < n: the parity XOR of stripe building and page
/// reconstruction. Eight bytes at a time through memcpy loads (any
/// alignment, and no aliasing question for the compiler), then a byte tail.
inline void XorBytes(char* dst, const char* src, size_t n) {
  size_t i = 0;
  for (; i + sizeof(uint64_t) <= n; i += sizeof(uint64_t)) {
    uint64_t a = 0;
    uint64_t b = 0;
    std::memcpy(&a, dst + i, sizeof a);
    std::memcpy(&b, src + i, sizeof b);
    a ^= b;
    std::memcpy(dst + i, &a, sizeof a);
  }
  for (; i < n; ++i) dst[i] = static_cast<char>(dst[i] ^ src[i]);
}

inline void AppendU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

inline void AppendU64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

inline void AppendF64(std::string* out, double v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

/// Overwrites 4 bytes at `offset` (e.g. patching a CRC computed after the
/// region it guards was written).
inline void PatchU32(std::string* out, size_t offset, uint32_t v) {
  GRIDDECL_CHECK(offset + 4 <= out->size());
  std::memcpy(out->data() + offset, &v, 4);
}

/// Bounds-checked little-endian cursor over an in-memory byte range.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  size_t pos() const { return pos_; }
  size_t remaining() const { return bytes_.size() - pos_; }

  bool ReadU32(uint32_t* v) { return ReadRaw(v, 4); }
  bool ReadU64(uint64_t* v) { return ReadRaw(v, 8); }
  bool ReadF64(double* v) { return ReadRaw(v, 8); }

  bool ReadBytes(char* out, size_t n) {
    if (remaining() < n) return false;
    std::memcpy(out, bytes_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  bool ReadString(std::string* out, size_t n) {
    if (remaining() < n) return false;
    out->assign(bytes_.data() + pos_, n);
    pos_ += n;
    return true;
  }

 private:
  bool ReadRaw(void* out, size_t n) {
    if (remaining() < n) return false;
    std::memcpy(out, bytes_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  std::string_view bytes_;
  size_t pos_ = 0;
};

}  // namespace griddecl

#endif  // GRIDDECL_COMMON_BYTES_H_
