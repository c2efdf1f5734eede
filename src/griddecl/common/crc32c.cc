#include "griddecl/common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define GRIDDECL_CRC32C_SSE42 1
#include <nmmintrin.h>
#endif

namespace griddecl {

namespace {

constexpr uint32_t kPoly = 0x82F63B78u;  // 0x1EDC6F41 bit-reflected.

/// 8 slice tables: table[0] is the classic byte-at-a-time table; table[t]
/// advances a byte that sits t positions deeper in the message.
struct Tables {
  std::array<std::array<uint32_t, 256>, 8> t;
};

Tables BuildTables() {
  Tables tables;
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    tables.t[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = tables.t[0][i];
    for (size_t slice = 1; slice < 8; ++slice) {
      crc = tables.t[0][crc & 0xFF] ^ (crc >> 8);
      tables.t[slice][i] = crc;
    }
  }
  return tables;
}

const Tables& GetTables() {
  static const Tables tables = BuildTables();
  return tables;
}

#ifdef GRIDDECL_CRC32C_SSE42
/// The SSE4.2 `crc32` instruction computes exactly this reflected CRC32C;
/// compiled for SSE4.2 here alone and run only where the CPU reports it.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const void* data,
                                                       size_t size,
                                                       uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t crc = ~seed;
  while (size >= 8) {
    uint64_t word = 0;
    std::memcpy(&word, p, 8);
    crc = _mm_crc32_u64(crc, word);
    p += 8;
    size -= 8;
  }
  auto crc32 = static_cast<uint32_t>(crc);
  while (size-- > 0) crc32 = _mm_crc32_u8(crc32, *p++);
  return ~crc32;
}
#endif

using Kernel = uint32_t (*)(const void*, size_t, uint32_t);

Kernel SelectKernel() {
#ifdef GRIDDECL_CRC32C_SSE42
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return Crc32cSse42;
#endif
  return Crc32cPortable;
}

}  // namespace

uint32_t Crc32c(const void* data, size_t size, uint32_t seed) {
  static const Kernel kernel = SelectKernel();
  return kernel(data, size, seed);
}

uint32_t Crc32cPortable(const void* data, size_t size, uint32_t seed) {
  const Tables& tb = GetTables();
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t crc = ~seed;
  // Slice-by-8 main loop.
  while (size >= 8) {
    const uint32_t lo = crc ^ (static_cast<uint32_t>(p[0]) |
                               static_cast<uint32_t>(p[1]) << 8 |
                               static_cast<uint32_t>(p[2]) << 16 |
                               static_cast<uint32_t>(p[3]) << 24);
    crc = tb.t[7][lo & 0xFF] ^ tb.t[6][(lo >> 8) & 0xFF] ^
          tb.t[5][(lo >> 16) & 0xFF] ^ tb.t[4][lo >> 24] ^
          tb.t[3][p[4]] ^ tb.t[2][p[5]] ^ tb.t[1][p[6]] ^ tb.t[0][p[7]];
    p += 8;
    size -= 8;
  }
  while (size-- > 0) {
    crc = tb.t[0][(crc ^ *p++) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace griddecl
