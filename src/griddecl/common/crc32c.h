#ifndef GRIDDECL_COMMON_CRC32C_H_
#define GRIDDECL_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

/// \file
/// CRC32C (Castagnoli, polynomial 0x1EDC6F41, reflected form 0x82F63B78) —
/// the checksum guarding the grid-file storage format, the catalog manifest, and
/// the scrub subsystem. Chosen over CRC32 (IEEE) for its better error
/// detection on short bursts and because it is what modern storage engines
/// standardize on.
///
/// `Crc32c` runs on the CPU's own CRC32C instruction (SSE4.2 `crc32q`, 8
/// bytes per step) when the CPU has it, chosen once per process at run
/// time, and otherwise on portable slice-by-8 tables. Both return the same
/// value for every input, so the on-disk format does not depend on the CPU
/// that wrote or reads it.

namespace griddecl {

/// CRC32C of `data[0, size)`. `seed` chains calls: passing the CRC of a
/// previous chunk continues the computation as if the chunks were one
/// buffer (`Crc32c(ab) == Crc32c(b, Crc32c(a))`).
uint32_t Crc32c(const void* data, size_t size, uint32_t seed = 0);

inline uint32_t Crc32c(std::string_view data, uint32_t seed = 0) {
  return Crc32c(data.data(), data.size(), seed);
}

/// The portable slice-by-8 kernel `Crc32c` falls back to, callable on any
/// CPU so tests can hold the hardware kernel to it.
uint32_t Crc32cPortable(const void* data, size_t size, uint32_t seed = 0);

}  // namespace griddecl

#endif  // GRIDDECL_COMMON_CRC32C_H_
