#ifndef GRIDDECL_COMMON_HASH_H_
#define GRIDDECL_COMMON_HASH_H_

#include <cstdint>
#include <string>

/// \file
/// The repo's one deterministic hash: the SplitMix64 finalizer.
///
/// Fault schedules, backoff jitter, crash-env tears, zone-aware placement
/// and repair tie-breaks, and hedge jitter all draw from it, so each is a
/// pure function of its seed and inputs and replays bit-for-bit on every
/// platform.

namespace griddecl {

/// SplitMix64 finalizer of `x`.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Folds the bytes of `s` into `h`, one `Mix64` per byte.
inline uint64_t HashString(uint64_t h, const std::string& s) {
  for (char c : s) h = Mix64(h ^ static_cast<uint8_t>(c));
  return h;
}

}  // namespace griddecl

#endif  // GRIDDECL_COMMON_HASH_H_
