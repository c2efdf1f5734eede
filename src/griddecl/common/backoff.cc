#include "griddecl/common/backoff.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "griddecl/common/hash.h"

namespace griddecl {

namespace {

/// SleepInterruptible's slice: how late a stop is noticed.
constexpr double kSleepSliceMs = 5.0;

}  // namespace

Status ValidateBackoffPolicy(const BackoffPolicy& policy) {
  if (!(policy.base_ms >= 0.0)) {
    return Status::InvalidArgument("backoff base_ms must be >= 0");
  }
  if (!(policy.multiplier >= 1.0)) {
    return Status::InvalidArgument("backoff multiplier must be >= 1");
  }
  if (!(policy.cap_ms >= 0.0)) {
    return Status::InvalidArgument("backoff cap_ms must be >= 0");
  }
  if (!(policy.jitter >= 0.0) || policy.jitter > 1.0) {
    return Status::InvalidArgument("backoff jitter must be in [0, 1]");
  }
  if (policy.max_attempts < 1) {
    return Status::InvalidArgument("backoff max_attempts must be >= 1");
  }
  return Status::Ok();
}

double BackoffRawDelayMs(const BackoffPolicy& policy, uint32_t retry) {
  double raw = policy.base_ms;
  // Iterative growth with early capping: `multiplier^retry` as a pow()
  // call could differ in the last ulp across libm implementations, and a
  // large retry index would overflow. Capping inside the loop bounds the
  // value and makes the result exact for multiplier == 1.
  for (uint32_t i = 0; i < retry && raw < policy.cap_ms; ++i) {
    raw *= policy.multiplier;
  }
  return std::min(raw, policy.cap_ms);
}

double BackoffDelayMs(const BackoffPolicy& policy, uint64_t seed,
                      uint64_t token, uint32_t retry) {
  const double raw = BackoffRawDelayMs(policy, retry);
  if (policy.jitter <= 0.0 || raw <= 0.0) return raw;
  uint64_t h = Mix64(seed ^ 0x243f6a8885a308d3ull);
  h = Mix64(h ^ token);
  h = Mix64(h ^ retry);
  // Top 53 bits as a uniform double in [0, 1) — the fault model's idiom.
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return raw * (1.0 - policy.jitter) + u * raw * policy.jitter;
}

double BackoffTotalDelayMs(const BackoffPolicy& policy, uint64_t seed,
                           uint64_t token, uint32_t failed_attempts) {
  double total = 0.0;
  for (uint32_t r = 0; r < failed_attempts; ++r) {
    total += BackoffDelayMs(policy, seed, token, r);
  }
  return total;
}

double MonotonicNowMs() {
  static const std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

void SleepInterruptible(double ms, const std::function<bool()>& stop) {
  while (ms > 0.0 && !stop()) {
    const double slice = std::min(ms, kSleepSliceMs);
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(slice));
    ms -= slice;
  }
}

}  // namespace griddecl
