#ifndef GRIDDECL_COMMON_BACKOFF_H_
#define GRIDDECL_COMMON_BACKOFF_H_

#include <cstdint>
#include <functional>

#include "griddecl/common/status.h"

/// \file
/// Seeded exponential backoff with full jitter, and the wall-clock time
/// the waits run on: the process's monotonic clock and its one abortable
/// sleep.
///
/// Two subsystems retry transient read errors: the I/O simulators (the
/// fault model charges a firmware-style wait per failed attempt) and the
/// serving layer (real sleeps between page-read attempts). Both draw their
/// delays from this one audited implementation so the retry semantics —
/// exponential growth, cap, bounded attempts, and the jitter distribution —
/// cannot drift apart.
///
/// Delays are a pure function of (policy, seed, token, retry): the jitter
/// hash is the repo's standard SplitMix64 finalizer over those inputs, so a
/// retry schedule is reproducible bit-for-bit regardless of thread
/// interleaving or call order. The simulators use a degenerate policy
/// (multiplier 1, no jitter), which makes `DelayMs` return `base_ms`
/// exactly and keeps their pre-extraction results bit-identical.

namespace griddecl {

/// Retry/backoff policy. `max_attempts` counts every attempt including the
/// first; a policy with `max_attempts = 1` never retries.
struct BackoffPolicy {
  /// Raw delay before the first retry.
  double base_ms = 1.0;
  /// Raw delay grows by this factor per retry (1.0 = constant backoff).
  double multiplier = 2.0;
  /// Upper bound on the raw (pre-jitter) delay.
  double cap_ms = 1000.0;
  /// Fraction of the raw delay that is jittered, in [0, 1]: the delay is
  /// `raw * (1 - jitter) + U * raw * jitter` with U uniform in [0, 1).
  /// 0 is deterministic backoff, 1 is AWS-style full jitter.
  double jitter = 1.0;
  /// Total attempts allowed, including the first; must be >= 1.
  uint32_t max_attempts = 4;
};

/// Validates a policy: base_ms >= 0, multiplier >= 1, cap_ms >= 0, jitter
/// in [0, 1], max_attempts >= 1.
Status ValidateBackoffPolicy(const BackoffPolicy& policy);

/// Raw (un-jittered) delay before retry `retry` (0-based: the delay between
/// attempt `retry` and attempt `retry + 1`):
/// `min(cap_ms, base_ms * multiplier^retry)`, computed by iterative
/// multiplication with early capping so it never overflows.
double BackoffRawDelayMs(const BackoffPolicy& policy, uint32_t retry);

/// Jittered delay before retry `retry`: a pure function of
/// (policy, seed, token, retry). `token` distinguishes concurrent retry
/// schedules (e.g. a request id); same inputs give the same delay on every
/// platform. With `policy.jitter == 0` this equals `BackoffRawDelayMs`.
double BackoffDelayMs(const BackoffPolicy& policy, uint64_t seed,
                      uint64_t token, uint32_t retry);

/// Sum of `BackoffDelayMs` over retries 0..failed_attempts-1: the total
/// wait a request pays for `failed_attempts` consecutive failures.
double BackoffTotalDelayMs(const BackoffPolicy& policy, uint64_t seed,
                           uint64_t token, uint32_t failed_attempts);

/// Milliseconds on the process's one monotonic wall clock, counted from its
/// first reading. Serve and cluster read it for deadlines, breakers,
/// pacing and `total_ms`; the cluster's heartbeat detector and MTTR run on
/// the cluster's virtual clock instead (`Cluster::AdvanceTimeMs`).
double MonotonicNowMs();

/// Sleeps `ms` of wall time in 5 ms slices, checking `stop` before each
/// slice and returning early once it reports true, so a stop is noticed
/// within 5 ms. Callers re-check their own condition afterwards. Retry
/// backoff and staged-copy pacing both wait through this one helper.
void SleepInterruptible(double ms, const std::function<bool()>& stop);

}  // namespace griddecl

#endif  // GRIDDECL_COMMON_BACKOFF_H_
