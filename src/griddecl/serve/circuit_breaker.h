#ifndef GRIDDECL_SERVE_CIRCUIT_BREAKER_H_
#define GRIDDECL_SERVE_CIRCUIT_BREAKER_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "griddecl/common/status.h"

/// \file
/// Circuit breakers for the serving layer's disks and the cluster's nodes.
///
/// The classic three-state machine (closed -> open -> half-open), with two
/// choices that keep it deterministic and testable:
///
///  * **Explicit time.** Every method takes `now_ms`; the breaker never
///    reads a clock. Tests drive arbitrary schedules; `BreakerSet` passes
///    the process's monotonic clock (`MonotonicNowMs`).
///  * **No internal locking.** A `BreakerSet` guards its breakers with one
///    mutex; the property test exercises the state machine single-threaded
///    with randomized event sequences.
///
/// Transition rules:
///
///  * closed -> open: once at least `min_events` outcomes are in the rolling
///    window and the failure ratio reaches `failure_ratio`.
///  * open -> half-open: the first `AllowRequest` at or after
///    `opened_at + open_ms`. Exactly ONE probe is admitted; further
///    `AllowRequest` calls are refused until the probe reports.
///  * half-open -> closed: the probe succeeds (window resets).
///  * half-open -> open: the probe fails (the open timer restarts).
///
/// The window is a simple event-count window (last `window` outcomes
/// approximated by decaying counts), not a time window: determinism matters
/// more here than exact rate estimation.

namespace griddecl {

struct BreakerOptions {
  /// Outcomes required in the window before the ratio is consulted; avoids
  /// tripping on the first failure of a cold disk.
  uint32_t min_events = 8;
  /// Approximate number of most-recent outcomes considered.
  uint32_t window = 32;
  /// Trip threshold: failures / total >= failure_ratio opens the breaker.
  double failure_ratio = 0.5;
  /// Milliseconds an open breaker waits before admitting the
  /// half-open probe. Use a huge value (e.g. 1e18) to pin a tripped breaker
  /// open for a whole test.
  double open_ms = 100.0;
};

Status ValidateBreakerOptions(const BreakerOptions& opts);

enum class BreakerState { kClosed, kOpen, kHalfOpen };

/// Stable lowercase name ("closed", "open", "half_open").
const char* BreakerStateName(BreakerState state);

/// Cumulative transition counts, for metrics and schedule assertions.
struct BreakerCounters {
  uint64_t opened = 0;       ///< closed -> open trips.
  uint64_t half_opened = 0;  ///< open -> half-open probe admissions.
  uint64_t closed = 0;       ///< half-open -> closed recoveries.
  uint64_t reopened = 0;     ///< half-open -> open probe failures.

  BreakerCounters& operator+=(const BreakerCounters& other) {
    opened += other.opened;
    half_opened += other.half_opened;
    closed += other.closed;
    reopened += other.reopened;
    return *this;
  }
};

class CircuitBreaker {
 public:
  /// `opts` must satisfy ValidateBreakerOptions (checked).
  explicit CircuitBreaker(const BreakerOptions& opts);

  /// True iff a request may proceed at time `now_ms`. In the open
  /// state this transitions to half-open (admitting exactly one probe) once
  /// `open_ms` has elapsed; while a probe is outstanding every other caller
  /// is refused.
  bool AllowRequest(double now_ms);

  /// Pure lookahead: true iff `AllowRequest(now_ms)` would return false.
  /// Never transitions state — planners use it to route around a tripped
  /// disk without consuming the half-open probe slot.
  bool WouldRefuse(double now_ms) const;

  /// Reports the outcome of an admitted request. In half-open state the
  /// first report is the probe's verdict; success closes, failure reopens.
  void RecordSuccess(double now_ms);
  void RecordFailure(double now_ms);

  BreakerState state() const { return state_; }
  const BreakerCounters& counters() const { return counters_; }
  /// Failure ratio over the current window (0 when no events).
  double FailureRatio() const;

 private:
  void Trip(double now_ms);
  /// Halves the window counts once they exceed `window`, so recent outcomes
  /// dominate while the arithmetic stays exact and order-deterministic.
  void Decay();

  BreakerOptions opts_;
  BreakerState state_ = BreakerState::kClosed;
  double opened_at_ms_ = 0.0;
  bool probe_outstanding_ = false;
  uint64_t window_total_ = 0;
  uint64_t window_failures_ = 0;
  BreakerCounters counters_;
};

/// One breaker per member (a serving disk, a cluster node) under one mutex,
/// read at `MonotonicNowMs`. The serving layer's per-disk breakers and the
/// cluster's per-node breakers are each one set. Thread-safe.
class BreakerSet {
 public:
  /// `opts` must satisfy ValidateBreakerOptions (checked).
  BreakerSet(size_t size, const BreakerOptions& opts);

  /// `AllowRequest` of member `i`, now: may consume the half-open probe.
  bool Admit(size_t i);
  /// `WouldRefuse` of member `i`, now.
  bool WouldRefuse(size_t i) const;
  /// Sets `refused[i]` for every member with `probe[i]` whose breaker would
  /// refuse now, under one lock hold and one clock read. Both vectors hold
  /// one entry per member. Returns whether any member was refused.
  bool WouldRefuse(const std::vector<bool>& probe,
                   std::vector<bool>* refused) const;
  /// Reports the outcome of a request member `i` admitted.
  void Record(size_t i, bool success);

  BreakerState StateOf(size_t i) const;
  /// Transition counters summed over every member.
  BreakerCounters Totals() const;

 private:
  mutable std::mutex mu_;
  std::vector<CircuitBreaker> breakers_;
};

}  // namespace griddecl

#endif  // GRIDDECL_SERVE_CIRCUIT_BREAKER_H_
