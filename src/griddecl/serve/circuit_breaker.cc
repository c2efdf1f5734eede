#include "griddecl/serve/circuit_breaker.h"

#include "griddecl/common/backoff.h"
#include "griddecl/common/check.h"

namespace griddecl {

Status ValidateBreakerOptions(const BreakerOptions& opts) {
  if (opts.min_events < 1) {
    return Status::InvalidArgument("breaker min_events must be >= 1");
  }
  if (opts.window < opts.min_events) {
    return Status::InvalidArgument("breaker window must be >= min_events");
  }
  if (!(opts.failure_ratio > 0.0) || !(opts.failure_ratio <= 1.0)) {
    return Status::InvalidArgument("breaker failure_ratio must be in (0, 1]");
  }
  if (!(opts.open_ms >= 0.0)) {
    return Status::InvalidArgument("breaker open_ms must be >= 0");
  }
  return Status::Ok();
}

const char* BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half_open";
  }
  return "unknown";
}

CircuitBreaker::CircuitBreaker(const BreakerOptions& opts) : opts_(opts) {
  GRIDDECL_CHECK(ValidateBreakerOptions(opts).ok());
}

double CircuitBreaker::FailureRatio() const {
  if (window_total_ == 0) return 0.0;
  return static_cast<double>(window_failures_) /
         static_cast<double>(window_total_);
}

void CircuitBreaker::Decay() {
  if (window_total_ > opts_.window) {
    window_total_ /= 2;
    window_failures_ /= 2;
  }
}

void CircuitBreaker::Trip(double now_ms) {
  state_ = BreakerState::kOpen;
  opened_at_ms_ = now_ms;
  probe_outstanding_ = false;
}

bool CircuitBreaker::WouldRefuse(double now_ms) const {
  switch (state_) {
    case BreakerState::kClosed:
      return false;
    case BreakerState::kOpen:
      return now_ms - opened_at_ms_ < opts_.open_ms;
    case BreakerState::kHalfOpen:
      return true;  // The probe slot is taken.
  }
  return false;
}

bool CircuitBreaker::AllowRequest(double now_ms) {
  switch (state_) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen:
      if (now_ms - opened_at_ms_ >= opts_.open_ms) {
        state_ = BreakerState::kHalfOpen;
        probe_outstanding_ = true;
        counters_.half_opened++;
        return true;
      }
      return false;
    case BreakerState::kHalfOpen:
      // One probe at a time: nobody else gets in until it reports.
      return false;
  }
  return false;
}

void CircuitBreaker::RecordSuccess(double now_ms) {
  (void)now_ms;
  if (state_ == BreakerState::kHalfOpen) {
    state_ = BreakerState::kClosed;
    probe_outstanding_ = false;
    window_total_ = 0;
    window_failures_ = 0;
    counters_.closed++;
    return;
  }
  if (state_ == BreakerState::kOpen) return;  // Stale report; ignore.
  window_total_++;
  Decay();
}

void CircuitBreaker::RecordFailure(double now_ms) {
  if (state_ == BreakerState::kHalfOpen) {
    counters_.reopened++;
    Trip(now_ms);
    return;
  }
  if (state_ == BreakerState::kOpen) return;  // Stale report; ignore.
  window_total_++;
  window_failures_++;
  Decay();
  if (window_total_ >= opts_.min_events &&
      FailureRatio() >= opts_.failure_ratio) {
    counters_.opened++;
    Trip(now_ms);
  }
}

BreakerSet::BreakerSet(size_t size, const BreakerOptions& opts)
    : breakers_(size, CircuitBreaker(opts)) {}

bool BreakerSet::Admit(size_t i) {
  std::lock_guard<std::mutex> lock(mu_);
  return breakers_[i].AllowRequest(MonotonicNowMs());
}

bool BreakerSet::WouldRefuse(size_t i) const {
  std::lock_guard<std::mutex> lock(mu_);
  return breakers_[i].WouldRefuse(MonotonicNowMs());
}

bool BreakerSet::WouldRefuse(const std::vector<bool>& probe,
                             std::vector<bool>* refused) const {
  std::lock_guard<std::mutex> lock(mu_);
  const double now = MonotonicNowMs();
  bool any = false;
  for (size_t i = 0; i < breakers_.size(); ++i) {
    if (probe[i] && breakers_[i].WouldRefuse(now)) {
      (*refused)[i] = true;
      any = true;
    }
  }
  return any;
}

void BreakerSet::Record(size_t i, bool success) {
  std::lock_guard<std::mutex> lock(mu_);
  if (success) {
    breakers_[i].RecordSuccess(MonotonicNowMs());
  } else {
    breakers_[i].RecordFailure(MonotonicNowMs());
  }
}

BreakerState BreakerSet::StateOf(size_t i) const {
  GRIDDECL_CHECK(i < breakers_.size());
  std::lock_guard<std::mutex> lock(mu_);
  return breakers_[i].state();
}

BreakerCounters BreakerSet::Totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  BreakerCounters totals;
  for (const CircuitBreaker& b : breakers_) totals += b.counters();
  return totals;
}

}  // namespace griddecl
