#include "griddecl/common/backoff.h"

#include <gtest/gtest.h>

namespace griddecl {
namespace {

TEST(BackoffTest, ValidateRejectsOutOfDomainPolicies) {
  EXPECT_TRUE(ValidateBackoffPolicy({}).ok());
  BackoffPolicy p;
  p.base_ms = -1.0;
  EXPECT_FALSE(ValidateBackoffPolicy(p).ok());
  p = {};
  p.multiplier = 0.5;
  EXPECT_FALSE(ValidateBackoffPolicy(p).ok());
  p = {};
  p.cap_ms = -0.1;
  EXPECT_FALSE(ValidateBackoffPolicy(p).ok());
  p = {};
  p.jitter = 1.5;
  EXPECT_FALSE(ValidateBackoffPolicy(p).ok());
  p = {};
  p.max_attempts = 0;
  EXPECT_FALSE(ValidateBackoffPolicy(p).ok());
}

TEST(BackoffTest, RawDelayGrowsExponentiallyAndCaps) {
  BackoffPolicy p;
  p.base_ms = 1.0;
  p.multiplier = 2.0;
  p.cap_ms = 10.0;
  EXPECT_DOUBLE_EQ(BackoffRawDelayMs(p, 0), 1.0);
  EXPECT_DOUBLE_EQ(BackoffRawDelayMs(p, 1), 2.0);
  EXPECT_DOUBLE_EQ(BackoffRawDelayMs(p, 2), 4.0);
  EXPECT_DOUBLE_EQ(BackoffRawDelayMs(p, 3), 8.0);
  EXPECT_DOUBLE_EQ(BackoffRawDelayMs(p, 4), 10.0);
  // A huge retry index must not overflow to inf/nan.
  EXPECT_DOUBLE_EQ(BackoffRawDelayMs(p, 100000), 10.0);
}

TEST(BackoffTest, DegeneratePolicyIsConstantAndJitterFree) {
  // The policy the simulators use: multiplier 1, jitter 0 — the delay is
  // base_ms exactly, bit-for-bit, for every retry and seed.
  BackoffPolicy p;
  p.base_ms = 2.5;
  p.multiplier = 1.0;
  p.cap_ms = 2.5;
  p.jitter = 0.0;
  for (uint32_t retry = 0; retry < 8; ++retry) {
    EXPECT_EQ(BackoffDelayMs(p, 1, 2, retry), 2.5);
    EXPECT_EQ(BackoffDelayMs(p, 99, 7, retry), 2.5);
  }
}

TEST(BackoffTest, JitteredDelayIsDeterministicPerInputs) {
  BackoffPolicy p;
  const double a = BackoffDelayMs(p, 42, 7, 1);
  EXPECT_EQ(a, BackoffDelayMs(p, 42, 7, 1));
  // Any input change moves the draw (with overwhelming probability).
  EXPECT_NE(a, BackoffDelayMs(p, 43, 7, 1));
  EXPECT_NE(a, BackoffDelayMs(p, 42, 8, 1));
  EXPECT_NE(a, BackoffDelayMs(p, 42, 7, 2));
}

TEST(BackoffTest, FullJitterStaysWithinTheRawEnvelope) {
  BackoffPolicy p;
  p.base_ms = 1.0;
  p.multiplier = 2.0;
  p.cap_ms = 64.0;
  p.jitter = 1.0;
  for (uint64_t token = 0; token < 50; ++token) {
    for (uint32_t retry = 0; retry < 8; ++retry) {
      const double raw = BackoffRawDelayMs(p, retry);
      const double d = BackoffDelayMs(p, 11, token, retry);
      EXPECT_GE(d, 0.0);
      EXPECT_LT(d, raw);
    }
  }
}

TEST(BackoffTest, PartialJitterBlendsRawAndUniform) {
  BackoffPolicy p;
  p.base_ms = 10.0;
  p.multiplier = 1.0;
  p.cap_ms = 10.0;
  p.jitter = 0.25;
  for (uint64_t token = 0; token < 50; ++token) {
    const double d = BackoffDelayMs(p, 3, token, 0);
    EXPECT_GE(d, 7.5);   // raw * (1 - jitter)
    EXPECT_LT(d, 10.0);  // + U * raw * jitter, U < 1
  }
}

TEST(BackoffTest, TotalDelaySumsTheSchedule) {
  BackoffPolicy p;
  double sum = 0.0;
  for (uint32_t r = 0; r < 3; ++r) sum += BackoffDelayMs(p, 5, 6, r);
  EXPECT_DOUBLE_EQ(BackoffTotalDelayMs(p, 5, 6, 3), sum);
  EXPECT_DOUBLE_EQ(BackoffTotalDelayMs(p, 5, 6, 0), 0.0);
}

TEST(BackoffTest, SleepInterruptibleChecksStopBeforeEverySlice) {
  // 12 ms is three slices (5 + 5 + 2): stop is asked once before each.
  int checks = 0;
  SleepInterruptible(12.0, [&checks] {
    ++checks;
    return false;
  });
  EXPECT_EQ(checks, 3);

  // A stop that fires on the second check cuts the sleep after one slice.
  checks = 0;
  SleepInterruptible(1000.0, [&checks] { return ++checks == 2; });
  EXPECT_EQ(checks, 2);

  // Nothing to sleep: stop is never asked.
  checks = 0;
  SleepInterruptible(0.0, [&checks] { return ++checks > 0; });
  EXPECT_EQ(checks, 0);
}

TEST(BackoffTest, MonotonicNowMsNeverMovesBackwards) {
  double last = MonotonicNowMs();
  EXPECT_GE(last, 0.0);
  for (int i = 0; i < 1000; ++i) {
    const double now = MonotonicNowMs();
    EXPECT_GE(now, last);
    last = now;
  }
  // A wall-clock sleep shows on the clock (margin for rounding).
  const double before = MonotonicNowMs();
  SleepInterruptible(5.0, [] { return false; });
  EXPECT_GE(MonotonicNowMs() - before, 4.9);
}

}  // namespace
}  // namespace griddecl
