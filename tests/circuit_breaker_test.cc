#include "griddecl/serve/circuit_breaker.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "griddecl/common/random.h"

namespace griddecl {
namespace {

BreakerOptions FastTrip() {
  BreakerOptions o;
  o.min_events = 2;
  o.window = 4;
  o.failure_ratio = 0.5;
  o.open_ms = 10.0;
  return o;
}

TEST(CircuitBreakerTest, ValidatesOptions) {
  EXPECT_TRUE(ValidateBreakerOptions({}).ok());
  BreakerOptions o;
  o.min_events = 0;
  EXPECT_FALSE(ValidateBreakerOptions(o).ok());
  o = {};
  o.window = o.min_events - 1;
  EXPECT_FALSE(ValidateBreakerOptions(o).ok());
  o = {};
  o.failure_ratio = 0.0;
  EXPECT_FALSE(ValidateBreakerOptions(o).ok());
  o = {};
  o.failure_ratio = 1.5;
  EXPECT_FALSE(ValidateBreakerOptions(o).ok());
  o = {};
  o.open_ms = -1.0;
  EXPECT_FALSE(ValidateBreakerOptions(o).ok());
}

TEST(CircuitBreakerTest, StateNames) {
  EXPECT_STREQ(BreakerStateName(BreakerState::kClosed), "closed");
  EXPECT_STREQ(BreakerStateName(BreakerState::kOpen), "open");
  EXPECT_STREQ(BreakerStateName(BreakerState::kHalfOpen), "half_open");
}

TEST(CircuitBreakerTest, TripsAtTheConfiguredRatioNotBefore) {
  BreakerOptions o;
  o.min_events = 4;
  o.window = 8;
  o.failure_ratio = 0.5;
  CircuitBreaker b(o);
  // Three failures: below min_events, still closed.
  for (int i = 0; i < 3; ++i) b.RecordFailure(0.0);
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  // A success then a failure: 4 failures / 5 events >= 0.5 — trips.
  b.RecordSuccess(0.0);
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  b.RecordFailure(1.0);
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_EQ(b.counters().opened, 1u);
}

TEST(CircuitBreakerTest, SuccessesKeepAHealthyBreakerClosed) {
  CircuitBreaker b(FastTrip());
  for (int i = 0; i < 1000; ++i) b.RecordSuccess(static_cast<double>(i));
  // One failure in a big healthy window is below the ratio.
  b.RecordFailure(1000.0);
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  EXPECT_EQ(b.counters().opened, 0u);
}

TEST(CircuitBreakerTest, OpenBreakerAdmitsExactlyOneProbe) {
  CircuitBreaker b(FastTrip());
  b.RecordFailure(0.0);
  b.RecordFailure(0.0);
  ASSERT_EQ(b.state(), BreakerState::kOpen);

  // Before open_ms: refused, and WouldRefuse agrees.
  EXPECT_TRUE(b.WouldRefuse(5.0));
  EXPECT_FALSE(b.AllowRequest(5.0));
  EXPECT_EQ(b.state(), BreakerState::kOpen);

  // At open_ms: exactly one AllowRequest wins the probe slot.
  int admitted = 0;
  for (int i = 0; i < 10; ++i) {
    if (b.AllowRequest(10.0 + i)) admitted++;
  }
  EXPECT_EQ(admitted, 1);
  EXPECT_EQ(b.state(), BreakerState::kHalfOpen);
  EXPECT_TRUE(b.WouldRefuse(1e9));  // Probe outstanding: everyone waits.
  EXPECT_EQ(b.counters().half_opened, 1u);
}

TEST(CircuitBreakerTest, ProbeSuccessClosesAndResetsTheWindow) {
  CircuitBreaker b(FastTrip());
  b.RecordFailure(0.0);
  b.RecordFailure(0.0);
  ASSERT_TRUE(b.AllowRequest(20.0));
  b.RecordSuccess(21.0);
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  EXPECT_EQ(b.counters().closed, 1u);
  // The window reset: one new failure is below min_events again.
  b.RecordFailure(22.0);
  EXPECT_EQ(b.state(), BreakerState::kClosed);
}

TEST(CircuitBreakerTest, ProbeFailureReopensAndRestartsTheTimer) {
  CircuitBreaker b(FastTrip());
  b.RecordFailure(0.0);
  b.RecordFailure(0.0);
  ASSERT_TRUE(b.AllowRequest(20.0));
  b.RecordFailure(21.0);
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_EQ(b.counters().reopened, 1u);
  // The open timer restarted at 21: still refused at 30, open again at 31.
  EXPECT_FALSE(b.AllowRequest(30.9));
  EXPECT_TRUE(b.AllowRequest(31.0));
}

TEST(CircuitBreakerTest, StaleReportsWhileOpenAreIgnored) {
  CircuitBreaker b(FastTrip());
  b.RecordFailure(0.0);
  b.RecordFailure(0.0);
  ASSERT_EQ(b.state(), BreakerState::kOpen);
  // Outcomes of requests admitted before the trip land late: no effect.
  b.RecordSuccess(1.0);
  b.RecordFailure(1.0);
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_EQ(b.counters().opened, 1u);
  EXPECT_EQ(b.counters().closed, 0u);
  EXPECT_EQ(b.counters().reopened, 0u);
}

/// The property test: arbitrary event sequences never produce an invalid
/// transition, counters exactly track transitions, and the half-open state
/// admits at most one probe between open periods.
TEST(CircuitBreakerPropertyTest, RandomSequencesNeverReachInvalidStates) {
  for (uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(seed);
    BreakerOptions o;
    o.min_events = 1 + static_cast<uint32_t>(rng.NextDouble() * 4);
    o.window = o.min_events + static_cast<uint32_t>(rng.NextDouble() * 8);
    o.failure_ratio = 0.25 + rng.NextDouble() * 0.75;
    o.open_ms = rng.NextDouble() * 20.0;
    ASSERT_TRUE(ValidateBreakerOptions(o).ok());
    CircuitBreaker b(o);

    double now = 0.0;
    BreakerCounters last = b.counters();
    bool probe_outstanding = false;
    for (int step = 0; step < 2000; ++step) {
      now += rng.NextDouble() * 5.0;
      const BreakerState before = b.state();
      const double action = rng.NextDouble();
      if (action < 0.4) {
        const bool refused_predicted = b.WouldRefuse(now);
        const bool admitted = b.AllowRequest(now);
        EXPECT_EQ(admitted, !refused_predicted)
            << "WouldRefuse disagrees with AllowRequest at step " << step;
        if (admitted && before == BreakerState::kOpen) {
          EXPECT_EQ(b.state(), BreakerState::kHalfOpen);
          EXPECT_FALSE(probe_outstanding)
              << "second probe admitted without an intervening report";
          probe_outstanding = true;
        }
        if (before == BreakerState::kHalfOpen) {
          EXPECT_FALSE(admitted) << "half-open admitted a second probe";
        }
      } else if (action < 0.7) {
        b.RecordSuccess(now);
        if (before == BreakerState::kHalfOpen) {
          EXPECT_EQ(b.state(), BreakerState::kClosed);
          probe_outstanding = false;
        } else {
          EXPECT_EQ(b.state(), before);  // Success never opens.
        }
      } else {
        b.RecordFailure(now);
        if (before == BreakerState::kHalfOpen) {
          EXPECT_EQ(b.state(), BreakerState::kOpen);
          probe_outstanding = false;
        } else if (before == BreakerState::kOpen) {
          EXPECT_EQ(b.state(), BreakerState::kOpen);
        }
        // closed -> closed or closed -> open are both legal.
      }

      // Transition/counter bookkeeping is exact.
      const BreakerState after = b.state();
      const BreakerCounters& c = b.counters();
      EXPECT_EQ(c.opened - last.opened + c.reopened - last.reopened,
                (after == BreakerState::kOpen && before != after) ? 1u : 0u);
      EXPECT_EQ(c.half_opened - last.half_opened,
                (after == BreakerState::kHalfOpen && before != after) ? 1u
                                                                     : 0u);
      EXPECT_EQ(c.closed - last.closed,
                (before == BreakerState::kHalfOpen &&
                 after == BreakerState::kClosed)
                    ? 1u
                    : 0u);
      // No transition skips a state: closed never jumps to half-open,
      // open never jumps to closed.
      if (before == BreakerState::kClosed) {
        EXPECT_NE(after, BreakerState::kHalfOpen);
      }
      if (before == BreakerState::kOpen) {
        EXPECT_NE(after, BreakerState::kClosed);
      }
      EXPECT_GE(b.FailureRatio(), 0.0);
      EXPECT_LE(b.FailureRatio(), 1.0);
      last = c;
    }
  }
}

TEST(BreakerSetTest, MembersTripIndependently) {
  BreakerOptions o = FastTrip();
  o.open_ms = 1e18;  // Once open, stays open.
  BreakerSet set(3, o);
  set.Record(1, false);
  set.Record(1, false);
  EXPECT_EQ(set.StateOf(0), BreakerState::kClosed);
  EXPECT_EQ(set.StateOf(1), BreakerState::kOpen);
  EXPECT_EQ(set.StateOf(2), BreakerState::kClosed);
  EXPECT_TRUE(set.WouldRefuse(1));
  EXPECT_FALSE(set.WouldRefuse(0));
  EXPECT_FALSE(set.Admit(1));
  EXPECT_TRUE(set.Admit(0));

  // The mask form marks only probed members that would refuse.
  std::vector<bool> refused(3, false);
  EXPECT_FALSE(set.WouldRefuse({true, false, true}, &refused));
  EXPECT_EQ(refused, std::vector<bool>(3, false));
  EXPECT_TRUE(set.WouldRefuse({true, true, false}, &refused));
  EXPECT_EQ(refused, (std::vector<bool>{false, true, false}));

  const BreakerCounters totals = set.Totals();
  EXPECT_EQ(totals.opened, 1u);
  EXPECT_EQ(totals.half_opened, 0u);
}

TEST(BreakerSetTest, ConcurrentCyclesSumToTheDrivenTransitions) {
  // One failure trips; open_ms 0 admits the half-open probe at once, so
  // every transition below is driven, never timed.
  BreakerOptions o;
  o.min_events = 1;
  o.window = 1;
  o.failure_ratio = 1.0;
  o.open_ms = 0.0;
  constexpr uint32_t kThreads = 4;
  constexpr uint32_t kCycles = 500;
  BreakerSet set(kThreads, o);
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&set, t] {
      std::vector<bool> refused(kThreads, false);
      for (uint32_t c = 0; c < kCycles; ++c) {
        set.Record(t, false);         // closed -> open
        EXPECT_TRUE(set.Admit(t));    // open -> half-open
        set.Record(t, false);         // half-open -> open (reopened)
        EXPECT_TRUE(set.Admit(t));    // open -> half-open
        set.Record(t, true);          // half-open -> closed
        (void)set.WouldRefuse(std::vector<bool>(kThreads, true), &refused);
        (void)set.Totals();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const BreakerCounters totals = set.Totals();
  EXPECT_EQ(totals.opened, uint64_t{kThreads} * kCycles);
  EXPECT_EQ(totals.half_opened, 2 * uint64_t{kThreads} * kCycles);
  EXPECT_EQ(totals.reopened, uint64_t{kThreads} * kCycles);
  EXPECT_EQ(totals.closed, uint64_t{kThreads} * kCycles);
  for (uint32_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(set.StateOf(t), BreakerState::kClosed) << t;
  }
}

}  // namespace
}  // namespace griddecl
