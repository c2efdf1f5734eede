#include "griddecl/gridfile/buffer_pool.h"

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "griddecl/common/random.h"
#include "reference_buffer_pool.h"

namespace griddecl {
namespace {

using FileId = BufferPool::FileId;

/// File ids, as PageStore::RegisterFile would hand them out.
constexpr FileId kF = 0;
constexpr FileId kA = 1;
constexpr FileId kB = 2;

std::string Payload(FileId file, uint64_t page) {
  return std::to_string(file) + ":" + std::to_string(page);
}

/// A frame of `pool` filled with `bytes`, as a miss fills one.
BlankFrame Filled(BufferPool* pool, std::string_view bytes) {
  BlankFrame frame = pool->TakeFrame();
  const std::span<char> out = frame.Resize(bytes.size());
  std::memcpy(out.data(), bytes.data(), bytes.size());
  return frame;
}

BlankFrame MakeFrame(BufferPool* pool, FileId file, uint64_t page) {
  return Filled(pool, Payload(file, page));
}

/// Lookup-then-admit-on-miss, the way PageStore drives the pool.
bool Touch(BufferPool* pool, FileId file, uint64_t page) {
  if (pool->Lookup(file, page).valid()) return true;
  pool->Admit(file, page, MakeFrame(pool, file, page));
  return false;
}

TEST(BufferPoolTest, LookupMissThenAdmitThenHit) {
  BufferPool pool(8);
  EXPECT_FALSE(pool.Lookup(kF, 0).valid());
  pool.Admit(kF, 0, MakeFrame(&pool, kF, 0));
  const PinnedPage hit = pool.Lookup(kF, 0);
  ASSERT_TRUE(hit.valid());
  EXPECT_EQ(hit.raw(), Payload(kF, 0));
  const BufferPool::Stats stats = pool.GetStats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.admissions, 1u);
  EXPECT_EQ(stats.resident, 1u);
}

TEST(BufferPoolTest, DuplicateAdmitKeepsIncumbent) {
  BufferPool pool(8);
  const PinnedPage first = pool.Admit(kF, 3, Filled(&pool, "first"));
  const PinnedPage second = pool.Admit(kF, 3, Filled(&pool, "second"));
  // Two readers raced on the same miss: the incumbent wins both times.
  EXPECT_EQ(first.raw().data(), second.raw().data());
  EXPECT_EQ(second.raw(), "first");
  EXPECT_EQ(pool.GetStats().resident, 1u);
  EXPECT_EQ(pool.GetStats().admissions, 1u);
  // The loser's frame went back to the free list: the next miss takes it.
  EXPECT_EQ(pool.frames_allocated(), 2u);
  pool.Admit(kF, 4, Filled(&pool, "third"));
  EXPECT_EQ(pool.frames_allocated(), 2u);
}

TEST(BufferPoolTest, CapacityIsNeverExceeded) {
  // Small capacities included: their segments are sized by rounding, and
  // both must fit inside the capacity together.
  for (const size_t capacity : {1, 2, 3, 4, 16}) {
    BufferPool pool(capacity);
    Rng rng(1);
    // Pages both hit and get evicted (200 pages at capacity 16).
    for (int i = 0; i < 2000; ++i) {
      Touch(&pool, kF, rng.NextBelow(12 * capacity + 8));
      ASSERT_LE(pool.GetStats().resident, capacity) << "capacity " << capacity;
    }
    const BufferPool::Stats stats = pool.GetStats();
    EXPECT_EQ(stats.admissions, stats.evictions + stats.resident)
        << "capacity " << capacity;
    EXPECT_GT(stats.hits, 0u) << "capacity " << capacity;
    EXPECT_GT(stats.evictions, 0u) << "capacity " << capacity;
  }
}

TEST(BufferPoolTest, InvalidateDropsOnlyThatFile) {
  BufferPool pool(16);
  pool.Admit(kA, 0, MakeFrame(&pool, kA, 0));
  pool.Admit(kA, 1, MakeFrame(&pool, kA, 1));
  pool.Admit(kB, 0, MakeFrame(&pool, kB, 0));
  const PinnedPage pinned = pool.Lookup(kA, 0);
  ASSERT_TRUE(pinned.valid());
  pool.Invalidate(kA);
  EXPECT_FALSE(pool.Lookup(kA, 0).valid());
  EXPECT_FALSE(pool.Lookup(kA, 1).valid());
  EXPECT_TRUE(pool.Lookup(kB, 0).valid());
  // The outstanding pin outlives eviction, and its frame is not reused
  // while pinned: new misses get other frames.
  for (uint64_t p = 0; p < 4; ++p) Touch(&pool, kB, 10 + p);
  EXPECT_EQ(pinned.raw(), Payload(kA, 0));
}

TEST(BufferPoolTest, SequentialScanDoesNotEvictHotSet) {
  // The tentpole property: a hot working set that fits the protected
  // segment survives an arbitrarily long one-touch sequential scan.
  // Touch each hot page twice (second touch promotes out of probation),
  // then stream 10x capacity of cold pages through, then re-touch the
  // hot set — every hot page must still hit.
  BufferPool pool(32);  // probation 8, protected 24.
  const FileId hot = 0;
  const FileId scan = 1;
  for (uint64_t p = 0; p < 16; ++p) {
    Touch(&pool, hot, p);
    EXPECT_TRUE(Touch(&pool, hot, p));
  }
  for (uint64_t p = 0; p < 320; ++p) Touch(&pool, scan, p);
  for (uint64_t p = 0; p < 16; ++p) {
    EXPECT_TRUE(pool.Lookup(hot, p).valid()) << "hot page " << p;
  }
}

TEST(BufferPoolTest, ScanResistanceHitRatioAcrossSeeds) {
  // Property over random workloads: a 80/20 skewed access pattern (80% of
  // touches to a hot set that fits protected, 20% to a cold universe 50x
  // capacity) must keep a high hit ratio on the hot pages, for every
  // seed. An LRU pool fails this under interleaved scans; the segmented
  // pool must not.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    BufferPool pool(64);  // probation 16, protected 48.
    Rng rng(seed);
    const uint64_t kHotPages = 32;
    const FileId kHot = 0;
    const FileId kCold = 1;
    // Warm the hot set into protected.
    for (uint64_t p = 0; p < kHotPages; ++p) {
      Touch(&pool, kHot, p);
      Touch(&pool, kHot, p);
    }
    uint64_t hot_touches = 0;
    uint64_t hot_hits = 0;
    for (int i = 0; i < 20000; ++i) {
      if (rng.NextBool(0.8)) {
        ++hot_touches;
        if (Touch(&pool, kHot, rng.NextBelow(kHotPages))) ++hot_hits;
      } else {
        Touch(&pool, kCold, rng.NextBelow(64 * 50));
      }
    }
    const double ratio =
        static_cast<double>(hot_hits) / static_cast<double>(hot_touches);
    EXPECT_GT(ratio, 0.95) << "seed " << seed << " hot hit ratio " << ratio;
    EXPECT_LE(pool.GetStats().resident, 64u);
  }
}

TEST(BufferPoolTest, PromotionRequiresASecondTouch) {
  BufferPool pool(8);  // probation 2, protected 6.
  Touch(&pool, kF, 0);
  EXPECT_EQ(pool.GetStats().promotions, 0u);
  Touch(&pool, kF, 0);  // Hit in probation -> promoted.
  EXPECT_EQ(pool.GetStats().promotions, 1u);
  // One-touch pages march through the 2-frame probation FIFO and out.
  Touch(&pool, kF, 1);
  Touch(&pool, kF, 2);
  Touch(&pool, kF, 3);
  EXPECT_FALSE(pool.Lookup(kF, 1).valid());
  // The promoted page is untouched by the probation churn.
  EXPECT_TRUE(pool.Lookup(kF, 0).valid());
}

TEST(BufferPoolTest, ConcurrentPinUnpinEvictionIsSafe) {
  // Hammer one small pool from many threads: lookups, admissions,
  // evictions, invalidations, and long-held pins all interleave. TSan
  // (scripts/run_tier1.sh --sanitize=tsan) must stay silent, pinned
  // frames must stay readable after eviction, and counters must add up.
  BufferPool pool(16);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> bad_reads{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&pool, &stop, &bad_reads, t] {
      Rng rng(static_cast<uint64_t>(t) + 100);
      std::vector<std::pair<PinnedPage, std::string>> pins;
      while (!stop.load(std::memory_order_relaxed)) {
        const uint64_t page = rng.NextBelow(64);
        const FileId file = rng.NextBool(0.5) ? kA : kB;
        PinnedPage frame;
        {
          // Some lookups run two to a Hold, as a batched read's hits do.
          BufferPool::Hold hold(&pool);
          frame = hold.Lookup(file, page);
          if (rng.NextBool(0.5)) hold.Lookup(file, (page + 1) % 64);
        }
        if (!frame.valid()) {
          frame = pool.Admit(file, page, MakeFrame(&pool, file, page));
        }
        // Pinned frames are immutable: contents never change underneath
        // us regardless of concurrent eviction and frame reuse.
        if (frame.raw() != Payload(file, page)) {
          bad_reads.fetch_add(1, std::memory_order_relaxed);
        }
        if (rng.NextBool(0.25)) {
          pins.emplace_back(std::move(frame), Payload(file, page));
        }
        if (pins.size() > 32) {
          for (const auto& [pin, payload] : pins) {
            if (pin.raw() != payload) {
              bad_reads.fetch_add(1, std::memory_order_relaxed);
            }
          }
          pins.clear();
        }
        if (rng.NextBool(0.01)) pool.Invalidate(kB);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(bad_reads.load(), 0u);
  const BufferPool::Stats stats = pool.GetStats();
  EXPECT_LE(stats.resident, 16u);
  EXPECT_EQ(stats.admissions, stats.evictions + stats.resident);
  // Frames: at most the resident ones, one blank per thread, and the
  // evicted ones still pinned (32 per thread, plus the one in hand).
  EXPECT_LE(pool.frames_allocated(), 16u + 8u * (1u + 33u));
}

TEST(BufferPoolTest, FramesGrowWithResidencyAndRecycleWhenFull) {
  BufferPool pool(64);
  EXPECT_EQ(pool.frames_allocated(), 0u);  // Nothing up front.
  for (uint64_t p = 0; p < 10; ++p) Touch(&pool, kF, p);
  EXPECT_EQ(pool.frames_allocated(), 10u);
  // Fill well past capacity without pins: each admission into the full
  // pool reuses the frame the previous one evicted.
  for (uint64_t p = 10; p < 1000; ++p) Touch(&pool, kF, p);
  EXPECT_EQ(pool.GetStats().resident, 16u);  // One-touch pages: probation.
  EXPECT_EQ(pool.frames_allocated(), 17u);
}

/// Drives the pool and the reference model with one seeded sequence of
/// lookups, admissions (after a miss, or racing an incumbent) and
/// invalidations, checking after every operation that both returned the
/// same frame and count the same Stats.
void ExpectMatchesReference(size_t capacity, uint64_t seed) {
  BufferPool pool(capacity);
  testing::ReferenceBufferPool model(capacity);
  Rng rng(seed);
  // Keys over ~3x capacity: hits, promotions and evictions all happen.
  const uint64_t universe = 3 * capacity + 3;
  std::vector<PinnedPage> held;
  uint64_t next_tag = 1;
  const auto tag_of = [](const PinnedPage& pin) {
    uint64_t tag = 0;
    std::memcpy(&tag, pin.raw().data(), sizeof tag);
    return tag;
  };
  for (int op = 0; op < 4000; ++op) {
    const FileId file = static_cast<FileId>(rng.NextBelow(3));
    const uint64_t page = rng.NextBelow(universe);
    const uint64_t roll = rng.NextBelow(100);
    SCOPED_TRACE("capacity " + std::to_string(capacity) + " seed " +
                 std::to_string(seed) + " op " + std::to_string(op));
    if (roll < 2) {
      pool.Invalidate(file);
      model.Invalidate(file);
    } else {
      // A tenth of the admissions race an incumbent: no lookup first.
      PinnedPage pin;
      if (roll >= 12) {
        pin = pool.Lookup(file, page);
        const testing::ReferenceBufferPool::FramePtr ref =
            model.Lookup(file, page);
        ASSERT_EQ(pin.valid(), ref != nullptr);
        if (pin.valid()) {
          ASSERT_EQ(tag_of(pin), ref->tag);
        }
      }
      if (!pin.valid()) {
        const uint64_t tag = next_tag++;
        std::string bytes(sizeof tag, '\0');
        std::memcpy(bytes.data(), &tag, sizeof tag);
        pin = pool.Admit(file, page, Filled(&pool, bytes));
        const testing::ReferenceBufferPool::FramePtr ref = model.Admit(
            file, page,
            std::make_shared<const testing::ReferenceBufferPool::Frame>(
                testing::ReferenceBufferPool::Frame{tag}));
        ASSERT_EQ(tag_of(pin), ref->tag);
      }
      if (rng.NextBool(0.1)) held.push_back(pin);
    }
    if (held.size() > 8) held.erase(held.begin());
    const BufferPool::Stats a = pool.GetStats();
    const BufferPool::Stats b = model.GetStats();
    ASSERT_EQ(a.hits, b.hits);
    ASSERT_EQ(a.misses, b.misses);
    ASSERT_EQ(a.admissions, b.admissions);
    ASSERT_EQ(a.evictions, b.evictions);
    ASSERT_EQ(a.promotions, b.promotions);
    ASSERT_EQ(a.resident, b.resident);
  }
}

TEST(BufferPoolTest, MatchesReferenceModelExactly) {
  for (const size_t capacity : {1, 2, 4, 7, 1024}) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      ExpectMatchesReference(capacity, seed);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace griddecl
