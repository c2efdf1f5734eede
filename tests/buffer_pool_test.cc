#include "griddecl/gridfile/buffer_pool.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "griddecl/common/random.h"

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

BufferPool::FramePtr MakeFrame(FileId file, uint64_t page) {
  auto frame = std::make_shared<BufferPool::Frame>();
  frame->raw = Payload(file, page);
  return frame;
}

/// Lookup-then-admit-on-miss, the way PageStore drives the pool.
bool Touch(BufferPool* pool, FileId file, uint64_t page) {
  if (pool->Lookup(file, page) != nullptr) return true;
  pool->Admit(file, page, MakeFrame(file, page));
  return false;
}

TEST(BufferPoolTest, LookupMissThenAdmitThenHit) {
  BufferPool pool(8);
  EXPECT_EQ(pool.Lookup(kF, 0), nullptr);
  pool.Admit(kF, 0, MakeFrame(kF, 0));
  const BufferPool::FramePtr hit = pool.Lookup(kF, 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->raw, Payload(kF, 0));
  const BufferPool::Stats stats = pool.GetStats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.admissions, 1u);
  EXPECT_EQ(stats.resident, 1u);
}

TEST(BufferPoolTest, DuplicateAdmitKeepsIncumbent) {
  BufferPool pool(8);
  const BufferPool::FramePtr first = pool.Admit(kF, 3, MakeFrame(kF, 3));
  const BufferPool::FramePtr second = pool.Admit(kF, 3, MakeFrame(kF, 3));
  // Two readers raced on the same miss: the incumbent wins both times.
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(pool.GetStats().resident, 1u);
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
  pool.Admit(kA, 0, MakeFrame(kA, 0));
  pool.Admit(kA, 1, MakeFrame(kA, 1));
  pool.Admit(kB, 0, MakeFrame(kB, 0));
  const BufferPool::FramePtr pinned = pool.Lookup(kA, 0);
  ASSERT_NE(pinned, nullptr);
  pool.Invalidate(kA);
  EXPECT_EQ(pool.Lookup(kA, 0), nullptr);
  EXPECT_EQ(pool.Lookup(kA, 1), nullptr);
  EXPECT_NE(pool.Lookup(kB, 0), nullptr);
  // The outstanding pin outlives eviction (structural pin safety).
  EXPECT_EQ(pinned->raw, Payload(kA, 0));
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
    EXPECT_NE(pool.Lookup(hot, p), nullptr) << "hot page " << p;
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
  EXPECT_EQ(pool.Lookup(kF, 1), nullptr);
  // The promoted page is untouched by the probation churn.
  EXPECT_NE(pool.Lookup(kF, 0), nullptr);
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
      std::vector<BufferPool::FramePtr> pins;
      while (!stop.load(std::memory_order_relaxed)) {
        const uint64_t page = rng.NextBelow(64);
        const FileId file = rng.NextBool(0.5) ? kA : kB;
        BufferPool::FramePtr frame;
        {
          // Some lookups run two to a Hold, as a batched read's hits do.
          BufferPool::Hold hold(&pool);
          frame = hold.Lookup(file, page);
          if (rng.NextBool(0.5)) hold.Lookup(file, (page + 1) % 64);
        }
        if (frame == nullptr) {
          frame = pool.Admit(file, page, MakeFrame(file, page));
        }
        // Pinned frames are immutable: contents never change underneath
        // us regardless of concurrent eviction.
        if (frame->raw != Payload(file, page)) {
          bad_reads.fetch_add(1, std::memory_order_relaxed);
        }
        if (rng.NextBool(0.25)) pins.push_back(std::move(frame));
        if (pins.size() > 32) pins.clear();
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
}

}  // namespace
}  // namespace griddecl
