#include "griddecl/eval/disk_map.h"

#include <string>

#include <gtest/gtest.h>

#include "griddecl/common/random.h"
#include "griddecl/eval/evaluator.h"
#include "griddecl/eval/metrics.h"
#include "griddecl/methods/registry.h"
#include "griddecl/query/generator.h"

namespace griddecl {
namespace {

/// A uniformly random rectangle within `grid`.
BucketRect RandomRect(const GridSpec& grid, Rng* rng) {
  const uint32_t k = grid.num_dims();
  BucketCoords lo(k);
  BucketCoords hi(k);
  for (uint32_t i = 0; i < k; ++i) {
    lo[i] = static_cast<uint32_t>(rng->NextBelow(grid.dim(i)));
    hi[i] = lo[i] + static_cast<uint32_t>(rng->NextBelow(grid.dim(i) - lo[i]));
  }
  return BucketRect::Create(lo, hi).value();
}

/// The grid/M configurations the equivalence suite sweeps. Mixed parities
/// and a non-power-of-two so every registry restriction is exercised
/// (methods that reject a configuration are skipped, mirroring the paper).
struct Config {
  std::vector<uint32_t> dims;
  uint32_t num_disks;
};

std::vector<Config> EquivalenceConfigs() {
  return {
      {{8, 8}, 4},  {{16, 16}, 16}, {{5, 7}, 3},      {{12, 9}, 5},
      {{32, 1}, 8}, {{1, 32}, 8},   {{4, 8, 4}, 8},   {{3, 5, 7}, 6},
      {{64}, 16},   {{2, 2, 2, 2}, 4},
  };
}

TEST(DiskMapTest, LookupsMatchVirtualDiskOfForEveryRegistryMethod) {
  for (const Config& cfg : EquivalenceConfigs()) {
    const GridSpec grid = GridSpec::Create(cfg.dims).value();
    for (const std::string& name : AllMethodNames()) {
      MethodOptions opts;
      opts.seed = 7;
      Result<std::unique_ptr<DeclusteringMethod>> method =
          CreateMethod(name, grid, cfg.num_disks, opts);
      if (!method.ok()) continue;  // Restricted configuration; skip.
      const DiskMap map = DiskMap::Build(*method.value());
      EXPECT_EQ(map.num_disks(), cfg.num_disks);
      EXPECT_EQ(map.grid(), grid);
      grid.ForEachBucket([&](const BucketCoords& c) {
        ASSERT_EQ(map.DiskOf(c), method.value()->DiskOf(c))
            << name << " on " << grid.ToString() << " at " << c.ToString();
        // The flat index is the row-major rank.
        ASSERT_EQ(map.DiskAt(grid.Linearize(c)), map.DiskOf(c));
      });
    }
  }
}

TEST(DiskMapTest, CountsForRectMatchesPerDiskCountsOnRandomQueries) {
  Rng rng(20260806);
  for (const Config& cfg : EquivalenceConfigs()) {
    const GridSpec grid = GridSpec::Create(cfg.dims).value();
    for (const std::string& name : AllMethodNames()) {
      MethodOptions opts;
      opts.seed = 7;
      Result<std::unique_ptr<DeclusteringMethod>> method =
          CreateMethod(name, grid, cfg.num_disks, opts);
      if (!method.ok()) continue;
      const DiskMap map = DiskMap::Build(*method.value());
      std::vector<uint64_t> counts;
      for (int trial = 0; trial < 16; ++trial) {
        const BucketRect rect = RandomRect(grid, &rng);
        const RangeQuery q = RangeQuery::Create(grid, rect).value();
        map.CountsForRect(rect, counts);
        ASSERT_EQ(counts, PerDiskCounts(*method.value(), q))
            << name << " on " << grid.ToString() << " rect "
            << rect.ToString();
        std::vector<uint64_t> scratch;
        ASSERT_EQ(map.ResponseTimeForRect(rect, scratch),
                  ResponseTime(*method.value(), q));
      }
    }
  }
}

TEST(DiskMapTest, AnalyticPathCoversStrideGcdCases) {
  // GDM strides with every gcd class against M=8: coprime (period 8),
  // gcd 2 (period 4), gcd 4 (period 2), and 0 mod M (period 1).
  const GridSpec grid = GridSpec::Create({16, 24}).value();
  Rng rng(99);
  for (uint32_t last_coeff : {1u, 3u, 2u, 4u, 8u, 16u}) {
    MethodOptions opts;
    opts.gdm_coefficients = {5, last_coeff};
    const auto gdm = CreateMethod("gdm", grid, 8, opts).value();
    const DiskMap map = DiskMap::Build(*gdm);
    ASSERT_TRUE(map.has_row_stride()) << "coeff " << last_coeff;
    EXPECT_EQ(map.row_stride(), last_coeff % 8);
    std::vector<uint64_t> counts;
    for (int trial = 0; trial < 24; ++trial) {
      const BucketRect rect = RandomRect(grid, &rng);
      map.CountsForRect(rect, counts);
      const RangeQuery q = RangeQuery::Create(grid, rect).value();
      ASSERT_EQ(counts, PerDiskCounts(*gdm, q))
          << "coeff " << last_coeff << " rect " << rect.ToString();
    }
  }
}

TEST(DiskMapTest, RowStrideDetection) {
  const GridSpec grid = GridSpec::Create({16, 16}).value();
  const auto dm = CreateMethod("dm", grid, 4).value();
  const DiskMap dm_map = DiskMap::Build(*dm);
  EXPECT_TRUE(dm_map.has_row_stride());
  EXPECT_EQ(dm_map.row_stride(), 1u);

  const auto linear = CreateMethod("linear", grid, 4).value();
  const DiskMap linear_map = DiskMap::Build(*linear);
  EXPECT_TRUE(linear_map.has_row_stride());
  EXPECT_EQ(linear_map.row_stride(), 1u);

  const auto hcam = CreateMethod("hcam", grid, 4).value();
  EXPECT_FALSE(DiskMap::Build(*hcam).has_row_stride());

  const auto random = CreateMethod("random", grid, 7).value();
  EXPECT_FALSE(DiskMap::Build(*random).has_row_stride());

  // Single-bucket rows hold any stride vacuously; the analytic path must
  // still count them exactly.
  const GridSpec thin = GridSpec::Create({9, 1}).value();
  const auto thin_hcam = CreateMethod("hcam", thin, 3).value();
  const DiskMap thin_map = DiskMap::Build(*thin_hcam);
  EXPECT_TRUE(thin_map.has_row_stride());
  std::vector<uint64_t> counts;
  const BucketRect all = BucketRect::Full(thin);
  thin_map.CountsForRect(all, counts);
  EXPECT_EQ(counts, PerDiskCounts(*thin_hcam,
                                  RangeQuery::Create(thin, all).value()));
}

TEST(DiskMapTest, ElementWidthTracksDiskCount) {
  const GridSpec small = GridSpec::Create({8, 8}).value();
  EXPECT_EQ(DiskMap::Build(*CreateMethod("dm", small, 16).value())
                .element_width(),
            1u);
  EXPECT_EQ(DiskMap::BytesNeeded(small, 16), small.num_buckets());

  const GridSpec wide = GridSpec::Create({40, 40}).value();
  const auto m300 = CreateMethod("linear", wide, 300).value();
  const DiskMap map300 = DiskMap::Build(*m300);
  EXPECT_EQ(map300.element_width(), 2u);
  EXPECT_EQ(map300.SizeBytes(), 2 * wide.num_buckets());

  const GridSpec big = GridSpec::Create({300, 300}).value();
  const auto m70k = CreateMethod("linear", big, 70000).value();
  const DiskMap map70k = DiskMap::Build(*m70k);
  EXPECT_EQ(map70k.element_width(), 4u);
  // Spot-check wide ids survive the widest table.
  std::vector<uint64_t> counts;
  const BucketRect rect = BucketRect::Create({10, 0}, {12, 299}).value();
  map70k.CountsForRect(rect, counts);
  ASSERT_EQ(counts,
            PerDiskCounts(*m70k, RangeQuery::Create(big, rect).value()));
}

TEST(EvaluatorEngineTest, DiskMapAndVirtualPathsProduceIdenticalAggregates) {
  const GridSpec grid = GridSpec::Create({32, 32}).value();
  QueryGenerator gen(grid);
  const Workload w = gen.AllPlacements({3, 5}, "3x5").value();
  for (const std::string& name : AllMethodNames()) {
    MethodOptions mopts;
    mopts.seed = 11;
    Result<std::unique_ptr<DeclusteringMethod>> method =
        CreateMethod(name, grid, 8, mopts);
    if (!method.ok()) continue;
    EvalOptions no_map;
    no_map.use_disk_map = false;
    const Evaluator fast(*method.value());
    const Evaluator slow(*method.value(), no_map);
    ASSERT_NE(fast.disk_map(), nullptr);
    EXPECT_EQ(slow.disk_map(), nullptr);
    const WorkloadEval a = fast.EvaluateWorkload(w);
    const WorkloadEval b = slow.EvaluateWorkload(w);
    // Same per-query integers in the same order: every aggregate is
    // bit-for-bit identical, doubles included.
    EXPECT_EQ(a.num_queries, b.num_queries) << name;
    EXPECT_EQ(a.num_optimal, b.num_optimal) << name;
    EXPECT_EQ(a.MeanResponse(), b.MeanResponse()) << name;
    EXPECT_EQ(a.MaxResponse(), b.MaxResponse()) << name;
    EXPECT_EQ(a.MeanRatio(), b.MeanRatio()) << name;
    EXPECT_EQ(a.MeanDeviation(), b.MeanDeviation()) << name;
  }
}

TEST(EvaluatorEngineTest, MemoryCapFallsBackToVirtualPath) {
  const GridSpec grid = GridSpec::Create({32, 32}).value();
  const auto dm = CreateMethod("dm", grid, 4).value();
  EvalOptions tiny_cap;
  tiny_cap.max_disk_map_bytes = 16;  // 1024-byte table will not fit.
  const Evaluator ev(*dm, tiny_cap);
  EXPECT_EQ(ev.disk_map(), nullptr);
  QueryGenerator gen(grid);
  const Workload w = gen.AllPlacements({2, 2}, "2x2").value();
  EXPECT_EQ(ev.EvaluateWorkload(w).num_queries, w.size());
}

TEST(EvaluatorEngineTest, ScratchOverloadIsExact) {
  const GridSpec grid = GridSpec::Create({16, 16}).value();
  const auto hcam = CreateMethod("hcam", grid, 4).value();
  const Evaluator ev(*hcam);
  QueryGenerator gen(grid);
  const Workload w = gen.AllPlacements({3, 3}, "3x3").value();
  std::vector<uint64_t> scratch;
  for (const RangeQuery& q : w.queries) {
    const QueryEval with_scratch = ev.EvaluateQuery(q, scratch);
    const QueryEval fresh = ev.EvaluateQuery(q);
    EXPECT_EQ(with_scratch.response, fresh.response);
    EXPECT_EQ(with_scratch.optimal, fresh.optimal);
    EXPECT_EQ(with_scratch.num_buckets, fresh.num_buckets);
  }
}

TEST(ParallelEquivalenceTest, CountersEqualSerialBitForBit) {
  const GridSpec grid = GridSpec::Create({32, 32}).value();
  const auto hcam = CreateMethod("hcam", grid, 8).value();
  QueryGenerator gen(grid);
  const Workload w = gen.AllPlacements({4, 3}, "4x3").value();
  ASSERT_GE(w.size(), 64u);  // Above the serial fallback threshold.
  const Workload tiny = gen.AllPlacements({31, 31}, "tiny").value();
  ASSERT_LT(tiny.size(), 64u);  // Below it: every thread count runs serially.
  const Workload empty;
  for (const Workload* workload : {&w, &tiny, &empty}) {
    const WorkloadEval serial = Evaluator(*hcam).EvaluateWorkload(*workload);
    // 0 = one worker per hardware thread.
    for (uint32_t threads : {0u, 2u, 3u, 8u}) {
      EvalOptions opts;
      opts.num_threads = threads;
      const WorkloadEval par =
          Evaluator(*hcam, opts).EvaluateWorkload(*workload);
      SCOPED_TRACE(workload->name + " threads=" + std::to_string(threads));
      EXPECT_EQ(par.method_name, serial.method_name);
      EXPECT_EQ(par.workload_name, serial.workload_name);
      EXPECT_EQ(par.num_queries, serial.num_queries);
      EXPECT_EQ(par.num_optimal, serial.num_optimal);
      EXPECT_EQ(par.response.count(), serial.response.count());
      EXPECT_EQ(par.response.min(), serial.response.min());
      EXPECT_EQ(par.response.max(), serial.response.max());
      EXPECT_EQ(par.additive_deviation.max(), serial.additive_deviation.max());
      EXPECT_NEAR(par.MeanResponse(), serial.MeanResponse(), 1e-9);
      EXPECT_NEAR(par.MeanRatio(), serial.MeanRatio(), 1e-9);
      EXPECT_NEAR(par.response.variance(), serial.response.variance(), 1e-6);
      EXPECT_DOUBLE_EQ(par.FractionOptimal(), serial.FractionOptimal());
    }
  }
  const WorkloadEval none = Evaluator(*hcam).EvaluateWorkload(empty);
  EXPECT_EQ(none.num_queries, 0u);
  EXPECT_DOUBLE_EQ(none.FractionOptimal(), 1.0);
}

}  // namespace
}  // namespace griddecl
