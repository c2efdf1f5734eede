#include "griddecl/eval/evaluator.h"

#include <cmath>

#include <gtest/gtest.h>

#include "griddecl/methods/registry.h"
#include "griddecl/query/generator.h"

namespace griddecl {
namespace {

TEST(QueryEvalTest, DerivedQuantities) {
  QueryEval e;
  e.num_buckets = 10;
  e.response = 4;
  e.optimal = 3;
  EXPECT_EQ(e.AdditiveDeviation(), 1u);
  EXPECT_DOUBLE_EQ(e.Ratio(), 4.0 / 3.0);

  QueryEval empty;
  EXPECT_DOUBLE_EQ(empty.Ratio(), 1.0);
}

TEST(EvaluatorTest, SingleQueryAgainstHandComputation) {
  const GridSpec grid = GridSpec::Create({8, 8}).value();
  const auto dm = CreateMethod("dm", grid, 4).value();
  Evaluator ev(*dm);
  const RangeQuery q =
      RangeQuery::Create(grid, BucketRect::Create({0, 0}, {1, 1}).value())
          .value();
  const QueryEval e = ev.EvaluateQuery(q);
  EXPECT_EQ(e.num_buckets, 4u);
  EXPECT_EQ(e.optimal, 1u);
  EXPECT_EQ(e.response, 2u);  // DM packs a 2x2 onto 3 disks.
}

TEST(EvaluatorTest, DeprecatedPointerCtorStillWorks) {
  const GridSpec grid = GridSpec::Create({8, 8}).value();
  const auto dm = CreateMethod("dm", grid, 4).value();
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"
  Evaluator ev(dm.get());
#pragma GCC diagnostic pop
  const RangeQuery q =
      RangeQuery::Create(grid, BucketRect::Create({0, 0}, {1, 1}).value())
          .value();
  EXPECT_EQ(ev.EvaluateQuery(q).response, Evaluator(*dm).EvaluateQuery(q).response);
}

TEST(EvaluatorTest, WorkloadAggregates) {
  const GridSpec grid = GridSpec::Create({16, 16}).value();
  const auto hcam = CreateMethod("hcam", grid, 4).value();
  QueryGenerator gen(grid);
  const Workload w = gen.AllPlacements({2, 2}, "2x2").value();
  const WorkloadEval e = Evaluator(*hcam).EvaluateWorkload(w);
  EXPECT_EQ(e.num_queries, w.size());
  EXPECT_EQ(e.method_name, "HCAM");
  EXPECT_EQ(e.workload_name, "2x2");
  EXPECT_DOUBLE_EQ(e.MeanOptimal(), 1.0);
  EXPECT_GE(e.MeanResponse(), 1.0);
  EXPECT_LE(e.MeanResponse(), 4.0);
  EXPECT_GE(e.FractionOptimal(), 0.0);
  EXPECT_LE(e.FractionOptimal(), 1.0);
  EXPECT_NEAR(e.MeanDeviation(), e.MeanResponse() - e.MeanOptimal(), 1e-9);
}

TEST(EvaluatorTest, FractionOptimalCountsExactly) {
  // DM with M=2 on 1x2 queries: always optimal (adjacent buckets alternate).
  const GridSpec grid = GridSpec::Create({8, 8}).value();
  const auto dm = CreateMethod("dm", grid, 2).value();
  QueryGenerator gen(grid);
  const Workload w = gen.AllPlacements({1, 2}, "1x2").value();
  const WorkloadEval e = Evaluator(*dm).EvaluateWorkload(w);
  EXPECT_DOUBLE_EQ(e.FractionOptimal(), 1.0);
  EXPECT_EQ(e.num_optimal, e.num_queries);
  // 2x2 queries (volume 4, opt 2): checkerboard also optimal.
  const Workload w2 = gen.AllPlacements({2, 2}, "2x2").value();
  const WorkloadEval e2 = Evaluator(*dm).EvaluateWorkload(w2);
  EXPECT_DOUBLE_EQ(e2.FractionOptimal(), 1.0);
}

TEST(EvaluatorTest, EmptyWorkload) {
  const GridSpec grid = GridSpec::Create({4, 4}).value();
  const auto dm = CreateMethod("dm", grid, 2).value();
  Workload w;
  w.name = "empty";
  const WorkloadEval e = Evaluator(*dm).EvaluateWorkload(w);
  EXPECT_EQ(e.num_queries, 0u);
  EXPECT_DOUBLE_EQ(e.FractionOptimal(), 1.0);
  EXPECT_EQ(e.MeanResponse(), 0.0);
}

TEST(EvaluatorTest, ConfidenceIntervalHalfWidth) {
  const GridSpec grid = GridSpec::Create({16, 16}).value();
  const auto dm = CreateMethod("dm", grid, 4).value();
  QueryGenerator gen(grid);
  // 2x2 under DM/4 costs exactly 2 everywhere: zero variance, zero CI.
  const Workload uniform = gen.AllPlacements({2, 2}, "2x2").value();
  const WorkloadEval e1 = Evaluator(*dm).EvaluateWorkload(uniform);
  EXPECT_DOUBLE_EQ(e1.ResponseCi95HalfWidth(), 0.0);
  // A mixed workload has spread; the CI must be positive and match the
  // closed form.
  Workload mixed = uniform;
  mixed.Append(gen.AllPlacements({1, 1}, "points").value());
  const WorkloadEval e2 = Evaluator(*dm).EvaluateWorkload(mixed);
  EXPECT_GT(e2.ResponseCi95HalfWidth(), 0.0);
  EXPECT_NEAR(e2.ResponseCi95HalfWidth(),
              1.96 * e2.response.stddev() /
                  std::sqrt(static_cast<double>(e2.num_queries)),
              1e-12);
  // Degenerate counts.
  WorkloadEval empty;
  EXPECT_DOUBLE_EQ(empty.ResponseCi95HalfWidth(), 0.0);
}

}  // namespace
}  // namespace griddecl
