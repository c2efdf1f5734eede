#include "griddecl/gridfile/grid_file.h"

#include <algorithm>
#include <limits>

#include <gtest/gtest.h>

#include "griddecl/common/random.h"

namespace griddecl {
namespace {

Schema TwoAttrSchema() {
  return Schema::Create({{"age", 0.0, 100.0}, {"salary", 0.0, 200000.0}})
      .value();
}

TEST(SchemaTest, Validation) {
  EXPECT_FALSE(Schema::Create({}).ok());
  EXPECT_FALSE(Schema::Create({{"", 0.0, 1.0}}).ok());
  EXPECT_FALSE(Schema::Create({{"a", 1.0, 1.0}}).ok());
  EXPECT_FALSE(Schema::Create({{"a", 0.0, 1.0}, {"a", 0.0, 1.0}}).ok());
  const Schema s = TwoAttrSchema();
  EXPECT_EQ(s.num_attributes(), 2u);
  EXPECT_EQ(s.IndexOf("salary"), 1);
  EXPECT_EQ(s.IndexOf("nope"), -1);
}

TEST(GridFileTest, CreateValidation) {
  EXPECT_FALSE(GridFile::Create(TwoAttrSchema(), {8}).ok());
  EXPECT_FALSE(GridFile::Create(TwoAttrSchema(), {8, 0}).ok());
  const GridFile f = GridFile::Create(TwoAttrSchema(), {8, 4}).value();
  EXPECT_EQ(f.grid().ToString(), "8x4");
  EXPECT_EQ(f.num_records(), 0u);
}

TEST(GridFileTest, InsertAndBucketPlacement) {
  GridFile f = GridFile::Create(TwoAttrSchema(), {10, 10}).value();
  const RecordId id = f.Insert({25.0, 50000.0}).value();
  EXPECT_EQ(f.num_records(), 1u);
  EXPECT_EQ(f.record(id), Record({25.0, 50000.0}));
  // age 25 -> interval 2 of [0,100)/10; salary 50k -> interval 2.
  EXPECT_EQ(f.BucketOfRecord(id), BucketCoords({2, 2}));
  EXPECT_EQ(f.BucketContents({2, 2}).size(), 1u);
  EXPECT_TRUE(f.BucketContents({0, 0}).empty());
}

TEST(GridFileTest, InsertRejectsWrongArity) {
  GridFile f = GridFile::Create(TwoAttrSchema(), {4, 4}).value();
  EXPECT_FALSE(f.Insert({1.0}).ok());
  EXPECT_FALSE(f.Insert({1.0, 2.0, 3.0}).ok());
}

TEST(GridFileTest, InsertRejectsNaN) {
  // No interval holds NaN: the insert fails cleanly instead of computing
  // a bucket past the grid.
  GridFile f = GridFile::Create(TwoAttrSchema(), {4, 4}).value();
  const Result<RecordId> id =
      f.Insert({25.0, std::numeric_limits<double>::quiet_NaN()});
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(f.num_records(), 0u);
}

TEST(GridFileTest, OutOfDomainValuesClampIntoBoundaryBuckets) {
  GridFile f = GridFile::Create(TwoAttrSchema(), {4, 4}).value();
  const RecordId low = f.Insert({-50.0, -1.0}).value();
  const RecordId high = f.Insert({500.0, 1e9}).value();
  EXPECT_EQ(f.BucketOfRecord(low), BucketCoords({0, 0}));
  EXPECT_EQ(f.BucketOfRecord(high), BucketCoords({3, 3}));
}

TEST(GridFileTest, ResolveRangeMapsPredicateToBuckets) {
  const GridFile f = GridFile::Create(TwoAttrSchema(), {10, 10}).value();
  const RangeQuery q = f.ResolveRange({20.0, 0.0}, {39.0, 99999.0}).value();
  EXPECT_EQ(q.rect().lo(), BucketCoords({2, 0}));
  EXPECT_EQ(q.rect().hi(), BucketCoords({3, 4}));
  EXPECT_FALSE(f.ResolveRange({30.0}, {40.0}).ok());
  EXPECT_FALSE(f.ResolveRange({30.0, 0.0}, {20.0, 0.0}).ok());
}

TEST(GridFileTest, RangeSearchExactSemantics) {
  GridFile f = GridFile::Create(TwoAttrSchema(), {8, 8}).value();
  // Records straddling a bucket boundary: the bucket overlaps the query but
  // only some records inside match.
  ASSERT_TRUE(f.Insert({10.0, 10000.0}).ok());  // id 0: in range
  ASSERT_TRUE(f.Insert({11.0, 10000.0}).ok());  // id 1: in range
  ASSERT_TRUE(f.Insert({12.6, 10000.0}).ok());  // id 2: same bucket, out
  ASSERT_TRUE(f.Insert({80.0, 10000.0}).ok());  // id 3: different bucket
  const auto hits = f.RangeSearch({9.0, 0.0}, {12.0, 20000.0}).value();
  EXPECT_EQ(hits, (std::vector<RecordId>{0, 1}));
}

TEST(GridFileTest, RangeSearchMatchesBruteForce) {
  GridFile f = GridFile::Create(TwoAttrSchema(), {16, 16}).value();
  Rng rng(42);
  std::vector<Record> data;
  for (int i = 0; i < 500; ++i) {
    Record r = {rng.NextDouble() * 100.0, rng.NextDouble() * 200000.0};
    data.push_back(r);
    ASSERT_TRUE(f.Insert(r).ok());
  }
  for (int trial = 0; trial < 20; ++trial) {
    double a0 = rng.NextDouble() * 100.0;
    double a1 = rng.NextDouble() * 100.0;
    if (a0 > a1) std::swap(a0, a1);
    double s0 = rng.NextDouble() * 200000.0;
    double s1 = rng.NextDouble() * 200000.0;
    if (s0 > s1) std::swap(s0, s1);
    auto hits = f.RangeSearch({a0, s0}, {a1, s1}).value();
    std::vector<RecordId> expected;
    for (RecordId id = 0; id < data.size(); ++id) {
      const Record& r = data[static_cast<size_t>(id)];
      if (a0 <= r[0] && r[0] <= a1 && s0 <= r[1] && r[1] <= s1) {
        expected.push_back(id);
      }
    }
    std::sort(hits.begin(), hits.end());
    EXPECT_EQ(hits, expected) << "trial " << trial;
  }
}

}  // namespace
}  // namespace griddecl
