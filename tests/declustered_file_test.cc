#include "griddecl/gridfile/declustered_file.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "griddecl/common/random.h"

namespace griddecl {
namespace {

GridFile MakeLoadedFile(uint32_t partitions, int num_records, uint64_t seed) {
  Schema schema =
      Schema::Create({{"x", 0.0, 1.0}, {"y", 0.0, 1.0}}).value();
  GridFile f =
      GridFile::Create(std::move(schema), {partitions, partitions}).value();
  Rng rng(seed);
  for (int i = 0; i < num_records; ++i) {
    EXPECT_TRUE(f.Insert({rng.NextDouble(), rng.NextDouble()}).ok());
  }
  return f;
}

TEST(DeclusteredFileTest, CreateValidation) {
  GridFile f = MakeLoadedFile(16, 10, 1);
  EXPECT_FALSE(DeclusteredFile::Create(std::move(f), "bogus", 4).ok());
  GridFile f2 = MakeLoadedFile(15, 10, 1);
  // ECC inapplicable on a 15x15 grid.
  const auto r = DeclusteredFile::Create(std::move(f2), "ecc", 4);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
}

TEST(DeclusteredFileTest, DiskOfRecordConsistentWithMethod) {
  DeclusteredFile df =
      DeclusteredFile::Create(MakeLoadedFile(16, 200, 2), "hcam", 8).value();
  for (RecordId id = 0; id < df.file().num_records(); ++id) {
    const BucketCoords b = df.file().BucketOfRecord(id);
    EXPECT_EQ(df.DiskOfRecord(id), df.method().DiskOf(b));
  }
}

TEST(DeclusteredFileTest, RecordsPerDiskSumsToTotal) {
  DeclusteredFile df =
      DeclusteredFile::Create(MakeLoadedFile(16, 500, 3), "fx", 8).value();
  const auto counts = df.RecordsPerDisk();
  ASSERT_EQ(counts.size(), 8u);
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  EXPECT_EQ(total, 500u);
}

TEST(DeclusteredFileTest, ExecuteRangeEndToEnd) {
  DeclusteredFile df =
      DeclusteredFile::Create(MakeLoadedFile(16, 400, 4), "hcam", 4).value();
  const auto exec = df.ExecuteRange({0.2, 0.2}, {0.5, 0.5}).value();
  // Metric relationships.
  EXPECT_GT(exec.buckets_touched, 0u);
  EXPECT_GE(exec.response_units, exec.optimal_units);
  EXPECT_LE(exec.response_units, exec.buckets_touched);
  EXPECT_EQ(exec.io.TotalRequests(), exec.buckets_touched);
  EXPECT_GT(exec.io.makespan_ms, 0.0);
  // Matches are exactly the records in range.
  for (RecordId id : exec.matches) {
    const Record& r = df.file().record(id);
    EXPECT_GE(r[0], 0.2);
    EXPECT_LE(r[0], 0.5);
    EXPECT_GE(r[1], 0.2);
    EXPECT_LE(r[1], 0.5);
  }
  // And none are missed.
  uint64_t expected = 0;
  for (RecordId id = 0; id < df.file().num_records(); ++id) {
    const Record& r = df.file().record(id);
    if (r[0] >= 0.2 && r[0] <= 0.5 && r[1] >= 0.2 && r[1] <= 0.5) ++expected;
  }
  EXPECT_EQ(exec.matches.size(), expected);
}

TEST(DeclusteredFileTest, ResponseUnitsMatchStandaloneMetric) {
  DeclusteredFile df =
      DeclusteredFile::Create(MakeLoadedFile(16, 100, 5), "dm", 4).value();
  const auto exec = df.ExecuteRange({0.0, 0.0}, {0.49, 0.49}).value();
  // An 8x8 block of a 16x16 grid under DM with M=4: every residue appears
  // 16 times.
  EXPECT_EQ(exec.buckets_touched, 64u);
  EXPECT_EQ(exec.optimal_units, 16u);
  EXPECT_EQ(exec.response_units, 16u);
}

}  // namespace
}  // namespace griddecl
