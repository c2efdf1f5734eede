#include "griddecl/gridfile/catalog.h"

#include <gtest/gtest.h>

#include "griddecl/common/random.h"

namespace griddecl {
namespace {

DeclusteredFile MakeRelation(const char* method, uint32_t partitions,
                             int records, uint64_t seed) {
  Schema schema = Schema::Create({{"x", 0.0, 1.0}, {"y", 0.0, 1.0}}).value();
  GridFile file =
      GridFile::Create(std::move(schema), {partitions, partitions}).value();
  Rng rng(seed);
  for (int i = 0; i < records; ++i) {
    EXPECT_TRUE(file.Insert({rng.NextDouble(), rng.NextDouble()}).ok());
  }
  return DeclusteredFile::Create(std::move(file), method, 8).value();
}

TEST(CatalogTest, AddFind) {
  Catalog catalog(8);
  ASSERT_TRUE(
      catalog.AddRelation("sensors", MakeRelation("hcam", 16, 100, 1)).ok());
  ASSERT_TRUE(
      catalog.AddRelation("events", MakeRelation("dm", 8, 50, 2)).ok());
  EXPECT_NE(catalog.Find("sensors"), nullptr);
  EXPECT_EQ(catalog.Find("nope"), nullptr);
  EXPECT_EQ(catalog.RelationNames(),
            (std::vector<std::string>{"events", "sensors"}));
}

TEST(CatalogTest, Validation) {
  Catalog catalog(8);
  EXPECT_FALSE(
      catalog.AddRelation("", MakeRelation("dm", 8, 1, 1)).ok());
  ASSERT_TRUE(catalog.AddRelation("r", MakeRelation("dm", 8, 1, 1)).ok());
  // Duplicate name.
  EXPECT_FALSE(catalog.AddRelation("r", MakeRelation("dm", 8, 1, 2)).ok());
  // Wrong disk count.
  Schema schema = Schema::Create({{"x", 0.0, 1.0}, {"y", 0.0, 1.0}}).value();
  GridFile file = GridFile::Create(std::move(schema), {8, 8}).value();
  DeclusteredFile four =
      DeclusteredFile::Create(std::move(file), "dm", 4).value();
  EXPECT_FALSE(catalog.AddRelation("other", std::move(four)).ok());
}

TEST(CatalogTest, PerRelationMethodsCoexist) {
  // The paper's recommendation in miniature: each relation declustered by
  // the method fitting its workload, all on one array.
  Catalog catalog(8);
  ASSERT_TRUE(
      catalog.AddRelation("small_lookups", MakeRelation("ecc", 16, 200, 3))
          .ok());
  ASSERT_TRUE(
      catalog.AddRelation("big_scans", MakeRelation("fx", 16, 200, 4)).ok());
  EXPECT_EQ(catalog.RelationNames(),
            (std::vector<std::string>{"big_scans", "small_lookups"}));
  EXPECT_EQ(catalog.Find("big_scans")->method().name(), "FX");
  EXPECT_EQ(catalog.Find("small_lookups")->method().name(), "ECC");
  EXPECT_EQ(catalog.Find("big_scans")->file().num_records(), 200u);
}

}  // namespace
}  // namespace griddecl
