#include "griddecl/gridfile/scrub.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "griddecl/common/crc32c.h"
#include "griddecl/common/random.h"
#include "serve_every_relation.h"

namespace griddecl {
namespace {

GridFile MakeFile(int num_records, uint64_t seed) {
  Schema schema = Schema::Create({{"x", 0.0, 1.0}, {"y", 0.0, 1.0}}).value();
  GridFile f = GridFile::Create(std::move(schema), {8, 8}).value();
  Rng rng(seed);
  for (int i = 0; i < num_records; ++i) {
    EXPECT_TRUE(f.Insert({rng.NextDouble(), rng.NextDouble()}).ok());
  }
  return f;
}

/// One-relation catalog saved with the given redundancy; small pages so a
/// relation spans many pages.
MemEnv MakeEnv(RelationRedundancy redundancy, uint64_t seed = 50) {
  Catalog catalog(4);
  EXPECT_TRUE(catalog
                  .AddRelation("r", DeclusteredFile::Create(
                                        MakeFile(120, seed), "dm", 4)
                                        .value())
                  .ok());
  MemEnv env;
  ManifestSaveOptions options;
  options.page_size_bytes = 168;  // 8 records per page -> 15 pages.
  options.default_redundancy = redundancy;
  EXPECT_TRUE(SaveCatalogManifest(catalog, &env, options).ok());
  return env;
}

RelationRedundancy Mirror(uint32_t copies = 2) {
  RelationRedundancy r;
  r.policy = RelationRedundancy::Policy::kMirror;
  r.copies = copies;
  return r;
}

RelationRedundancy Parity(uint32_t group_pages = 4) {
  RelationRedundancy r;
  r.policy = RelationRedundancy::Policy::kParity;
  r.group_pages = group_pages;
  return r;
}

TEST(ScrubTest, CleanCatalogScansClean) {
  MemEnv env = MakeEnv(Mirror());
  const ScrubReport report = ScrubCatalog(&env).value();
  EXPECT_TRUE(report.Clean());
  EXPECT_EQ(report.relations_scanned, 1u);
  EXPECT_EQ(report.relations_clean, 1u);
  EXPECT_EQ(report.pages_scanned, 15u);
  EXPECT_EQ(report.pages_repaired, 0u);
  EXPECT_EQ(report.sidecars_healed, 0u);
}

TEST(ScrubTest, MirrorRepairsDamagedPageBitIdentically) {
  MemEnv env = MakeEnv(Mirror());
  const CatalogManifest m = ReadCurrentManifest(env).value();
  const std::string pristine = env.ReadFile(m.DataFileName(0)).value();
  const FileLayout layout = ParseFileLayout(pristine).value();

  // Smash bytes in two separate pages of the primary.
  ASSERT_TRUE(env.CorruptByte(m.DataFileName(0),
                              layout.PageOffset(2) + 17, 0xFF).ok());
  ASSERT_TRUE(env.CorruptByte(m.DataFileName(0),
                              layout.PageOffset(9) + 60, 0x01).ok());
  EXPECT_FALSE(ServeEveryRelation(env).ok());

  const ScrubReport report = ScrubCatalog(&env).value();
  EXPECT_TRUE(report.Clean());
  EXPECT_EQ(report.relations_repaired, 1u);
  EXPECT_EQ(report.pages_repaired, 2u);
  EXPECT_EQ(report.pages_unrepairable, 0u);
  // Bit-identical restoration.
  EXPECT_EQ(env.ReadFile(m.DataFileName(0)).value(), pristine);
  EXPECT_TRUE(ServeEveryRelation(env).ok());
}

TEST(ScrubTest, ParityRepairsOnePagePerStripe) {
  MemEnv env = MakeEnv(Parity(4));
  const CatalogManifest m = ReadCurrentManifest(env).value();
  const std::string pristine = env.ReadFile(m.DataFileName(0)).value();
  const FileLayout layout = ParseFileLayout(pristine).value();

  // One damaged page in each of three different stripes.
  for (uint64_t page : {1u, 6u, 14u}) {
    ASSERT_TRUE(env.CorruptByte(m.DataFileName(0),
                                layout.PageOffset(page) + 33, 0x80).ok());
  }
  const ScrubReport report = ScrubCatalog(&env).value();
  EXPECT_TRUE(report.Clean());
  EXPECT_EQ(report.pages_repaired, 3u);
  EXPECT_EQ(env.ReadFile(m.DataFileName(0)).value(), pristine);
}

TEST(ScrubTest, ParityCannotRepairTwoPagesInOneStripe) {
  MemEnv env = MakeEnv(Parity(4));
  const CatalogManifest m = ReadCurrentManifest(env).value();
  const std::string pristine = env.ReadFile(m.DataFileName(0)).value();
  const FileLayout layout = ParseFileLayout(pristine).value();

  // Pages 0 and 1 share stripe 0: past parity's single-failure budget.
  ASSERT_TRUE(env.CorruptByte(m.DataFileName(0),
                              layout.PageOffset(0) + 9, 0x40).ok());
  ASSERT_TRUE(env.CorruptByte(m.DataFileName(0),
                              layout.PageOffset(1) + 9, 0x40).ok());
  const ScrubReport report = ScrubCatalog(&env).value();
  EXPECT_FALSE(report.Clean());
  EXPECT_EQ(report.relations_unrepairable, 1u);
  EXPECT_EQ(report.pages_unrepairable, 2u);
  // The damaged primary was NOT overwritten with non-matching bytes, and
  // the query service still refuses to load it: never silently wrong data.
  EXPECT_FALSE(ServeEveryRelation(env).ok());
}

TEST(ScrubTest, UnprotectedCorruptionIsReportedNotRepaired) {
  MemEnv env = MakeEnv(RelationRedundancy{});  // Policy kNone.
  const CatalogManifest m = ReadCurrentManifest(env).value();
  const FileLayout layout =
      ParseFileLayout(env.ReadFile(m.DataFileName(0)).value()).value();
  ASSERT_TRUE(env.CorruptByte(m.DataFileName(0),
                              layout.PageOffset(5) + 12, 0x02).ok());
  const ScrubReport report = ScrubCatalog(&env).value();
  EXPECT_FALSE(report.Clean());
  EXPECT_EQ(report.relations_unrepairable, 1u);
  EXPECT_EQ(report.pages_repaired, 0u);
  EXPECT_FALSE(ServeEveryRelation(env).ok());
}

TEST(ScrubTest, FooterDamageRepairsEvenWithoutRedundancy) {
  // The footer is a pure function of the body, so scrub recomputes it
  // even for an unprotected relation.
  MemEnv env = MakeEnv(RelationRedundancy{});
  const CatalogManifest m = ReadCurrentManifest(env).value();
  const std::string pristine = env.ReadFile(m.DataFileName(0)).value();
  const FileLayout layout = ParseFileLayout(pristine).value();
  ASSERT_TRUE(
      env.CorruptByte(m.DataFileName(0), layout.footer_offset + 7, 0xFF)
          .ok());
  const ScrubReport report = ScrubCatalog(&env).value();
  EXPECT_TRUE(report.Clean());
  ASSERT_EQ(report.relations.size(), 1u);
  EXPECT_TRUE(report.relations[0].footer_rebuilt);
  EXPECT_EQ(env.ReadFile(m.DataFileName(0)).value(), pristine);
}

TEST(ScrubTest, HeaderDamageRepairsFromMirror) {
  MemEnv env = MakeEnv(Mirror());
  const CatalogManifest m = ReadCurrentManifest(env).value();
  const std::string pristine = env.ReadFile(m.DataFileName(0)).value();
  // Smash the magic itself.
  ASSERT_TRUE(env.CorruptByte(m.DataFileName(0), 0, 0xFF).ok());
  const ScrubReport report = ScrubCatalog(&env).value();
  EXPECT_TRUE(report.Clean());
  ASSERT_EQ(report.relations.size(), 1u);
  EXPECT_TRUE(report.relations[0].header_repaired);
  EXPECT_EQ(env.ReadFile(m.DataFileName(0)).value(), pristine);
}

TEST(ScrubTest, HeaderDamageWithoutMirrorIsUnrepairable) {
  MemEnv env = MakeEnv(Parity(4));  // Parity covers pages, not the header.
  const CatalogManifest m = ReadCurrentManifest(env).value();
  ASSERT_TRUE(env.CorruptByte(m.DataFileName(0), 0, 0xFF).ok());
  const ScrubReport report = ScrubCatalog(&env).value();
  EXPECT_FALSE(report.Clean());
  ASSERT_EQ(report.relations.size(), 1u);
  EXPECT_TRUE(report.relations[0].unrepairable);
}

TEST(ScrubTest, DamagedMirrorIsHealedFromPrimary) {
  MemEnv env = MakeEnv(Mirror());
  const CatalogManifest m = ReadCurrentManifest(env).value();
  const std::string mirror_name = m.MirrorFileName(0, 1);
  const std::string pristine = env.ReadFile(mirror_name).value();
  ASSERT_TRUE(env.CorruptByte(mirror_name, 777, 0x11).ok());
  const ScrubReport report = ScrubCatalog(&env).value();
  EXPECT_TRUE(report.Clean());
  EXPECT_EQ(report.relations_clean, 1u);  // Primary was never damaged.
  EXPECT_EQ(report.sidecars_healed, 1u);
  EXPECT_EQ(env.ReadFile(mirror_name).value(), pristine);
}

TEST(ScrubTest, DamagedParitySidecarIsRebuilt) {
  MemEnv env = MakeEnv(Parity(4));
  const CatalogManifest m = ReadCurrentManifest(env).value();
  const std::string parity_name = m.ParityFileName(0);
  const std::string pristine = env.ReadFile(parity_name).value();
  ASSERT_TRUE(env.CorruptByte(parity_name, 10, 0x08).ok());
  const ScrubReport report = ScrubCatalog(&env).value();
  EXPECT_TRUE(report.Clean());
  EXPECT_EQ(report.sidecars_healed, 1u);
  EXPECT_EQ(env.ReadFile(parity_name).value(), pristine);
}

TEST(ScrubTest, MissingPrimaryRestoresFromMirror) {
  MemEnv env = MakeEnv(Mirror());
  const CatalogManifest m = ReadCurrentManifest(env).value();
  const std::string pristine = env.ReadFile(m.DataFileName(0)).value();
  ASSERT_TRUE(env.Remove(m.DataFileName(0)).ok());
  const ScrubReport report = ScrubCatalog(&env).value();
  EXPECT_TRUE(report.Clean());
  EXPECT_EQ(env.ReadFile(m.DataFileName(0)).value(), pristine);
}

TEST(ScrubTest, DryRunDetectsButDoesNotWrite) {
  MemEnv env = MakeEnv(Mirror());
  const CatalogManifest m = ReadCurrentManifest(env).value();
  const FileLayout layout =
      ParseFileLayout(env.ReadFile(m.DataFileName(0)).value()).value();
  ASSERT_TRUE(env.CorruptByte(m.DataFileName(0),
                              layout.PageOffset(3) + 25, 0x04).ok());
  const std::string damaged = env.ReadFile(m.DataFileName(0)).value();
  ScrubOptions options;
  options.repair = false;
  const ScrubReport report = ScrubCatalog(&env, options).value();
  EXPECT_EQ(report.pages_repaired, 1u);  // Would repair...
  EXPECT_EQ(env.ReadFile(m.DataFileName(0)).value(), damaged);  // ...didn't.
}

TEST(ScrubTest, ReportFormatting) {
  MemEnv env = MakeEnv(Mirror());
  const std::string text = FormatScrubReport(ScrubCatalog(&env).value());
  EXPECT_NE(text.find("1 relation(s)"), std::string::npos) << text;
  EXPECT_NE(text.find("catalog verified intact"), std::string::npos) << text;
}

}  // namespace
}  // namespace griddecl
