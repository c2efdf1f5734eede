#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "griddecl/common/crc32c.h"
#include "griddecl/common/random.h"
#include "griddecl/gridfile/manifest.h"
#include "griddecl/gridfile/scrub.h"
#include "serve_every_relation.h"

namespace griddecl {
namespace {

/// Deterministic durability torture: crash the manifest commit protocol at
/// EVERY mutating operation index and corrupt EVERY page of a protected
/// relation. Invariants under test:
///
///   * recovery after a crash at any point lands on a consistent catalog —
///     bit-exactly the previous generation or bit-exactly the new one,
///     never a mix, never a crash;
///   * any single-page corruption of a mirror- or parity-protected
///     relation is repaired bit-identically by scrub;
///   * corruption of an unprotected relation is reported and the query
///     service refuses to load the catalog — damage is never silently
///     absorbed.
///
/// "Loads" means the product read path serves the catalog whole
/// (`ServeEveryRelation`), and a loaded catalog is identified by the
/// fingerprint of its committed generation's files.

GridFile MakeFile(int num_records, uint64_t seed) {
  Schema schema = Schema::Create({{"x", 0.0, 1.0}, {"y", 0.0, 1.0}}).value();
  GridFile f = GridFile::Create(std::move(schema), {8, 8}).value();
  Rng rng(seed);
  for (int i = 0; i < num_records; ++i) {
    EXPECT_TRUE(f.Insert({rng.NextDouble(), rng.NextDouble()}).ok());
  }
  return f;
}

Catalog MakeCatalogA() {
  Catalog c(4);
  EXPECT_TRUE(
      c.AddRelation("alpha", DeclusteredFile::Create(MakeFile(80, 1), "dm", 4)
                                 .value())
          .ok());
  return c;
}

Catalog MakeCatalogB() {
  // A successor state: alpha grew, beta is new.
  Catalog c(4);
  EXPECT_TRUE(
      c.AddRelation("alpha",
                    DeclusteredFile::Create(MakeFile(96, 2), "hcam", 4)
                        .value())
          .ok());
  EXPECT_TRUE(
      c.AddRelation("beta", DeclusteredFile::Create(MakeFile(40, 3), "fx", 4)
                                .value())
          .ok());
  return c;
}

ManifestSaveOptions TortureSaveOptions() {
  ManifestSaveOptions options;
  options.page_size_bytes = 168;  // 8 records per page.
  options.default_redundancy.policy = RelationRedundancy::Policy::kMirror;
  options.default_redundancy.copies = 2;
  options.per_relation["beta"].policy = RelationRedundancy::Policy::kParity;
  options.per_relation["beta"].group_pages = 2;
  return options;
}

/// Content fingerprint of a catalog: relation names, methods, and the
/// CRC of each relation's exact serialized bytes (page size fixed, so
/// equal fingerprints mean equal records, boundaries, and ids).
std::string Fingerprint(const Catalog& catalog) {
  std::string fp = std::to_string(catalog.num_disks());
  SaveOptions save;
  save.page_size_bytes = 168;
  for (const std::string& name : catalog.RelationNames()) {
    const DeclusteredFile* rel = catalog.Find(name);
    fp += "|" + name + ":" + rel->method_name() + ":" +
          std::to_string(Crc32c(SerializeGridFile(rel->file(), save).value()));
  }
  return fp;
}

/// The same fingerprint read off the committed generation in `env`: the
/// manifest's relation names and methods, and the CRC of each data file's
/// bytes as stored. Empty when no manifest or data file can be read.
std::string Fingerprint(const StorageEnv& env) {
  const Result<CatalogManifest> m = ReadCurrentManifest(env);
  if (!m.ok()) return "";
  std::string fp = std::to_string(m.value().num_disks);
  for (size_t i = 0; i < m.value().relations.size(); ++i) {
    const ManifestRelation& rel = m.value().relations[i];
    const Result<std::string> data = env.ReadFile(m.value().DataFileName(i));
    if (!data.ok()) return "";
    fp += "|" + rel.name + ":" + rel.method + ":" +
          std::to_string(Crc32c(data.value()));
  }
  return fp;
}

TEST(TortureTest, CrashAtEveryOperationRecoversConsistently) {
  const Catalog catalog_a = MakeCatalogA();
  const Catalog catalog_b = MakeCatalogB();
  const std::string fp_a = Fingerprint(catalog_a);
  const std::string fp_b = Fingerprint(catalog_b);
  ASSERT_NE(fp_a, fp_b);
  const ManifestSaveOptions options = TortureSaveOptions();

  // Generations 1 and 2 committed cleanly (both hold catalog A). The
  // generation-3 save then has real GC work — deleting generation 1 —
  // so the sweep also hits crash points AFTER the commit.
  MemEnv base;
  ASSERT_EQ(SaveCatalogManifest(catalog_a, &base, options).value(), 1u);
  ASSERT_EQ(SaveCatalogManifest(catalog_a, &base, options).value(), 2u);
  ASSERT_TRUE(base.Exists(ManifestFileName(1)));

  // Count the mutating ops a generation-3 save issues.
  uint64_t total_ops;
  {
    MemEnv scratch = base;
    CrashEnv counter(&scratch, UINT64_MAX, /*seed=*/0);
    ASSERT_TRUE(SaveCatalogManifest(catalog_b, &counter, options).ok());
    total_ops = counter.ops_issued();
  }
  ASSERT_GT(total_ops, 8u);

  int recovered_old = 0;
  int recovered_new = 0;
  for (uint64_t crash_at = 0; crash_at < total_ops; ++crash_at) {
    for (uint64_t seed : {11u, 22u, 33u}) {
      MemEnv env = base;
      CrashEnv crash(&env, crash_at, seed);
      const Result<uint64_t> save =
          SaveCatalogManifest(catalog_b, &crash, options);
      ASSERT_TRUE(crash.crashed());

      // "Reboot": recover from the wreckage through the raw env.
      const Result<CatalogManifest> manifest = ReadCurrentManifest(env);
      ASSERT_TRUE(manifest.ok())
          << "crash_at=" << crash_at << " seed=" << seed << ": "
          << manifest.status().ToString();
      const Status loaded = ServeEveryRelation(env);
      ASSERT_TRUE(loaded.ok())
          << "crash_at=" << crash_at << " seed=" << seed << ": "
          << loaded.ToString();
      const std::string fp = Fingerprint(env);
      // Consistency: exactly the old catalog or exactly the new one.
      ASSERT_TRUE(fp == fp_a || fp == fp_b)
          << "crash_at=" << crash_at << " seed=" << seed;
      if (fp == fp_a) {
        EXPECT_FALSE(save.ok());  // A save that failed must not commit...
        ++recovered_old;
      } else {
        ++recovered_new;
      }
      // Pre-commit crashes leave generation 2; post-commit (mid-GC)
      // crashes leave the fully durable generation 3.
      EXPECT_EQ(manifest.value().generation, fp == fp_a ? 2u : 3u);

      // The wreckage must remain writable: a retried save commits and
      // subsequent recovery sees the new catalog.
      ASSERT_TRUE(SaveCatalogManifest(catalog_b, &env, options).ok())
          << "crash_at=" << crash_at;
      EXPECT_TRUE(ServeEveryRelation(env).ok());
      EXPECT_EQ(Fingerprint(env), fp_b);
    }
  }
  // The sweep must actually exercise both outcomes.
  EXPECT_GT(recovered_old, 0);
  EXPECT_GT(recovered_new, 0);
}

TEST(TortureTest, EveryPageCorruptionOfProtectedRelationRepairs) {
  for (const RelationRedundancy::Policy policy :
       {RelationRedundancy::Policy::kMirror,
        RelationRedundancy::Policy::kParity}) {
    Catalog catalog(4);
    ASSERT_TRUE(catalog
                    .AddRelation("r", DeclusteredFile::Create(
                                          MakeFile(120, 4), "dm", 4)
                                          .value())
                    .ok());
    MemEnv base;
    ManifestSaveOptions options;
    options.page_size_bytes = 168;
    options.default_redundancy.policy = policy;
    options.default_redundancy.group_pages = 4;
    ASSERT_TRUE(SaveCatalogManifest(catalog, &base, options).ok());
    const CatalogManifest m = ReadCurrentManifest(base).value();
    const std::string pristine = base.ReadFile(m.DataFileName(0)).value();
    const FileLayout layout = ParseFileLayout(pristine).value();

    for (uint64_t page = 0; page < layout.num_pages; ++page) {
      for (const uint32_t delta : {0u, 7u, layout.page_size_bytes - 1}) {
        MemEnv env = base;
        ASSERT_TRUE(env.CorruptByte(m.DataFileName(0),
                                    layout.PageOffset(page) + delta, 0xA5)
                        .ok());
        // The query service must refuse the damage (never silently
        // wrong)...
        EXPECT_FALSE(ServeEveryRelation(env).ok())
            << "page " << page << " delta " << delta;
        // ...and scrub must repair it bit-identically.
        const ScrubReport report = ScrubCatalog(&env).value();
        ASSERT_TRUE(report.Clean())
            << RedundancyPolicyName(policy) << " page " << page << " delta "
            << delta << "\n"
            << FormatScrubReport(report);
        EXPECT_EQ(env.ReadFile(m.DataFileName(0)).value(), pristine);
        EXPECT_TRUE(ServeEveryRelation(env).ok());
      }
    }
  }
}

TEST(TortureTest, EveryPageCorruptionOfUnprotectedRelationIsReported) {
  Catalog catalog(4);
  ASSERT_TRUE(catalog
                  .AddRelation("r", DeclusteredFile::Create(
                                        MakeFile(120, 5), "dm", 4)
                                        .value())
                  .ok());
  MemEnv base;
  ManifestSaveOptions options;
  options.page_size_bytes = 168;
  ASSERT_TRUE(SaveCatalogManifest(catalog, &base, options).ok());
  const CatalogManifest m = ReadCurrentManifest(base).value();
  const std::string pristine = base.ReadFile(m.DataFileName(0)).value();
  const FileLayout layout = ParseFileLayout(pristine).value();

  for (uint64_t page = 0; page < layout.num_pages; ++page) {
    MemEnv env = base;
    ASSERT_TRUE(env.CorruptByte(m.DataFileName(0),
                                layout.PageOffset(page) + 13, 0xA5)
                    .ok());
    EXPECT_FALSE(ServeEveryRelation(env).ok()) << page;
    const ScrubReport report = ScrubCatalog(&env).value();
    EXPECT_FALSE(report.Clean()) << page;
    EXPECT_EQ(report.relations_unrepairable, 1u) << page;
    // Still rejected after scrub: the damage was reported, not hidden.
    EXPECT_FALSE(ServeEveryRelation(env).ok()) << page;
  }
}

TEST(TortureTest, ArbitraryByteCorruptionNeverCrashesRecovery) {
  // Flip a byte at a stride of offsets in EVERY file of a committed env
  // (manifest and CURRENT included): recovery must always either load a
  // consistent catalog or reject with a Status — never crash, never
  // return a catalog that disagrees with both known-good states.
  const Catalog catalog = MakeCatalogA();
  const std::string fp_a = Fingerprint(catalog);
  MemEnv base;
  const ManifestSaveOptions options = TortureSaveOptions();
  ASSERT_TRUE(SaveCatalogManifest(catalog, &base, options).ok());

  const std::vector<std::string> all_files = base.ListFiles().value();
  for (const std::string& name : all_files) {
    const size_t size = base.ReadFile(name).value().size();
    for (size_t off = 0; off < size; off += 31) {
      MemEnv env = base;
      ASSERT_TRUE(env.CorruptByte(name, off, 0x55).ok());
      if (ServeEveryRelation(env).ok()) {
        EXPECT_EQ(Fingerprint(env), fp_a) << name << " offset " << off;
      }
      // Scrub likewise must never crash; where it claims success the
      // catalog must load and match.
      const Result<ScrubReport> scrubbed = ScrubCatalog(&env);
      if (scrubbed.ok() && scrubbed.value().Clean()) {
        ASSERT_TRUE(ServeEveryRelation(env).ok())
            << name << " offset " << off;
        EXPECT_EQ(Fingerprint(env), fp_a) << name << " offset " << off;
      }
    }
  }
}

}  // namespace
}  // namespace griddecl
