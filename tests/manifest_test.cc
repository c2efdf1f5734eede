#include "griddecl/gridfile/manifest.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "griddecl/common/bytes.h"
#include "griddecl/common/crc32c.h"
#include "griddecl/common/random.h"
#include "griddecl/methods/registry.h"
#include "griddecl/serve/service.h"

namespace griddecl {
namespace {

DiskParams TestDiskParams() {
  DiskParams p;
  p.avg_seek_ms = 9.5;
  p.rotational_latency_ms = 4.25;
  p.transfer_ms_per_kb = 0.125;
  p.bucket_kb = 16.0;
  p.near_seek_factor = 0.2;
  p.near_gap_buckets = 32;
  return p;
}

GridFile MakeFile(int num_records, uint64_t seed) {
  Schema schema = Schema::Create({{"x", 0.0, 1.0}, {"y", 0.0, 1.0}}).value();
  GridFile f = GridFile::Create(std::move(schema), {8, 8}).value();
  Rng rng(seed);
  for (int i = 0; i < num_records; ++i) {
    EXPECT_TRUE(f.Insert({rng.NextDouble(), rng.NextDouble()}).ok());
  }
  return f;
}

/// A catalog with one relation per registry method (8 disks: a power of
/// two, so every method including ECC is constructible).
Catalog MakeCatalog(uint32_t num_disks = 8) {
  Catalog catalog(num_disks);
  uint64_t seed = 100;
  for (const std::string& method : AllMethodNames()) {
    Result<DeclusteredFile> rel = DeclusteredFile::Create(
        MakeFile(120, seed++), method, num_disks, TestDiskParams());
    EXPECT_TRUE(rel.ok()) << method << ": " << rel.status().ToString();
    if (rel.ok()) {
      EXPECT_TRUE(catalog.AddRelation(method, std::move(rel).value()).ok());
    }
  }
  return catalog;
}

ManifestSaveOptions SmallPages() {
  ManifestSaveOptions options;
  options.page_size_bytes = 168;  // v3: (168 - 8 - 32) / 16 = 8 records per page.
  return options;
}

TEST(ManifestTest, SaveCommitsGenerationOne) {
  const Catalog catalog = MakeCatalog();
  MemEnv env;
  const uint64_t gen = SaveCatalogManifest(catalog, &env, SmallPages()).value();
  EXPECT_EQ(gen, 1u);
  EXPECT_TRUE(env.Exists(kCurrentFileName));
  EXPECT_TRUE(env.Exists(ManifestFileName(1)));

  const CatalogManifest m = ReadCurrentManifest(env).value();
  EXPECT_EQ(m.generation, 1u);
  EXPECT_EQ(m.num_disks, 8u);
  EXPECT_EQ(m.relations.size(), AllMethodNames().size());
  EXPECT_TRUE(VerifyManifestFiles(env, m).ok());
}

TEST(ManifestTest, CatalogRoundTripsThroughEveryMethod) {
  // The property test: for a catalog containing a relation per registry
  // method, save + reload must reproduce bucket placement, record ids,
  // disk assignment, and query responses exactly.
  const Catalog original = MakeCatalog();
  MemEnv env;
  ASSERT_TRUE(SaveCatalogManifest(original, &env, SmallPages()).ok());
  const Catalog loaded = LoadCatalogManifest(env).value();

  EXPECT_EQ(loaded.num_disks(), original.num_disks());
  ASSERT_EQ(loaded.RelationNames(), original.RelationNames());
  const std::vector<double> lo = {0.2, 0.2};
  const std::vector<double> hi = {0.7, 0.7};
  for (const std::string& name : original.RelationNames()) {
    const DeclusteredFile* a = original.Find(name);
    const DeclusteredFile* b = loaded.Find(name);
    ASSERT_NE(b, nullptr) << name;
    EXPECT_EQ(b->method_name(), a->method_name());
    EXPECT_EQ(b->disk_params().avg_seek_ms, a->disk_params().avg_seek_ms);
    EXPECT_EQ(b->disk_params().near_gap_buckets,
              a->disk_params().near_gap_buckets);
    ASSERT_EQ(b->file().num_records(), a->file().num_records()) << name;
    for (RecordId id = 0; id < a->file().num_records(); ++id) {
      EXPECT_EQ(b->file().record(id), a->file().record(id));
      EXPECT_EQ(b->file().BucketOfRecord(id), a->file().BucketOfRecord(id));
      EXPECT_EQ(b->DiskOfRecord(id), a->DiskOfRecord(id)) << name;
    }
    const QueryExecution qa = a->ExecuteRange(lo, hi).value();
    const QueryExecution qb = b->ExecuteRange(lo, hi).value();
    EXPECT_EQ(qb.matches, qa.matches) << name;
    EXPECT_EQ(qb.response_units, qa.response_units) << name;
    EXPECT_EQ(qb.buckets_touched, qa.buckets_touched) << name;
  }
}

TEST(ManifestTest, GenerationsAdvanceAndOldOnesAreCollected) {
  const Catalog catalog = MakeCatalog(4);
  MemEnv env;
  EXPECT_EQ(SaveCatalogManifest(catalog, &env).value(), 1u);
  EXPECT_EQ(SaveCatalogManifest(catalog, &env).value(), 2u);
  // Generation 1 is retained as the rollback target.
  EXPECT_TRUE(env.Exists(ManifestFileName(1)));
  EXPECT_EQ(SaveCatalogManifest(catalog, &env).value(), 3u);
  // Now generation 1 is gone, generation 2 retained.
  EXPECT_FALSE(env.Exists(ManifestFileName(1)));
  EXPECT_FALSE(env.Exists("rel-000001-0.gd"));
  EXPECT_TRUE(env.Exists(ManifestFileName(2)));
  EXPECT_EQ(ReadCurrentManifest(env).value().generation, 3u);
}

TEST(ManifestTest, ManifestRejectsEverySingleByteMutation) {
  const Catalog catalog = MakeCatalog(4);
  MemEnv env;
  ASSERT_TRUE(SaveCatalogManifest(catalog, &env).ok());
  const std::string bytes = env.ReadFile(ManifestFileName(1)).value();
  ASSERT_TRUE(ParseManifest(bytes).ok());
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string copy = bytes;
    copy[pos] = static_cast<char>(copy[pos] ^ 0x04);
    EXPECT_FALSE(ParseManifest(copy).ok()) << "byte " << pos;
  }
  // Truncations and extensions are rejected too.
  EXPECT_FALSE(ParseManifest(bytes.substr(0, bytes.size() / 2)).ok());
  EXPECT_FALSE(ParseManifest(bytes + "x").ok());
  EXPECT_FALSE(ParseManifest("").ok());
}

TEST(ManifestTest, TornCurrentFallsBackToManifestScan) {
  const Catalog catalog = MakeCatalog(4);
  MemEnv env;
  ASSERT_TRUE(SaveCatalogManifest(catalog, &env).ok());
  ASSERT_TRUE(SaveCatalogManifest(catalog, &env).ok());
  // Tear the CURRENT pointer mid-write.
  const std::string current = env.ReadFile(kCurrentFileName).value();
  ASSERT_TRUE(env.TruncateFile(kCurrentFileName, current.size() / 2).ok());
  EXPECT_EQ(ReadCurrentManifest(env).value().generation, 2u);
  // Remove it entirely: scan still lands on the newest intact generation.
  ASSERT_TRUE(env.Remove(kCurrentFileName).ok());
  EXPECT_EQ(ReadCurrentManifest(env).value().generation, 2u);
}

TEST(ManifestTest, EmptyEnvReportsNotFound) {
  MemEnv env;
  EXPECT_EQ(LoadCatalogManifest(env).status().code(), StatusCode::kNotFound);
}

TEST(ManifestTest, CorruptRelationFailsLoadByName) {
  const Catalog catalog = MakeCatalog(4);
  MemEnv env;
  ASSERT_TRUE(SaveCatalogManifest(catalog, &env, SmallPages()).ok());
  const CatalogManifest m = ReadCurrentManifest(env).value();
  // Flip a byte deep inside relation 0's data file.
  ASSERT_TRUE(env.CorruptByte(m.DataFileName(0), 400, 0x20).ok());
  const Result<Catalog> loaded = LoadCatalogManifest(env);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find(m.relations[0].name),
            std::string::npos)
      << loaded.status().ToString();
}

TEST(ManifestTest, MirrorPolicyWritesCopies) {
  const Catalog catalog = MakeCatalog(4);
  MemEnv env;
  ManifestSaveOptions options = SmallPages();
  options.default_redundancy.policy = RelationRedundancy::Policy::kMirror;
  options.default_redundancy.copies = 3;
  ASSERT_TRUE(SaveCatalogManifest(catalog, &env, options).ok());
  const CatalogManifest m = ReadCurrentManifest(env).value();
  for (size_t i = 0; i < m.relations.size(); ++i) {
    const std::string data = env.ReadFile(m.DataFileName(i)).value();
    EXPECT_EQ(env.ReadFile(m.MirrorFileName(i, 1)).value(), data);
    EXPECT_EQ(env.ReadFile(m.MirrorFileName(i, 2)).value(), data);
    EXPECT_FALSE(env.Exists(m.ParityFileName(i)));
  }
  EXPECT_TRUE(VerifyManifestFiles(env, m).ok());
}

TEST(ManifestTest, XorBytesMatchesTheByteLoop) {
  // The word-wide parity XOR against the byte-at-a-time loop it replaced,
  // at lengths around its 8-byte step and at unaligned offsets.
  Rng rng(5);
  for (const size_t length : {0, 13, 168, 4101}) {
    for (size_t offset = 0; offset < 3; ++offset) {
      std::string dst(length + offset, '\0');
      std::string src(length + offset, '\0');
      for (char& c : dst) c = static_cast<char>(rng.NextBelow(256));
      for (char& c : src) c = static_cast<char>(rng.NextBelow(256));
      std::string want = dst;
      for (size_t b = offset; b < want.size(); ++b) {
        want[b] = static_cast<char>(want[b] ^ src[b]);
      }
      XorBytes(dst.data() + offset, src.data() + offset, length);
      EXPECT_EQ(dst, want) << "length " << length << " offset " << offset;
    }
  }
}

TEST(ManifestTest, ParityPolicyWritesXorSidecar) {
  const Catalog catalog = MakeCatalog(4);
  MemEnv env;
  ManifestSaveOptions options = SmallPages();
  options.default_redundancy.policy = RelationRedundancy::Policy::kParity;
  options.default_redundancy.group_pages = 4;
  ASSERT_TRUE(SaveCatalogManifest(catalog, &env, options).ok());
  const CatalogManifest m = ReadCurrentManifest(env).value();
  for (size_t i = 0; i < m.relations.size(); ++i) {
    const std::string data = env.ReadFile(m.DataFileName(i)).value();
    const std::string parity = env.ReadFile(m.ParityFileName(i)).value();
    const FileLayout layout = ParseFileLayout(data).value();
    const uint64_t stripes = (layout.num_pages - 1) / 4 + 1;
    EXPECT_EQ(parity.size(), stripes * layout.page_size_bytes);
    EXPECT_EQ(parity, BuildParityBytes(data, 4).value());
    // XOR property: page 0 equals parity(stripe 0) XOR pages 1..3.
    std::string reconstructed = parity.substr(0, layout.page_size_bytes);
    for (uint64_t q = 1; q < std::min<uint64_t>(4, layout.num_pages); ++q) {
      for (uint32_t b = 0; b < layout.page_size_bytes; ++b) {
        reconstructed[b] ^= data[layout.PageOffset(q) + b];
      }
    }
    EXPECT_EQ(reconstructed,
              data.substr(layout.PageOffset(0), layout.page_size_bytes));
  }
  EXPECT_TRUE(VerifyManifestFiles(env, m).ok());
}

TEST(ManifestTest, PerRelationRedundancyOverrides) {
  const Catalog catalog = MakeCatalog(4);
  MemEnv env;
  ManifestSaveOptions options = SmallPages();
  options.per_relation["dm"].policy = RelationRedundancy::Policy::kMirror;
  ASSERT_TRUE(SaveCatalogManifest(catalog, &env, options).ok());
  const CatalogManifest m = ReadCurrentManifest(env).value();
  for (size_t i = 0; i < m.relations.size(); ++i) {
    const bool is_dm = m.relations[i].name == "dm";
    EXPECT_EQ(m.relations[i].redundancy.policy,
              is_dm ? RelationRedundancy::Policy::kMirror
                    : RelationRedundancy::Policy::kNone);
    EXPECT_EQ(env.Exists(m.MirrorFileName(i, 1)), is_dm);
  }
}

TEST(ManifestTest, StagedGenerationStaysInvisibleUntilCommit) {
  const Catalog catalog = MakeCatalog(4);
  MemEnv env;
  ASSERT_TRUE(SaveCatalogManifest(catalog, &env).ok());
  const uint64_t staged = StageCatalogManifest(catalog, &env).value();
  EXPECT_EQ(staged, 2u);
  // Durable but uncommitted: the files exist, CURRENT still resolves 1,
  // and the recovery scan skips the stage like crashed-save wreckage.
  EXPECT_TRUE(env.Exists(ManifestFileName(2)));
  EXPECT_EQ(ReadCurrentManifest(env).value().generation, 1u);

  EXPECT_TRUE(CommitStagedManifest(&env, 2).ok());
  EXPECT_EQ(ReadCurrentManifest(env).value().generation, 2u);
  // Committing the already-current generation is an idempotent no-op.
  EXPECT_TRUE(CommitStagedManifest(&env, 2).ok());
  // A committed generation can only be retired by GC, never dropped.
  EXPECT_EQ(DropStagedManifest(&env, 2).code(),
            StatusCode::kFailedPrecondition);
}

TEST(ManifestTest, CommitFenceRefusesOvertakenStagedGeneration) {
  const Catalog catalog = MakeCatalog(4);
  MemEnv env;
  ASSERT_TRUE(SaveCatalogManifest(catalog, &env).ok());
  const uint64_t staged = StageCatalogManifest(catalog, &env).value();
  EXPECT_EQ(staged, 2u);
  // A racing committer lands generation 3 (staged generations are visible
  // to NextManifestGeneration, so the racer numbers past the stage).
  EXPECT_EQ(SaveCatalogManifest(catalog, &env).value(), 3u);
  // The fence: flipping CURRENT back onto 2 would silently roll the
  // catalog backwards, so the stale commit must refuse.
  EXPECT_EQ(CommitStagedManifest(&env, 2).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(ReadCurrentManifest(env).value().generation, 3u);
  // The loser's stage is still cleanly droppable.
  EXPECT_TRUE(DropStagedManifest(&env, 2).ok());
  EXPECT_FALSE(env.Exists(ManifestFileName(2)));
  EXPECT_FALSE(env.Exists("rel-000002-0.gd"));
}

TEST(ManifestTest, DropStagedRestoresTheExactFileSet) {
  const Catalog catalog = MakeCatalog(4);
  MemEnv env;
  ASSERT_TRUE(SaveCatalogManifest(catalog, &env).ok());
  const std::vector<std::string> before = env.ListFiles().value();
  const uint64_t staged = StageCatalogManifest(catalog, &env).value();
  EXPECT_GT(env.ListFiles().value().size(), before.size());
  EXPECT_TRUE(DropStagedManifest(&env, staged).ok());
  EXPECT_EQ(env.ListFiles().value(), before);
  EXPECT_TRUE(LoadCatalogManifest(env).ok());
}

TEST(ManifestTest, RollbackToGenerationBypassesTheFence) {
  const Catalog catalog = MakeCatalog(4);
  MemEnv env;
  ASSERT_TRUE(SaveCatalogManifest(catalog, &env).ok());
  ASSERT_TRUE(SaveCatalogManifest(catalog, &env).ok());
  ASSERT_EQ(ReadCurrentManifest(env).value().generation, 2u);
  // Generation 1 survives as the rollback target; the explicit rollback
  // primitive deliberately steps the fence backwards.
  EXPECT_TRUE(RollbackToGeneration(&env, 1).ok());
  EXPECT_EQ(ReadCurrentManifest(env).value().generation, 1u);
  EXPECT_TRUE(LoadCatalogManifest(env).ok());
  // Rolling back onto a generation whose files are gone must refuse.
  EXPECT_FALSE(RollbackToGeneration(&env, 7).ok());
}

/// Interposes on reads to commit new generations mid-load: the first
/// `fire_after` reads of relation files pass through, then the hook runs
/// once before the next relation-file read — simulating a committer whose
/// GC sweeps the resolved generation out from under a slow reader.
class RacingEnv : public StorageEnv {
 public:
  RacingEnv(MemEnv* target, std::function<void()> hook, int fire_after = 0)
      : target_(target), hook_(std::move(hook)), fuse_(fire_after) {}

  Result<std::string> ReadFile(const std::string& name) const override {
    MaybeFire(name);
    return target_->ReadFile(name);
  }
  Status ReadAt(const std::string& name, uint64_t offset,
                std::span<char> out) const override {
    MaybeFire(name);
    return target_->ReadAt(name, offset, out);
  }
  Status WriteFile(const std::string& name, std::string_view data) override {
    return target_->WriteFile(name, data);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return target_->Rename(from, to);
  }
  Status Remove(const std::string& name) override {
    return target_->Remove(name);
  }
  bool Exists(const std::string& name) const override {
    return target_->Exists(name);
  }
  Result<std::vector<std::string>> ListFiles() const override {
    return target_->ListFiles();
  }

 private:
  void MaybeFire(const std::string& name) const {
    if (hook_ == nullptr || name.rfind("rel-", 0) != 0) return;
    if (fuse_-- > 0) return;
    auto hook = std::move(hook_);
    hook_ = nullptr;
    hook();
  }

  MemEnv* target_;
  mutable std::function<void()> hook_;
  mutable int fuse_;
};

TEST(ManifestTest, ConsistentLoadSurvivesConcurrentCommitAndGc) {
  // Regression for the concurrent-generation race: a reader resolves
  // CURRENT = 2, then a committer lands generations 3 and 4 — whose GC
  // retires generation 2's files — before the reader touches them. The
  // plain load fails (checksummed reads can never mix generations); the
  // consistent wrapper — and the query service, which loads through the
  // same retry — re-resolve and retry at the new CURRENT.
  const Catalog catalog = MakeCatalog(4);
  MemEnv env;
  ASSERT_TRUE(SaveCatalogManifest(catalog, &env).ok());
  ASSERT_TRUE(SaveCatalogManifest(catalog, &env).ok());

  // Two commits: each save lands a new generation and its GC retires
  // everything but the new generation and its predecessor — so the
  // generation the racing reader resolved is swept mid-load.
  const auto race = [&catalog, &env] {
    EXPECT_TRUE(SaveCatalogManifest(catalog, &env).ok());
    EXPECT_TRUE(SaveCatalogManifest(catalog, &env).ok());
  };

  {
    RacingEnv racing(&env, race);
    EXPECT_FALSE(LoadCatalogManifest(racing).ok());
    EXPECT_FALSE(env.Exists("rel-000002-0.gd"));  // GC swept the reader's gen.
  }
  {
    RacingEnv racing(&env, race);
    const Result<Catalog> loaded = LoadCatalogManifestConsistent(racing);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded.value().RelationNames(), catalog.RelationNames());
  }
  {
    RacingEnv racing(&env, race);
    const uint64_t resolved = ReadCurrentManifest(env).value().generation;
    serve::ServeOptions options;
    options.num_threads = 1;
    const auto service = serve::QueryService::Create(&racing, options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    const uint64_t current = ReadCurrentManifest(env).value().generation;
    EXPECT_GT(current, resolved);
    EXPECT_EQ(service.value()->generation(), current);
    EXPECT_EQ(service.value()->RelationNames(), catalog.RelationNames());
  }
}

TEST(ManifestTest, InvalidRedundancyRejected) {
  const Catalog catalog = MakeCatalog(4);
  MemEnv env;
  ManifestSaveOptions options;
  options.default_redundancy.policy = RelationRedundancy::Policy::kMirror;
  options.default_redundancy.copies = 1;  // Mirror needs >= 2.
  EXPECT_FALSE(SaveCatalogManifest(catalog, &env, options).ok());
}

ManifestPlacement TestPlacement() {
  ManifestPlacement p;
  p.policy = 2;  // zone_aware
  p.seed = 0x5eedULL;
  p.node_rack = {0, 0, 1, 1};
  p.rack_zone = {0, 1};
  return p;
}

TEST(ManifestTest, PlacementRoundTripsThroughSaveAndLoad) {
  const Catalog catalog = MakeCatalog(4);
  MemEnv env;
  ManifestSaveOptions options;
  options.placement = TestPlacement();
  ASSERT_TRUE(SaveCatalogManifest(catalog, &env, options).ok());

  const CatalogManifest m = ReadCurrentManifest(env).value();
  ASSERT_TRUE(m.placement.has_value());
  EXPECT_EQ(m.placement->policy, 2u);
  EXPECT_EQ(m.placement->seed, 0x5eedULL);
  EXPECT_EQ(m.placement->node_rack, (std::vector<uint32_t>{0, 0, 1, 1}));
  EXPECT_EQ(m.placement->rack_zone, (std::vector<uint32_t>{0, 1}));

  // A save without a placement record clears it.
  ASSERT_TRUE(SaveCatalogManifest(catalog, &env).ok());
  EXPECT_FALSE(ReadCurrentManifest(env).value().placement.has_value());
}

TEST(ManifestTest, PlacementSurvivesStageCommitAndConsistentLoad) {
  const Catalog catalog = MakeCatalog(4);
  MemEnv env;
  ASSERT_TRUE(SaveCatalogManifest(catalog, &env).ok());

  ManifestSaveOptions options;
  options.placement = TestPlacement();
  const uint64_t staged =
      StageCatalogManifest(catalog, &env, options).value();
  // Invisible until commit: the live manifest still has no placement.
  EXPECT_FALSE(ReadCurrentManifest(env).value().placement.has_value());
  ASSERT_TRUE(CommitStagedManifest(&env, staged).ok());

  const CatalogManifest m = ReadCurrentManifest(env).value();
  ASSERT_TRUE(m.placement.has_value());
  EXPECT_EQ(m.placement->node_rack, TestPlacement().node_rack);
  // The consistent-load path parses the same record without complaint.
  EXPECT_TRUE(LoadCatalogManifestConsistent(env).ok());
}

TEST(ManifestTest, MalformedPlacementRecordsRejected) {
  const Catalog catalog = MakeCatalog(4);
  MemEnv env;
  ManifestSaveOptions options;
  options.placement = TestPlacement();
  options.placement->policy = 7;  // no such policy
  EXPECT_FALSE(SaveCatalogManifest(catalog, &env, options).ok() &&
               ParseManifest(env.ReadFile(ManifestFileName(1)).value()).ok());

  // A record whose rack ids overflow the rack table must not parse.
  options.placement = TestPlacement();
  options.placement->node_rack = {0, 0, 9, 1};
  MemEnv env2;
  const Result<uint64_t> gen = SaveCatalogManifest(catalog, &env2, options);
  if (gen.ok()) {
    EXPECT_FALSE(
        ParseManifest(env2.ReadFile(ManifestFileName(1)).value()).ok());
  }
}

uint32_t ManifestVersionWord(const std::string& bytes) {
  uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 4, 4);  // Version follows the magic.
  return version;
}

TEST(ManifestTest, OneLayoutRoundTripsPlacementWithAndWithoutTable) {
  // One manifest layout: whatever the placement record holds, the writer
  // emits the same version word, and the parser takes no other.
  const Catalog catalog = MakeCatalog(4);
  ManifestSaveOptions options;
  MemEnv plain_env;
  ASSERT_TRUE(SaveCatalogManifest(catalog, &plain_env, options).ok());
  options.placement = TestPlacement();
  MemEnv tableless_env;
  ASSERT_TRUE(SaveCatalogManifest(catalog, &tableless_env, options).ok());
  // Repair output: an explicit (copy, disk) -> node table overriding the
  // policy formula.
  options.placement->table_copies = 2;
  options.placement->table_disks = 4;
  options.placement->table = {0, 1, 2, 3, 2, 3, 1, 0};
  MemEnv table_env;
  ASSERT_TRUE(SaveCatalogManifest(catalog, &table_env, options).ok());

  const std::string plain = plain_env.ReadFile(ManifestFileName(1)).value();
  const std::string tableless =
      tableless_env.ReadFile(ManifestFileName(1)).value();
  const std::string with_table =
      table_env.ReadFile(ManifestFileName(1)).value();
  const uint32_t version = ManifestVersionWord(plain);
  EXPECT_EQ(version, 5u);
  EXPECT_EQ(ManifestVersionWord(tableless), version);
  EXPECT_EQ(ManifestVersionWord(with_table), version);

  EXPECT_FALSE(ParseManifest(plain).value().placement.has_value());
  const CatalogManifest no_table = ParseManifest(tableless).value();
  ASSERT_TRUE(no_table.placement.has_value());
  EXPECT_EQ(no_table.placement->node_rack, TestPlacement().node_rack);
  EXPECT_TRUE(no_table.placement->table.empty());
  EXPECT_EQ(no_table.placement->table_copies, 0u);
  EXPECT_EQ(no_table.placement->table_disks, 0u);
  const CatalogManifest table = ParseManifest(with_table).value();
  ASSERT_TRUE(table.placement.has_value());
  EXPECT_EQ(table.placement->table_copies, 2u);
  EXPECT_EQ(table.placement->table_disks, 4u);
  EXPECT_EQ(table.placement->table,
            (std::vector<uint32_t>{0, 1, 2, 3, 2, 3, 1, 0}));
  EXPECT_TRUE(LoadCatalogManifestConsistent(tableless_env).ok());
  EXPECT_TRUE(LoadCatalogManifestConsistent(table_env).ok());

  // Every other version word, each re-CRC'd so only the version check can
  // refuse it: the retired layouts 1-4 and the next one.
  for (const std::string& bytes : {plain, tableless, with_table}) {
    for (uint32_t other : {1u, 2u, 3u, 4u, version + 1}) {
      std::string copy = bytes.substr(0, bytes.size() - 4);
      std::memcpy(copy.data() + 4, &other, 4);
      AppendU32(&copy, Crc32c(copy));
      const Result<CatalogManifest> m = ParseManifest(copy);
      ASSERT_FALSE(m.ok()) << other;
      EXPECT_EQ(m.status().message(),
                "unsupported manifest version " + std::to_string(other));
    }
  }
}

TEST(ManifestTest, PlacementTableNamingUnknownNodeRejected) {
  const Catalog catalog = MakeCatalog(4);
  MemEnv env;
  ManifestSaveOptions options;
  options.placement = TestPlacement();  // 4 nodes.
  options.placement->table_copies = 1;
  options.placement->table_disks = 4;
  options.placement->table = {0, 1, 2, 9};  // No node 9.
  const Result<uint64_t> gen = SaveCatalogManifest(catalog, &env, options);
  if (gen.ok()) {
    EXPECT_FALSE(ParseManifest(env.ReadFile(ManifestFileName(1)).value()).ok());
  }
}

}  // namespace
}  // namespace griddecl
