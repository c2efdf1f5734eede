#include "griddecl/gridfile/page_store.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "griddecl/common/random.h"
#include "griddecl/gridfile/faulty_env.h"
#include "griddecl/gridfile/storage_env.h"

namespace griddecl {
namespace {

GridFile MakeFile(int num_records, uint64_t seed) {
  Schema schema =
      Schema::Create({{"x", 0.0, 1.0}, {"y", 0.0, 1.0}}).value();
  GridFile f = GridFile::Create(std::move(schema), {4, 4}).value();
  Rng rng(seed);
  for (int i = 0; i < num_records; ++i) {
    EXPECT_TRUE(f.Insert({rng.NextDouble(), rng.NextDouble()}).ok());
  }
  return f;
}

/// Writes a v3 file of `num_records` into `env` as `name`; returns its
/// layout. 168-byte pages -> capacity 8.
FileLayout WriteRelation(StorageEnv* env, const std::string& name,
                         int num_records, uint64_t seed = 1) {
  SaveOptions save;
  save.page_size_bytes = 168;
  const std::string bytes =
      SerializeGridFile(MakeFile(num_records, seed), save).value();
  EXPECT_TRUE(env->WriteFile(name, bytes).ok());
  return ParseFileLayout(bytes).value();
}

TEST(PageStoreTest, GetPageDecodesAndCaches) {
  MemEnv env;
  PageStore store(&env, {});
  const FileLayout layout = WriteRelation(&env, "rel", 64);
  store.RegisterFile("rel", layout);

  PageReadStats stats;
  const PinnedPage first =
      store.GetPage("rel", 0, ReadPolicy{}, &stats).value();
  ASSERT_TRUE(first.valid());
  EXPECT_FALSE(stats.cache_hit);
  EXPECT_EQ(stats.physical_reads, 1u);
  EXPECT_EQ(first.decoded().num_records, layout.PageRecords(0));
  EXPECT_EQ(first.decoded().num_attrs, 2u);
  EXPECT_EQ(first.raw().size(), layout.page_size_bytes);

  PageReadStats again;
  const PinnedPage second =
      store.GetPage("rel", 0, ReadPolicy{}, &again).value();
  EXPECT_TRUE(again.cache_hit);
  EXPECT_EQ(again.physical_reads, 0u);
  // Same shared frame: the decoded columns are reused, not re-decoded.
  EXPECT_EQ(&second.decoded(), &first.decoded());
  EXPECT_EQ(store.PoolStats().hits, 1u);
}

TEST(PageStoreTest, UnknownFileAndPageOutOfRange) {
  MemEnv env;
  PageStore store(&env, {});
  EXPECT_EQ(store.GetPage("nope", 0, ReadPolicy{}).status().code(),
            StatusCode::kNotFound);
  const FileLayout layout = WriteRelation(&env, "rel", 16);
  store.RegisterFile("rel", layout);
  EXPECT_FALSE(store.GetPage("rel", layout.num_pages, ReadPolicy{}).ok());
}

TEST(PageStoreTest, DamagedPageFailsOrReportsPerPolicy) {
  MemEnv env;
  PageStore store(&env, {});
  const FileLayout layout = WriteRelation(&env, "rel", 64);
  store.RegisterFile("rel", layout);
  ASSERT_TRUE(
      env.CorruptByte("rel", layout.PageOffset(2) + 50, 0xFF).ok());

  // Damage reads as kUnavailable so resilience (failover/rebuild) can
  // engage, and the page is never pooled: every read re-observes it.
  for (int i = 0; i < 2; ++i) {
    PageReadStats stats;
    const Status failed =
        store.GetPage("rel", 2, ReadPolicy{}, &stats).status();
    EXPECT_EQ(failed.code(), StatusCode::kUnavailable);
    EXPECT_EQ(failed.message(), "page 2 of 'rel': page checksum mismatch");
    EXPECT_FALSE(stats.cache_hit);
    EXPECT_EQ(stats.physical_reads, 1u);
  }
  EXPECT_EQ(store.PoolStats().admissions, 0u);
}

TEST(PageStoreTest, VerificationHappensOnceAtAdmission) {
  // A page verified at admission is served from cache without
  // re-verification: damage written to the env afterwards is invisible
  // until the cached frame is invalidated.
  MemEnv env;
  PageStore store(&env, {});
  const FileLayout layout = WriteRelation(&env, "rel", 64);
  store.RegisterFile("rel", layout);
  ASSERT_TRUE(store.GetPage("rel", 1, ReadPolicy{}).ok());
  ASSERT_TRUE(
      env.CorruptByte("rel", layout.PageOffset(1) + 30, 0xAA).ok());
  EXPECT_TRUE(store.GetPage("rel", 1, ReadPolicy{}).ok());
  store.Invalidate("rel");
  EXPECT_EQ(store.GetPage("rel", 1, ReadPolicy{}).status().code(),
            StatusCode::kUnavailable);
}

TEST(PageStoreTest, ZeroPoolPagesDisablesCaching) {
  MemEnv env;
  PageStore::Options options;
  options.pool_pages = 0;
  PageStore store(&env, options);
  const FileLayout layout = WriteRelation(&env, "rel", 64);
  store.RegisterFile("rel", layout);
  for (int i = 0; i < 3; ++i) {
    PageReadStats stats;
    ASSERT_TRUE(store.GetPage("rel", 0, ReadPolicy{}, &stats).ok());
    EXPECT_FALSE(stats.cache_hit);
    EXPECT_EQ(stats.physical_reads, 1u);
  }
}

TEST(PageStoreTest, RetriesTransientFaultsDeterministically) {
  MemEnv env;
  const FileLayout layout = WriteRelation(&env, "rel", 64);
  FaultyEnvOptions fault;
  fault.transient_error_prob = 1.0;
  fault.max_transient_attempts = 2;
  auto faulty = FaultyEnv::Create(&env, fault).value();
  PageStore store(faulty.get(), {});
  store.RegisterFile("rel", layout);

  ReadPolicy policy = ServeReadPolicy();  // 4 attempts, short backoff.
  policy.retry.base_ms = 0.01;
  policy.retry.cap_ms = 0.05;
  PageReadStats stats;
  const PinnedPage page =
      store.GetPage("rel", 0, policy, &stats).value();
  EXPECT_TRUE(page.valid());
  EXPECT_EQ(stats.retries, 2u);  // Attempts 1 and 2 fail, 3 succeeds.
  EXPECT_EQ(stats.physical_reads, 1u);

  // Exhausting the budget surfaces the transient as kUnavailable.
  ReadPolicy one_shot = policy;
  one_shot.retry.max_attempts = 1;
  store.Invalidate("rel");
  EXPECT_EQ(store.GetPage("rel", 1, one_shot).status().code(),
            StatusCode::kUnavailable);
}

TEST(PageStoreTest, InterruptAbortsWithCallerStatus) {
  MemEnv env;
  PageStore store(&env, {});
  const FileLayout layout = WriteRelation(&env, "rel", 64);
  store.RegisterFile("rel", layout);
  const InterruptFn interrupt = [] {
    return Status::DeadlineExceeded("deadline expired before read");
  };
  const Status aborted =
      store.GetPage("rel", 0, ReadPolicy{}, nullptr, interrupt).status();
  EXPECT_EQ(aborted.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(aborted.message(), "deadline expired before read");
}

TEST(PageStoreTest, ReadRawMatchesEnvBytes) {
  MemEnv env;
  PageStore store(&env, {});
  const FileLayout layout = WriteRelation(&env, "rel", 64);
  const std::string direct =
      env.ReadAt("rel", layout.PageOffset(0), layout.page_size_bytes)
          .value();
  const std::string raw =
      store
          .ReadRaw("rel", layout.PageOffset(0), layout.page_size_bytes,
                   ReadPolicy{})
          .value();
  EXPECT_EQ(raw, direct);
}

TEST(PageStoreTest, PublishMetricsEmitsAbsoluteTotals) {
  MemEnv env;
  PageStore store(&env, {});
  const FileLayout layout = WriteRelation(&env, "rel", 64);
  store.RegisterFile("rel", layout);
  ASSERT_TRUE(store.GetPage("rel", 0, ReadPolicy{}).ok());
  ASSERT_TRUE(store.GetPage("rel", 0, ReadPolicy{}).ok());

  obs::MetricsRegistry reg;
  store.PublishMetrics(&reg);
  store.PublishMetrics(&reg);  // Re-publishing must not double-count.
  EXPECT_EQ(reg.GetCounter("storage.pool.hits")->value(), 1u);
  EXPECT_EQ(reg.GetCounter("storage.pool.misses")->value(), 1u);
  EXPECT_EQ(reg.GetCounter("storage.pool.admissions")->value(), 1u);
}

}  // namespace
}  // namespace griddecl
