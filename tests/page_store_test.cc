#include "griddecl/gridfile/page_store.h"

#include <algorithm>
#include <span>
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

TEST(PageStoreTest, PinOutlivesEvictionOfItsInPlaceFrame) {
  // A pooled v3 page reads its columns straight out of the frame's bytes;
  // a pin keeps those bytes alive after the pool has evicted the frame.
  MemEnv env;
  PageStore::Options options;
  options.pool_pages = 2;
  PageStore store(&env, options);
  const GridFile original = MakeFile(64, 1);
  const FileLayout layout = WriteRelation(&env, "rel", 64);
  store.RegisterFile("rel", layout);
  const PinnedPage pinned = store.GetPage("rel", 3, ReadPolicy{}).value();
  const std::string_view raw = pinned.raw();
  const auto* first = reinterpret_cast<const char*>(
      pinned.decoded().column(0));
  EXPECT_TRUE(first >= raw.data() && first < raw.data() + raw.size());
  for (uint64_t page = 4; page < layout.num_pages; ++page) {
    ASSERT_TRUE(store.GetPage("rel", page, ReadPolicy{}).ok());
  }
  ASSERT_GE(store.PoolStats().evictions, 1u);
  PageReadStats stats;
  ASSERT_TRUE(store.GetPage("rel", 3, ReadPolicy{}, &stats).ok());
  EXPECT_EQ(stats.physical_reads, 1u);  // Evicted: read again.
  const DecodedPage& d = pinned.decoded();
  ASSERT_EQ(d.num_records, 8u);
  for (uint32_t a = 0; a < 2; ++a) {
    for (uint32_t r = 0; r < d.num_records; ++r) {
      EXPECT_EQ(d.column(a)[r], original.record(3 * 8 + r)[a]);
    }
  }
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

/// One GetPages batch of a read sequence.
struct Batch {
  std::string file;
  std::vector<uint64_t> pages;
};

/// Reads every batch either with GetPages (restarted past each failed
/// page) or with one GetPage per page; returns one line per page: its
/// status, and for a served page its first x value.
std::vector<std::string> ReadSequence(PageStore* store,
                                      const std::vector<Batch>& batches,
                                      bool batched, const ReadPolicy& policy,
                                      const InterruptFn& interrupt,
                                      PageReadStats* stats) {
  std::vector<std::string> lines;
  const auto served = [&](const PinnedPage& page) {
    lines.push_back("ok " + std::to_string(page.decoded().column(0)[0]));
  };
  for (const Batch& b : batches) {
    if (!batched) {
      for (const uint64_t page : b.pages) {
        Result<PinnedPage> r =
            store->GetPage(b.file, page, policy, stats, interrupt);
        if (r.ok()) {
          served(r.value());
        } else {
          lines.push_back(r.status().ToString());
        }
      }
      continue;
    }
    for (size_t next = 0; next < b.pages.size();) {
      std::vector<PinnedPage> out;
      const Status st = store->GetPages(
          b.file, std::span<const uint64_t>(b.pages).subspan(next), policy,
          &out, stats, interrupt);
      for (const PinnedPage& page : out) served(page);
      next += out.size();
      if (st.ok()) break;
      lines.push_back(st.ToString());
      ++next;
    }
  }
  return lines;
}

TEST(PageStoreTest, GetPagesMatchesPerPageGetPage) {
  // Twin stores over twin faulty envs read one sequence: one in GetPages
  // batches, one GetPage at a time. The pool (4 pages) is smaller than
  // the sequence, so batches mix hits, misses, promotions and evictions;
  // they also hold a damaged page, an out-of-range page, an unregistered
  // file, transient faults and an interrupt that fires mid-batch. Every
  // per-page outcome and every counter must agree.
  MemEnv base;
  const FileLayout layout = WriteRelation(&base, "rel", 64);  // 8 pages.
  ASSERT_EQ(layout.num_pages, 8u);
  ASSERT_TRUE(
      base.CorruptByte("rel", layout.PageOffset(6) + 50, 0xFF).ok());
  FaultyEnvOptions fault;
  fault.transient_error_prob = 0.3;
  fault.max_transient_attempts = 2;
  auto env_batched = FaultyEnv::Create(&base, fault).value();
  auto env_single = FaultyEnv::Create(&base, fault).value();
  PageStore::Options options;
  options.pool_pages = 4;
  PageStore batched(env_batched.get(), options);
  PageStore single(env_single.get(), options);
  batched.RegisterFile("rel", layout);
  single.RegisterFile("rel", layout);

  ReadPolicy policy = ServeReadPolicy();
  policy.retry.base_ms = 0.01;
  policy.retry.cap_ms = 0.05;
  // Fails calls 30..32 of its owner's interrupt checks, then lets go.
  const auto interrupt_for = [](int* calls) -> InterruptFn {
    return [calls] {
      ++*calls;
      return *calls >= 30 && *calls < 33
                 ? Status::DeadlineExceeded("deadline expired before read")
                 : Status::Ok();
    };
  };
  const std::vector<Batch> batches = {
      {"rel", {0, 0, 1, 1, 2, 2}},
      {"rel", {0, 1, 2, 3, 4, 5, 6, 7}},
      {"nope", {0, 1}},
      {"rel", {2, 3, 8, 0, 1}},
      {"rel", {3, 3, 4, 4, 0, 1, 2, 5}},
      {"rel", {0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3}},
  };
  int batched_calls = 0;
  int single_calls = 0;
  PageReadStats batched_stats;
  PageReadStats single_stats;
  const std::vector<std::string> got =
      ReadSequence(&batched, batches, true, policy,
                   interrupt_for(&batched_calls), &batched_stats);
  const std::vector<std::string> want =
      ReadSequence(&single, batches, false, policy,
                   interrupt_for(&single_calls), &single_stats);
  EXPECT_EQ(got, want);
  EXPECT_EQ(batched_calls, single_calls);
  EXPECT_EQ(batched_stats.physical_reads, single_stats.physical_reads);
  EXPECT_EQ(batched_stats.retries, single_stats.retries);
  EXPECT_EQ(batched_stats.cache_hit, single_stats.cache_hit);
  const BufferPool::Stats b = batched.PoolStats();
  const BufferPool::Stats s = single.PoolStats();
  EXPECT_EQ(b.hits, s.hits);
  EXPECT_EQ(b.misses, s.misses);
  EXPECT_EQ(b.admissions, s.admissions);
  EXPECT_EQ(b.evictions, s.evictions);
  EXPECT_EQ(b.promotions, s.promotions);
  EXPECT_EQ(b.resident, s.resident);

  // The sequence exercised every case it claims to.
  const auto count = [&](const std::string& prefix) {
    return std::count_if(want.begin(), want.end(), [&](const std::string& l) {
      return l.rfind(prefix, 0) == 0;
    });
  };
  EXPECT_GT(count("ok "), 0);
  EXPECT_GT(count("not_found"), 0);
  EXPECT_GT(count("invalid_argument"), 0);
  EXPECT_GT(count("deadline_exceeded"), 0);
  EXPECT_GT(count("unavailable"), 0);
  EXPECT_GT(s.hits, 0u);
  EXPECT_GT(s.evictions, 0u);
  EXPECT_GT(s.promotions, 0u);
  EXPECT_GT(single_stats.retries, 0u);
}

}  // namespace
}  // namespace griddecl
