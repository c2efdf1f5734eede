#include "griddecl/gridfile/faulty_env.h"

#include <memory>
#include <string>

#include <gtest/gtest.h>

namespace griddecl {
namespace {

MemEnv SeededEnv() {
  MemEnv env;
  EXPECT_TRUE(env.WriteFile("data", std::string(256, 'a')).ok());
  EXPECT_TRUE(env.WriteFile("other", std::string(64, 'b')).ok());
  return env;
}

TEST(FaultyEnvTest, ValidatesOptions) {
  MemEnv target;
  EXPECT_FALSE(FaultyEnv::Create(nullptr, {}).ok());
  FaultyEnvOptions opts;
  opts.transient_error_prob = 1.5;
  EXPECT_FALSE(FaultyEnv::Create(&target, opts).ok());
  opts = {};
  opts.latency_ms = -1.0;
  EXPECT_FALSE(FaultyEnv::Create(&target, opts).ok());
  opts = {};
  opts.permanent.push_back({"data", 0, 0});  // Empty range.
  EXPECT_FALSE(FaultyEnv::Create(&target, opts).ok());
}

TEST(FaultyEnvTest, CleanOptionsPassReadsThrough) {
  MemEnv target = SeededEnv();
  auto env = FaultyEnv::Create(&target, {}).value();
  EXPECT_EQ(env->ReadAt("data", 8, 4).value(), "aaaa");
  EXPECT_EQ(env->ReadFile("other").value(), std::string(64, 'b'));
  EXPECT_EQ(env->reads_issued(), 1u);
  EXPECT_EQ(env->transient_faults_injected(), 0u);
  EXPECT_EQ(env->permanent_faults_injected(), 0u);
  // No transient faults, no per-site attempt bookkeeping: reads of ever
  // new sites must not grow the env's memory.
  for (uint64_t offset = 0; offset < 64; ++offset) {
    EXPECT_TRUE(env->ReadAt("other", offset, 1).ok());
  }
  EXPECT_EQ(env->attempt_sites(), 0u);
}

TEST(FaultyEnvTest, ReadsCanWaitOnlyWithLatencyOrFaults) {
  MemEnv target = SeededEnv();
  EXPECT_FALSE(FaultyEnv::Create(&target, {}).value()->ReadsCanWait());
  FaultyEnvOptions slow;
  slow.latency_ms = 0.01;
  EXPECT_TRUE(FaultyEnv::Create(&target, slow).value()->ReadsCanWait());
  FaultyEnvOptions flaky;
  flaky.transient_error_prob = 0.1;
  EXPECT_TRUE(FaultyEnv::Create(&target, flaky).value()->ReadsCanWait());
  flaky.max_transient_attempts = 0;  // No attempt can fail.
  EXPECT_FALSE(FaultyEnv::Create(&target, flaky).value()->ReadsCanWait());
  FaultyEnvOptions dead;
  dead.permanent.push_back({"data", 0, 8});
  EXPECT_TRUE(FaultyEnv::Create(&target, dead).value()->ReadsCanWait());

  // Contention latency moves at runtime, and the answer with it.
  auto env = FaultyEnv::Create(&target, {}).value();
  env->SetExtraLatencyMs(0.5);
  EXPECT_TRUE(env->ReadsCanWait());
  env->SetExtraLatencyMs(0.0);
  EXPECT_FALSE(env->ReadsCanWait());
}

TEST(FaultyEnvTest, RemoveRestartsTheTransientScheduleOfTheName) {
  MemEnv target = SeededEnv();
  FaultyEnvOptions opts;
  opts.transient_error_prob = 1.0;
  opts.max_transient_attempts = 2;
  auto env = FaultyEnv::Create(&target, opts).value();
  // Attempts 0 and 1 of every site fail; attempt 2 succeeds.
  const auto walk = [&](const std::string& name) {
    EXPECT_FALSE(env->ReadAt(name, 0, 4).ok());
    EXPECT_FALSE(env->ReadAt(name, 0, 4).ok());
    EXPECT_TRUE(env->ReadAt(name, 0, 4).ok());
  };
  walk("data");
  EXPECT_FALSE(env->ReadAt("data", 32, 4).ok());
  EXPECT_FALSE(env->ReadAt("other", 0, 4).ok());
  EXPECT_EQ(env->attempt_sites(), 3u);

  // The same name rewritten after Remove is a new file: its sites start
  // over at attempt 0. Other files keep their counters.
  ASSERT_TRUE(env->Remove("data").ok());
  EXPECT_EQ(env->attempt_sites(), 1u);
  ASSERT_TRUE(env->WriteFile("data", std::string(256, 'c')).ok());
  walk("data");
  EXPECT_FALSE(env->ReadAt("other", 0, 4).ok());
  EXPECT_TRUE(env->ReadAt("other", 0, 4).ok());
}

TEST(FaultyEnvTest, TransientScheduleIsDeterministicAndBounded) {
  MemEnv target = SeededEnv();
  FaultyEnvOptions opts;
  opts.seed = 7;
  opts.transient_error_prob = 0.5;
  opts.max_transient_attempts = 3;
  auto env = FaultyEnv::Create(&target, opts).value();
  auto env2 = FaultyEnv::Create(&target, opts).value();

  // The pure schedule matches across instances with the same seed, and
  // never fails at or beyond max_transient_attempts.
  for (uint64_t offset = 0; offset < 256; offset += 32) {
    for (uint32_t attempt = 0; attempt < 6; ++attempt) {
      EXPECT_EQ(env->TransientFails("data", offset, attempt),
                env2->TransientFails("data", offset, attempt));
      if (attempt >= opts.max_transient_attempts) {
        EXPECT_FALSE(env->TransientFails("data", offset, attempt));
      }
    }
  }

  // Live reads follow the schedule: reading one site repeatedly walks the
  // attempt counter, so outcomes replay the precomputed schedule in order,
  // and a persistent reader always eventually succeeds.
  uint32_t failures = 0;
  for (uint32_t attempt = 0; attempt < 6; ++attempt) {
    const bool expect_fail = env->TransientFails("data", 32, attempt);
    const Result<std::string> got = env->ReadAt("data", 32, 8);
    EXPECT_EQ(!got.ok(), expect_fail) << "attempt " << attempt;
    if (!got.ok()) {
      failures++;
      EXPECT_EQ(got.status().code(), StatusCode::kUnavailable);
    }
  }
  EXPECT_EQ(env->transient_faults_injected(), failures);
}

TEST(FaultyEnvTest, DifferentSeedsGiveDifferentSchedules) {
  MemEnv target = SeededEnv();
  FaultyEnvOptions a;
  a.seed = 1;
  a.transient_error_prob = 0.5;
  FaultyEnvOptions b = a;
  b.seed = 2;
  auto env_a = FaultyEnv::Create(&target, a).value();
  auto env_b = FaultyEnv::Create(&target, b).value();
  int differing = 0;
  for (uint64_t offset = 0; offset < 2048; offset += 8) {
    if (env_a->TransientFails("data", offset, 0) !=
        env_b->TransientFails("data", offset, 0)) {
      differing++;
    }
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultyEnvTest, PermanentRangesFailOnOverlapOnly) {
  MemEnv target = SeededEnv();
  FaultyEnvOptions opts;
  opts.permanent.push_back({"data", 64, 32});  // [64, 96)
  auto env = FaultyEnv::Create(&target, opts).value();

  EXPECT_TRUE(env->PermanentlyFaulted("data", 64, 32));
  EXPECT_TRUE(env->PermanentlyFaulted("data", 90, 100));
  EXPECT_TRUE(env->PermanentlyFaulted("data", 0, 65));
  EXPECT_FALSE(env->PermanentlyFaulted("data", 0, 64));
  EXPECT_FALSE(env->PermanentlyFaulted("data", 96, 8));
  EXPECT_FALSE(env->PermanentlyFaulted("other", 64, 32));

  // Every retry of a permanently faulted read fails the same way.
  for (int i = 0; i < 4; ++i) {
    const Result<std::string> got = env->ReadAt("data", 80, 8);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kUnavailable);
  }
  EXPECT_EQ(env->permanent_faults_injected(), 4u);
  // Reads outside the range still succeed.
  EXPECT_EQ(env->ReadAt("data", 96, 4).value(), "aaaa");
}

TEST(FaultyEnvTest, MutationsAndMetadataPassThrough) {
  MemEnv target = SeededEnv();
  FaultyEnvOptions opts;
  opts.transient_error_prob = 1.0;  // Even then: only ReadAt is injected.
  opts.max_transient_attempts = 1000;
  auto env = FaultyEnv::Create(&target, opts).value();
  EXPECT_TRUE(env->WriteFile("new", "xyz").ok());
  EXPECT_TRUE(env->Exists("new"));
  EXPECT_EQ(env->ReadFile("new").value(), "xyz");
  EXPECT_TRUE(env->Rename("new", "renamed").ok());
  EXPECT_TRUE(target.Exists("renamed"));
  EXPECT_TRUE(env->Remove("renamed").ok());
  EXPECT_FALSE(target.Exists("renamed"));
  EXPECT_EQ(env->ListFiles().value().size(), target.ListFiles().value().size());
  EXPECT_FALSE(env->ReadAt("data", 0, 8).ok());
}

}  // namespace
}  // namespace griddecl
