/// Instrumentation-equivalence tests: every subsystem that accepts an
/// observability sink must produce bit-identical primary results with and
/// without one (the "absent registry == true no-op" design rule), and the
/// recorded counters must agree exactly with the result structs they
/// mirror.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "griddecl/common/random.h"
#include "griddecl/eval/evaluator.h"
#include "griddecl/gridfile/scrub.h"
#include "griddecl/gridfile/storage.h"
#include "griddecl/methods/registry.h"
#include "griddecl/obs/metrics.h"
#include "griddecl/query/generator.h"
#include "griddecl/sim/event_sim.h"
#include "griddecl/sim/throughput.h"

namespace griddecl {
namespace {

uint64_t Value(obs::MetricsRegistry& reg, const std::string& name) {
  return reg.GetCounter(name)->value();
}

void ExpectSameEval(const WorkloadEval& a, const WorkloadEval& b) {
  EXPECT_EQ(a.num_queries, b.num_queries);
  EXPECT_EQ(a.num_optimal, b.num_optimal);
  EXPECT_EQ(a.response.count(), b.response.count());
  EXPECT_EQ(a.response.mean(), b.response.mean());
  EXPECT_EQ(a.response.min(), b.response.min());
  EXPECT_EQ(a.response.max(), b.response.max());
  EXPECT_EQ(a.response.variance(), b.response.variance());
  EXPECT_EQ(a.optimal.mean(), b.optimal.mean());
  EXPECT_EQ(a.ratio.mean(), b.ratio.mean());
  EXPECT_EQ(a.additive_deviation.mean(), b.additive_deviation.mean());
  EXPECT_EQ(a.method_name, b.method_name);
  EXPECT_EQ(a.workload_name, b.workload_name);
}

void ExpectSameThroughput(const ThroughputResult& a,
                          const ThroughputResult& b) {
  EXPECT_EQ(a.total_ms, b.total_ms);
  EXPECT_EQ(a.num_queries, b.num_queries);
  EXPECT_EQ(a.mean_latency_ms, b.mean_latency_ms);
  EXPECT_EQ(a.max_latency_ms, b.max_latency_ms);
  EXPECT_EQ(a.disk_busy_ms, b.disk_busy_ms);
  EXPECT_EQ(a.unavailable_queries, b.unavailable_queries);
  EXPECT_EQ(a.transient_retries, b.transient_retries);
  EXPECT_EQ(a.reconstruction_reads, b.reconstruction_reads);
  EXPECT_EQ(a.rerouted_buckets, b.rerouted_buckets);
}

Workload MakeWorkload(const GridSpec& grid, int n, uint64_t seed) {
  QueryGenerator gen(grid);
  Rng rng(seed);
  return gen.SampledPlacements({4, 4}, n, &rng, "w").value();
}

TEST(ObsEquivalenceTest, EvaluatorSerialBitIdentical) {
  const GridSpec grid = GridSpec::Create({32, 32}).value();
  const auto hcam = CreateMethod("hcam", grid, 8).value();
  const Workload w = MakeWorkload(grid, 400, 1);

  const WorkloadEval plain = Evaluator(*hcam).EvaluateWorkload(w);

  obs::MetricsRegistry reg;
  EvalOptions opts;
  opts.metrics = &reg;
  const WorkloadEval metered = Evaluator(*hcam, opts).EvaluateWorkload(w);

  ExpectSameEval(metered, plain);
  EXPECT_EQ(Value(reg, "eval.queries"), plain.num_queries);
  EXPECT_EQ(Value(reg, "eval.fastpath_queries") +
                Value(reg, "eval.generic_queries"),
            plain.num_queries);
  obs::Histogram* response =
      reg.GetHistogram("eval.response_time", {1.0});
  EXPECT_EQ(response->count(), plain.num_queries);
  EXPECT_EQ(response->max(), plain.response.max());
}

TEST(ObsEquivalenceTest, EvaluatorParallelBitIdenticalAndThreadInvariant) {
  const GridSpec grid = GridSpec::Create({32, 32}).value();
  const auto fx = CreateMethod("fx", grid, 8).value();
  const Workload w = MakeWorkload(grid, 600, 2);

  std::vector<uint64_t> bucket_totals;
  for (const uint32_t threads : {2u, 4u}) {
    EvalOptions plain_opts;
    plain_opts.num_threads = threads;
    const WorkloadEval plain = Evaluator(*fx, plain_opts).EvaluateWorkload(w);

    obs::MetricsRegistry reg;
    EvalOptions metered_opts = plain_opts;
    metered_opts.metrics = &reg;
    const WorkloadEval metered =
        Evaluator(*fx, metered_opts).EvaluateWorkload(w);

    ExpectSameEval(metered, plain);
    // Shards merge in slice order: totals are thread-count independent.
    EXPECT_EQ(Value(reg, "eval.queries"), plain.num_queries);
    bucket_totals.push_back(Value(reg, "eval.buckets_scanned"));
  }
  EXPECT_EQ(bucket_totals[0], bucket_totals[1]);
  EXPECT_GT(bucket_totals[0], 0u);
}

TEST(ObsEquivalenceTest, ThroughputHealthyBitIdentical) {
  const GridSpec grid = GridSpec::Create({32, 32}).value();
  const auto hcam = CreateMethod("hcam", grid, 8).value();
  const Workload w = MakeWorkload(grid, 80, 3);

  ThroughputOptions opts;
  opts.concurrency = 4;
  const ThroughputResult plain = SimulateThroughput(*hcam, w, opts).value();

  obs::MetricsRegistry reg;
  opts.metrics = &reg;
  const ThroughputResult metered = SimulateThroughput(*hcam, w, opts).value();

  ExpectSameThroughput(metered, plain);
  EXPECT_EQ(Value(reg, "sim.throughput.admitted_queries"),
            plain.num_queries);
  EXPECT_EQ(Value(reg, "sim.throughput.unavailable_queries"), 0u);
  obs::Histogram* latency =
      reg.GetHistogram("sim.throughput.latency", {1.0});
  EXPECT_EQ(latency->count(), plain.num_queries);
  EXPECT_EQ(latency->max(), plain.max_latency_ms);
  // Per-disk request counts sum to the total request count.
  uint64_t per_disk_sum = 0;
  for (uint32_t d = 0; d < 8; ++d) {
    per_disk_sum +=
        Value(reg, "sim.throughput.disk_requests." + std::to_string(d));
  }
  EXPECT_EQ(per_disk_sum, Value(reg, "sim.throughput.requests"));
  EXPECT_GT(per_disk_sum, 0u);
}

TEST(ObsEquivalenceTest, ThroughputDegradedBitIdentical) {
  const GridSpec grid = GridSpec::Create({32, 32}).value();
  const auto ecc = CreateMethod("ecc", grid, 8).value();
  const Workload w = MakeWorkload(grid, 40, 5);

  FaultSpec spec;
  spec.seed = 7;
  spec.failures = {{2, 0.0}};
  spec.transient_error_prob = 0.1;
  const FaultModel fm = FaultModel::Create(8, spec).value();
  const DegradedPlan plan =
      DegradedPlan::ForEcc(*ecc, fm.terminal_failed()).value();

  ThroughputOptions opts;
  opts.concurrency = 4;
  opts.faults = &fm;
  opts.degraded = &plan;
  const ThroughputResult plain = SimulateThroughput(*ecc, w, opts).value();

  obs::MetricsRegistry reg;
  opts.metrics = &reg;
  const ThroughputResult metered = SimulateThroughput(*ecc, w, opts).value();

  ExpectSameThroughput(metered, plain);
  // Counters mirror the result's availability tallies exactly.
  EXPECT_EQ(Value(reg, "sim.throughput.transient_retries"),
            plain.transient_retries);
  EXPECT_EQ(Value(reg, "sim.throughput.reconstruction_reads"),
            plain.reconstruction_reads);
  EXPECT_EQ(Value(reg, "sim.throughput.rerouted_buckets"),
            plain.rerouted_buckets);
  EXPECT_GT(plain.transient_retries, 0u);
  EXPECT_GT(plain.reconstruction_reads, 0u);
}

TEST(ObsEquivalenceTest, InterleavedDegradedBitIdentical) {
  const GridSpec grid = GridSpec::Create({16, 16}).value();
  const auto hcam = CreateMethod("hcam", grid, 4).value();
  const Workload w = MakeWorkload(grid, 25, 9);

  FaultSpec spec;
  spec.seed = 13;
  spec.transient_error_prob = 0.2;
  const FaultModel fm = FaultModel::Create(4, spec).value();

  ThroughputOptions opts;
  opts.concurrency = 4;
  opts.faults = &fm;
  const ThroughputResult plain = SimulateInterleaved(*hcam, w, opts).value();

  obs::MetricsRegistry reg;
  opts.metrics = &reg;
  const ThroughputResult metered =
      SimulateInterleaved(*hcam, w, opts).value();

  ExpectSameThroughput(metered, plain);
  EXPECT_EQ(Value(reg, "sim.throughput.admitted_queries"),
            plain.num_queries);
  EXPECT_EQ(Value(reg, "sim.throughput.transient_retries"),
            plain.transient_retries);
  EXPECT_GT(plain.transient_retries, 0u);
}

TEST(ObsEquivalenceTest, IoSimulatorBitIdentical) {
  const GridSpec grid = GridSpec::Create({32, 32}).value();
  const auto dm = CreateMethod("dm", grid, 8).value();
  const RangeQuery q =
      RangeQuery::Create(grid,
                         BucketRect::Create({4, 4}, {19, 19}).value())
          .value();

  const ParallelIoSimulator sim(8, DiskParams{});
  const SimResult plain = sim.RunQuery(*dm, q);

  obs::MetricsRegistry reg;
  ParallelIoSimulator metered_sim(8, DiskParams{});
  metered_sim.set_metrics(&reg);
  const SimResult metered = metered_sim.RunQuery(*dm, q);

  EXPECT_EQ(metered.makespan_ms, plain.makespan_ms);
  ASSERT_EQ(metered.per_disk.size(), plain.per_disk.size());
  for (size_t d = 0; d < plain.per_disk.size(); ++d) {
    EXPECT_EQ(metered.per_disk[d].requests, plain.per_disk[d].requests);
    EXPECT_EQ(metered.per_disk[d].busy_ms, plain.per_disk[d].busy_ms);
  }

  EXPECT_EQ(Value(reg, "sim.io.queries"), 1u);
  EXPECT_EQ(Value(reg, "sim.io.requests"), plain.TotalRequests());
  uint64_t per_disk_sum = 0;
  for (uint32_t d = 0; d < 8; ++d) {
    per_disk_sum += Value(reg, "sim.io.disk_requests." + std::to_string(d));
  }
  EXPECT_EQ(per_disk_sum, plain.TotalRequests());
  obs::Histogram* makespan = reg.GetHistogram("sim.io.makespan", {1.0});
  EXPECT_EQ(makespan->count(), 1u);
  EXPECT_EQ(makespan->max(), plain.makespan_ms);
}

// --- Scrub -----------------------------------------------------------------

GridFile MakeGridFile(int num_records, uint64_t seed) {
  Schema schema = Schema::Create({{"x", 0.0, 1.0}, {"y", 0.0, 1.0}}).value();
  GridFile f = GridFile::Create(std::move(schema), {8, 8}).value();
  Rng rng(seed);
  for (int i = 0; i < num_records; ++i) {
    EXPECT_TRUE(f.Insert({rng.NextDouble(), rng.NextDouble()}).ok());
  }
  return f;
}

/// One-relation catalog saved with mirror redundancy, one page damaged —
/// deterministic, so two identically built envs corrupt identically.
MemEnv MakeDamagedMirrorEnv() {
  Catalog catalog(4);
  EXPECT_TRUE(catalog
                  .AddRelation("r", DeclusteredFile::Create(
                                        MakeGridFile(120, 50), "dm", 4)
                                        .value())
                  .ok());
  MemEnv env;
  ManifestSaveOptions options;
  options.page_size_bytes = 168;
  options.default_redundancy.policy = RelationRedundancy::Policy::kMirror;
  options.default_redundancy.copies = 2;
  EXPECT_TRUE(SaveCatalogManifest(catalog, &env, options).ok());

  const CatalogManifest m = ReadCurrentManifest(env).value();
  const std::string bytes = env.ReadFile(m.DataFileName(0)).value();
  const FileLayout layout = ParseFileLayout(bytes).value();
  EXPECT_TRUE(env.CorruptByte(m.DataFileName(0),
                              layout.PageOffset(3) + 21, 0xFF).ok());
  return env;
}

TEST(ObsEquivalenceTest, ScrubBitIdenticalAndCountersMirrorReport) {
  MemEnv plain_env = MakeDamagedMirrorEnv();
  const ScrubReport plain = ScrubCatalog(&plain_env).value();

  MemEnv metered_env = MakeDamagedMirrorEnv();
  obs::MetricsRegistry reg;
  ScrubOptions opts;
  opts.metrics = &reg;
  const ScrubReport metered = ScrubCatalog(&metered_env, opts).value();

  EXPECT_EQ(metered.relations_scanned, plain.relations_scanned);
  EXPECT_EQ(metered.relations_repaired, plain.relations_repaired);
  EXPECT_EQ(metered.pages_scanned, plain.pages_scanned);
  EXPECT_EQ(metered.pages_repaired, plain.pages_repaired);
  EXPECT_EQ(metered.pages_unrepairable, plain.pages_unrepairable);
  EXPECT_EQ(metered.Clean(), plain.Clean());
  ASSERT_EQ(metered.relations.size(), plain.relations.size());
  EXPECT_EQ(metered.relations[0].pages_repaired_mirror,
            plain.relations[0].pages_repaired_mirror);

  EXPECT_EQ(Value(reg, "scrub.pages_scanned"), plain.pages_scanned);
  EXPECT_EQ(Value(reg, "scrub.relations_scanned"), plain.relations_scanned);
  EXPECT_EQ(Value(reg, "scrub.relations_repaired"),
            plain.relations_repaired);
  EXPECT_EQ(Value(reg, "scrub.repairs.mirror"),
            plain.relations[0].pages_repaired_mirror);
  EXPECT_EQ(Value(reg, "scrub.repairs.parity"), 0u);
  EXPECT_EQ(Value(reg, "scrub.pages_unrepairable"), 0u);
  // The repair really happened and was mirror-sourced.
  EXPECT_GT(plain.relations[0].pages_repaired_mirror, 0u);
  EXPECT_EQ(plain.relations[0].pages_repaired,
            plain.relations[0].pages_repaired_mirror +
                plain.relations[0].pages_repaired_parity);
}

TEST(ObsEquivalenceTest, ManifestSaveRecordsCommittedGeneration) {
  Catalog catalog(4);
  ASSERT_TRUE(catalog
                  .AddRelation("r", DeclusteredFile::Create(
                                        MakeGridFile(40, 3), "dm", 4)
                                        .value())
                  .ok());
  MemEnv env;
  obs::MetricsRegistry reg;
  ManifestSaveOptions options;
  options.metrics = &reg;
  ASSERT_TRUE(SaveCatalogManifest(catalog, &env, options).ok());

  EXPECT_EQ(Value(reg, "manifest.generations_committed"), 1u);
  EXPECT_GT(Value(reg, "manifest.files_written"), 0u);
  EXPECT_GT(Value(reg, "manifest.bytes_written"), 0u);
}

}  // namespace
}  // namespace griddecl
