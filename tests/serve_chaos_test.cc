#include <algorithm>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "griddecl/common/random.h"
#include "griddecl/gridfile/catalog.h"
#include "griddecl/gridfile/declustered_file.h"
#include "griddecl/serve/service.h"

/// Deterministic multi-threaded chaos soak for the query service.
///
/// The determinism contract under test (serve/service.h): with a seeded
/// FaultyEnv, a fixed fault schedule, no deadlines, a queue deep enough
/// not to shed, retries that outlast transients, and breakers pinned open
/// once tripped, per-query *outcomes* (status + matches) are a pure
/// function of the fault schedule — independent of worker count and thread
/// interleaving. Retry/failover counts may vary with interleaving and are
/// deliberately not asserted.

namespace griddecl {
namespace serve {
namespace {

GridFile MakeClusteredFile(uint64_t seed) {
  Schema schema = Schema::Create({{"x", 0.0, 1.0}, {"y", 0.0, 1.0}}).value();
  GridFile f = GridFile::Create(std::move(schema), {4, 4}).value();
  const GridSpec grid = f.grid();
  Rng rng(seed);
  for (uint64_t b = 0; b < grid.num_buckets(); ++b) {
    const BucketCoords c = grid.Delinearize(b);
    for (uint32_t k = 0; k < 8; ++k) {
      const std::vector<double> point = {
          (c[0] + rng.NextDouble()) / 4.0, (c[1] + rng.NextDouble()) / 4.0};
      EXPECT_TRUE(f.Insert(point).ok());
    }
  }
  return f;
}

/// `page_size` 168 gives one bucket per page; 1024 (capacity 61) mixes
/// the records of up to 8 buckets on each page.
void CommitMirrorCatalog(MemEnv* env, uint32_t page_size = 168) {
  Catalog catalog(4);
  ASSERT_TRUE(
      catalog
          .AddRelation("dm", DeclusteredFile::Create(MakeClusteredFile(1),
                                                     "dm", 4)
                                 .value())
          .ok());
  ManifestSaveOptions options;
  options.page_size_bytes = page_size;
  options.default_redundancy.policy = RelationRedundancy::Policy::kMirror;
  options.default_redundancy.copies = 2;
  ASSERT_TRUE(SaveCatalogManifest(catalog, env, options).ok());
}

std::vector<QueryRequest> MakeWorkload(uint64_t seed, int count) {
  std::vector<QueryRequest> queries;
  Rng rng(seed);
  for (int q = 0; q < count; ++q) {
    QueryRequest req;
    req.relation = "dm";
    req.lo.resize(2);
    req.hi.resize(2);
    for (int d = 0; d < 2; ++d) {
      const double a = rng.NextDouble();
      const double b = rng.NextDouble();
      req.lo[d] = std::min(a, b);
      req.hi[d] = std::max(a, b);
    }
    queries.push_back(std::move(req));
  }
  return queries;
}

/// Status code + sorted matches: the schedule-determined part of a result.
struct Outcome {
  StatusCode code;
  std::vector<RecordId> matches;
  bool operator==(const Outcome& o) const {
    return code == o.code && matches == o.matches;
  }
};

/// One full soak run: fresh FaultyEnv (fresh attempt counters), fresh
/// service, all queries submitted up front, outcomes in submit order.
std::vector<Outcome> RunSoak(MemEnv* env, const FaultyEnvOptions& fault,
                             const std::vector<QueryRequest>& queries,
                             uint32_t num_threads,
                             BreakerCounters* breakers = nullptr) {
  auto faulty = FaultyEnv::Create(env, fault).value();
  ServeOptions options;
  options.num_threads = num_threads;
  options.max_queue = static_cast<uint32_t>(queries.size());
  // Retries outlast injected transients: transient reads always succeed
  // within the budget, so only permanent faults surface to outcomes.
  options.read.retry.max_attempts = fault.max_transient_attempts + 2;
  options.read.retry.base_ms = 0.01;
  options.read.retry.cap_ms = 0.1;
  // Breakers trip fast and stay open: one deterministic transition per
  // genuinely dead disk, none from interleaving noise.
  options.breaker.min_events = 4;
  options.breaker.window = 8;
  options.breaker.failure_ratio = 0.5;
  options.breaker.open_ms = 1e18;
  options.seed = 42;
  auto service = QueryService::Create(faulty.get(), options).value();

  std::vector<std::future<QueryResult>> futures;
  for (const QueryRequest& q : queries) {
    futures.push_back(service->Submit(q).value());
  }
  std::vector<Outcome> outcomes;
  for (auto& f : futures) {
    QueryResult r = f.get();
    outcomes.push_back({r.status.code(), std::move(r.matches)});
  }
  EXPECT_TRUE(service->Shutdown().ok());
  if (breakers != nullptr) *breakers = service->BreakerTotals();
  return outcomes;
}

TEST(ServeChaosTest, TransientSoakOutcomesAreThreadCountInvariant) {
  const std::vector<QueryRequest> queries = MakeWorkload(11, 40);
  for (uint32_t page_size : {168u, 1024u}) {
    MemEnv env;
    CommitMirrorCatalog(&env, page_size);
    for (uint64_t fault_seed : {1u, 2u, 3u}) {
      FaultyEnvOptions fault;
      fault.seed = fault_seed;
      fault.transient_error_prob = 0.4;
      fault.max_transient_attempts = 3;

      const std::vector<Outcome> reference = RunSoak(&env, fault, queries, 1);
      // Transients always resolve within the retry budget: every query
      // succeeds, and matches equal the healthy direct answers.
      const std::vector<Outcome> healthy =
          RunSoak(&env, FaultyEnvOptions{}, queries, 1);
      for (size_t q = 0; q < queries.size(); ++q) {
        EXPECT_EQ(reference[q].code, StatusCode::kOk) << "query " << q;
        EXPECT_EQ(reference[q].matches, healthy[q].matches) << "query " << q;
      }
      for (uint32_t threads : {2u, 4u}) {
        for (int run = 0; run < 2; ++run) {
          EXPECT_EQ(RunSoak(&env, fault, queries, threads), reference)
              << "page size " << page_size << " seed " << fault_seed
              << " threads " << threads << " run " << run;
        }
      }
    }
  }
}

TEST(ServeChaosTest, DeadDiskSoakRecoversEverythingAndTripsOneBreaker) {
  MemEnv env;
  CommitMirrorCatalog(&env);
  const std::vector<QueryRequest> queries = MakeWorkload(23, 40);

  // One permanently failed disk layered under the same transient noise.
  FaultyEnvOptions fault;
  fault.seed = 5;
  fault.transient_error_prob = 0.3;
  fault.max_transient_attempts = 3;
  fault.permanent = DiskFaultSchedule(env, "dm", 2).value();

  const std::vector<Outcome> healthy =
      RunSoak(&env, FaultyEnvOptions{}, queries, 1);
  std::vector<Outcome> reference;
  for (uint32_t threads : {1u, 4u}) {
    BreakerCounters breakers;
    const std::vector<Outcome> outcomes =
        RunSoak(&env, fault, queries, threads, &breakers);
    // Every query completes with the correct answer: the dead disk is
    // served by inline mirror failover before the breaker trips and by
    // plan-time reroute after.
    for (size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(outcomes[q].code, StatusCode::kOk)
          << "threads " << threads << " query " << q;
      EXPECT_EQ(outcomes[q].matches, healthy[q].matches)
          << "threads " << threads << " query " << q;
    }
    // Breaker transitions match the injected schedule: exactly one trip
    // (the dead disk), pinned open — no probes, closes, or reopens.
    EXPECT_EQ(breakers.opened, 1u) << "threads " << threads;
    EXPECT_EQ(breakers.half_opened, 0u);
    EXPECT_EQ(breakers.closed, 0u);
    EXPECT_EQ(breakers.reopened, 0u);
    if (threads == 1u) {
      reference = outcomes;
    } else {
      EXPECT_EQ(outcomes, reference) << "outcomes depend on thread count";
    }
  }
}

}  // namespace
}  // namespace serve
}  // namespace griddecl
