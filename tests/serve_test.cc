#include "griddecl/serve/service.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "griddecl/common/random.h"
#include "griddecl/gridfile/catalog.h"
#include "griddecl/gridfile/declustered_file.h"
#include "griddecl/methods/registry.h"
#include "griddecl/serve/script.h"

namespace griddecl {
namespace serve {
namespace {

/// 4x4 grid, 8 records per bucket inserted bucket by bucket: with
/// 168-byte v3 pages (capacity (168 - 8 - 2*16) / 16 = 8) every storage page holds
/// exactly one bucket — the bucket-clustered layout DiskFaultSchedule
/// requires.
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

/// One-relation catalog ("dm" over 4 disks), committed to `env` with the
/// given redundancy. Returns the in-memory catalog for reference answers.
Catalog CommitCatalog(MemEnv* env, RelationRedundancy redundancy,
                      uint64_t seed = 1) {
  Catalog catalog(4);
  Result<DeclusteredFile> rel =
      DeclusteredFile::Create(MakeClusteredFile(seed), "dm", 4);
  EXPECT_TRUE(rel.ok()) << rel.status().ToString();
  EXPECT_TRUE(catalog.AddRelation("dm", std::move(rel).value()).ok());
  ManifestSaveOptions options;
  options.page_size_bytes = 168;
  options.default_redundancy = redundancy;
  EXPECT_TRUE(SaveCatalogManifest(catalog, env, options).ok());
  return catalog;
}

RelationRedundancy Mirror2() {
  RelationRedundancy r;
  r.policy = RelationRedundancy::Policy::kMirror;
  r.copies = 2;
  return r;
}

RelationRedundancy Parity4() {
  RelationRedundancy r;
  r.policy = RelationRedundancy::Policy::kParity;
  r.group_pages = 4;
  return r;
}

QueryRequest Range(std::vector<double> lo, std::vector<double> hi,
                   double deadline_ms = 0.0) {
  QueryRequest req;
  req.relation = "dm";
  req.lo = std::move(lo);
  req.hi = std::move(hi);
  req.deadline_ms = deadline_ms;
  return req;
}

std::vector<RecordId> Sorted(std::vector<RecordId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(QueryServiceTest, CreateValidatesOptionsAndEnv) {
  MemEnv env;
  EXPECT_FALSE(QueryService::Create(nullptr, {}).ok());
  // No committed catalog in the env.
  EXPECT_FALSE(QueryService::Create(&env, {}).ok());

  CommitCatalog(&env, {});
  ServeOptions bad;
  bad.num_threads = 0;
  EXPECT_FALSE(QueryService::Create(&env, bad).ok());
  bad = {};
  bad.max_queue = 0;
  EXPECT_FALSE(QueryService::Create(&env, bad).ok());
  bad = {};
  bad.read.retry.max_attempts = 0;
  EXPECT_FALSE(QueryService::Create(&env, bad).ok());
  bad = {};
  bad.breaker.failure_ratio = 2.0;
  EXPECT_FALSE(QueryService::Create(&env, bad).ok());
  bad = {};
  bad.drain_deadline_ms = -1.0;
  EXPECT_FALSE(QueryService::Create(&env, bad).ok());

  auto service = QueryService::Create(&env, {}).value();
  EXPECT_EQ(service->num_disks(), 4u);
  EXPECT_EQ(service->RelationNames(), std::vector<std::string>{"dm"});
}

TEST(QueryServiceTest, MatchesDirectStorageReadsExactly) {
  // The regression anchor: null fault model, no deadlines — the service's
  // matches must be identical to the catalog's direct synchronous
  // execution for every query.
  MemEnv env;
  const Catalog catalog = CommitCatalog(&env, {});
  auto service = QueryService::Create(&env, {}).value();

  Rng rng(7);
  for (int q = 0; q < 25; ++q) {
    std::vector<double> lo(2), hi(2);
    for (int d = 0; d < 2; ++d) {
      const double a = rng.NextDouble();
      const double b = rng.NextDouble();
      lo[d] = std::min(a, b);
      hi[d] = std::max(a, b);
    }
    const QueryResult got = service->Execute(Range(lo, hi));
    ASSERT_TRUE(got.status.ok()) << got.status.ToString();
    const QueryExecution want =
        catalog.Find("dm")->ExecuteRange(lo, hi).value();
    EXPECT_EQ(got.matches, Sorted(want.matches)) << "query " << q;
    EXPECT_EQ(got.buckets_touched, want.buckets_touched);
    EXPECT_EQ(got.retries, 0u);
    EXPECT_EQ(got.rerouted_buckets, 0u);
    EXPECT_EQ(got.failover_reads, 0u);
    EXPECT_EQ(got.reconstructed_pages, 0u);
  }
  EXPECT_EQ(service->BreakerTotals().opened, 0u);
}

TEST(QueryServiceTest, ServesANonUniformGridLikeRangeSearch) {
  // Boundaries refined where the data clusters, and records outside the
  // domain, which clamp into the edge cells. The stored header carries
  // the boundaries, so every answer served from pages equals the grid
  // file's own RangeSearch: the full box, sub-boxes, and points.
  std::vector<DomainPartition> parts;
  parts.push_back(
      DomainPartition::FromBoundaries({0.0, 0.02, 0.05, 0.1, 0.5, 1.0})
          .value());
  parts.push_back(
      DomainPartition::FromBoundaries({-5.0, -4.7, -4.0, -1.0, 5.0}).value());
  GridFile file =
      GridFile::CreateWithPartitioner(
          Schema::Create({{"x", 0.0, 1.0}, {"y", -5.0, 5.0}}).value(),
          SpacePartitioner::Create(std::move(parts)).value())
          .value();
  Rng rng(3);
  const auto value_in = [&](double lo, double hi) {
    return lo + (hi - lo) * rng.NextDouble();
  };
  for (int i = 0; i < 300; ++i) {
    const bool clustered = rng.NextBool(0.8);
    ASSERT_TRUE(file.Insert({clustered ? value_in(0.0, 0.1)
                                       : value_in(-0.2, 1.2),
                             clustered ? value_in(-5.0, -4.0)
                                       : value_in(-6.0, 6.0)})
                    .ok());
  }
  Catalog catalog(4);
  ASSERT_TRUE(catalog
                  .AddRelation("nu", DeclusteredFile::Create(std::move(file),
                                                             "hcam", 4)
                                         .value())
                  .ok());
  MemEnv env;
  ManifestSaveOptions save;
  save.page_size_bytes = 168;
  ASSERT_TRUE(SaveCatalogManifest(catalog, &env, save).ok());
  const GridFile& truth = catalog.Find("nu")->file();
  auto service = QueryService::Create(&env, {}).value();

  const auto expect_served = [&](const std::vector<double>& lo,
                                 const std::vector<double>& hi) {
    QueryRequest request;
    request.relation = "nu";
    request.lo = lo;
    request.hi = hi;
    const QueryResult got = service->Execute(std::move(request));
    ASSERT_TRUE(got.status.ok()) << got.status.ToString();
    EXPECT_EQ(got.matches, Sorted(truth.RangeSearch(lo, hi).value()));
    EXPECT_EQ(got.buckets_touched,
              truth.ResolveRange(lo, hi).value().NumBuckets());
  };
  const double inf = std::numeric_limits<double>::infinity();
  expect_served({-inf, -inf}, {inf, inf});
  for (int q = 0; q < 40; ++q) {
    SCOPED_TRACE("query " + std::to_string(q));
    std::vector<double> lo = {value_in(-0.3, 1.3), value_in(-7.0, 7.0)};
    std::vector<double> hi = {value_in(-0.3, 1.3), value_in(-7.0, 7.0)};
    for (int d = 0; d < 2; ++d) {
      if (lo[d] > hi[d]) std::swap(lo[d], hi[d]);
    }
    expect_served(lo, hi);
    const Record& point = truth.record(rng.NextBelow(truth.num_records()));
    expect_served(point, point);
  }
}

TEST(QueryServiceTest, UnknownRelationAndBadQueryFailCleanly) {
  MemEnv env;
  CommitCatalog(&env, {});
  auto service = QueryService::Create(&env, {}).value();
  QueryRequest req = Range({0.0, 0.0}, {1.0, 1.0});
  req.relation = "nope";
  EXPECT_EQ(service->Execute(req).status.code(), StatusCode::kNotFound);
  // Dimension mismatch is surfaced by ResolveRange.
  EXPECT_FALSE(service->Execute(Range({0.0}, {1.0})).status.ok());
}

TEST(QueryServiceTest, ExpiredDeadlineFailsWithDeadlineExceeded) {
  MemEnv env;
  CommitCatalog(&env, {});
  auto service = QueryService::Create(&env, {}).value();
  // 100 ns: expired by the time a worker dequeues it.
  const QueryResult r =
      service->Execute(Range({0.0, 0.0}, {1.0, 1.0}, 0.0001));
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(r.matches.empty());

  // The service default applies when the request carries none.
  ServeOptions options;
  options.default_deadline_ms = 0.0001;
  auto strict = QueryService::Create(&env, options).value();
  EXPECT_EQ(strict->Execute(Range({0.0, 0.0}, {1.0, 1.0})).status.code(),
            StatusCode::kDeadlineExceeded);
  // An explicit generous per-query deadline overrides the default.
  EXPECT_TRUE(
      strict->Execute(Range({0.0, 0.0}, {1.0, 1.0}, 60000.0)).status.ok());
}

TEST(QueryServiceTest, FullQueueShedsWithResourceExhausted) {
  MemEnv env;
  CommitCatalog(&env, {});
  // One slow worker (every read sleeps), a one-slot queue.
  FaultyEnvOptions fault;
  fault.latency_ms = 5.0;
  auto faulty = FaultyEnv::Create(&env, fault).value();
  ServeOptions options;
  options.num_threads = 1;
  options.max_queue = 1;
  auto service = QueryService::Create(faulty.get(), options).value();

  std::vector<std::future<QueryResult>> admitted;
  uint64_t shed = 0;
  for (int i = 0; i < 10; ++i) {
    Result<std::future<QueryResult>> f =
        service->Submit(Range({0.0, 0.0}, {1.0, 1.0}));
    if (f.ok()) {
      admitted.push_back(std::move(f).value());
    } else {
      EXPECT_EQ(f.status().code(), StatusCode::kResourceExhausted);
      shed++;
    }
  }
  // 10 instant submits against a 1-deep queue: most must shed, and
  // everything admitted completes correctly.
  EXPECT_GE(shed, 7u);
  EXPECT_LE(admitted.size(), 3u);
  for (auto& f : admitted) {
    EXPECT_TRUE(f.get().status.ok());
  }
  obs::MetricsRegistry reg;
  service->SnapshotMetrics(&reg);
  EXPECT_EQ(reg.GetCounter("serve.shed")->value(), shed);
  EXPECT_EQ(reg.GetCounter("serve.admitted")->value(), admitted.size());
}

TEST(QueryServiceTest, ShutdownDrainsAndRefusesNewWork) {
  MemEnv env;
  CommitCatalog(&env, {});
  auto service = QueryService::Create(&env, {}).value();
  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(
        service->Submit(Range({0.0, 0.0}, {1.0, 1.0})).value());
  }
  EXPECT_TRUE(service->Shutdown().ok());
  for (auto& f : futures) EXPECT_TRUE(f.get().status.ok());
  // Post-shutdown admission is refused, and Shutdown is idempotent.
  EXPECT_EQ(service->Submit(Range({0.0, 0.0}, {1.0, 1.0})).status().code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE(service->Shutdown().ok());
}

TEST(QueryServiceTest, DrainDeadlineHardFailsRemainingWork) {
  MemEnv env;
  CommitCatalog(&env, {});
  FaultyEnvOptions fault;
  fault.latency_ms = 20.0;  // Each query reads many pages: way past 1 ms.
  auto faulty = FaultyEnv::Create(&env, fault).value();
  ServeOptions options;
  options.num_threads = 1;
  options.max_queue = 16;
  options.drain_deadline_ms = 1.0;
  auto service = QueryService::Create(faulty.get(), options).value();

  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(
        service->Submit(Range({0.0, 0.0}, {1.0, 1.0})).value());
  }
  EXPECT_EQ(service->Shutdown().code(), StatusCode::kDeadlineExceeded);
  // Every future is still fulfilled with a well-formed result: either a
  // completed query or a clean unavailable.
  int failed = 0;
  for (auto& f : futures) {
    const QueryResult r = f.get();
    if (!r.status.ok()) {
      EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
      failed++;
    }
  }
  EXPECT_GE(failed, 1);
}

TEST(QueryServiceTest, MirrorFailoverServesEveryQueryOffADeadDisk) {
  MemEnv env;
  const Catalog catalog = CommitCatalog(&env, Mirror2());
  FaultyEnvOptions fault;
  fault.permanent = DiskFaultSchedule(env, "dm", 2).value();
  ASSERT_FALSE(fault.permanent.empty());
  auto faulty = FaultyEnv::Create(&env, fault).value();
  ServeOptions options;
  options.breaker.min_events = 1000000;  // Pin breakers closed.
  options.breaker.window = 1000000;
  auto service = QueryService::Create(faulty.get(), options).value();

  const std::vector<double> lo = {0.0, 0.0};
  const std::vector<double> hi = {1.0, 1.0};
  const QueryResult r = service->Execute(Range(lo, hi));
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.matches,
            Sorted(catalog.Find("dm")->ExecuteRange(lo, hi).value().matches));
  EXPECT_GT(r.failover_reads, 0u);
  EXPECT_EQ(r.rerouted_buckets, 0u);  // No breaker: inline failover only.
}

TEST(QueryServiceTest, BreakerTripsThenReroutesAroundTheDeadDisk) {
  MemEnv env;
  const Catalog catalog = CommitCatalog(&env, Mirror2());
  FaultyEnvOptions fault;
  fault.permanent = DiskFaultSchedule(env, "dm", 1).value();
  auto faulty = FaultyEnv::Create(&env, fault).value();
  ServeOptions options;
  options.breaker.min_events = 2;
  options.breaker.window = 4;
  options.breaker.failure_ratio = 0.5;
  options.breaker.open_ms = 1e18;  // Once open, stays open.
  auto service = QueryService::Create(faulty.get(), options).value();

  const std::vector<double> lo = {0.0, 0.0};
  const std::vector<double> hi = {1.0, 1.0};
  const std::vector<RecordId> want =
      Sorted(catalog.Find("dm")->ExecuteRange(lo, hi).value().matches);

  // Two queries feed the dead disk's breaker two batch failures (served
  // correctly via inline failover meanwhile).
  for (int i = 0; i < 2; ++i) {
    const QueryResult r = service->Execute(Range(lo, hi));
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.matches, want);
    EXPECT_GT(r.failover_reads, 0u);
  }
  EXPECT_EQ(service->BreakerStateOf(1), BreakerState::kOpen);
  const BreakerCounters totals = service->BreakerTotals();
  EXPECT_EQ(totals.opened, 1u);
  EXPECT_EQ(totals.half_opened, 0u);

  // From now on the planner routes around the disk: replica reads, no
  // failed direct reads, no retries.
  const QueryResult r = service->Execute(Range(lo, hi));
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.matches, want);
  EXPECT_GT(r.rerouted_buckets, 0u);
  EXPECT_EQ(r.failover_reads, 0u);
  EXPECT_EQ(r.retries, 0u);
}

TEST(QueryServiceTest, HalfOpenProbeRecoversARepairedDisk) {
  MemEnv env;
  CommitCatalog(&env, Mirror2());
  // Transient-only faults that exhaust the retry budget: the first
  // max_transient_attempts reads of every site fail, so with a 1-attempt
  // retry policy the first batch fails; later attempts succeed.
  FaultyEnvOptions fault;
  fault.transient_error_prob = 1.0;
  fault.max_transient_attempts = 1;
  auto faulty = FaultyEnv::Create(&env, fault).value();
  ServeOptions options;
  options.read.retry.max_attempts = 1;
  options.breaker.min_events = 1;
  options.breaker.window = 1;
  options.breaker.failure_ratio = 0.5;
  options.breaker.open_ms = 1.0;
  auto service = QueryService::Create(faulty.get(), options).value();

  const std::vector<double> lo = {0.0, 0.0};
  const std::vector<double> hi = {1.0, 1.0};
  // Early queries fail (both copies' first reads of a site fail and the
  // policy never retries), tripping breakers one batch at a time. Every
  // failed attempt advances its site's counter, so queries eventually
  // succeed, and once sites are past max_transient_attempts the half-open
  // probes find healthy disks and close the breakers.
  bool succeeded = false;
  for (int i = 0; i < 100 && !succeeded; ++i) {
    succeeded = service->Execute(Range(lo, hi)).status.ok();
    if (!succeeded) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(succeeded);
  EXPECT_GT(service->BreakerTotals().opened, 0u);

  // Let any still-open breakers run their probe cycle to recovery.
  for (int i = 0; i < 30; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_TRUE(service->Execute(Range(lo, hi)).status.ok());
  }
  const BreakerCounters totals = service->BreakerTotals();
  EXPECT_GT(totals.half_opened, 0u);
  EXPECT_GT(totals.closed, 0u);
  for (uint32_t d = 0; d < 4; ++d) {
    EXPECT_EQ(service->BreakerStateOf(d), BreakerState::kClosed) << d;
  }
}

TEST(QueryServiceTest, ParityReconstructionRebuildsDeadDiskPages) {
  MemEnv env;
  const Catalog catalog = CommitCatalog(&env, Parity4());
  // Group of 4 pages = one grid row = one page per disk under dm, so a
  // single dead disk is always reconstructible from its stripe.
  FaultyEnvOptions fault;
  fault.permanent = DiskFaultSchedule(env, "dm", 3).value();
  auto faulty = FaultyEnv::Create(&env, fault).value();
  ServeOptions options;
  options.breaker.min_events = 1000000;
  options.breaker.window = 1000000;
  auto service = QueryService::Create(faulty.get(), options).value();

  const std::vector<double> lo = {0.0, 0.0};
  const std::vector<double> hi = {1.0, 1.0};
  const QueryResult r = service->Execute(Range(lo, hi));
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.matches,
            Sorted(catalog.Find("dm")->ExecuteRange(lo, hi).value().matches));
  EXPECT_GT(r.reconstructed_pages, 0u);
}

TEST(QueryServiceTest, NoRedundancyMeansDeadDiskQueriesFailCleanly) {
  MemEnv env;
  CommitCatalog(&env, {});
  FaultyEnvOptions fault;
  fault.permanent = DiskFaultSchedule(env, "dm", 0).value();
  auto faulty = FaultyEnv::Create(&env, fault).value();
  auto service = QueryService::Create(faulty.get(), {}).value();
  const QueryResult r = service->Execute(Range({0.0, 0.0}, {1.0, 1.0}));
  EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(r.matches.empty());
  // A query that misses the dead disk still succeeds. Under dm the
  // bucket (cx, cy) lives on disk (cx + cy) mod 4, so single-cell probes
  // split cleanly: cells summing to 0 mod 4 fail, all others succeed.
  for (int cx = 0; cx < 4; ++cx) {
    for (int cy = 0; cy < 4; ++cy) {
      const QueryResult cell = service->Execute(Range(
          {(cx + 0.25) / 4.0, (cy + 0.25) / 4.0},
          {(cx + 0.75) / 4.0, (cy + 0.75) / 4.0}));
      if ((cx + cy) % 4 == 0) {
        EXPECT_EQ(cell.status.code(), StatusCode::kUnavailable)
            << "cell " << cx << "," << cy;
      } else {
        EXPECT_TRUE(cell.status.ok()) << "cell " << cx << "," << cy << ": "
                                      << cell.status.ToString();
      }
    }
  }
}

TEST(QueryServiceTest, SnapshotMetricsPublishesAbsoluteTotals) {
  MemEnv env;
  CommitCatalog(&env, {});
  auto service = QueryService::Create(&env, {}).value();
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(service->Execute(Range({0.0, 0.0}, {1.0, 1.0})).status.ok());
  }
  obs::MetricsRegistry reg;
  service->SnapshotMetrics(&reg);
  service->SnapshotMetrics(&reg);  // Re-snapshot must not double-count.
  // Every kServeCounterNames entry is a counter the snapshot publishes
  // (checked before the lookups below create any).
  const std::string json = reg.ToJson();
  for (const char* name : kServeCounterNames) {
    EXPECT_NE(json.find(std::string("\"serve.") + name + "\""),
              std::string::npos)
        << name;
  }
  EXPECT_EQ(reg.GetCounter("serve.admitted")->value(), 3u);
  EXPECT_EQ(reg.GetCounter("serve.completed")->value(), 3u);
  EXPECT_EQ(reg.GetCounter("serve.failed")->value(), 0u);
  EXPECT_EQ(
      reg.GetHistogram("serve.latency_ms", obs::DefaultLatencyBoundsMs())
          ->count(),
      3u);
  EXPECT_GE(reg.GetGauge("serve.queue.max_depth")->value(), 0.0);
}

TEST(DiskFaultScheduleTest, CoversDataAndMirrorRanges) {
  MemEnv env;
  CommitCatalog(&env, Mirror2());
  const CatalogManifest manifest = ReadCurrentManifest(env).value();
  for (uint32_t disk = 0; disk < 4; ++disk) {
    const std::vector<FaultRange> ranges =
        DiskFaultSchedule(env, "dm", disk).value();
    // 16 pages over 4 disks under dm: 4 data pages + 4 mirror pages.
    EXPECT_EQ(ranges.size(), 8u) << "disk " << disk;
    bool has_data = false;
    bool has_mirror = false;
    for (const FaultRange& r : ranges) {
      EXPECT_EQ(r.length, 168u);
      if (r.file == manifest.DataFileName(0)) has_data = true;
      if (r.file == manifest.MirrorFileName(0, 1)) has_mirror = true;
    }
    EXPECT_TRUE(has_data);
    EXPECT_TRUE(has_mirror);
  }
  EXPECT_EQ(DiskFaultSchedule(env, "nope", 0).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(DiskFaultSchedule(env, "dm", 99).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DiskFaultScheduleTest, RejectsNonClusteredLayouts) {
  // Records inserted round-robin across buckets: pages mix buckets on
  // different disks, so no byte range is attributable to one disk.
  MemEnv env;
  Schema schema = Schema::Create({{"x", 0.0, 1.0}, {"y", 0.0, 1.0}}).value();
  GridFile f = GridFile::Create(std::move(schema), {4, 4}).value();
  Rng rng(3);
  for (int i = 0; i < 128; ++i) {
    EXPECT_TRUE(f.Insert({rng.NextDouble(), rng.NextDouble()}).ok());
  }
  Catalog catalog(4);
  EXPECT_TRUE(
      catalog
          .AddRelation("dm",
                       DeclusteredFile::Create(std::move(f), "dm", 4).value())
          .ok());
  ManifestSaveOptions options;
  options.page_size_bytes = 168;
  ASSERT_TRUE(SaveCatalogManifest(catalog, &env, options).ok());
  EXPECT_EQ(DiskFaultSchedule(env, "dm", 0).status().code(),
            StatusCode::kUnsupported);
}

TEST(QueryServiceTest, DiskFilterPartitionsTheFullAnswer) {
  // The coordinator extension clusters are built on: sub-queries
  // restricted to disjoint primary-disk sets must union to exactly the
  // unrestricted answer, with no overlap.
  MemEnv env;
  const Catalog catalog = CommitCatalog(&env, {});
  auto service = QueryService::Create(&env, {}).value();
  const std::vector<double> lo = {0.1, 0.1};
  const std::vector<double> hi = {0.9, 0.9};
  const std::vector<RecordId> want =
      Sorted(catalog.Find("dm")->ExecuteRange(lo, hi).value().matches);

  std::vector<RecordId> merged;
  for (uint32_t d = 0; d < 4; ++d) {
    QueryRequest sub = Range(lo, hi);
    sub.disks = {d};
    const QueryResult r = service->Execute(sub);
    ASSERT_TRUE(r.status.ok()) << "disk " << d << ": " << r.status.ToString();
    merged.insert(merged.end(), r.matches.begin(), r.matches.end());
  }
  EXPECT_EQ(Sorted(merged), want);

  // Out-of-range disks are request errors, and an empty intersection is a
  // clean empty result, not a failure.
  QueryRequest bad = Range(lo, hi);
  bad.disks = {9};
  EXPECT_EQ(service->Execute(bad).status.code(),
            StatusCode::kInvalidArgument);
}

TEST(QueryServiceTest, ServeCopyPinsEveryReadToOneMirror) {
  MemEnv env;
  const Catalog catalog = CommitCatalog(&env, Mirror2());
  auto service = QueryService::Create(&env, {}).value();
  const std::vector<double> lo = {0.0, 0.0};
  const std::vector<double> hi = {1.0, 1.0};
  const std::vector<RecordId> want =
      Sorted(catalog.Find("dm")->ExecuteRange(lo, hi).value().matches);

  QueryRequest pinned = Range(lo, hi);
  pinned.serve_copy = 1;
  const QueryResult r = service->Execute(pinned);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.matches, want);  // Mirror copies are byte-identical.

  // Pinning past the relation's copies, or on a non-mirrored relation,
  // is a request error.
  pinned.serve_copy = 2;
  EXPECT_EQ(service->Execute(pinned).status.code(),
            StatusCode::kInvalidArgument);
  MemEnv plain_env;
  CommitCatalog(&plain_env, {});
  auto plain = QueryService::Create(&plain_env, {}).value();
  QueryRequest on_plain = Range(lo, hi);
  on_plain.serve_copy = 1;
  EXPECT_EQ(plain->Execute(on_plain).status.code(),
            StatusCode::kInvalidArgument);
}

TEST(QueryServiceTest, GenerationFenceFailsFastOnMismatch) {
  MemEnv env;
  CommitCatalog(&env, {});
  auto service = QueryService::Create(&env, {}).value();
  EXPECT_EQ(service->generation(), 1u);

  QueryRequest fenced = Range({0.0, 0.0}, {1.0, 1.0});
  fenced.expected_generation = 1;  // Matching fence passes.
  EXPECT_TRUE(service->Execute(fenced).status.ok());
  fenced.expected_generation = 2;  // A coordinator one cutover ahead.
  const QueryResult r = service->Execute(fenced);
  EXPECT_EQ(r.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(r.matches.empty());
  fenced.expected_generation = 0;  // Unfenced requests never check.
  EXPECT_TRUE(service->Execute(fenced).status.ok());
}

TEST(QueryServiceTest, ExecuteOnCallerServesSubQueriesLikeTheQueue) {
  MemEnv env;
  const Catalog catalog = CommitCatalog(&env, Mirror2());
  auto service = QueryService::Create(&env, {}).value();
  // The borrowed request's own sub-query fields are replaced, not merged.
  QueryRequest request = Range({0.1, 0.1}, {0.9, 0.9});
  request.disks = {0, 1, 2, 3};
  request.serve_copy = 1;
  request.expected_generation = 7;
  uint64_t admitted = 0;
  for (uint32_t d = 0; d < 4; ++d) {
    for (uint32_t copy = 0; copy < 2; ++copy) {
      const std::vector<uint32_t> disks = {d};
      QueryRequest queued = request;
      queued.disks = disks;
      queued.serve_copy = copy;
      queued.expected_generation = 1;
      const QueryResult want = service->Execute(queued);
      ASSERT_TRUE(want.status.ok()) << want.status.ToString();
      const Result<QueryResult> got =
          service->ExecuteOnCaller(request, SubQuery{disks, copy, 1});
      ASSERT_TRUE(got.ok());
      ASSERT_TRUE(got.value().status.ok()) << got.value().status.ToString();
      EXPECT_EQ(got.value().matches, want.matches) << d << "/" << copy;
      EXPECT_EQ(got.value().buckets_touched, want.buckets_touched);
      admitted += 2;
    }
  }
  // Sub-queries stay strict and fenced on the caller too.
  const std::vector<uint32_t> out_of_range = {9};
  EXPECT_EQ(service->ExecuteOnCaller(request, SubQuery{out_of_range, 0, 0})
                .value()
                .status.code(),
            StatusCode::kInvalidArgument);
  const std::vector<uint32_t> disk0 = {0};
  EXPECT_EQ(service->ExecuteOnCaller(request, SubQuery{disk0, 0, 2})
                .value()
                .status.code(),
            StatusCode::kFailedPrecondition);
  admitted += 2;

  // Both paths share the admission and the accounting.
  obs::MetricsRegistry reg;
  service->SnapshotMetrics(&reg);
  EXPECT_EQ(reg.GetCounter("serve.admitted")->value(), admitted);
  EXPECT_EQ(reg.GetCounter("serve.completed")->value(), admitted - 2);
  EXPECT_EQ(reg.GetCounter("serve.failed")->value(), 2u);
  EXPECT_EQ(reg.GetCounter("serve.generation_fenced")->value(), 1u);

  // Once shutdown began, the caller's path refuses like Submit.
  EXPECT_TRUE(service->Shutdown().ok());
  EXPECT_EQ(service->ExecuteOnCaller(request, SubQuery{disk0, 0, 1})
                .status()
                .code(),
            StatusCode::kUnavailable);
}

TEST(QueryServiceTest, CreateRefusesADataFileTheManifestDoesNotName) {
  // Two relations of one shape: each data file is internally valid (page
  // and footer CRCs pass) and the same size, so only the manifest's
  // whole-file CRC tells them apart.
  MemEnv env;
  Catalog catalog(4);
  for (const auto& [name, seed] :
       {std::pair<const char*, uint64_t>{"a", 1}, {"b", 2}}) {
    ASSERT_TRUE(
        catalog
            .AddRelation(name, DeclusteredFile::Create(
                                   MakeClusteredFile(seed), "dm", 4)
                                   .value())
            .ok());
  }
  ManifestSaveOptions save;
  save.page_size_bytes = 168;
  ASSERT_TRUE(SaveCatalogManifest(catalog, &env, save).ok());
  ASSERT_TRUE(QueryService::Create(&env, {}).ok());

  const CatalogManifest m = ReadCurrentManifest(env).value();
  ASSERT_EQ(m.relations.size(), 2u);
  const std::string first = env.ReadFile(m.DataFileName(0)).value();
  const std::string second = env.ReadFile(m.DataFileName(1)).value();
  ASSERT_EQ(first.size(), second.size());
  ASSERT_NE(first, second);
  ASSERT_TRUE(env.WriteFile(m.DataFileName(0), second).ok());
  ASSERT_TRUE(env.WriteFile(m.DataFileName(1), first).ok());
  const auto swapped = QueryService::Create(&env, {});
  EXPECT_FALSE(swapped.ok());
}

TEST(QueryServiceTest, LoadGenerationLoadsStagedCatalogs) {
  MemEnv env;
  const Catalog catalog = CommitCatalog(&env, {});
  // Stage generation 2 without committing: CURRENT still names 1.
  ManifestSaveOptions save;
  save.page_size_bytes = 168;
  EXPECT_EQ(StageCatalogManifest(catalog, &env, save).value(), 2u);
  EXPECT_EQ(ReadCurrentManifest(env).value().generation, 1u);

  auto current = QueryService::Create(&env, {}).value();
  EXPECT_EQ(current->generation(), 1u);
  const std::shared_ptr<const LoadedGeneration> at2 =
      LoadGeneration(env, 2).value();
  EXPECT_EQ(at2->manifest.generation, 2u);
  auto staged = QueryService::Create(&env, {}, at2).value();
  EXPECT_EQ(staged->generation(), 2u);
  // A service serves the load it is handed: the very relations, shared.
  EXPECT_EQ(staged->relations().at("dm"), at2->relations.at("dm"));
  EXPECT_EQ(LoadGeneration(env, 0).value()->manifest.generation, 1u);

  const QueryRequest full = Range({0.0, 0.0}, {1.0, 1.0});
  const QueryResult a = current->Execute(full);
  const QueryResult b = staged->Execute(full);
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());
  EXPECT_EQ(a.matches, b.matches);

  EXPECT_FALSE(LoadGeneration(env, 9).ok());
}

/// Page size x method. 168-byte pages hold one bucket each; 1024- and
/// 4096-byte pages (capacity 61 and 253) mix the records of up to 8 and 32
/// buckets, which a plan spreads over several (disk, copy) keys.
class QueryServiceLayoutTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, const char*>> {
 protected:
  void SetUp() override {
    const auto [page_size, method] = GetParam();
    Schema schema =
        Schema::Create({{"x", 0.0, 1.0}, {"y", 0.0, 1.0}}).value();
    GridFile f = GridFile::Create(std::move(schema), {8, 8}).value();
    const GridSpec grid = f.grid();
    Rng rng(3);
    for (uint64_t b = 0; b < grid.num_buckets(); ++b) {
      const BucketCoords c = grid.Delinearize(b);
      for (uint32_t k = 0; k < 8; ++k) {
        ASSERT_TRUE(f.Insert({(c[0] + rng.NextDouble()) / 8.0,
                              (c[1] + rng.NextDouble()) / 8.0})
                        .ok());
      }
    }
    Catalog catalog(4);
    ASSERT_TRUE(catalog
                    .AddRelation("dm", DeclusteredFile::Create(
                                           std::move(f), method, 4)
                                           .value())
                    .ok());
    ManifestSaveOptions options;
    options.page_size_bytes = page_size;
    options.default_redundancy = Mirror2();
    ASSERT_TRUE(SaveCatalogManifest(catalog, &env_, options).ok());
    truth_ = std::make_unique<GridFile>(catalog.Find("dm")->file());
    data_file_ = ReadCurrentManifest(env_).value().DataFileName(0);
    const std::string bytes = env_.ReadFile(data_file_).value();
    num_pages_ = ParseFileLayout(bytes).value().num_pages;
    mixed_ = page_size > 168;
  }

  std::vector<RecordId> Truth(const QueryRequest& q) const {
    return truth_->RangeSearch(q.lo, q.hi).value();
  }

  /// The answer must be sorted and free of duplicates.
  static void ExpectSortedUnique(const std::vector<RecordId>& ids) {
    EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end(),
                                   std::greater_equal<RecordId>()) ==
                ids.end());
  }

  MemEnv env_;
  std::unique_ptr<GridFile> truth_;
  std::string data_file_;
  uint64_t num_pages_ = 0;
  bool mixed_ = false;
};

TEST_P(QueryServiceLayoutTest, FullSubAndPinnedQueriesMatchRangeSearch) {
  // The layout is what the parameter says: DiskFaultSchedule refuses
  // exactly the pages that mix buckets of different disks.
  EXPECT_EQ(DiskFaultSchedule(env_, "dm", 0).ok(), !mixed_);
  auto service = QueryService::Create(&env_, {}).value();

  std::vector<QueryRequest> queries = {Range({0.0, 0.0}, {1.0, 1.0})};
  Rng rng(17);
  for (int q = 0; q < 20; ++q) {
    std::vector<double> lo(2), hi(2);
    for (int d = 0; d < 2; ++d) {
      const double a = rng.NextDouble();
      const double b = rng.NextDouble();
      lo[d] = std::min(a, b);
      hi[d] = std::max(a, b);
    }
    queries.push_back(Range(lo, hi));
  }
  for (size_t q = 0; q < queries.size(); ++q) {
    const std::vector<RecordId> want = Truth(queries[q]);
    const QueryResult full = service->Execute(queries[q]);
    ASSERT_TRUE(full.status.ok()) << full.status.ToString();
    EXPECT_EQ(full.matches, want) << "query " << q;

    std::vector<RecordId> merged;
    for (uint32_t d = 0; d < 4; ++d) {
      QueryRequest sub = queries[q];
      sub.disks = {d};
      const QueryResult r = service->Execute(sub);
      ASSERT_TRUE(r.status.ok()) << "disk " << d << ": "
                                 << r.status.ToString();
      ExpectSortedUnique(r.matches);
      merged.insert(merged.end(), r.matches.begin(), r.matches.end());
    }
    std::sort(merged.begin(), merged.end());
    EXPECT_EQ(merged, want) << "query " << q;

    QueryRequest pinned = queries[q];
    pinned.serve_copy = 1;
    const QueryResult r = service->Execute(pinned);
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.matches, want) << "query " << q;
  }

  // The whole-grid query reads every page once per (disk, copy) key whose
  // buckets it holds: on mixed layouts some page is read under two keys,
  // so the gather cannot just concatenate per-page runs.
  const QueryResult whole = service->Execute(queries[0]);
  if (mixed_) {
    EXPECT_GT(whole.pages_read, num_pages_);
  } else {
    EXPECT_EQ(whole.pages_read, num_pages_);
  }
}

TEST_P(QueryServiceLayoutTest, BreakerRefusedDiskReroutesToItsReplica) {
  ServeOptions options;
  options.breaker.min_events = 1;
  options.breaker.window = 1;
  options.breaker.open_ms = 1e18;  // Once open, stays open.
  auto service = QueryService::Create(&env_, options).value();
  // Flips one byte of every data-file (copy 0) page's CRC field; a second
  // call flips it back. A page that fails its CRC reads as kUnavailable,
  // so every copy-0 read fails until the heal below; copy 1 stays healthy.
  const FileLayout layout =
      ParseFileLayout(env_.ReadFile(data_file_).value()).value();
  const auto flip_copy_0 = [&] {
    for (uint64_t page = 0; page < num_pages_; ++page) {
      ASSERT_TRUE(
          env_.CorruptByte(data_file_, layout.PageOffset(page) + 4, 0xFF).ok());
    }
  };
  flip_copy_0();

  // A disk-filtered sub-query is strict: it reads only copy 0, fails, and
  // feeds no breaker.
  const QueryRequest full = Range({0.05, 0.1}, {0.95, 0.8});
  const std::vector<RecordId> want = Truth(full);
  QueryRequest sub = full;
  sub.disks = {2};
  EXPECT_EQ(service->Execute(sub).status.code(), StatusCode::kUnavailable);
  for (uint32_t d = 0; d < 4; ++d) {
    EXPECT_EQ(service->BreakerStateOf(d), BreakerState::kClosed);
  }

  // A whole query inside one of disk 2's buckets fails over to copy 1
  // inline and trips only disk 2's breaker.
  const GridSpec& grid = truth_->grid();
  const auto method =
      CreateMethod(std::get<1>(GetParam()), grid, 4).value();
  uint64_t b = 0;
  while (method->DiskOf(grid.Delinearize(b)) != 2) ++b;
  const BucketCoords on_disk_2 = grid.Delinearize(b);
  const QueryRequest one =
      Range({(on_disk_2[0] + 0.01) / 8.0, (on_disk_2[1] + 0.01) / 8.0},
            {(on_disk_2[0] + 0.99) / 8.0, (on_disk_2[1] + 0.99) / 8.0});
  const QueryResult before = service->Execute(one);
  ASSERT_TRUE(before.status.ok()) << before.status.ToString();
  EXPECT_EQ(before.matches, Truth(one));
  EXPECT_GT(before.failover_reads, 0u);
  ASSERT_EQ(service->BreakerStateOf(2), BreakerState::kOpen);
  for (uint32_t d : {0u, 1u, 3u}) {
    EXPECT_EQ(service->BreakerStateOf(d), BreakerState::kClosed);
  }

  // Copy 0 heals; disk 2's breaker still refuses, so the planner moves its
  // buckets to their copy-1 replicas on other disks.
  flip_copy_0();
  const QueryResult r = service->Execute(full);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.matches, want);
  EXPECT_GT(r.rerouted_buckets, 0u);
  EXPECT_EQ(r.failover_reads, 0u);

  const QueryResult after = service->Execute(one);
  ASSERT_TRUE(after.status.ok()) << after.status.ToString();
  EXPECT_EQ(after.matches, before.matches);
  EXPECT_GT(after.rerouted_buckets, 0u);
  EXPECT_EQ(after.failover_reads, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    PageSizesAndMethods, QueryServiceLayoutTest,
    ::testing::Combine(::testing::Values(168u, 1024u, 4096u),
                       ::testing::Values("hcam", "dm")),
    [](const ::testing::TestParamInfo<QueryServiceLayoutTest::ParamType>&
           info) {
      return std::string(std::get<1>(info.param)) + "_" +
             std::to_string(std::get<0>(info.param));
    });

/// Pages of `truth` (records in id order, `capacity` per page) that hold
/// one bucket and whose records all lie in the closed box [lo, hi]: the
/// pages a query over that box takes whole by zone-map accept.
uint64_t PagesInsideBox(const GridFile& truth, uint32_t capacity,
                        const std::vector<double>& lo,
                        const std::vector<double>& hi) {
  uint64_t inside = 0;
  for (RecordId first = 0; first < truth.num_records(); first += capacity) {
    const RecordId end =
        std::min<RecordId>(first + capacity, truth.num_records());
    bool one_bucket = true;
    bool all_in = true;
    for (RecordId id = first; id < end; ++id) {
      one_bucket = one_bucket &&
                   truth.BucketOfRecord(id) == truth.BucketOfRecord(first);
      for (size_t a = 0; a < lo.size(); ++a) {
        const double v = truth.record(id)[a];
        all_in = all_in && lo[a] <= v && v <= hi[a];
      }
    }
    if (one_bucket && all_in) ++inside;
  }
  return inside;
}

TEST(QueryServiceTest, ZoneMapAcceptMatchesColumnFilter) {
  // "dm" is bucket-clustered: every 8-record page holds one bucket.
  // "arrival" holds records inserted in random order, so its pages mix
  // buckets of different disks and only the per-record owner check may
  // decide which (disk, copy) read returns a record; its 125 pages also
  // make a disk's run longer than one batched read. Boxes are the exact
  // bounding box of one or two pages (a record on each closed edge), the
  // same box nudged one ulp inward (the page straddles it), the whole
  // domain, and random boxes.
  MemEnv env;
  Catalog catalog(4);
  ASSERT_TRUE(catalog
                  .AddRelation("dm", DeclusteredFile::Create(
                                         MakeClusteredFile(1), "dm", 4)
                                         .value())
                  .ok());
  {
    Schema schema =
        Schema::Create({{"x", 0.0, 1.0}, {"y", 0.0, 1.0}}).value();
    GridFile f = GridFile::Create(std::move(schema), {4, 4}).value();
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_TRUE(f.Insert({rng.NextDouble(), rng.NextDouble()}).ok());
    }
    ASSERT_TRUE(
        catalog
            .AddRelation("arrival",
                         DeclusteredFile::Create(std::move(f), "dm", 4)
                             .value())
            .ok());
  }
  ManifestSaveOptions options;
  options.page_size_bytes = 168;  // Capacity 8.
  ASSERT_TRUE(SaveCatalogManifest(catalog, &env, options).ok());
  auto service = QueryService::Create(&env, {}).value();
  constexpr uint32_t kCapacity = 8;

  for (const std::string name : {"dm", "arrival"}) {
    const GridFile& truth = catalog.Find(name)->file();
    const uint64_t num_pages = truth.num_records() / kCapacity;
    // Bounding box of pages [first, last].
    const auto page_box = [&](uint64_t first, uint64_t last) {
      std::vector<double> lo = truth.record(first * kCapacity);
      std::vector<double> hi = lo;
      for (RecordId id = first * kCapacity; id < (last + 1) * kCapacity;
           ++id) {
        for (size_t a = 0; a < 2; ++a) {
          lo[a] = std::min(lo[a], truth.record(id)[a]);
          hi[a] = std::max(hi[a], truth.record(id)[a]);
        }
      }
      return std::make_pair(lo, hi);
    };
    std::vector<std::pair<std::vector<double>, std::vector<double>>> boxes =
        {{{0.0, 0.0}, {1.0, 1.0}}};
    for (uint64_t page = 0; page < num_pages; page += 3) {
      boxes.push_back(page_box(page, page));
      boxes.push_back(page_box(page, std::min(page + 1, num_pages - 1)));
      auto [lo, hi] = page_box(page, page);
      lo[0] = std::nextafter(lo[0], 2.0);
      hi[1] = std::nextafter(hi[1], -1.0);
      if (lo[0] <= hi[0] && lo[1] <= hi[1]) boxes.push_back({lo, hi});
    }
    Rng rng(11);
    for (int q = 0; q < 10; ++q) {
      std::vector<double> lo(2), hi(2);
      for (int d = 0; d < 2; ++d) {
        const double a = rng.NextDouble();
        const double b = rng.NextDouble();
        lo[d] = std::min(a, b);
        hi[d] = std::max(a, b);
      }
      boxes.push_back({lo, hi});
    }

    uint64_t accepted = 0;
    for (size_t i = 0; i < boxes.size(); ++i) {
      QueryRequest q = Range(boxes[i].first, boxes[i].second);
      q.relation = name;
      const std::vector<RecordId> want =
          Sorted(truth.RangeSearch(q.lo, q.hi).value());
      const uint64_t inside =
          PagesInsideBox(truth, kCapacity, q.lo, q.hi);
      const QueryResult full = service->Execute(q);
      ASSERT_TRUE(full.status.ok()) << full.status.ToString();
      EXPECT_EQ(full.matches, want) << name << " box " << i;
      EXPECT_EQ(full.zone_map_accepts, inside) << name << " box " << i;
      accepted += full.zone_map_accepts;

      std::vector<RecordId> merged;
      uint64_t sub_accepts = 0;
      for (uint32_t d = 0; d < 4; ++d) {
        QueryRequest sub = q;
        sub.disks = {d};
        const QueryResult r = service->Execute(sub);
        ASSERT_TRUE(r.status.ok()) << r.status.ToString();
        merged.insert(merged.end(), r.matches.begin(), r.matches.end());
        sub_accepts += r.zone_map_accepts;
      }
      std::sort(merged.begin(), merged.end());
      EXPECT_EQ(merged, want) << name << " box " << i;
      EXPECT_EQ(sub_accepts, inside) << name << " box " << i;
    }
    if (name == "dm") {
      EXPECT_GT(accepted, boxes.size()) << "edge-touching pages accepted";
    } else {
      // Most arrival-order pages mix buckets; the whole-domain box holds
      // every one of them, and none may be taken whole.
      EXPECT_LT(PagesInsideBox(truth, kCapacity, {0.0, 0.0}, {1.0, 1.0}),
                num_pages / 2);
    }
  }
}

TEST(ServeTest, SubQueryAnswersAscendOnAnArrivalOrderRelation) {
  // Records inserted in random order: nearly every page mixes buckets of
  // several disks, so a sub-query naming several disks reads such a page
  // under more than one (disk, copy) key and its per-page id runs
  // overlap. The answer must still be strictly ascending: the cluster
  // gather merges sub-answers on that promise.
  Schema schema = Schema::Create({{"x", 0.0, 1.0}, {"y", 0.0, 1.0}}).value();
  GridFile f = GridFile::Create(std::move(schema), {4, 4}).value();
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(f.Insert({rng.NextDouble(), rng.NextDouble()}).ok());
  }
  Catalog catalog(4);
  ASSERT_TRUE(catalog
                  .AddRelation("dm", DeclusteredFile::Create(std::move(f),
                                                             "dm", 4)
                                         .value())
                  .ok());
  MemEnv env;
  ManifestSaveOptions options;
  options.page_size_bytes = 168;  // Capacity 8: 125 pages.
  options.default_redundancy = Mirror2();
  ASSERT_TRUE(SaveCatalogManifest(catalog, &env, options).ok());
  auto service = QueryService::Create(&env, {}).value();
  const DeclusteredFile& truth = *catalog.Find("dm");

  const std::vector<std::vector<uint32_t>> subsets = {
      {0, 1, 2, 3}, {0, 2}, {1, 2, 3}, {3}};
  for (const auto& [lo, hi] :
       std::vector<std::pair<std::vector<double>, std::vector<double>>>{
           {{0.0, 0.0}, {1.0, 1.0}},
           {{0.1, 0.2}, {0.8, 0.7}},
           {{0.3, 0.0}, {0.6, 1.0}}}) {
    const std::vector<RecordId> all =
        Sorted(truth.ExecuteRange(lo, hi).value().matches);
    const bool whole_domain = all.size() == truth.file().num_records();
    for (const std::vector<uint32_t>& disks : subsets) {
      std::vector<RecordId> want;
      for (RecordId id : all) {
        if (std::find(disks.begin(), disks.end(), truth.DiskOfRecord(id)) !=
            disks.end()) {
          want.push_back(id);
        }
      }
      for (const uint32_t copy : {0u, 1u}) {
        QueryRequest sub = Range(lo, hi);
        sub.disks = disks;
        sub.serve_copy = copy;
        const QueryResult r = service->Execute(sub);
        ASSERT_TRUE(r.status.ok()) << r.status.ToString();
        EXPECT_TRUE(std::adjacent_find(r.matches.begin(), r.matches.end(),
                                       std::greater_equal<RecordId>()) ==
                    r.matches.end());
        EXPECT_EQ(r.matches, want) << disks.size() << " disks, copy " << copy;
        if (whole_domain && disks.size() == 4) {
          // Some page is read under several keys.
          EXPECT_GT(r.pages_read, 125u);
        }
      }
    }
  }
}

TEST(ServeScriptTest, ParsesQueriesCommentsAndDeadlines) {
  const auto requests = ParseServeScript(
      "# comment\n"
      "\n"
      "query dm 0.1,0.2 0.6,0.9\n"
      "query other 0,0 1,1 250\r\n").value();
  ASSERT_EQ(requests.size(), 2u);
  EXPECT_EQ(requests[0].relation, "dm");
  EXPECT_EQ(requests[0].lo, (std::vector<double>{0.1, 0.2}));
  EXPECT_EQ(requests[0].hi, (std::vector<double>{0.6, 0.9}));
  EXPECT_EQ(requests[0].deadline_ms, 0.0);
  EXPECT_EQ(requests[1].relation, "other");
  EXPECT_EQ(requests[1].deadline_ms, 250.0);
}

TEST(ServeScriptTest, RejectsMalformedLinesByNumber) {
  EXPECT_FALSE(ParseServeScript("frobnicate dm 0 1\n").ok());
  EXPECT_FALSE(ParseServeScript("query dm 0,0\n").ok());          // Missing hi.
  EXPECT_FALSE(ParseServeScript("query dm 0,x 1,1\n").ok());      // Bad number.
  EXPECT_FALSE(ParseServeScript("query dm 0,0 1,1,1\n").ok());    // Arity.
  EXPECT_FALSE(ParseServeScript("query dm 0,0 1,1 -5\n").ok());   // Deadline.
  const Status st = ParseServeScript("query dm 0,0 1,1\nbad\n").status();
  EXPECT_NE(st.message().find("line 2"), std::string::npos)
      << st.ToString();
}

}  // namespace
}  // namespace serve
}  // namespace griddecl
