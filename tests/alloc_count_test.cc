// Heap allocations on the read path, counted exactly. This binary replaces
// the global operator new with a counting one, so it is built apart from
// griddecl_tests: the counts cover everything the library allocates while
// counting is on, on any thread.

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "griddecl/cluster/cluster.h"
#include "griddecl/cluster/placement.h"
#include "griddecl/common/random.h"
#include "griddecl/gridfile/catalog.h"
#include "griddecl/gridfile/declustered_file.h"
#include "griddecl/gridfile/manifest.h"
#include "griddecl/gridfile/page_store.h"
#include "griddecl/gridfile/storage_env.h"
#include "griddecl/serve/service.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocations{0};

void* Allocate(std::size_t size, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  const std::size_t a = static_cast<std::size_t>(align);
  void* p = a <= alignof(std::max_align_t)
                ? std::malloc(size == 0 ? 1 : size)
                : std::aligned_alloc(a, (size + a - 1) / a * a);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  return Allocate(size, std::align_val_t{alignof(std::max_align_t)});
}
void* operator new[](std::size_t size) {
  return Allocate(size, std::align_val_t{alignof(std::max_align_t)});
}
void* operator new(std::size_t size, std::align_val_t align) {
  return Allocate(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return Allocate(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace griddecl {
namespace {

/// Heap allocations made while `fn` runs.
template <typename Fn>
uint64_t AllocationsOf(Fn&& fn) {
  g_allocations.store(0);
  g_counting.store(true);
  fn();
  g_counting.store(false);
  return g_allocations.load();
}

/// A v3 relation of 16 pages (168-byte pages, 8 records each).
FileLayout WriteRelation(MemEnv* env) {
  Schema schema = Schema::Create({{"x", 0.0, 1.0}, {"y", 0.0, 1.0}}).value();
  GridFile f = GridFile::Create(std::move(schema), {4, 4}).value();
  Rng rng(1);
  for (int i = 0; i < 128; ++i) {
    EXPECT_TRUE(f.Insert({rng.NextDouble(), rng.NextDouble()}).ok());
  }
  SaveOptions save;
  save.page_size_bytes = 168;
  const std::string bytes = SerializeGridFile(f, save).value();
  EXPECT_TRUE(env->WriteFile("rel", bytes).ok());
  return ParseFileLayout(bytes).value();
}

TEST(AllocCountTest, SteadyStateMissIntoAFullPoolAllocatesNothing) {
  MemEnv env;
  PageStore::Options options;
  options.pool_pages = 4;
  PageStore store(&env, options);
  const FileLayout layout = WriteRelation(&env);
  store.RegisterFile("rel", layout);
  // Fill the pool and run it past full once, so the free list holds the
  // frame the last admission evicted.
  for (uint64_t page = 0; page < 8; ++page) {
    ASSERT_TRUE(store.GetPage("rel", page, ReadPolicy{}).ok());
  }
  for (uint64_t page = 8; page < layout.num_pages; ++page) {
    PageReadStats stats;
    const uint64_t allocations = AllocationsOf([&] {
      ASSERT_TRUE(store.GetPage("rel", page, ReadPolicy{}, &stats).ok());
    });
    ASSERT_EQ(stats.physical_reads, 1u);  // A miss.
    EXPECT_EQ(allocations, 0u) << "page " << page;
  }
  // One-touch pages never leave probation: a quarter of the pool.
  EXPECT_EQ(store.PoolStats().resident, 1u);
}

TEST(AllocCountTest, PoolHitAllocatesNothing) {
  MemEnv env;
  PageStore store(&env, {});
  const FileLayout layout = WriteRelation(&env);
  store.RegisterFile("rel", layout);
  ASSERT_TRUE(store.GetPage("rel", 3, ReadPolicy{}).ok());
  PageReadStats stats;
  const uint64_t allocations = AllocationsOf([&] {
    ASSERT_TRUE(store.GetPage("rel", 3, ReadPolicy{}, &stats).ok());
  });
  EXPECT_EQ(stats.cache_hit, 1u);
  EXPECT_EQ(allocations, 0u);
}

/// The serving benchmark's catalog shapes: an HCAM relation on a
/// side x side grid over 16 disks, 8 records per bucket, 168-byte pages
/// (one bucket per page), mirrored twice.
struct ServeShape {
  uint32_t side;
  size_t pool_pages;
  double max_side_frac;
};

std::unique_ptr<MemEnv> BuildCatalog(uint32_t side, uint32_t disks) {
  Schema schema = Schema::Create({{"x", 0.0, 1.0}, {"y", 0.0, 1.0}}).value();
  GridFile f = GridFile::Create(std::move(schema), {side, side}).value();
  Rng rng(7);
  for (uint64_t b = 0; b < f.grid().num_buckets(); ++b) {
    const BucketCoords c = f.grid().Delinearize(b);
    for (int k = 0; k < 8; ++k) {
      EXPECT_TRUE(f.Insert({(c[0] + rng.NextDouble()) / side,
                            (c[1] + rng.NextDouble()) / side})
                      .ok());
    }
  }
  Catalog catalog(disks);
  EXPECT_TRUE(catalog
                  .AddRelation("r", DeclusteredFile::Create(std::move(f),
                                                            "hcam", disks)
                                        .value())
                  .ok());
  auto env = std::make_unique<MemEnv>();
  ManifestSaveOptions options;
  options.page_size_bytes = 168;
  options.default_redundancy.policy = RelationRedundancy::Policy::kMirror;
  options.default_redundancy.copies = 2;
  EXPECT_TRUE(SaveCatalogManifest(catalog, env.get(), options).ok());
  return env;
}

std::vector<serve::QueryRequest> MakeQueries(const ServeShape& shape) {
  std::vector<serve::QueryRequest> queries;
  Rng rng(11);
  for (int q = 0; q < 100; ++q) {
    serve::QueryRequest req;
    req.relation = "r";
    for (int d = 0; d < 2; ++d) {
      const double w = shape.max_side_frac * rng.NextDouble();
      const double lo = (1.0 - w) * rng.NextDouble();
      req.lo.push_back(lo);
      req.hi.push_back(lo + w);
    }
    queries.push_back(std::move(req));
  }
  return queries;
}

/// Runs the queries twice to warm the pool and the worker's scratch, then
/// checks each query's allocations on a third pass: the request's promise
/// (its shared state and its result slot) and the answer, allocated once
/// at its exact size when there is one. The queue slot, the plan, the page
/// pins, the scan and every pool miss reuse storage. Returns the pass's
/// pool hit ratio.
double ExpectWarmedExecuteAllocations(const ServeShape& shape) {
  const std::unique_ptr<MemEnv> env = BuildCatalog(shape.side, 16);
  serve::ServeOptions options;
  options.num_threads = 1;
  options.pool_pages = shape.pool_pages;
  auto service = serve::QueryService::Create(env.get(), options).value();
  const std::vector<serve::QueryRequest> queries = MakeQueries(shape);
  for (int pass = 0; pass < 2; ++pass) {
    for (const serve::QueryRequest& q : queries) {
      EXPECT_TRUE(service->Execute(q).status.ok());
    }
  }
  uint64_t pages = 0;
  uint64_t hits = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    serve::QueryRequest request = queries[q];
    serve::QueryResult result;
    const uint64_t allocations = AllocationsOf(
        [&] { result = service->Execute(std::move(request)); });
    EXPECT_TRUE(result.status.ok());
    EXPECT_EQ(allocations, 2u + (result.matches.empty() ? 0u : 1u))
        << "query " << q;
    pages += result.pages_read;
    hits += result.pool_hits;
  }
  return static_cast<double>(hits) / static_cast<double>(pages);
}

TEST(AllocCountTest, WarmedExecuteAtTheServeHitShapeAllocatesAConstant) {
  EXPECT_EQ(ExpectWarmedExecuteAllocations({64, 16384, 0.25}), 1.0);
}

TEST(AllocCountTest, WarmedExecuteAtTheServeMissShapeAllocatesAConstant) {
  // Mostly misses through a full pool.
  EXPECT_LT(ExpectWarmedExecuteAllocations({128, 1024, 0.125}), 0.5);
}

/// A box of the unit square whose sides are drawn from
/// [min_side, max_side]; min_side = max_side = 0 gives a point.
serve::QueryRequest RandomBox(Rng* rng, double min_side, double max_side) {
  serve::QueryRequest req;
  req.relation = "r";
  for (int d = 0; d < 2; ++d) {
    const double w = min_side + (max_side - min_side) * rng->NextDouble();
    const double lo = (1.0 - w) * rng->NextDouble();
    req.lo.push_back(lo);
    req.hi.push_back(lo + w);
  }
  return req;
}

/// Warms a cluster at the cluster benchmark's shape (4 nodes in 2 zones,
/// zone_aware, a 64x64 HCAM relation over 8 disks mirrored twice, pools
/// that hold it) and checks each query's allocations, healthy and with a
/// node dead: `per_sub` per sub-query, one more per sub-answer with
/// matches, and one for the merged answer at its exact size unless that
/// is empty. The plan, the scatter replies, the run list and the merge
/// reuse the coordinator's scratch. `queued` gives every node a small
/// injected read latency, so every sub-query goes to its node's queue;
/// without it every one runs on the coordinator's thread. The hedge
/// delay is fixed and far beyond any sub-query, so no hedge fires.
void ExpectWarmedClusterExecuteAllocations(bool queued, uint64_t per_sub) {
  const std::unique_ptr<MemEnv> env = BuildCatalog(64, 8);
  cluster::ClusterOptions options;
  options.num_nodes = 4;
  options.node.num_threads = 1;
  options.node.pool_pages = 16384;
  options.node_latency_ms.assign(4, queued ? 0.01 : 0.0);
  options.hedge_delay_ms = 1e6;
  cluster::PlacementSpec spec;
  spec.policy = cluster::PlacementPolicy::kZoneAware;
  spec.topology = cluster::Topology::Grid(4, 2, 2).value();
  spec.seed = 7;
  options.placement = spec;
  auto cluster = cluster::Cluster::Create(*env, std::move(options)).value();

  // Boxes 16 to 32 buckets a side, where every sub-query's answer has
  // matches, and points, which match nothing.
  std::vector<serve::QueryRequest> boxes;
  std::vector<serve::QueryRequest> points;
  Rng rng(13);
  for (int q = 0; q < 40; ++q) {
    boxes.push_back(RandomBox(&rng, 0.25, 0.5));
    points.push_back(RandomBox(&rng, 0.0, 0.0));
  }

  const auto expect_constant = [&](const char* phase) {
    for (int pass = 0; pass < 2; ++pass) {
      for (const auto* set : {&boxes, &points}) {
        for (const serve::QueryRequest& q : *set) {
          ASSERT_TRUE(cluster->Execute(q).complete);
        }
      }
    }
    for (const bool empty : {false, true}) {
      const std::vector<serve::QueryRequest>& set = empty ? points : boxes;
      for (size_t i = 0; i < set.size(); ++i) {
        cluster::ClusterQueryResult r;
        const uint64_t allocations =
            AllocationsOf([&] { r = cluster->Execute(set[i]); });
        ASSERT_TRUE(r.status.ok()) << r.status.ToString();
        ASSERT_TRUE(r.complete);
        EXPECT_EQ(r.hedges_fired, 0u);
        EXPECT_EQ(r.matches.empty(), empty);
        EXPECT_EQ(allocations, (per_sub + (empty ? 0 : 1)) * r.sub_queries +
                                   (r.matches.empty() ? 0 : 1))
            << phase << (empty ? " point " : " box ") << i << ", "
            << r.sub_queries << " sub-queries";
        EXPECT_EQ(r.sub_queries_on_caller, queued ? 0 : r.sub_queries);
      }
    }
  };
  expect_constant("healthy");
  // A dead node's disks are planned onto their copy-1 holders: sub-queries
  // pinned to copy 1, which cost the same.
  EXPECT_TRUE(cluster->KillNode(1).ok());
  expect_constant("node 1 dead");
}

TEST(AllocCountTest, WarmedClusterExecuteAllocatesAConstant) {
  // Nodes whose reads never wait serve every sub-query on the
  // coordinator's thread, borrowing its request: a sub-query allocates
  // nothing but its answer. A box costs 1 per sub-query + 1, a point 0.
  ExpectWarmedClusterExecuteAllocations(/*queued=*/false, 0);
}

TEST(AllocCountTest, WarmedQueuedClusterExecuteAllocatesAConstant) {
  // Nodes with injected latency take every sub-query on their queues.
  // Each allocates five: the coordinator's copies of the request's lo, hi
  // and disk list, and the node's promise (its shared state and its
  // result slot). A box costs 6 per sub-query + 1, a point 5.
  ExpectWarmedClusterExecuteAllocations(/*queued=*/true, 5);
}

}  // namespace
}  // namespace griddecl
