#include "griddecl/cluster/cluster.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "griddecl/cluster/script.h"
#include "griddecl/cluster/transition.h"
#include "griddecl/common/random.h"
#include "griddecl/gridfile/catalog.h"
#include "griddecl/gridfile/declustered_file.h"

namespace griddecl {
namespace cluster {
namespace {

/// 4x4 grid, 8 records per bucket inserted bucket by bucket: with
/// 168-byte v3 pages every storage page holds exactly one bucket. Under
/// "dm" over 4 disks bucket (cx, cy) lives on disk (cx + cy) mod 4, and
/// with 4 nodes over 4 disks every disk is its own node — the smallest
/// cluster where killing one node is visible and chained mirror copies
/// (copy c of disk d on disk (d + c) mod 4) always land on another node.
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

serve::QueryRequest Range(std::vector<double> lo, std::vector<double> hi) {
  serve::QueryRequest req;
  req.relation = "dm";
  req.lo = std::move(lo);
  req.hi = std::move(hi);
  return req;
}

std::vector<RecordId> Sorted(std::vector<RecordId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<RecordId> Direct(const Catalog& catalog,
                             const serve::QueryRequest& req) {
  return Sorted(
      catalog.Find("dm")->ExecuteRange(req.lo, req.hi).value().matches);
}

/// The gather's contract: the answer is strictly ascending and exactly
/// `want`, a ground-truth scan.
void ExpectExactAnswer(const ClusterQueryResult& r,
                       const std::vector<RecordId>& want) {
  EXPECT_TRUE(std::adjacent_find(r.matches.begin(), r.matches.end(),
                                 std::greater_equal<RecordId>()) ==
              r.matches.end())
      << "answer not strictly ascending";
  EXPECT_EQ(r.matches, want);
}

/// Deterministic baseline: no hedging, node breakers pinned closed, no
/// injected faults — outcomes depend only on kills.
ClusterOptions Deterministic(uint32_t num_nodes = 4) {
  ClusterOptions o;
  o.num_nodes = num_nodes;
  o.hedging = false;
  o.node_breaker.min_events = 1000000;
  o.node_breaker.window = 1000000;
  o.node.breaker.min_events = 1000000;
  o.node.breaker.window = 1000000;
  return o;
}

TEST(ClusterTest, CreateValidatesOptionsAndSeedEnv) {
  MemEnv empty;
  EXPECT_EQ(Cluster::Create(empty, Deterministic()).status().code(),
            StatusCode::kNotFound);

  MemEnv env;
  CommitCatalog(&env, {});
  ClusterOptions bad = Deterministic();
  bad.num_nodes = 0;
  EXPECT_FALSE(Cluster::Create(env, bad).ok());
  bad = Deterministic();
  bad.quorum_fraction = 1.0;
  EXPECT_FALSE(Cluster::Create(env, bad).ok());
  bad = Deterministic();
  bad.num_nodes = 5;  // More nodes than the catalog's 4 virtual disks.
  EXPECT_FALSE(Cluster::Create(env, bad).ok());
  // Growth slots are preallocated, so they are capped the same way.
  bad = Deterministic();
  bad.max_nodes = 5;
  EXPECT_EQ(Cluster::Create(env, bad).status().code(),
            StatusCode::kInvalidArgument);
  bad.max_nodes = 4;
  EXPECT_TRUE(Cluster::Create(env, bad).ok());
  // NaN fails every comparison, so each knob is checked in the form that
  // refuses it; a hedge delay must also be finite.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  bad = Deterministic();
  bad.quorum_fraction = nan;
  EXPECT_EQ(Cluster::Create(env, bad).status().code(),
            StatusCode::kInvalidArgument);
  bad = Deterministic();
  bad.hedge_delay_ms = nan;
  EXPECT_EQ(Cluster::Create(env, bad).status().code(),
            StatusCode::kInvalidArgument);
  bad.hedge_delay_ms = std::numeric_limits<double>::infinity();
  EXPECT_EQ(Cluster::Create(env, bad).status().code(),
            StatusCode::kInvalidArgument);
  bad = Deterministic();
  bad.hedge_budget_fraction = nan;
  EXPECT_EQ(Cluster::Create(env, bad).status().code(),
            StatusCode::kInvalidArgument);

  auto cluster = Cluster::Create(env, Deterministic()).value();
  EXPECT_EQ(cluster->num_nodes(), 4u);
  EXPECT_EQ(cluster->num_disks(), 4u);
  EXPECT_EQ(cluster->generation(), 1u);
  EXPECT_EQ(cluster->RelationNames(), std::vector<std::string>{"dm"});
  EXPECT_FALSE(cluster->migrating());
  for (uint32_t n = 0; n < 4; ++n) {
    EXPECT_TRUE(cluster->NodeAlive(n));
    EXPECT_EQ(cluster->NodeBreakerState(n), BreakerState::kClosed);
  }
  EXPECT_EQ(cluster->KillNode(99).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(cluster->ReviveNode(99).code(), StatusCode::kInvalidArgument);
}

TEST(ClusterTest, HealthyClusterMatchesDirectExecutionExactly) {
  MemEnv env;
  const Catalog catalog = CommitCatalog(&env, Mirror2());
  auto cluster = Cluster::Create(env, Deterministic()).value();

  Rng rng(7);
  uint64_t sub_queries = 0;
  for (int q = 0; q < 20; ++q) {
    std::vector<double> lo(2), hi(2);
    for (int d = 0; d < 2; ++d) {
      const double a = rng.NextDouble();
      const double b = rng.NextDouble();
      lo[d] = std::min(a, b);
      hi[d] = std::max(a, b);
    }
    const serve::QueryRequest req = Range(lo, hi);
    const ClusterQueryResult r = cluster->Execute(req);
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_TRUE(r.complete);
    EXPECT_EQ(r.availability, 1.0);
    EXPECT_EQ(r.unavailable_buckets, 0u);
    EXPECT_EQ(r.generation, 1u);
    EXPECT_EQ(r.rerouted_subqueries, 0u);
    EXPECT_EQ(r.matches, Direct(catalog, req)) << "query " << q;
    EXPECT_GE(r.sub_queries, 1u);
    sub_queries += r.sub_queries;
    for (const char w : r.winners) EXPECT_EQ(w, 'p');
  }

  obs::MetricsRegistry reg;
  cluster->SnapshotMetrics(&reg);
  cluster->SnapshotMetrics(&reg);  // Re-snapshot must not double-count.
  EXPECT_EQ(reg.GetCounter("cluster.queries")->value(), 20u);
  EXPECT_EQ(reg.GetCounter("cluster.complete")->value(), 20u);
  EXPECT_EQ(reg.GetCounter("cluster.partial")->value(), 0u);
  EXPECT_EQ(reg.GetCounter("cluster.failed")->value(), 0u);
  EXPECT_EQ(reg.GetCounter("cluster.sub_queries")->value(), sub_queries);
  EXPECT_EQ(reg.GetCounter("cluster.hedges_fired")->value(), 0u);
  EXPECT_EQ(
      reg.GetHistogram("cluster.query_ms", obs::DefaultLatencyBoundsMs())
          ->count(),
      20u);
}

TEST(ClusterTest, NodeServeCountersSumTheNodeServices) {
  MemEnv env;
  CommitCatalog(&env, Mirror2());
  auto healthy = Cluster::Create(env, Deterministic()).value();
  const serve::QueryRequest full = Range({0.0, 0.0}, {1.0, 1.0});
  for (int q = 0; q < 5; ++q) {
    ASSERT_TRUE(healthy->Execute(full).complete);
    ASSERT_TRUE(healthy->Execute(Range({0.1, 0.2}, {0.6, 0.4})).complete);
  }
  obs::MetricsRegistry reg;
  healthy->SnapshotMetrics(&reg);
  healthy->SnapshotMetrics(&reg);  // Re-snapshot must not double-count.
  const auto node_serve = [&reg](const std::string& name) {
    return reg.GetCounter("cluster.node_serve." + name)->value();
  };
  const uint64_t sub_queries = reg.GetCounter("cluster.sub_queries")->value();
  EXPECT_GT(sub_queries, 10u);
  EXPECT_EQ(node_serve("admitted"), sub_queries);
  EXPECT_EQ(node_serve("completed"), sub_queries);
  EXPECT_EQ(node_serve("retries"), 0u);
  EXPECT_EQ(node_serve("rerouted_buckets"), 0u);
  EXPECT_EQ(node_serve("breaker.opened"), 0u);

  // Transient read faults make the node services retry.
  ClusterOptions flaky = Deterministic();
  flaky.node_transient_prob = 0.3;
  auto faulty = Cluster::Create(env, flaky).value();
  for (int q = 0; q < 5; ++q) faulty->Execute(full);
  obs::MetricsRegistry faulty_reg;
  faulty->SnapshotMetrics(&faulty_reg);
  EXPECT_GT(faulty_reg.GetCounter("cluster.node_serve.retries")->value(), 0u);
}

TEST(ClusterTest, SubQueriesRunOnTheCallerUnlessTheirNodeCanWait) {
  MemEnv env;
  const Catalog catalog = CommitCatalog(&env, Mirror2());
  // Under "dm" node n owns disk n alone: a full box sends one sub-query to
  // every node, and the corner box, bucket (0, 0), one to node 0.
  const serve::QueryRequest full = Range({0.0, 0.0}, {1.0, 1.0});
  const serve::QueryRequest corner = Range({0.05, 0.05}, {0.1, 0.1});

  // Nodes whose reads never wait serve every sub-query on the caller.
  {
    auto cluster = Cluster::Create(env, Deterministic()).value();
    for (int q = 0; q < 3; ++q) {
      const ClusterQueryResult r = cluster->Execute(full);
      ExpectExactAnswer(r, Direct(catalog, full));
      EXPECT_EQ(r.sub_queries, 4u);
      EXPECT_EQ(r.sub_queries_on_caller, r.sub_queries);
    }
    obs::MetricsRegistry reg;
    cluster->SnapshotMetrics(&reg);
    EXPECT_EQ(reg.GetCounter("cluster.sub_queries_on_caller")->value(),
              reg.GetCounter("cluster.sub_queries")->value());
  }

  // Injected latency on one node moves exactly its sub-query to its queue.
  for (uint32_t slow = 0; slow < 4; ++slow) {
    ClusterOptions options = Deterministic();
    options.node_latency_ms.assign(4, 0.0);
    options.node_latency_ms[slow] = 0.01;
    auto cluster = Cluster::Create(env, options).value();
    const ClusterQueryResult r = cluster->Execute(full);
    ExpectExactAnswer(r, Direct(catalog, full));
    EXPECT_EQ(r.sub_queries, 4u);
    EXPECT_EQ(r.sub_queries_on_caller, 3u) << "slow node " << slow;
    const ClusterQueryResult one = cluster->Execute(corner);
    ExpectExactAnswer(one, Direct(catalog, corner));
    EXPECT_EQ(one.sub_queries, 1u);
    EXPECT_EQ(one.sub_queries_on_caller, slow == 0 ? 0u : 1u)
        << "slow node " << slow;
  }

  // Transient faults, injected on every node, queue every sub-query.
  {
    ClusterOptions options = Deterministic();
    options.node_transient_prob = 0.2;
    options.fault_seed = 3;
    auto cluster = Cluster::Create(env, options).value();
    const ClusterQueryResult r = cluster->Execute(full);
    ExpectExactAnswer(r, Direct(catalog, full));
    EXPECT_EQ(r.sub_queries, 4u);
    EXPECT_EQ(r.sub_queries_on_caller, 0u);
  }

  // An unpaced migration's copy contention queues its participants'
  // sub-queries while the copy runs, and only then. The simulated device
  // stretches the copy over about 100 ms of reads.
  {
    auto cluster = Cluster::Create(env, Deterministic()).value();
    std::atomic<bool> copying{false};
    std::atomic<bool> done{false};
    std::atomic<uint64_t> all_queued{0};
    std::atomic<uint64_t> wrong{0};
    std::thread reader([&] {
      const std::vector<RecordId> want = Direct(catalog, full);
      while (!done.load()) {
        const bool during = copying.load();
        const ClusterQueryResult r = cluster->Execute(full);
        if (!r.status.ok() || !r.complete || r.matches != want) {
          wrong.fetch_add(1);
        }
        if (during && copying.load() && r.sub_queries > 0 &&
            r.sub_queries_on_caller == 0) {
          all_queued.fetch_add(1);
        }
      }
    });
    MigrationOptions mo;
    mo.new_method = "fx";
    mo.new_num_disks = 4;
    mo.copy_contention_ms = 0.01;
    mo.copy_device_bytes_per_sec = 60000.0;
    mo.on_phase = [&](const std::string& phase) {
      if (phase == "copy") copying.store(true);
      if (phase == "staged") copying.store(false);
    };
    const MigrationReport report = cluster->Migrate(mo).value();
    done.store(true);
    reader.join();
    EXPECT_TRUE(report.committed) << report.abort_reason;
    EXPECT_EQ(wrong.load(), 0u);
    EXPECT_GT(all_queued.load(), 0u);
    const ClusterQueryResult after = cluster->Execute(full);
    ExpectExactAnswer(after, Direct(catalog, full));
    EXPECT_EQ(after.sub_queries_on_caller, after.sub_queries);
  }
}

TEST(ClusterTest, SnapshotMetricsRacesMigrationCutoverSafely) {
  // SnapshotMetrics walks the current epoch's node services while Migrate
  // swaps the epoch; the snapshot must hold the epoch it reads (TSan/ASan).
  MemEnv env;
  CommitCatalog(&env, Mirror2());
  auto cluster = Cluster::Create(env, Deterministic()).value();
  std::atomic<bool> done{false};
  std::thread snapshotter([&] {
    while (!done.load()) {
      obs::MetricsRegistry reg;
      cluster->SnapshotMetrics(&reg);
    }
  });
  for (const char* method : {"fx", "dm"}) {
    MigrationOptions mo;
    mo.new_method = method;
    mo.new_num_disks = 4;
    const MigrationReport report = cluster->Migrate(mo).value();
    EXPECT_TRUE(report.committed) << report.abort_reason;
  }
  done.store(true);
  snapshotter.join();
}

TEST(ClusterTest, MirrorRerouteServesCompleteResultsOffADeadNode) {
  MemEnv env;
  const Catalog catalog = CommitCatalog(&env, Mirror2());
  auto cluster = Cluster::Create(env, Deterministic()).value();
  ASSERT_TRUE(cluster->KillNode(2).ok());
  EXPECT_FALSE(cluster->NodeAlive(2));

  const serve::QueryRequest full = Range({0.0, 0.0}, {1.0, 1.0});
  const ClusterQueryResult r = cluster->Execute(full);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.availability, 1.0);
  EXPECT_GT(r.rerouted_subqueries, 0u);
  EXPECT_EQ(r.matches, Direct(catalog, full));
  EXPECT_EQ(r.winners.find('u'), std::string::npos) << r.winners;

  // Revival restores primary-only service.
  ASSERT_TRUE(cluster->ReviveNode(2).ok());
  EXPECT_TRUE(cluster->NodeAlive(2));
  const ClusterQueryResult healed = cluster->Execute(full);
  ASSERT_TRUE(healed.status.ok());
  EXPECT_TRUE(healed.complete);
  EXPECT_EQ(healed.rerouted_subqueries, 0u);
  for (const char w : healed.winners) EXPECT_EQ(w, 'p');
}

TEST(ClusterTest, NoRedundancyDeadNodeFlagsPartialNeverSilentlyShort) {
  MemEnv env;
  const Catalog catalog = CommitCatalog(&env, {});
  auto cluster = Cluster::Create(env, Deterministic()).value();
  ASSERT_TRUE(cluster->KillNode(1).ok());

  // The full box touches all 16 buckets, 4 of which live on disk 1 = node
  // 1. The result must be explicitly partial: exactly the surviving
  // records, with the deficit accounted bucket by bucket.
  const serve::QueryRequest full = Range({0.0, 0.0}, {1.0, 1.0});
  const ClusterQueryResult r = cluster->Execute(full);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.buckets_touched, 16u);
  EXPECT_EQ(r.unavailable_buckets, 4u);
  EXPECT_DOUBLE_EQ(r.availability, 0.75);
  EXPECT_NE(r.winners.find('u'), std::string::npos) << r.winners;

  std::vector<RecordId> want;
  for (const RecordId id : Direct(catalog, full)) {
    if (catalog.Find("dm")->DiskOfRecord(id) != 1) want.push_back(id);
  }
  ExpectExactAnswer(r, want);

  // A probe confined to the dead node's buckets fails loudly: bucket
  // (0, 1) lives on disk (0 + 1) mod 4 = 1.
  const ClusterQueryResult dead =
      cluster->Execute(Range({0.05, 0.3}, {0.1, 0.35}));
  EXPECT_EQ(dead.status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(dead.matches.empty());
  EXPECT_EQ(dead.availability, 0.0);

  obs::MetricsRegistry reg;
  cluster->SnapshotMetrics(&reg);
  EXPECT_EQ(reg.GetCounter("cluster.partial")->value(), 1u);
  EXPECT_EQ(reg.GetCounter("cluster.failed")->value(), 1u);
  EXPECT_EQ(reg.GetCounter("cluster.unavailable_buckets")->value(), 5u);
}

TEST(ClusterTest, QuorumLossRefusesLoudly) {
  MemEnv env;
  const Catalog catalog = CommitCatalog(&env, Mirror2());
  auto cluster = Cluster::Create(env, Deterministic()).value();
  // quorum_fraction 0.5 over 4 nodes: need floor(4 * 0.5) + 1 = 3 alive.
  ASSERT_TRUE(cluster->KillNode(2).ok());
  ASSERT_TRUE(cluster->KillNode(3).ok());

  const serve::QueryRequest full = Range({0.0, 0.0}, {1.0, 1.0});
  const ClusterQueryResult r = cluster->Execute(full);
  EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
  EXPECT_FALSE(r.complete);
  EXPECT_TRUE(r.matches.empty());
  EXPECT_EQ(r.sub_queries, 0u);

  // One revival restores quorum; the still-dead node reroutes via mirrors.
  ASSERT_TRUE(cluster->ReviveNode(3).ok());
  const ClusterQueryResult back = cluster->Execute(full);
  ASSERT_TRUE(back.status.ok()) << back.status.ToString();
  EXPECT_TRUE(back.complete);
  EXPECT_EQ(back.matches, Direct(catalog, full));

  obs::MetricsRegistry reg;
  cluster->SnapshotMetrics(&reg);
  EXPECT_EQ(reg.GetCounter("cluster.quorum_rejections")->value(), 1u);
}

TEST(ClusterTest, VirtualClockOnlyMovesForward) {
  MemEnv env;
  CommitCatalog(&env, Mirror2());
  auto cluster = Cluster::Create(env, Deterministic()).value();
  ASSERT_TRUE(cluster->KillNode(1).ok());
  // 10 ms beats, dead after 4 misses: the detector declares node 1 dead
  // at 40 ms.
  ASSERT_TRUE(cluster->AdvanceTimeMs(100.0).ok());
  ASSERT_EQ(cluster->NodeHealthOf(1), NodeHealth::kDead);
  const uint64_t missed = cluster->HeartbeatCounters().missed;

  // An earlier time, or NaN, is refused and moves neither the cluster's
  // clock nor its detector.
  EXPECT_EQ(cluster->AdvanceTimeMs(10.0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      cluster->AdvanceTimeMs(std::numeric_limits<double>::quiet_NaN()).code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(cluster->VirtualNowMs(), 100.0);
  EXPECT_EQ(cluster->NodeHealthOf(1), NodeHealth::kDead);
  EXPECT_EQ(cluster->HeartbeatCounters().missed, missed);
  // The same time again is allowed.
  EXPECT_TRUE(cluster->AdvanceTimeMs(100.0).ok());

  // MTTR runs from the death to the repair on that one clock.
  const RepairReport report = cluster->Repair({}).value();
  ASSERT_TRUE(report.committed) << report.abort_reason;
  EXPECT_EQ(report.mttr_virtual_ms, 60.0);
}

TEST(ClusterHedgeTest, PrimaryPreferredHedgesFireButNeverChangeTheAnswer) {
  MemEnv env;
  const Catalog catalog = CommitCatalog(&env, Mirror2());
  ClusterOptions options = Deterministic();
  options.hedging = true;
  options.hedge_policy = HedgePolicy::kPrimaryPreferred;
  options.hedge_delay_ms = 0.0;  // Hedge immediately.
  options.node_latency_ms = {0.05, 0.05, 0.05, 0.05};
  auto cluster = Cluster::Create(env, options).value();

  const serve::QueryRequest full = Range({0.0, 0.0}, {1.0, 1.0});
  const std::vector<RecordId> want = Direct(catalog, full);
  uint64_t fired = 0;
  uint64_t cancelled = 0;
  for (int q = 0; q < 10; ++q) {
    const ClusterQueryResult r = cluster->Execute(full);
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_TRUE(r.complete);
    EXPECT_EQ(r.matches, want);
    // Healthy primaries are authoritative: every fired hedge is cancelled,
    // none wins, winners stay all-primary.
    EXPECT_EQ(r.hedge_wins, 0u);
    EXPECT_EQ(r.hedges_cancelled, r.hedges_fired);
    for (const char w : r.winners) EXPECT_EQ(w, 'p');
    fired += r.hedges_fired;
    cancelled += r.hedges_cancelled;
  }
  // An immediate hedge delay against 0.05 ms/page reads: hedges do fire.
  EXPECT_GT(fired, 0u);
  obs::MetricsRegistry reg;
  cluster->SnapshotMetrics(&reg);
  EXPECT_EQ(reg.GetCounter("cluster.hedges_fired")->value(), fired);
  EXPECT_EQ(reg.GetCounter("cluster.hedges_cancelled")->value(), cancelled);
  EXPECT_EQ(reg.GetCounter("cluster.hedge_wins")->value(), 0u);
}

TEST(ClusterHedgeTest, FirstSuccessHedgeWinsPastASlowNode) {
  MemEnv env;
  const Catalog catalog = CommitCatalog(&env, Mirror2());
  ClusterOptions options = Deterministic();
  options.hedging = true;
  options.hedge_policy = HedgePolicy::kFirstSuccess;
  options.hedge_delay_ms = 0.5;
  options.node_latency_ms = {0.0, 25.0, 0.0, 0.0};  // Node 1 is a straggler.
  auto cluster = Cluster::Create(env, options).value();

  const serve::QueryRequest full = Range({0.0, 0.0}, {1.0, 1.0});
  const ClusterQueryResult r = cluster->Execute(full);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_TRUE(r.complete);
  ExpectExactAnswer(r, Direct(catalog, full));
  // The slow node's route is hedged to its replica holder, which finishes
  // first; the straggler's result is dropped unread.
  EXPECT_GE(r.hedges_fired, 1u);
  EXPECT_GE(r.hedge_wins, 1u);
  EXPECT_NE(r.winners.find('h'), std::string::npos) << r.winners;
}

TEST(ClusterBreakerTest, NodeBreakersTripAndRemoveNodesFromPlanning) {
  MemEnv env;
  CommitCatalog(&env, Mirror2());
  ClusterOptions options;
  options.num_nodes = 4;
  options.hedging = false;
  // Every read fails, services never retry: each observed sub-query
  // completion feeds its node breaker one failure.
  options.node_transient_prob = 1.0;
  options.node_max_transient_attempts = 1000000;
  options.node.read.retry.max_attempts = 1;
  options.node.breaker.min_events = 1000000;  // Per-disk breakers stay out.
  options.node.breaker.window = 1000000;
  options.node_breaker.min_events = 1;
  options.node_breaker.window = 1;
  options.node_breaker.failure_ratio = 0.5;
  options.node_breaker.open_ms = 1e18;  // Once open, stays open.
  auto cluster = Cluster::Create(env, options).value();

  const serve::QueryRequest full = Range({0.0, 0.0}, {1.0, 1.0});
  const ClusterQueryResult first = cluster->Execute(full);
  EXPECT_EQ(first.status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(first.matches.empty());
  EXPECT_GT(first.sub_queries, 0u);

  // At least the first gathered route's primary and failover targets were
  // observed failing, so their breakers opened.
  uint32_t open = 0;
  for (uint32_t n = 0; n < 4; ++n) {
    if (cluster->NodeBreakerState(n) == BreakerState::kOpen) ++open;
  }
  EXPECT_GT(open, 0u);

  // The first query's gather fed every node's breaker at least one
  // observed failure (each primary plus the next node as failover), so all
  // four are now open. Open breakers are planned around exactly like
  // deaths: with every node refused the query never scatters at all.
  for (uint32_t n = 0; n < 4; ++n) {
    EXPECT_EQ(cluster->NodeBreakerState(n), BreakerState::kOpen) << n;
  }
  const ClusterQueryResult refused = cluster->Execute(full);
  EXPECT_EQ(refused.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(refused.sub_queries, 0u);

  obs::MetricsRegistry reg;
  cluster->SnapshotMetrics(&reg);
  EXPECT_GT(reg.GetCounter("cluster.node_breaker.opened")->value(), 0u);
}

/// The determinism fingerprint: everything the property test asserts is
/// identical across coordinator thread counts. Latencies and hedge-fire
/// counts are deliberately excluded.
struct Fingerprint {
  StatusCode code = StatusCode::kOk;
  bool complete = false;
  uint64_t buckets_touched = 0;
  uint64_t unavailable_buckets = 0;
  std::string winners;
  std::vector<RecordId> matches;

  bool operator==(const Fingerprint&) const = default;
};

Fingerprint FingerprintOf(const ClusterQueryResult& r) {
  Fingerprint f;
  f.code = r.status.code();
  f.complete = r.complete;
  f.buckets_touched = r.buckets_touched;
  f.unavailable_buckets = r.unavailable_buckets;
  f.winners = r.winners;
  f.matches = r.matches;
  return f;
}

std::vector<serve::QueryRequest> PropertyQueries() {
  std::vector<serve::QueryRequest> queries;
  queries.push_back(Range({0.0, 0.0}, {1.0, 1.0}));
  queries.push_back(Range({0.0, 0.0}, {0.49, 0.49}));
  queries.push_back(Range({0.5, 0.0}, {1.0, 0.49}));
  queries.push_back(Range({0.0, 0.5}, {0.49, 1.0}));
  queries.push_back(Range({0.5, 0.5}, {1.0, 1.0}));
  queries.push_back(Range({0.05, 0.3}, {0.1, 0.35}));   // Single bucket.
  queries.push_back(Range({0.3, 0.3}, {0.7, 0.7}));
  queries.push_back(Range({0.0, 0.4}, {1.0, 0.6}));     // Row strip.
  queries.push_back(Range({0.4, 0.0}, {0.6, 1.0}));     // Column strip.
  queries.push_back(Range({0.8, 0.8}, {0.9, 0.9}));
  queries.push_back(Range({0.1, 0.1}, {0.9, 0.2}));
  queries.push_back(Range({0.2, 0.6}, {0.8, 0.95}));
  return queries;
}

/// What a schedule's queries did besides their fingerprints.
struct ScheduleCounts {
  uint64_t sub_queries = 0;
  uint64_t on_caller = 0;
  uint64_t hedges_fired = 0;
};

/// Runs the fixed three-phase kill schedule with `threads` coordinator
/// threads and returns one fingerprint per (phase, query). Nodes read with
/// `node_latency_ms` injected (none by default); `counts`, when given,
/// receives the cluster's totals.
std::vector<Fingerprint> RunPropertySchedule(
    const MemEnv& env, uint32_t threads,
    const std::vector<double>& node_latency_ms = {},
    ScheduleCounts* counts = nullptr) {
  ClusterOptions options = Deterministic();
  options.hedging = true;  // Hedges may fire; winners must not move.
  options.hedge_policy = HedgePolicy::kPrimaryPreferred;
  options.hedge_delay_ms = 0.0;
  options.seed = 11;
  options.node_latency_ms = node_latency_ms;
  auto cluster = Cluster::Create(env, options).value();
  const std::vector<serve::QueryRequest> queries = PropertyQueries();
  std::vector<Fingerprint> out(queries.size() * 3);

  const auto run_phase = [&](size_t phase) {
    std::atomic<size_t> next{0};
    std::vector<std::thread> pool;
    for (uint32_t t = 0; t < threads; ++t) {
      pool.emplace_back([&] {
        for (size_t i = next.fetch_add(1); i < queries.size();
             i = next.fetch_add(1)) {
          out[phase * queries.size() + i] =
              FingerprintOf(cluster->Execute(queries[i]));
        }
      });
    }
    for (std::thread& th : pool) th.join();
  };

  run_phase(0);  // All healthy.
  EXPECT_TRUE(cluster->KillNode(1).ok());
  run_phase(1);  // One node dead: mirror reroutes, still complete.
  EXPECT_TRUE(cluster->KillNode(2).ok());
  run_phase(2);  // Quorum lost: everything refused.
  if (counts != nullptr) {
    obs::MetricsRegistry reg;
    cluster->SnapshotMetrics(&reg);
    counts->sub_queries = reg.GetCounter("cluster.sub_queries")->value();
    counts->on_caller =
        reg.GetCounter("cluster.sub_queries_on_caller")->value();
    counts->hedges_fired = reg.GetCounter("cluster.hedges_fired")->value();
  }
  return out;
}

TEST(ClusterPropertyTest, SameScheduleSameOutcomeAcrossThreadCounts) {
  MemEnv env;
  CommitCatalog(&env, Mirror2());
  const std::vector<Fingerprint> reference = RunPropertySchedule(env, 1);

  // Sanity on the reference itself: phase 0 complete, phase 2 refused.
  const size_t q = PropertyQueries().size();
  for (size_t i = 0; i < q; ++i) {
    EXPECT_TRUE(reference[i].complete) << i;
    EXPECT_EQ(reference[2 * q + i].code, StatusCode::kUnavailable) << i;
    EXPECT_TRUE(reference[2 * q + i].matches.empty()) << i;
  }

  for (const uint32_t threads : {4u, 16u}) {
    const std::vector<Fingerprint> got = RunPropertySchedule(env, threads);
    ASSERT_EQ(got.size(), reference.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], reference[i])
          << threads << " threads, phase " << i / q << ", query " << i % q;
    }
  }
}

TEST(ClusterPropertyTest,
     SameScheduleSameOutcomeAcrossThreadCountsOnMixedPaths) {
  // Node 0 reads with injected latency, so its sub-queries go to its
  // queue and, with no hedge delay, are hedged to their replica holders;
  // every other sub-query, hedges included, runs on the coordinator's
  // thread. One schedule mixes both paths and fires hedges, and its
  // outcomes and winners must still be those of the all-on-caller
  // reference at every thread count.
  MemEnv env;
  CommitCatalog(&env, Mirror2());
  const std::vector<Fingerprint> reference = RunPropertySchedule(env, 1);
  const size_t q = PropertyQueries().size();
  for (const uint32_t threads : {1u, 4u, 16u}) {
    ScheduleCounts counts;
    const std::vector<Fingerprint> got =
        RunPropertySchedule(env, threads, {0.05, 0.0, 0.0, 0.0}, &counts);
    ASSERT_EQ(got.size(), reference.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], reference[i])
          << threads << " threads, phase " << i / q << ", query " << i % q;
    }
    EXPECT_GT(counts.on_caller, 0u) << threads;
    EXPECT_LT(counts.on_caller, counts.sub_queries) << threads;
    EXPECT_GT(counts.hedges_fired, 0u) << threads;
  }
}

TEST(ClusterScriptTest, ParsesEveryDirective) {
  const auto commands = ParseClusterScript(
      "# comment\n"
      "\n"
      "query dm 0.1,0.2 0.6,0.9\n"
      "query dm 0,0 1,1 250\r\n"
      "kill-node 2\n"
      "revive-node 2\n"
      "kill-zone 1\n"
      "revive-zone 1\n"
      "advance-ms 150.5\n"
      "migrate fx 8\n").value();
  ASSERT_EQ(commands.size(), 8u);
  EXPECT_EQ(commands[0].kind, ClusterCommand::Kind::kQuery);
  EXPECT_EQ(commands[0].query.relation, "dm");
  EXPECT_EQ(commands[0].query.lo, (std::vector<double>{0.1, 0.2}));
  EXPECT_EQ(commands[0].query.hi, (std::vector<double>{0.6, 0.9}));
  EXPECT_EQ(commands[1].query.deadline_ms, 250.0);
  EXPECT_EQ(commands[2].kind, ClusterCommand::Kind::kKillNode);
  EXPECT_EQ(commands[2].node, 2u);
  EXPECT_EQ(commands[3].kind, ClusterCommand::Kind::kReviveNode);
  EXPECT_EQ(commands[4].kind, ClusterCommand::Kind::kKillZone);
  EXPECT_EQ(commands[4].zone, 1u);
  EXPECT_EQ(commands[5].kind, ClusterCommand::Kind::kReviveZone);
  EXPECT_EQ(commands[5].zone, 1u);
  EXPECT_EQ(commands[6].kind, ClusterCommand::Kind::kAdvance);
  EXPECT_EQ(commands[6].advance_ms, 150.5);
  EXPECT_EQ(commands[7].kind, ClusterCommand::Kind::kMigrate);
  EXPECT_EQ(commands[7].migrate_method, "fx");
  EXPECT_EQ(commands[7].migrate_disks, 8u);
}

TEST(ClusterScriptTest, RejectsMalformedLinesByNumber) {
  EXPECT_FALSE(ParseClusterScript("frobnicate\n").ok());
  EXPECT_FALSE(ParseClusterScript("query dm 0,0\n").ok());
  EXPECT_FALSE(ParseClusterScript("query dm 0,x 1,1\n").ok());
  EXPECT_FALSE(ParseClusterScript("query dm 0,0 1,1,1\n").ok());
  EXPECT_FALSE(ParseClusterScript("query dm 0,0 1,1 -5\n").ok());
  EXPECT_FALSE(ParseClusterScript("kill-node\n").ok());
  EXPECT_FALSE(ParseClusterScript("kill-node x\n").ok());
  EXPECT_FALSE(ParseClusterScript("kill-zone\n").ok());
  EXPECT_FALSE(ParseClusterScript("kill-zone two\n").ok());
  EXPECT_FALSE(ParseClusterScript("revive-zone\n").ok());
  EXPECT_FALSE(ParseClusterScript("advance-ms -1\n").ok());
  EXPECT_FALSE(ParseClusterScript("migrate fx\n").ok());
  EXPECT_FALSE(ParseClusterScript("migrate fx eight\n").ok());
  const Status st =
      ParseClusterScript("query dm 0,0 1,1\nbad\n").status();
  EXPECT_NE(st.message().find("line 2"), std::string::npos) << st.ToString();
}

/// 8x8 grid on 8 virtual disks over 4 nodes (two disks per node): the
/// smallest cluster exhibiting the chained self-colocation trap, and the
/// topology the zone tests use (nodes {0,1} = zone 0, nodes {2,3} =
/// zone 1 under Grid(4, 2, 2)).
Catalog CommitWideCatalog(
    MemEnv* env, uint64_t seed = 1,
    std::optional<ManifestPlacement> placement = std::nullopt) {
  Schema schema = Schema::Create({{"x", 0.0, 1.0}, {"y", 0.0, 1.0}}).value();
  GridFile f = GridFile::Create(std::move(schema), {8, 8}).value();
  const GridSpec grid = f.grid();
  Rng rng(seed);
  for (uint64_t b = 0; b < grid.num_buckets(); ++b) {
    const BucketCoords c = grid.Delinearize(b);
    for (uint32_t k = 0; k < 8; ++k) {
      const std::vector<double> point = {
          (c[0] + rng.NextDouble()) / 8.0, (c[1] + rng.NextDouble()) / 8.0};
      EXPECT_TRUE(f.Insert(point).ok());
    }
  }
  Catalog catalog(8);
  Result<DeclusteredFile> rel =
      DeclusteredFile::Create(std::move(f), "dm", 8);
  EXPECT_TRUE(rel.ok()) << rel.status().ToString();
  EXPECT_TRUE(catalog.AddRelation("dm", std::move(rel).value()).ok());
  ManifestSaveOptions options;
  options.page_size_bytes = 168;
  options.default_redundancy = Mirror2();
  options.placement = std::move(placement);
  EXPECT_TRUE(SaveCatalogManifest(catalog, env, options).ok());
  return catalog;
}

/// 4 nodes over 8 disks, 2-node zones, quorum low enough that killing a
/// whole zone (2 of 4 nodes) still leaves the coordinator serving.
ClusterOptions ZonedOptions(PlacementPolicy policy) {
  ClusterOptions options = Deterministic(4);
  options.quorum_fraction = 0.25;
  PlacementSpec spec;
  spec.policy = policy;
  spec.topology = Topology::Grid(4, 2, 2).value();
  spec.seed = 7;
  options.placement = spec;
  return options;
}

TEST(ClusterPlacementTest, ChainedSelfColocationWarnsAtConstruction) {
  MemEnv env;
  CommitWideCatalog(&env);
  auto chained =
      Cluster::Create(env, ZonedOptions(PlacementPolicy::kChained)).value();
  // Two disks per node: chained copy 1 of every even disk stays on the
  // owner's node. The warning names the trapped disks.
  ASSERT_FALSE(chained->PlacementWarnings().empty());
  EXPECT_NE(chained->PlacementWarnings()[0].find("0,2,4,6"),
            std::string::npos)
      << chained->PlacementWarnings()[0];

  auto zoned =
      Cluster::Create(env, ZonedOptions(PlacementPolicy::kZoneAware)).value();
  EXPECT_TRUE(zoned->PlacementWarnings().empty());
  EXPECT_EQ(zoned->placement_spec().policy, PlacementPolicy::kZoneAware);
}

TEST(ClusterPlacementTest, ZoneAwareSurvivesZoneKillWhereChainedCannot) {
  // The acceptance demo: identical catalog, identical zone kill; the
  // zone_aware layout answers everything, the chained layout drops the
  // buckets whose both copies lived in the dead zone.
  MemEnv env;
  const Catalog catalog = CommitWideCatalog(&env);
  const serve::QueryRequest full = Range({0.0, 0.0}, {1.0, 1.0});
  const std::vector<RecordId> want = Direct(catalog, full);

  auto zoned =
      Cluster::Create(env, ZonedOptions(PlacementPolicy::kZoneAware)).value();
  ASSERT_TRUE(zoned->KillZone(1).ok());
  EXPECT_TRUE(zoned->NodeAlive(0));
  EXPECT_TRUE(zoned->NodeAlive(1));
  EXPECT_FALSE(zoned->NodeAlive(2));
  EXPECT_FALSE(zoned->NodeAlive(3));
  const ClusterQueryResult safe = zoned->Execute(full);
  ASSERT_TRUE(safe.status.ok()) << safe.status.ToString();
  EXPECT_TRUE(safe.complete);
  EXPECT_EQ(safe.unavailable_buckets, 0u);
  EXPECT_EQ(safe.matches, want);
  ASSERT_TRUE(zoned->ReviveZone(1).ok());
  EXPECT_TRUE(zoned->NodeAlive(2));

  auto chained =
      Cluster::Create(env, ZonedOptions(PlacementPolicy::kChained)).value();
  ASSERT_TRUE(chained->KillZone(1).ok());
  const ClusterQueryResult lossy = chained->Execute(full);
  EXPECT_FALSE(lossy.complete);
  EXPECT_GT(lossy.unavailable_buckets, 0u);

  EXPECT_EQ(zoned->KillZone(9).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(zoned->ReviveZone(9).code(), StatusCode::kInvalidArgument);
}

TEST(ClusterPlacementTest, OverrideWinsOverTheManifestTable) {
  // The manifest carries a repaired 4-node table that keeps both copies
  // of disks 4..7 on nodes 2 and 3; the cluster is opened as 2 nodes with
  // a Flat(2) override. Routing must follow the override, not a table
  // naming nodes the cluster does not have.
  PlacementSpec persisted;
  persisted.topology = Topology::Flat(4);
  persisted.table = {{0, 0, 1, 1, 2, 2, 3, 3}, {2, 3, 3, 2, 3, 2, 2, 3}};
  MemEnv env;
  const Catalog catalog =
      CommitWideCatalog(&env, 1, ToManifestPlacement(persisted));

  ClusterOptions options = Deterministic(2);
  PlacementSpec override_spec;
  override_spec.policy = PlacementPolicy::kChained;
  override_spec.topology = Topology::Flat(2);
  options.placement = override_spec;
  auto cluster = Cluster::Create(env, options).value();

  const serve::QueryRequest full = Range({0.0, 0.0}, {1.0, 1.0});
  const ClusterQueryResult r = cluster->Execute(full);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.unavailable_buckets, 0u);
  EXPECT_EQ(r.winners, "pp");
  EXPECT_EQ(r.matches, Direct(catalog, full));

  const PlacementSpec spec = cluster->placement_spec();
  EXPECT_EQ(spec.policy, override_spec.policy);
  EXPECT_EQ(spec.seed, override_spec.seed);
  EXPECT_EQ(spec.topology.node_rack, override_spec.topology.node_rack);
  EXPECT_EQ(spec.topology.rack_zone, override_spec.topology.rack_zone);
  EXPECT_TRUE(spec.table.empty());
}

TEST(ClusterPlacementTest, OverrideTableIsRoutedVerbatim) {
  // Chained over 8 disks / 4 nodes co-locates copy 1 of disks 0,2,4,6;
  // an explicit table in the override moves every copy 1 three nodes on,
  // so nothing is co-located and disks 0 and 1 (node 0) fail over to
  // node 3.
  MemEnv env;
  const Catalog catalog = CommitWideCatalog(&env);
  ClusterOptions options = ZonedOptions(PlacementPolicy::kChained);
  options.placement->table = {{0, 0, 1, 1, 2, 2, 3, 3},
                              {3, 3, 0, 0, 1, 1, 2, 2}};
  auto cluster = Cluster::Create(env, options).value();
  EXPECT_TRUE(cluster->PlacementWarnings().empty());
  EXPECT_EQ(cluster->placement_spec().table, options.placement->table);

  const serve::QueryRequest full = Range({0.0, 0.0}, {1.0, 1.0});
  ASSERT_TRUE(cluster->KillNode(0).ok());
  const ClusterQueryResult served = cluster->Execute(full);
  ASSERT_TRUE(served.status.ok()) << served.status.ToString();
  EXPECT_TRUE(served.complete);
  EXPECT_EQ(served.matches, Direct(catalog, full));

  // With node 3 down as well, disks 0 and 1 (8 buckets each) have no
  // live copy: their copy 1 lived on node 3, nowhere else.
  ASSERT_TRUE(cluster->KillNode(3).ok());
  const ClusterQueryResult lossy = cluster->Execute(full);
  ASSERT_TRUE(lossy.status.ok()) << lossy.status.ToString();
  EXPECT_FALSE(lossy.complete);
  EXPECT_EQ(lossy.unavailable_buckets, 16u);
}

TEST(TokenBucketTest, DebtBasedPacingMath) {
  // 1000 tokens/sec, 50-token burst bank, starting empty: the first
  // consume goes straight into debt and must wait amount/rate.
  TokenBucket bucket(1000.0, 50.0);
  EXPECT_DOUBLE_EQ(bucket.ConsumeDelayMs(100.0, 0.0), 100.0);
  // 100 ms later the debt is repaid; 25 more tokens accrue by 125 ms, so
  // a 25-token consume is free.
  EXPECT_DOUBLE_EQ(bucket.ConsumeDelayMs(25.0, 125.0), 0.0);
  // Refill is capped at the burst bank: after a long idle stretch only 50
  // tokens are available, so consuming 150 owes 100 tokens -> 100 ms.
  EXPECT_DOUBLE_EQ(bucket.ConsumeDelayMs(150.0, 100000.0), 100.0);

  // rate <= 0 disables pacing entirely.
  TokenBucket unpaced(0.0, 50.0);
  EXPECT_DOUBLE_EQ(unpaced.ConsumeDelayMs(1e9, 0.0), 0.0);
}

TEST(MigrationPacingTest, PacedCopyReportsBytesAndWaits) {
  MemEnv env;
  CommitCatalog(&env, Mirror2());
  auto cluster = Cluster::Create(env, Deterministic()).value();

  MigrationOptions mo;
  mo.new_method = "fx";
  mo.new_num_disks = 4;
  mo.copy_bytes_per_sec = 4e6;  // Pace, but keep the test fast.
  const MigrationReport report = cluster->Migrate(mo).value();
  ASSERT_TRUE(report.committed) << report.abort_reason;
  EXPECT_GT(report.bytes_copied, 0u);
  // The bucket starts empty, so a paced copy always records some wait.
  EXPECT_GT(report.pacing_wait_ms, 0.0);

  // Unpaced: same copy, no pacing debt.
  MigrationOptions fast;
  fast.new_method = "dm";
  fast.new_num_disks = 4;
  const MigrationReport unpaced = cluster->Migrate(fast).value();
  ASSERT_TRUE(unpaced.committed) << unpaced.abort_reason;
  EXPECT_GT(unpaced.bytes_copied, 0u);
  EXPECT_DOUBLE_EQ(unpaced.pacing_wait_ms, 0.0);

  // Negative pacing knobs are validation errors, not silent no-ops.
  MigrationOptions bad;
  bad.new_method = "fx";
  bad.new_num_disks = 4;
  bad.copy_bytes_per_sec = -1.0;
  EXPECT_EQ(cluster->Migrate(bad).status().code(),
            StatusCode::kInvalidArgument);
  // A NaN knob fails every comparison; it must not run as unpaced.
  bad.copy_bytes_per_sec = 0.0;
  bad.copy_contention_ms = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(cluster->Migrate(bad).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ClusterGatherTest, FailoverSplitIntoMoreRunsThanRoutesMergesExactly) {
  // Node 0 owns disks 0 and 1, whose copy 1 lives on nodes 1 and 2. Once
  // node 0's reads fail, its route fails over as two sub-queries, so the
  // gather merges five runs from four routes.
  MemEnv env;
  const Catalog catalog = CommitWideCatalog(&env);
  ClusterOptions options = Deterministic(4);
  PlacementSpec spec;
  spec.topology = Topology::Flat(4);
  spec.table = {{0, 0, 1, 1, 2, 2, 3, 3}, {1, 2, 2, 3, 3, 0, 0, 1}};
  options.placement = spec;
  auto cluster = Cluster::Create(env, options).value();

  // Flip a CRC byte of every copy-0 page on node 0 only: its primary
  // sub-query fails at read time, after planning routed to it.
  MemEnv* node0 = cluster->node_env_for_test(0);
  const std::string data = ReadCurrentManifest(*node0).value().DataFileName(0);
  const FileLayout layout =
      ParseFileLayout(node0->ReadFile(data).value()).value();
  for (uint64_t page = 0; page < layout.num_pages; ++page) {
    ASSERT_TRUE(
        node0->CorruptByte(data, layout.PageOffset(page) + 4, 0xFF).ok());
  }

  for (const serve::QueryRequest& q :
       {Range({0.0, 0.0}, {1.0, 1.0}), Range({0.0, 0.1}, {0.7, 0.45})}) {
    const ClusterQueryResult r = cluster->Execute(q);
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_TRUE(r.complete);
    EXPECT_EQ(r.winners, "hppp");
    EXPECT_EQ(r.sub_queries, 6u);  // Four primaries, two fallbacks.
    EXPECT_EQ(r.rerouted_subqueries, 2u);
    ExpectExactAnswer(r, Direct(catalog, q));
  }
}

TEST(ClusterGatherTest, EmptyAndFullBoxesMergeExactly) {
  MemEnv env;
  const Catalog catalog = CommitCatalog(&env, Mirror2());
  auto cluster = Cluster::Create(env, Deterministic()).value();

  // A point box touches one bucket and matches no record.
  const serve::QueryRequest point = Range({0.5, 0.5}, {0.5, 0.5});
  const ClusterQueryResult none = cluster->Execute(point);
  ASSERT_TRUE(none.status.ok()) << none.status.ToString();
  EXPECT_TRUE(none.complete);
  EXPECT_EQ(none.buckets_touched, 1u);
  EXPECT_EQ(none.sub_queries, 1u);
  ExpectExactAnswer(none, {});
  EXPECT_TRUE(Direct(catalog, point).empty());

  const serve::QueryRequest full = Range({0.0, 0.0}, {1.0, 1.0});
  const ClusterQueryResult all = cluster->Execute(full);
  ASSERT_TRUE(all.status.ok()) << all.status.ToString();
  EXPECT_EQ(all.sub_queries, 4u);
  ExpectExactAnswer(all, Direct(catalog, full));
  EXPECT_EQ(all.matches.size(), 128u);  // 16 buckets x 8 records.
}

TEST(ClusterGatherTest, StagingDoubleReadMergesExactlyDuringAMigration) {
  MemEnv env;
  const Catalog catalog = CommitCatalog(&env, Mirror2());
  auto cluster = Cluster::Create(env, Deterministic()).value();
  const std::vector<serve::QueryRequest> queries = PropertyQueries();

  // At "commit" the staging epoch is installed: every complete query is
  // also run against the new layout and byte-compared with the live one.
  MigrationOptions mo;
  mo.new_method = "fx";
  mo.new_num_disks = 4;
  size_t served = 0;
  mo.on_phase = [&](const std::string& phase) {
    if (phase != "commit") return;
    ASSERT_TRUE(cluster->migrating());
    for (const serve::QueryRequest& q : queries) {
      const ClusterQueryResult r = cluster->Execute(q);
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
      ExpectExactAnswer(r, Direct(catalog, q));
      ++served;
    }
  };
  const MigrationReport report = cluster->Migrate(mo).value();
  ASSERT_TRUE(report.committed) << report.abort_reason;
  EXPECT_EQ(served, queries.size());

  obs::MetricsRegistry reg;
  cluster->SnapshotMetrics(&reg);
  EXPECT_EQ(reg.GetCounter("cluster.verify_reads")->value(), queries.size());
  EXPECT_EQ(reg.GetCounter("cluster.verify_mismatches")->value(), 0u);
}

TEST(ClusterGatherTest, ConcurrentCallersEachGetAnExactAnswer) {
  // Eight threads call Execute at once, with adaptive hedging on, first
  // on a healthy cluster and then with a node dead (replica routes): a
  // scratch shared between two callers would mix their answers.
  MemEnv env;
  const Catalog catalog = CommitWideCatalog(&env);
  ClusterOptions options = ZonedOptions(PlacementPolicy::kZoneAware);
  options.hedging = true;
  auto cluster = Cluster::Create(env, options).value();

  std::vector<serve::QueryRequest> queries = PropertyQueries();
  Rng rng(23);
  while (queries.size() < 40) {
    std::vector<double> lo(2), hi(2);
    for (int d = 0; d < 2; ++d) {
      const double a = rng.NextDouble();
      const double b = rng.NextDouble();
      lo[d] = std::min(a, b);
      hi[d] = std::max(a, b);
    }
    queries.push_back(Range(lo, hi));
  }
  std::vector<std::vector<RecordId>> want;
  for (const serve::QueryRequest& q : queries) {
    want.push_back(Direct(catalog, q));
  }

  for (const bool kill : {false, true}) {
    if (kill) {
      ASSERT_TRUE(cluster->KillNode(2).ok());
    }
    std::vector<std::thread> callers;
    for (size_t t = 0; t < 8; ++t) {
      callers.emplace_back([&, t] {
        for (size_t round = 0; round < 3; ++round) {
          for (size_t i = 0; i < queries.size(); ++i) {
            const size_t q = (i + t * 5) % queries.size();
            const ClusterQueryResult r = cluster->Execute(queries[q]);
            ASSERT_TRUE(r.status.ok()) << r.status.ToString();
            EXPECT_TRUE(r.complete) << "query " << q;
            ExpectExactAnswer(r, want[q]);
          }
        }
      });
    }
    for (std::thread& th : callers) th.join();
  }
}

}  // namespace
}  // namespace cluster
}  // namespace griddecl
