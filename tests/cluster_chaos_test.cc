#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "griddecl/cluster/cluster.h"
#include "griddecl/common/random.h"
#include "griddecl/gridfile/catalog.h"
#include "griddecl/gridfile/declustered_file.h"
#include "griddecl/gridfile/manifest.h"

/// \file
/// Migration torture and chaos soaks for the scatter-gather cluster. The
/// contract under test: every query the cluster answers is either
/// complete-and-correct or explicitly flagged (partial availability or a
/// clean error) — never silently wrong — and an aborted migration leaves
/// the old generation byte-for-byte intact and serving.

namespace griddecl {
namespace cluster {
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

Catalog CommitMirrorCatalog(MemEnv* env, uint64_t seed = 1) {
  Catalog catalog(4);
  Result<DeclusteredFile> rel =
      DeclusteredFile::Create(MakeClusteredFile(seed), "dm", 4);
  EXPECT_TRUE(rel.ok()) << rel.status().ToString();
  EXPECT_TRUE(catalog.AddRelation("dm", std::move(rel).value()).ok());
  ManifestSaveOptions options;
  options.page_size_bytes = 168;
  options.default_redundancy.policy = RelationRedundancy::Policy::kMirror;
  options.default_redundancy.copies = 2;
  EXPECT_TRUE(SaveCatalogManifest(catalog, env, options).ok());
  return catalog;
}

serve::QueryRequest Range(std::vector<double> lo, std::vector<double> hi) {
  serve::QueryRequest req;
  req.relation = "dm";
  req.lo = std::move(lo);
  req.hi = std::move(hi);
  return req;
}

std::vector<RecordId> Direct(const Catalog& catalog,
                             const serve::QueryRequest& req) {
  std::vector<RecordId> ids =
      catalog.Find("dm")->ExecuteRange(req.lo, req.hi).value().matches;
  std::sort(ids.begin(), ids.end());
  return ids;
}

ClusterOptions Deterministic() {
  ClusterOptions o;
  o.num_nodes = 4;
  o.hedging = false;
  o.node_breaker.min_events = 1000000;
  o.node_breaker.window = 1000000;
  o.node.breaker.min_events = 1000000;
  o.node.breaker.window = 1000000;
  return o;
}

/// The fixed traffic mix every soak drives, with reference answers.
/// Record ids are invariant across re-declustering (the data files are
/// byte-identical copies), so one reference serves both generations.
struct Traffic {
  std::vector<serve::QueryRequest> queries;
  std::vector<std::vector<RecordId>> want;
};

Traffic MakeTraffic(const Catalog& catalog) {
  Traffic t;
  t.queries.push_back(Range({0.0, 0.0}, {1.0, 1.0}));
  t.queries.push_back(Range({0.0, 0.0}, {0.49, 0.49}));
  t.queries.push_back(Range({0.5, 0.5}, {1.0, 1.0}));
  t.queries.push_back(Range({0.0, 0.4}, {1.0, 0.6}));
  t.queries.push_back(Range({0.3, 0.1}, {0.8, 0.9}));
  t.queries.push_back(Range({0.05, 0.3}, {0.1, 0.35}));
  for (const serve::QueryRequest& q : t.queries) {
    t.want.push_back(Direct(catalog, q));
  }
  return t;
}

std::vector<std::string> NodeFiles(Cluster* cluster, uint32_t node) {
  return cluster->node_env_for_test(node)->ListFiles().value();
}

/// Sub-queries are strict: only the coordinator moves a read to another
/// copy, so no node service reroutes, fails over or trips a disk breaker.
void ExpectNodesNeverMovedARead(obs::MetricsRegistry& reg) {
  for (const char* name :
       {"rerouted_buckets", "failover_reads", "breaker.opened"}) {
    EXPECT_EQ(
        reg.GetCounter(std::string("cluster.node_serve.") + name)->value(),
        0u)
        << name;
  }
}

TEST(MigrationTortureTest, HealthyCutoverServesEveryConcurrentQuery) {
  MemEnv env;
  const Catalog catalog = CommitMirrorCatalog(&env);
  auto cluster = Cluster::Create(env, Deterministic()).value();
  const Traffic traffic = MakeTraffic(catalog);

  // Traffic hammers the cluster while the migration copies, verifies and
  // cuts over. Healthy pass acceptance: zero failed, zero partial, zero
  // wrong queries, before, during and after the cutover.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> served{0};
  std::atomic<uint64_t> bad{0};
  std::vector<std::thread> drivers;
  for (int t = 0; t < 2; ++t) {
    drivers.emplace_back([&, t] {
      size_t i = static_cast<size_t>(t);
      while (!stop.load()) {
        const size_t q = i++ % traffic.queries.size();
        const ClusterQueryResult r = cluster->Execute(traffic.queries[q]);
        served.fetch_add(1);
        if (!r.status.ok() || !r.complete || r.matches != traffic.want[q] ||
            (r.generation != 1 && r.generation != 2)) {
          bad.fetch_add(1);
        }
      }
    });
  }

  MigrationOptions mo;
  mo.new_method = "fx";
  mo.new_num_disks = 4;
  std::vector<std::string> phases;
  mo.on_phase = [&phases](const std::string& p) { phases.push_back(p); };
  const MigrationReport report = cluster->Migrate(mo).value();
  // Let traffic observe the committed generation before stopping.
  for (int i = 0; i < 20; ++i) {
    (void)cluster->Execute(traffic.queries[0]);
  }
  stop.store(true);
  for (std::thread& th : drivers) th.join();

  EXPECT_TRUE(report.committed) << report.abort_reason;
  EXPECT_EQ(report.old_generation, 1u);
  EXPECT_EQ(report.new_generation, 2u);
  EXPECT_GT(report.files_copied, 0u);
  EXPECT_EQ(report.buckets_copied, 16u);
  EXPECT_GT(report.verify_queries, 0u);
  EXPECT_EQ(report.verify_mismatches, 0u);
  EXPECT_EQ(phases, (std::vector<std::string>{"copy", "staged", "verify",
                                              "commit", "committed"}));
  EXPECT_EQ(cluster->generation(), 2u);
  EXPECT_FALSE(cluster->migrating());
  EXPECT_GT(served.load(), 0u);
  EXPECT_EQ(bad.load(), 0u);

  // The new layout answers identically, and the old generation survives
  // as the rollback target on every node.
  for (size_t q = 0; q < traffic.queries.size(); ++q) {
    const ClusterQueryResult r = cluster->Execute(traffic.queries[q]);
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_TRUE(r.complete);
    EXPECT_EQ(r.generation, 2u);
    EXPECT_EQ(r.matches, traffic.want[q]) << "query " << q;
  }
  for (uint32_t n = 0; n < 4; ++n) {
    EXPECT_TRUE(cluster->node_env_for_test(n)->Exists(ManifestFileName(1)));
    EXPECT_TRUE(cluster->node_env_for_test(n)->Exists(ManifestFileName(2)));
  }

  obs::MetricsRegistry reg;
  cluster->SnapshotMetrics(&reg);
  EXPECT_EQ(reg.GetCounter("cluster.migrations_committed")->value(), 1u);
  EXPECT_EQ(reg.GetCounter("cluster.migrations_aborted")->value(), 0u);
  EXPECT_EQ(reg.GetCounter("cluster.verify_mismatches")->value(), 0u);
}

TEST(MigrationTortureTest, SecondMigrationWhileRunningIsRefused) {
  MemEnv env;
  CommitMirrorCatalog(&env);
  auto cluster = Cluster::Create(env, Deterministic()).value();
  MigrationOptions inner;
  inner.new_method = "dm";
  inner.new_num_disks = 4;
  MigrationOptions mo;
  mo.new_method = "fx";
  mo.new_num_disks = 4;
  Status nested = Status::Ok();
  mo.on_phase = [&](const std::string& p) {
    if (p == "staged") nested = cluster->Migrate(inner).status();
  };
  const MigrationReport report = cluster->Migrate(mo).value();
  EXPECT_TRUE(report.committed) << report.abort_reason;
  EXPECT_EQ(nested.code(), StatusCode::kFailedPrecondition);

  // Invalid targets are caller errors, not aborts.
  MigrationOptions invalid;
  invalid.new_method = "nope";
  invalid.new_num_disks = 4;
  EXPECT_EQ(cluster->Migrate(invalid).status().code(),
            StatusCode::kInvalidArgument);
  invalid.new_method = "dm";
  invalid.new_num_disks = 2;  // Fewer disks than nodes.
  EXPECT_EQ(cluster->Migrate(invalid).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(cluster->generation(), 2u);
}

TEST(MigrationTortureTest, NodeLossAtStagedAbortsAndRestoresOldLayout) {
  // Node loss at "staged", and at every other phase boundary before the
  // commit point, aborts the same clean way.
  for (const std::string kill_at : {"copy", "staged", "verify", "commit"}) {
    MemEnv env;
    const Catalog catalog = CommitMirrorCatalog(&env);
    auto cluster = Cluster::Create(env, Deterministic()).value();
    const Traffic traffic = MakeTraffic(catalog);
    std::vector<std::vector<std::string>> files_before;
    for (uint32_t n = 0; n < 4; ++n) {
      files_before.push_back(NodeFiles(cluster.get(), n));
    }

    MigrationOptions mo;
    mo.new_method = "fx";
    mo.new_num_disks = 4;
    mo.on_phase = [&](const std::string& p) {
      if (p == kill_at) {
        ASSERT_TRUE(cluster->KillNode(3).ok());
      }
    };
    const MigrationReport report = cluster->Migrate(mo).value();
    EXPECT_FALSE(report.committed) << "at " << kill_at;
    EXPECT_EQ(report.abort_reason, "node lost") << "at " << kill_at;
    EXPECT_EQ(cluster->generation(), 1u);
    EXPECT_FALSE(cluster->migrating());

    // Every staged file was dropped: each node's env holds exactly the
    // file set it held before the migration started.
    for (uint32_t n = 0; n < 4; ++n) {
      EXPECT_EQ(NodeFiles(cluster.get(), n), files_before[n])
          << "at " << kill_at << ", node " << n;
    }

    // The old layout still serves: complete through mirrors while node 3
    // is down, all-primary after revival.
    const ClusterQueryResult degraded = cluster->Execute(traffic.queries[0]);
    ASSERT_TRUE(degraded.status.ok()) << degraded.status.ToString();
    EXPECT_TRUE(degraded.complete);
    EXPECT_EQ(degraded.matches, traffic.want[0]);
    ASSERT_TRUE(cluster->ReviveNode(3).ok());
    const ClusterQueryResult healed = cluster->Execute(traffic.queries[0]);
    ASSERT_TRUE(healed.status.ok());
    EXPECT_EQ(healed.rerouted_subqueries, 0u);
    EXPECT_EQ(healed.matches, traffic.want[0]);

    // And a later healthy migration of the same cluster goes through.
    mo.on_phase = nullptr;
    const MigrationReport retry = cluster->Migrate(mo).value();
    EXPECT_TRUE(retry.committed) << retry.abort_reason;
    EXPECT_EQ(cluster->generation(), retry.new_generation);

    obs::MetricsRegistry reg;
    cluster->SnapshotMetrics(&reg);
    EXPECT_EQ(reg.GetCounter("cluster.migrations_aborted")->value(), 1u);
    EXPECT_EQ(reg.GetCounter("cluster.migrations_committed")->value(), 1u);
  }
}

TEST(MigrationTortureTest, ExternalAbortDuringVerifyRollsBackCleanly) {
  MemEnv env;
  const Catalog catalog = CommitMirrorCatalog(&env);
  auto cluster = Cluster::Create(env, Deterministic()).value();
  const std::vector<std::string> files_before = NodeFiles(cluster.get(), 0);

  MigrationOptions mo;
  mo.new_method = "fx";
  mo.new_num_disks = 4;
  mo.on_phase = [&](const std::string& p) {
    if (p == "verify") cluster->AbortMigration();
  };
  const MigrationReport report = cluster->Migrate(mo).value();
  EXPECT_FALSE(report.committed);
  EXPECT_EQ(report.abort_reason, "externally aborted");
  EXPECT_EQ(cluster->generation(), 1u);
  EXPECT_EQ(NodeFiles(cluster.get(), 0), files_before);

  const serve::QueryRequest full = Range({0.0, 0.0}, {1.0, 1.0});
  const ClusterQueryResult r = cluster->Execute(full);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.matches, Direct(catalog, full));
  EXPECT_EQ(r.generation, 1u);
}

TEST(MigrationTortureTest, StagedCorruptionFailsVerificationAndAborts) {
  MemEnv env;
  const Catalog catalog = CommitMirrorCatalog(&env);
  auto cluster = Cluster::Create(env, Deterministic()).value();
  const std::vector<std::string> files_before = NodeFiles(cluster.get(), 1);

  // Corrupt one staged data page on one node after the copy lands. The
  // staging service's checksummed load on that node must catch it before
  // any cutover, and the abort must drop the wreckage.
  MigrationOptions mo;
  mo.new_method = "fx";
  mo.new_num_disks = 4;
  mo.on_phase = [&](const std::string& p) {
    if (p == "staged") {
      ASSERT_TRUE(cluster->node_env_for_test(1)
                      ->CorruptByte("rel-000002-0.gd", 400, 0x20)
                      .ok());
    }
  };
  const MigrationReport report = cluster->Migrate(mo).value();
  EXPECT_FALSE(report.committed);
  EXPECT_NE(report.abort_reason.find("staging service on node 1"),
            std::string::npos)
      << report.abort_reason;
  EXPECT_EQ(cluster->generation(), 1u);
  EXPECT_EQ(NodeFiles(cluster.get(), 1), files_before);

  const serve::QueryRequest full = Range({0.0, 0.0}, {1.0, 1.0});
  const ClusterQueryResult r = cluster->Execute(full);
  ASSERT_TRUE(r.status.ok());
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.matches, Direct(catalog, full));
}

TEST(ClusterChaosTest, SoakNeverServesSilentWrongData) {
  MemEnv env;
  const Catalog catalog = CommitMirrorCatalog(&env);
  ClusterOptions options = Deterministic();
  options.hedging = true;
  options.hedge_policy = HedgePolicy::kFirstSuccess;
  options.hedge_delay_ms = 0.2;
  options.seed = 5;
  // Node 0's reads wait, so its sub-queries go to its queue, and with no
  // pool every one of them pays the latency: a full box's four pages
  // outlast the hedge delay, so hedges keep racing the kills, revivals and
  // the migration. The other nodes' sub-queries run on the coordinators'
  // threads.
  options.node_latency_ms = {0.1, 0.0, 0.0, 0.0};
  options.node.pool_pages = 0;
  auto cluster = Cluster::Create(env, options).value();
  const Traffic traffic = MakeTraffic(catalog);

  // Three traffic threads race kills, revivals and a live migration. The
  // invariant: every returned result is complete-and-correct, or an
  // explicitly flagged partial whose matches are a subset of the truth,
  // or a clean error with no matches. Silent wrong data = test failure.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> served{0};
  std::atomic<uint64_t> complete{0};
  std::atomic<uint64_t> partial{0};
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> wrong{0};
  std::vector<std::thread> drivers;
  for (int t = 0; t < 3; ++t) {
    drivers.emplace_back([&, t] {
      size_t i = static_cast<size_t>(t) * 31;
      while (!stop.load()) {
        const size_t q = i++ % traffic.queries.size();
        const ClusterQueryResult r = cluster->Execute(traffic.queries[q]);
        const std::vector<RecordId>& want = traffic.want[q];
        served.fetch_add(1);
        if (r.status.ok() && r.complete) {
          complete.fetch_add(1);
          if (r.matches != want || r.availability != 1.0) wrong.fetch_add(1);
        } else if (r.status.ok()) {
          partial.fetch_add(1);
          const bool flagged =
              r.unavailable_buckets > 0 && r.availability < 1.0;
          const bool subset = std::includes(want.begin(), want.end(),
                                            r.matches.begin(),
                                            r.matches.end());
          if (!flagged || !subset) wrong.fetch_add(1);
        } else {
          failed.fetch_add(1);
          if (!r.matches.empty()) wrong.fetch_add(1);
        }
      }
    });
  }

  const auto breathe =
      [] { std::this_thread::sleep_for(std::chrono::milliseconds(5)); };
  breathe();
  ASSERT_TRUE(cluster->KillNode(1).ok());
  breathe();
  ASSERT_TRUE(cluster->ReviveNode(1).ok());
  breathe();
  MigrationOptions mo;
  mo.new_method = "fx";
  mo.new_num_disks = 4;
  const MigrationReport report = cluster->Migrate(mo).value();
  EXPECT_TRUE(report.committed) << report.abort_reason;
  breathe();
  ASSERT_TRUE(cluster->KillNode(2).ok());
  breathe();
  ASSERT_TRUE(cluster->KillNode(3).ok());  // Quorum lost: clean refusals.
  breathe();
  ASSERT_TRUE(cluster->ReviveNode(2).ok());
  ASSERT_TRUE(cluster->ReviveNode(3).ok());
  breathe();
  stop.store(true);
  for (std::thread& th : drivers) th.join();

  EXPECT_GT(served.load(), 0u);
  EXPECT_GT(complete.load(), 0u);
  EXPECT_EQ(wrong.load(), 0u)
      << "served " << served.load() << " (complete " << complete.load()
      << ", partial " << partial.load() << ", failed " << failed.load()
      << ")";
  EXPECT_EQ(cluster->generation(), 2u);

  // Fully healed cluster on the new layout: back to exact answers.
  for (size_t q = 0; q < traffic.queries.size(); ++q) {
    const ClusterQueryResult r = cluster->Execute(traffic.queries[q]);
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_TRUE(r.complete);
    EXPECT_EQ(r.matches, traffic.want[q]) << "query " << q;
  }
  obs::MetricsRegistry reg;
  cluster->SnapshotMetrics(&reg);
  EXPECT_EQ(reg.GetCounter("cluster.verify_mismatches")->value(), 0u);
  ExpectNodesNeverMovedARead(reg);
  EXPECT_GT(reg.GetCounter("cluster.hedges_fired")->value(), 0u);
}

TEST(ClusterChaosTest, RepairSoakHealsUnderLiveTraffic) {
  // Same silent-wrong-data invariant as the migration soak, but the
  // control plane runs the self-healing cycle: heartbeat-detected node
  // death, a paced repair cutover, a revived node catching up through the
  // generation fence, and a full-zone kill the repair must have made
  // survivable — all while traffic threads hammer the cluster.
  MemEnv env;
  const Catalog catalog = CommitMirrorCatalog(&env);
  ClusterOptions options = Deterministic();
  options.seed = 5;
  options.quorum_fraction = 0.2;
  PlacementSpec spec;
  spec.policy = PlacementPolicy::kZoneAware;
  spec.topology = Topology::Grid(4, 2, 2).value();
  spec.seed = 7;
  options.placement = spec;
  auto cluster = Cluster::Create(env, options).value();
  const Traffic traffic = MakeTraffic(catalog);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> served{0};
  std::atomic<uint64_t> complete{0};
  std::atomic<uint64_t> wrong{0};
  std::vector<std::thread> drivers;
  for (int t = 0; t < 3; ++t) {
    drivers.emplace_back([&, t] {
      size_t i = static_cast<size_t>(t) * 31;
      while (!stop.load()) {
        const size_t q = i++ % traffic.queries.size();
        const ClusterQueryResult r = cluster->Execute(traffic.queries[q]);
        const std::vector<RecordId>& want = traffic.want[q];
        served.fetch_add(1);
        if (r.status.ok() && r.complete) {
          complete.fetch_add(1);
          if (r.matches != want || r.availability != 1.0) wrong.fetch_add(1);
        } else if (r.status.ok()) {
          const bool flagged =
              r.unavailable_buckets > 0 && r.availability < 1.0;
          const bool subset = std::includes(want.begin(), want.end(),
                                            r.matches.begin(),
                                            r.matches.end());
          if (!flagged || !subset) wrong.fetch_add(1);
        } else if (!r.matches.empty()) {
          wrong.fetch_add(1);
        }
      }
    });
  }

  const auto breathe =
      [] { std::this_thread::sleep_for(std::chrono::milliseconds(5)); };
  breathe();
  // Lose a node; the detector declares it dead; a paced repair rebuilds
  // its replicas on the surviving zone-0 node under live load.
  ASSERT_TRUE(cluster->KillNode(1).ok());
  breathe();
  cluster->AdvanceTimeMs(60.0);
  RepairOptions ro;
  ro.copy_bytes_per_sec = 1e9;
  const RepairReport report = cluster->Repair(ro).value();
  EXPECT_TRUE(report.committed) << report.abort_reason;
  breathe();
  // The revived node is a generation behind: readmission goes through the
  // catch-up fence while queries keep flowing.
  ASSERT_TRUE(cluster->ReviveNode(1).ok());
  breathe();
  // The repair's whole point: a subsequent full-zone kill keeps serving.
  ASSERT_TRUE(cluster->KillZone(1).ok());
  breathe();
  ASSERT_TRUE(cluster->ReviveNode(2).ok());
  ASSERT_TRUE(cluster->ReviveNode(3).ok());
  breathe();
  // A repair on the healed cluster is a no-op, not a layout churn.
  const RepairReport idle = cluster->Repair({}).value();
  EXPECT_TRUE(idle.already_healthy) << idle.abort_reason;
  breathe();
  stop.store(true);
  for (std::thread& th : drivers) th.join();

  EXPECT_GT(served.load(), 0u);
  EXPECT_GT(complete.load(), 0u);
  EXPECT_EQ(wrong.load(), 0u) << "served " << served.load();
  EXPECT_EQ(cluster->generation(), report.new_generation);

  for (size_t q = 0; q < traffic.queries.size(); ++q) {
    const ClusterQueryResult r = cluster->Execute(traffic.queries[q]);
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_TRUE(r.complete);
    EXPECT_EQ(r.matches, traffic.want[q]) << "query " << q;
  }
  obs::MetricsRegistry reg;
  cluster->SnapshotMetrics(&reg);
  EXPECT_EQ(reg.GetCounter("cluster.repairs_committed")->value(), 1u);
  EXPECT_EQ(reg.GetCounter("cluster.verify_mismatches")->value(), 0u);
  EXPECT_GE(reg.GetCounter("cluster.revive_catchups")->value(), 1u);
  ExpectNodesNeverMovedARead(reg);
}

}  // namespace
}  // namespace cluster
}  // namespace griddecl
