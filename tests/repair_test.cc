#include "griddecl/cluster/repair.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "griddecl/cluster/heartbeat.h"
#include "griddecl/cluster/script.h"
#include "griddecl/common/random.h"
#include "griddecl/gridfile/catalog.h"
#include "griddecl/gridfile/declustered_file.h"
#include "griddecl/gridfile/manifest.h"
#include "griddecl/methods/registry.h"

/// \file
/// Self-healing coverage: the heartbeat failure detector, the pure repair
/// planner, the staged repair executor (including the acceptance demo —
/// heal a node loss, then survive a full-zone kill), topology changes
/// (add-node / remove-node evacuation), the revive catch-up fence, the
/// retry/hedge budgets, and repair torture (node loss at every phase).

namespace griddecl {
namespace cluster {

/// A friend of Cluster: read access to its routing epochs.
struct ClusterTestPeer {
  /// The relation the current epoch routes `name` by.
  static std::shared_ptr<const serve::Relation> EpochRelation(
      const Cluster& cluster, const std::string& name) {
    return cluster.CurrentEpoch()->relations().at(name);
  }

  /// The service the current epoch routes node `n` to; null when the
  /// epoch holds none for it.
  static std::shared_ptr<serve::QueryService> EpochService(
      const Cluster& cluster, uint32_t n) {
    return cluster.CurrentEpoch()->services.at(n);
  }

  /// Expects every live node service of the current epoch to serve the
  /// very relation objects the epoch routes by: one load per generation,
  /// shared, with nothing derived per node or per epoch.
  static void ExpectRoutesByNodeServiceRelations(const Cluster& cluster) {
    const auto epoch = cluster.CurrentEpoch();
    ASSERT_FALSE(epoch->relations().empty());
    uint32_t live = 0;
    for (uint32_t n = 0; n < epoch->services.size(); ++n) {
      const serve::QueryService* service = epoch->services[n].get();
      if (service == nullptr || !cluster.NodeAlive(n)) continue;
      ++live;
      EXPECT_EQ(service->relations().size(), epoch->relations().size());
      for (const auto& [name, rel] : epoch->relations()) {
        const auto it = service->relations().find(name);
        EXPECT_TRUE(it != service->relations().end() && it->second == rel)
            << "relation '" << name << "' on node " << n << " at generation "
            << epoch->generation();
      }
    }
    EXPECT_GT(live, 0u);
  }
};

namespace {

RelationRedundancy Mirror2() {
  RelationRedundancy r;
  r.policy = RelationRedundancy::Policy::kMirror;
  r.copies = 2;
  return r;
}

/// 8x8 grid on 8 virtual disks over 4 nodes (two disks per node), nodes
/// {0,1} = zone 0 and {2,3} = zone 1 under Grid(4, 2, 2) — the same
/// topology the cluster placement tests use. The relation is named "dm"
/// whichever `method` declusters it.
Catalog CommitWideCatalog(MemEnv* env, uint64_t seed = 1,
                          RelationRedundancy redundancy = Mirror2(),
                          const std::string& method = "dm") {
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
      DeclusteredFile::Create(std::move(f), method, 8);
  EXPECT_TRUE(rel.ok()) << rel.status().ToString();
  EXPECT_TRUE(catalog.AddRelation("dm", std::move(rel).value()).ok());
  ManifestSaveOptions options;
  options.page_size_bytes = 168;
  options.default_redundancy = redundancy;
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

/// Deterministic zone-aware cluster over the wide catalog with a quorum
/// low enough that a single surviving node still serves — the acceptance
/// demo needs exactly one zone-0 node to carry everything after the
/// zone-1 kill.
ClusterOptions HealingOptions(uint32_t num_threads = 4) {
  ClusterOptions o;
  o.num_nodes = 4;
  o.hedging = false;
  o.node_breaker.min_events = 1000000;
  o.node_breaker.window = 1000000;
  o.node.breaker.min_events = 1000000;
  o.node.breaker.window = 1000000;
  o.node.num_threads = num_threads;
  o.quorum_fraction = 0.2;
  PlacementSpec spec;
  spec.policy = PlacementPolicy::kZoneAware;
  spec.topology = Topology::Grid(4, 2, 2).value();
  spec.seed = 7;
  o.placement = spec;
  return o;
}

std::vector<std::string> NodeFiles(Cluster* cluster, uint32_t node) {
  return cluster->node_env_for_test(node)->ListFiles().value();
}

// ---------------------------------------------------------------------------
// Heartbeat detector
// ---------------------------------------------------------------------------

TEST(HeartbeatTest, ValidatesOptions) {
  HeartbeatOptions ok;
  EXPECT_TRUE(ValidateHeartbeatOptions(ok).ok());
  HeartbeatOptions bad = ok;
  bad.interval_ms = 0.0;
  EXPECT_FALSE(ValidateHeartbeatOptions(bad).ok());
  bad = ok;
  bad.suspect_after = 0;
  EXPECT_FALSE(ValidateHeartbeatOptions(bad).ok());
  bad = ok;
  bad.dead_after = bad.suspect_after - 1;
  EXPECT_FALSE(ValidateHeartbeatOptions(bad).ok());
}

TEST(HeartbeatTest, WalksAliveSuspectDeadAndRecovers) {
  HeartbeatOptions o;  // 10 ms interval, suspect after 2, dead after 4.
  HeartbeatDetector hb(o, 3);
  hb.Track(0);
  hb.Track(1);
  // Node 2 exists as a slot but is never tracked: never probed.
  bool node1_up = false;
  const auto probe = [&](uint32_t n, double) { return n == 0 || node1_up; };

  hb.AdvanceTo(10.0, probe);
  EXPECT_EQ(hb.HealthOf(1), NodeHealth::kAlive);  // 1 miss: still alive.
  hb.AdvanceTo(20.0, probe);
  EXPECT_EQ(hb.HealthOf(1), NodeHealth::kSuspect);
  EXPECT_EQ(hb.HealthOf(0), NodeHealth::kAlive);
  hb.AdvanceTo(39.9, probe);  // Tick 40 has not happened yet.
  EXPECT_EQ(hb.HealthOf(1), NodeHealth::kSuspect);
  hb.AdvanceTo(40.0, probe);
  EXPECT_EQ(hb.HealthOf(1), NodeHealth::kDead);
  EXPECT_EQ(hb.DeadSinceMs(1), 40.0);
  EXPECT_EQ(hb.DeadNodes(), std::vector<uint32_t>{1});

  // One answered beat resurrects.
  node1_up = true;
  hb.AdvanceTo(50.0, probe);
  EXPECT_EQ(hb.HealthOf(1), NodeHealth::kAlive);
  EXPECT_TRUE(hb.DeadNodes().empty());

  const HeartbeatDetector::Counters c = hb.counters();
  EXPECT_EQ(c.suspected, 1u);
  EXPECT_EQ(c.died, 1u);
  EXPECT_EQ(c.recovered, 1u);
  EXPECT_EQ(c.missed, 4u);
  EXPECT_GT(c.beats, 0u);

  hb.MarkRemoved(1);
  EXPECT_EQ(hb.HealthOf(1), NodeHealth::kRemoved);
  EXPECT_EQ(hb.HealthOf(99), NodeHealth::kRemoved);  // Out of range.
  hb.AdvanceTo(100.0, [](uint32_t, double) { return false; });
  EXPECT_EQ(hb.HealthOf(1), NodeHealth::kRemoved);  // No longer probed.
}

TEST(HeartbeatTest, ClusterDetectorFollowsTheVirtualClock) {
  MemEnv env;
  CommitWideCatalog(&env);
  auto cluster = Cluster::Create(env, HealingOptions()).value();
  ASSERT_TRUE(cluster->KillNode(2).ok());

  // The imperative kill affects routing instantly but the detector only
  // moves with the virtual clock.
  EXPECT_EQ(cluster->NodeHealthOf(2), NodeHealth::kAlive);
  cluster->AdvanceTimeMs(20.0);
  EXPECT_EQ(cluster->NodeHealthOf(2), NodeHealth::kSuspect);
  cluster->AdvanceTimeMs(40.0);
  EXPECT_EQ(cluster->NodeHealthOf(2), NodeHealth::kDead);
  EXPECT_EQ(cluster->NodeHealthOf(0), NodeHealth::kAlive);

  // Revival resets the detector along with the route.
  ASSERT_TRUE(cluster->ReviveNode(2).ok());
  EXPECT_EQ(cluster->NodeHealthOf(2), NodeHealth::kAlive);
  const HeartbeatDetector::Counters c = cluster->HeartbeatCounters();
  EXPECT_EQ(c.died, 1u);
  EXPECT_EQ(c.suspected, 1u);
}

// ---------------------------------------------------------------------------
// Repair planner
// ---------------------------------------------------------------------------

RepairPlanInput ZoneAwareInput(uint64_t seed = 7) {
  PlacementSpec spec;
  spec.policy = PlacementPolicy::kZoneAware;
  spec.topology = Topology::Grid(4, 2, 2).value();
  spec.seed = seed;
  RepairPlanInput in;
  in.table = PlacementMap::Build(spec, 8, 2).value().Table();
  in.topology = spec.topology;
  in.seed = seed;
  return in;
}

TEST(PlanRepairTest, IsDeterministicAndKeepsZonesDisjoint) {
  RepairPlanInput in = ZoneAwareInput();
  in.dead_nodes = {0};
  const RepairPlan a = PlanRepair(in).value();
  const RepairPlan b = PlanRepair(in).value();
  EXPECT_EQ(a.new_table, b.new_table);
  EXPECT_EQ(a.actions.size(), b.actions.size());
  EXPECT_FALSE(a.healthy());
  EXPECT_TRUE(a.unrecoverable_disks.empty());
  EXPECT_GT(a.actions.size(), 0u);

  for (const RepairAction& act : a.actions) {
    EXPECT_EQ(act.from_node, 0u);
    // Node 1 is the only live zone-0 node: zone-aware re-targeting must
    // pick it so every disk keeps one copy per zone.
    EXPECT_EQ(act.to_node, 1u) << "disk " << act.disk;
  }
  for (uint32_t d = 0; d < 8; ++d) {
    const uint32_t z0 = in.topology.zone_of(a.new_table[0][d]);
    const uint32_t z1 = in.topology.zone_of(a.new_table[1][d]);
    EXPECT_NE(z0, z1) << "disk " << d << " lost zone disjointness";
    EXPECT_NE(a.new_table[0][d], 0u);
    EXPECT_NE(a.new_table[1][d], 0u);
  }
}

TEST(PlanRepairTest, HealthyInputPlansNothing) {
  RepairPlanInput in = ZoneAwareInput();
  const RepairPlan plan = PlanRepair(in).value();
  EXPECT_TRUE(plan.healthy());
  EXPECT_EQ(plan.new_table, in.table);
}

TEST(PlanRepairTest, ReportsUnrecoverableDisksAndRejectsBadInput) {
  // Both copies of every disk inside zone 0: killing the zone loses data.
  RepairPlanInput in = ZoneAwareInput();
  for (uint32_t d = 0; d < 8; ++d) {
    in.table[0][d] = 0;
    in.table[1][d] = 1;
  }
  in.dead_nodes = {0, 1};
  const RepairPlan plan = PlanRepair(in).value();
  EXPECT_EQ(plan.unrecoverable_disks.size(), 8u);
  EXPECT_TRUE(plan.actions.empty());

  in.dead_nodes = {0, 1, 2, 3};
  EXPECT_EQ(PlanRepair(in).status().code(), StatusCode::kInvalidArgument);
  in.dead_nodes = {9};
  EXPECT_EQ(PlanRepair(in).status().code(), StatusCode::kInvalidArgument);
  RepairPlanInput ragged = ZoneAwareInput();
  ragged.table[1].pop_back();
  EXPECT_EQ(PlanRepair(ragged).status().code(),
            StatusCode::kInvalidArgument);
  RepairPlanInput empty = ZoneAwareInput();
  empty.table.clear();
  EXPECT_EQ(PlanRepair(empty).status().code(), StatusCode::kInvalidArgument);
}

TEST(PlanRepairTest, RespreadsAcrossZonesAfterAViolation) {
  // Pass-2 coverage: both copies of disk 0 in zone 1 with every node
  // live — the plan must move one copy to zone 0.
  RepairPlanInput in = ZoneAwareInput();
  in.table[0][0] = 2;
  in.table[1][0] = 3;
  const RepairPlan plan = PlanRepair(in).value();
  ASSERT_EQ(plan.actions.size(), 1u);
  EXPECT_EQ(plan.actions[0].disk, 0u);
  EXPECT_EQ(in.topology.zone_of(plan.actions[0].to_node), 0u);
}

// ---------------------------------------------------------------------------
// End-to-end repair
// ---------------------------------------------------------------------------

TEST(RepairTest, RepairWithoutDetectorDeathIsANoOp) {
  MemEnv env;
  CommitWideCatalog(&env);
  auto cluster = Cluster::Create(env, HealingOptions()).value();
  // Imperative kill, no clock advance: the detector never declared the
  // node dead, so repair must not re-replicate around a blip.
  ASSERT_TRUE(cluster->KillNode(0).ok());
  const RepairReport report = cluster->Repair({}).value();
  EXPECT_TRUE(report.already_healthy);
  EXPECT_FALSE(report.committed);
  EXPECT_TRUE(report.abort_reason.empty());
  EXPECT_EQ(cluster->generation(), 1u);
}

TEST(RepairTest, HealsANodeLossThenSurvivesAFullZoneKill) {
  // The acceptance demo. Zone-aware copies=2 put one copy of every disk
  // in each zone. Kill node 0 and a different whole zone afterwards:
  // without repair the disks whose zone-0 copy lived on node 0 lose both
  // replicas; with a repair in between, availability stays 1.0.
  MemEnv env;
  const Catalog catalog = CommitWideCatalog(&env);
  const serve::QueryRequest full = Range({0.0, 0.0}, {1.0, 1.0});
  const std::vector<RecordId> want = Direct(catalog, full);

  // Control: no repair between the failures.
  auto control = Cluster::Create(env, HealingOptions()).value();
  ASSERT_TRUE(control->KillNode(0).ok());
  ASSERT_TRUE(control->KillZone(1).ok());
  const ClusterQueryResult lossy = control->Execute(full);
  ASSERT_TRUE(lossy.status.ok()) << lossy.status.ToString();
  EXPECT_FALSE(lossy.complete);
  EXPECT_LT(lossy.availability, 1.0);

  // Healed: kill, let the heartbeat declare the death, repair, then kill
  // the other zone.
  auto cluster = Cluster::Create(env, HealingOptions()).value();
  ASSERT_TRUE(cluster->KillNode(0).ok());
  cluster->AdvanceTimeMs(60.0);
  ASSERT_EQ(cluster->NodeHealthOf(0), NodeHealth::kDead);

  std::vector<std::string> phases;
  RepairOptions ro;
  ro.on_phase = [&phases](const std::string& p) { phases.push_back(p); };
  const RepairReport report = cluster->Repair(ro).value();
  ASSERT_TRUE(report.committed) << report.abort_reason;
  EXPECT_EQ(report.old_generation, 1u);
  EXPECT_EQ(report.new_generation, 2u);
  EXPECT_EQ(report.dead_nodes, std::vector<uint32_t>{0});
  EXPECT_GT(report.replicas_retargeted, 0u);
  EXPECT_GT(report.files_copied, 0u);
  EXPECT_GT(report.verify_queries, 0u);
  EXPECT_EQ(report.verify_mismatches, 0u);
  // Death declared at virtual t=40, repair committed at t=60.
  EXPECT_DOUBLE_EQ(report.mttr_virtual_ms, 20.0);
  EXPECT_GE(report.mttr_wall_ms, 0.0);
  EXPECT_EQ(phases,
            (std::vector<std::string>{"plan", "copy", "staged", "verify",
                                      "commit", "committed"}));
  EXPECT_EQ(cluster->generation(), 2u);

  // The repaired table is the cluster's spec now, with no dead entries.
  const PlacementSpec spec = cluster->placement_spec();
  ASSERT_FALSE(spec.table.empty());
  for (const std::vector<uint32_t>& row : spec.table) {
    for (uint32_t n : row) EXPECT_NE(n, 0u);
  }

  ASSERT_TRUE(cluster->KillZone(1).ok());
  const ClusterQueryResult healed = cluster->Execute(full);
  ASSERT_TRUE(healed.status.ok()) << healed.status.ToString();
  EXPECT_TRUE(healed.complete);
  EXPECT_EQ(healed.availability, 1.0);
  EXPECT_EQ(healed.unavailable_buckets, 0u);
  EXPECT_EQ(healed.matches, want);

  obs::MetricsRegistry reg;
  cluster->SnapshotMetrics(&reg);
  EXPECT_EQ(reg.GetCounter("cluster.repairs_committed")->value(), 1u);
  EXPECT_EQ(reg.GetCounter("cluster.repairs_aborted")->value(), 0u);
  EXPECT_EQ(reg.GetCounter("cluster.repair_replicas_rebuilt")->value(),
            report.replicas_retargeted);
  EXPECT_GE(reg.GetCounter("cluster.heartbeat.died")->value(), 1u);
}

TEST(RepairTest, PacedRepairWaitsOnTheTokenBucketAndStillCommits) {
  MemEnv env;
  CommitWideCatalog(&env);
  auto cluster = Cluster::Create(env, HealingOptions()).value();
  ASSERT_TRUE(cluster->KillNode(0).ok());
  cluster->AdvanceTimeMs(60.0);

  RepairOptions ro;
  ro.copy_bytes_per_sec = 50000.0;
  const RepairReport report = cluster->Repair(ro).value();
  ASSERT_TRUE(report.committed) << report.abort_reason;
  EXPECT_GT(report.pacing_wait_ms, 0.0);
  EXPECT_GT(report.bytes_copied, 0u);

  RepairOptions bad;
  bad.copy_bytes_per_sec = -1.0;
  EXPECT_EQ(cluster->Repair(bad).status().code(),
            StatusCode::kInvalidArgument);
  // A NaN rate fails every comparison; it must not run as unpaced.
  bad.copy_bytes_per_sec = 0.0;
  bad.copy_device_bytes_per_sec = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(cluster->Repair(bad).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RepairTest, RepairedTableIsDeterministicAndThreadCountInvariant) {
  std::vector<std::vector<std::vector<uint32_t>>> tables;
  std::vector<uint64_t> retargeted;
  for (const uint32_t threads : {1u, 4u, 4u}) {
    MemEnv env;
    CommitWideCatalog(&env);
    auto cluster = Cluster::Create(env, HealingOptions(threads)).value();
    ASSERT_TRUE(cluster->KillNode(0).ok());
    cluster->AdvanceTimeMs(60.0);
    const RepairReport report = cluster->Repair({}).value();
    ASSERT_TRUE(report.committed) << report.abort_reason;
    tables.push_back(cluster->placement_spec().table);
    retargeted.push_back(report.replicas_retargeted);
  }
  EXPECT_EQ(tables[0], tables[1]);  // 1 thread vs 4 threads.
  EXPECT_EQ(tables[1], tables[2]);  // Re-run at the same thread count.
  EXPECT_EQ(retargeted[0], retargeted[1]);
  EXPECT_EQ(retargeted[1], retargeted[2]);
}

TEST(RepairTest, ReviveAfterRepairCatchesUpThroughTheFence) {
  MemEnv env;
  const Catalog catalog = CommitWideCatalog(&env);
  const serve::QueryRequest full = Range({0.0, 0.0}, {1.0, 1.0});
  auto cluster = Cluster::Create(env, HealingOptions()).value();
  ASSERT_TRUE(cluster->KillNode(0).ok());
  cluster->AdvanceTimeMs(60.0);
  ASSERT_TRUE(cluster->Repair({}).value().committed);

  // The repair staged generation 2 to live nodes only: node 0 is stale at
  // generation 1 and must be caught up from a peer before readmission.
  EXPECT_EQ(ReadCurrentManifest(*cluster->node_env_for_test(0))
                .value()
                .generation,
            1u);
  ASSERT_TRUE(cluster->ReviveNode(0).ok());
  EXPECT_TRUE(cluster->NodeAlive(0));
  EXPECT_EQ(ReadCurrentManifest(*cluster->node_env_for_test(0))
                .value()
                .generation,
            2u);
  EXPECT_EQ(cluster->NodeHealthOf(0), NodeHealth::kAlive);

  const ClusterQueryResult r = cluster->Execute(full);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.matches, Direct(catalog, full));
  EXPECT_EQ(r.generation, 2u);

  obs::MetricsRegistry reg;
  cluster->SnapshotMetrics(&reg);
  EXPECT_EQ(reg.GetCounter("cluster.revive_catchups")->value(), 1u);
  EXPECT_EQ(reg.GetCounter("cluster.revive_fenced")->value(), 0u);
}

TEST(RepairTest, ReviveWithoutALivePeerIsRefused) {
  MemEnv env;
  CommitWideCatalog(&env);
  auto cluster = Cluster::Create(env, HealingOptions()).value();
  ASSERT_TRUE(cluster->KillNode(0).ok());
  cluster->AdvanceTimeMs(60.0);
  ASSERT_TRUE(cluster->Repair({}).value().committed);

  // Every node that holds generation 2 goes dark: node 0 cannot catch up,
  // so readmitting it would serve a stale generation — refuse.
  for (uint32_t n = 1; n < 4; ++n) ASSERT_TRUE(cluster->KillNode(n).ok());
  EXPECT_EQ(cluster->ReviveNode(0).code(), StatusCode::kUnavailable);
  EXPECT_FALSE(cluster->NodeAlive(0));

  obs::MetricsRegistry reg;
  cluster->SnapshotMetrics(&reg);
  EXPECT_EQ(reg.GetCounter("cluster.revive_fenced")->value(), 1u);
}

// ---------------------------------------------------------------------------
// Topology changes
// ---------------------------------------------------------------------------

TEST(RepairTest, AddNodeGrowsTheClusterAndRemoveNodeEvacuates) {
  MemEnv env;
  const Catalog catalog = CommitWideCatalog(&env);
  const serve::QueryRequest full = Range({0.0, 0.0}, {1.0, 1.0});
  const std::vector<RecordId> want = Direct(catalog, full);
  ClusterOptions options = HealingOptions();
  options.max_nodes = 6;
  auto cluster = Cluster::Create(env, options).value();

  // Growth validates against the topology: a rack must stay in its zone,
  // == appends a new rack / opens a new zone.
  EXPECT_EQ(cluster->AddNode(0, 1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(cluster->AddNode(5, 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(cluster->AddNode(2, 5).status().code(),
            StatusCode::kInvalidArgument);
  const uint32_t added = cluster->AddNode(2, 2).value();  // New rack + zone.
  EXPECT_EQ(added, 4u);
  EXPECT_EQ(cluster->num_nodes(), 5u);
  EXPECT_TRUE(cluster->NodeAlive(4));
  EXPECT_EQ(cluster->placement_spec().topology.num_zones(), 3u);

  // Existing placement is untouched until a repair re-places; traffic
  // still serves exactly.
  const ClusterQueryResult before = cluster->Execute(full);
  ASSERT_TRUE(before.status.ok());
  EXPECT_TRUE(before.complete);
  EXPECT_EQ(before.matches, want);

  // Decommission node 1: routed around immediately, evacuated by repair.
  ASSERT_TRUE(cluster->RemoveNode(1).ok());
  EXPECT_EQ(cluster->NodeHealthOf(1), NodeHealth::kRemoved);
  EXPECT_EQ(cluster->RemoveNode(1).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(cluster->ReviveNode(1).code(), StatusCode::kFailedPrecondition);

  const RepairReport report = cluster->Repair({}).value();
  ASSERT_TRUE(report.committed) << report.abort_reason;
  EXPECT_EQ(report.dead_nodes, std::vector<uint32_t>{1});
  EXPECT_GT(report.replicas_retargeted, 0u);

  // No replica assignment references the removed node, and the new node
  // picked up part of the evacuated load.
  const PlacementSpec spec = cluster->placement_spec();
  ASSERT_FALSE(spec.table.empty());
  uint64_t on_new_node = 0;
  for (const std::vector<uint32_t>& row : spec.table) {
    for (uint32_t n : row) {
      EXPECT_NE(n, 1u);
      if (n == 4u) ++on_new_node;
    }
  }
  EXPECT_GT(on_new_node, 0u);

  const ClusterQueryResult after = cluster->Execute(full);
  ASSERT_TRUE(after.status.ok()) << after.status.ToString();
  EXPECT_TRUE(after.complete);
  EXPECT_EQ(after.matches, want);

  obs::MetricsRegistry reg;
  cluster->SnapshotMetrics(&reg);
  EXPECT_EQ(reg.GetCounter("cluster.nodes_added")->value(), 1u);
  EXPECT_EQ(reg.GetCounter("cluster.nodes_removed")->value(), 1u);
}

TEST(RepairTest, MigrateAfterRemovingNodeZeroAndRepairCommits) {
  // The repair stages only to the live nodes, so node 0 never sees the
  // repaired generation. A later migration must copy from a member that
  // holds it, not from node 0.
  MemEnv env;
  const Catalog catalog = CommitWideCatalog(&env);
  auto cluster = Cluster::Create(env, HealingOptions()).value();
  ASSERT_TRUE(cluster->RemoveNode(0).ok());
  const RepairReport repair = cluster->Repair({}).value();
  ASSERT_TRUE(repair.committed) << repair.abort_reason;
  ASSERT_EQ(cluster->generation(), 2u);

  MigrationOptions mo;
  mo.new_method = "fx";
  mo.new_num_disks = 8;
  const Result<MigrationReport> migrated = cluster->Migrate(mo);
  ASSERT_TRUE(migrated.ok()) << migrated.status().ToString();
  EXPECT_TRUE(migrated.value().committed) << migrated.value().abort_reason;
  EXPECT_EQ(migrated.value().old_generation, 2u);
  EXPECT_GT(migrated.value().new_generation, 2u);
  EXPECT_EQ(cluster->generation(), migrated.value().new_generation);

  const serve::QueryRequest full = Range({0.0, 0.0}, {1.0, 1.0});
  const ClusterQueryResult r = cluster->Execute(full);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.matches, Direct(catalog, full));
}

TEST(RepairTest, AddNodeNeedsAFreeSlot) {
  MemEnv env;
  CommitWideCatalog(&env);
  auto cluster = Cluster::Create(env, HealingOptions()).value();
  // Default max_nodes == num_nodes: no headroom.
  EXPECT_EQ(cluster->AddNode(2, 2).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(RepairTest, AddNodeIsRefusedWhileATransitionRuns) {
  // A transition cuts over to an epoch planned before it began: a node
  // added meanwhile would drop out of routing and the topology while
  // num_nodes() still counted it.
  MemEnv env;
  const Catalog catalog = CommitWideCatalog(&env);
  const serve::QueryRequest full = Range({0.0, 0.0}, {1.0, 1.0});
  ClusterOptions options = HealingOptions();
  options.max_nodes = 6;
  auto cluster = Cluster::Create(env, options).value();

  std::optional<StatusCode> added_at_verify;
  const auto add_at_verify = [&](const std::string& phase) {
    if (phase == "verify") {
      added_at_verify = cluster->AddNode(2, 2).status().code();
    }
  };
  MigrationOptions mo;
  mo.new_method = "fx";
  mo.new_num_disks = 8;
  mo.on_phase = add_at_verify;
  const MigrationReport migrated = cluster->Migrate(mo).value();
  ASSERT_TRUE(migrated.committed) << migrated.abort_reason;
  EXPECT_EQ(added_at_verify, StatusCode::kFailedPrecondition);
  EXPECT_EQ(cluster->num_nodes(), 4u);
  EXPECT_EQ(cluster->placement_spec().topology.num_nodes(),
            cluster->num_nodes());

  ASSERT_TRUE(cluster->KillNode(0).ok());
  ASSERT_TRUE(cluster->AdvanceTimeMs(60.0).ok());
  added_at_verify.reset();
  RepairOptions ro;
  ro.on_phase = add_at_verify;
  const RepairReport repaired = cluster->Repair(ro).value();
  ASSERT_TRUE(repaired.committed) << repaired.abort_reason;
  EXPECT_EQ(added_at_verify, StatusCode::kFailedPrecondition);
  EXPECT_EQ(cluster->num_nodes(), 4u);
  EXPECT_EQ(cluster->placement_spec().topology.num_nodes(),
            cluster->num_nodes());
  EXPECT_FALSE(cluster->migrating());

  // With the slot free again the add goes through, and the node is in the
  // topology a zone kill reads.
  EXPECT_EQ(cluster->AddNode(2, 2).value(), 4u);
  EXPECT_EQ(cluster->placement_spec().topology.num_nodes(),
            cluster->num_nodes());
  ASSERT_TRUE(cluster->KillZone(2).ok());
  EXPECT_FALSE(cluster->NodeAlive(4));
  const ClusterQueryResult r = cluster->Execute(full);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.matches, Direct(catalog, full));
}

TEST(RepairTest, ReviveIsRefusedWhileATransitionRuns) {
  // A transition cuts over to an epoch planned before it began. A node
  // revived meanwhile would come back at the old generation, with no
  // service in the new epoch, and break the next transition that copies
  // from it.
  MemEnv env;
  const Catalog catalog = CommitWideCatalog(&env);
  const serve::QueryRequest full = Range({0.0, 0.0}, {1.0, 1.0});
  auto cluster = Cluster::Create(env, HealingOptions()).value();

  // Node 0 is in zone 0 under Grid(4, 2, 2).
  std::optional<StatusCode> node_at_verify;
  std::optional<StatusCode> zone_at_verify;
  const auto revive_at_verify = [&](const std::string& phase) {
    if (phase == "verify") {
      node_at_verify = cluster->ReviveNode(0).code();
      zone_at_verify = cluster->ReviveZone(0).code();
    }
  };
  MigrationOptions mo;
  mo.new_method = "fx";
  mo.new_num_disks = 8;
  mo.on_phase = revive_at_verify;
  const MigrationReport migrated = cluster->Migrate(mo).value();
  ASSERT_TRUE(migrated.committed) << migrated.abort_reason;
  EXPECT_EQ(node_at_verify, StatusCode::kFailedPrecondition);
  EXPECT_EQ(zone_at_verify, StatusCode::kFailedPrecondition);

  ASSERT_TRUE(cluster->KillNode(0).ok());
  ASSERT_TRUE(cluster->AdvanceTimeMs(60.0).ok());
  node_at_verify.reset();
  zone_at_verify.reset();
  RepairOptions ro;
  ro.on_phase = revive_at_verify;
  const RepairReport repaired = cluster->Repair(ro).value();
  ASSERT_TRUE(repaired.committed) << repaired.abort_reason;
  EXPECT_EQ(node_at_verify, StatusCode::kFailedPrecondition);
  EXPECT_EQ(zone_at_verify, StatusCode::kFailedPrecondition);
  EXPECT_FALSE(cluster->NodeAlive(0));
  EXPECT_FALSE(cluster->migrating());
  EXPECT_EQ(ReadCurrentManifest(*cluster->node_env_for_test(0))
                .value()
                .generation,
            migrated.new_generation);

  // With the slot free the revival catches node 0 up to the repair.
  ASSERT_TRUE(cluster->ReviveNode(0).ok());
  EXPECT_TRUE(cluster->NodeAlive(0));
  EXPECT_EQ(ReadCurrentManifest(*cluster->node_env_for_test(0))
                .value()
                .generation,
            repaired.new_generation);
  obs::MetricsRegistry reg;
  cluster->SnapshotMetrics(&reg);
  EXPECT_EQ(reg.GetCounter("cluster.revive_catchups")->value(), 1u);

  // Every member takes part in a migration and the first is the copy
  // source, so this one copies from node 0.
  mo.new_method = "hcam";
  mo.on_phase = nullptr;
  const Result<MigrationReport> again = cluster->Migrate(mo);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ASSERT_TRUE(again.value().committed) << again.value().abort_reason;
  EXPECT_EQ(again.value().old_generation, repaired.new_generation);
  const ClusterQueryResult r = cluster->Execute(full);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.generation, again.value().new_generation);
  EXPECT_EQ(r.matches, Direct(catalog, full));
}

TEST(RepairTest, ReviveKeepsAServingNodesService) {
  // The routing epoch decides staleness: a node it holds a service for
  // already serves its generation, so a revival only readmits it; a node
  // it holds none for missed a commit and is caught up.
  MemEnv env;
  CommitWideCatalog(&env);
  auto cluster = Cluster::Create(env, HealingOptions()).value();
  const std::shared_ptr<serve::QueryService> created =
      ClusterTestPeer::EpochService(*cluster, 0);
  ASSERT_NE(created, nullptr);
  const std::vector<std::string> files = NodeFiles(cluster.get(), 0);

  ASSERT_TRUE(cluster->KillNode(0).ok());
  ASSERT_TRUE(cluster->ReviveNode(0).ok());
  EXPECT_TRUE(cluster->NodeAlive(0));
  EXPECT_EQ(ClusterTestPeer::EpochService(*cluster, 0), created);
  EXPECT_EQ(NodeFiles(cluster.get(), 0), files);
  obs::MetricsRegistry reg;
  cluster->SnapshotMetrics(&reg);
  EXPECT_EQ(reg.GetCounter("cluster.revive_catchups")->value(), 0u);

  // The repair's epoch leaves dead node 0 out; the revival fills its null
  // entry with a service at the repaired generation.
  ASSERT_TRUE(cluster->KillNode(0).ok());
  ASSERT_TRUE(cluster->AdvanceTimeMs(60.0).ok());
  const RepairReport repaired = cluster->Repair({}).value();
  ASSERT_TRUE(repaired.committed) << repaired.abort_reason;
  EXPECT_EQ(ClusterTestPeer::EpochService(*cluster, 0), nullptr);
  ASSERT_TRUE(cluster->ReviveNode(0).ok());
  const std::shared_ptr<serve::QueryService> caught_up =
      ClusterTestPeer::EpochService(*cluster, 0);
  ASSERT_NE(caught_up, nullptr);
  EXPECT_NE(caught_up, created);
  EXPECT_EQ(caught_up->generation(), repaired.new_generation);
  EXPECT_EQ(cluster->generation(), repaired.new_generation);
  cluster->SnapshotMetrics(&reg);
  EXPECT_EQ(reg.GetCounter("cluster.revive_catchups")->value(), 1u);
}

TEST(RepairTest, EpochRoutesByItsNodeServicesRelations) {
  // One derivation per generation: each routing epoch and every live node
  // service share one load's relations, through Create, Repair, ReviveNode,
  // Migrate and AddNode.
  MemEnv env;
  const Catalog catalog = CommitWideCatalog(&env, 1, Mirror2(), "hcam");
  const serve::QueryRequest full = Range({0.0, 0.0}, {1.0, 1.0});
  ClusterOptions options = HealingOptions();
  options.max_nodes = 5;
  auto cluster = Cluster::Create(env, options).value();
  ClusterTestPeer::ExpectRoutesByNodeServiceRelations(*cluster);

  // hcam and dm must place some bucket differently, or the migration
  // below would prove nothing.
  const std::shared_ptr<const serve::Relation> created =
      ClusterTestPeer::EpochRelation(*cluster, "dm");
  const GridSpec& grid = created->header.partitioner.grid();
  const DiskMap hcam = DiskMap::Build(*CreateMethod("hcam", grid, 8).value());
  const DiskMap dm = DiskMap::Build(*CreateMethod("dm", grid, 8).value());
  bool maps_differ = false;
  for (uint64_t b = 0; b < grid.num_buckets(); ++b) {
    EXPECT_EQ(created->disk_map->DiskAt(b), hcam.DiskAt(b));
    maps_differ = maps_differ || hcam.DiskAt(b) != dm.DiskAt(b);
  }
  ASSERT_TRUE(maps_differ);

  // The repair epoch leaves dead node 0 out; its live participants share
  // the repair's one load.
  ASSERT_TRUE(cluster->KillNode(0).ok());
  ASSERT_TRUE(cluster->AdvanceTimeMs(60.0).ok());
  ASSERT_TRUE(cluster->Repair({}).value().committed);
  ClusterTestPeer::ExpectRoutesByNodeServiceRelations(*cluster);
  const std::shared_ptr<const serve::Relation> repaired =
      ClusterTestPeer::EpochRelation(*cluster, "dm");

  // A revival copies the epoch, relations included, and the caught-up
  // node serves the relations that already existed.
  ASSERT_EQ(ClusterTestPeer::EpochService(*cluster, 0), nullptr);
  ASSERT_TRUE(cluster->ReviveNode(0).ok());
  ClusterTestPeer::ExpectRoutesByNodeServiceRelations(*cluster);
  EXPECT_EQ(ClusterTestPeer::EpochRelation(*cluster, "dm"), repaired);
  EXPECT_EQ(ClusterTestPeer::EpochService(*cluster, 0)->relations().at("dm"),
            repaired);

  MigrationOptions mo;
  mo.new_method = "dm";
  mo.new_num_disks = 8;
  const MigrationReport migrated = cluster->Migrate(mo).value();
  ASSERT_TRUE(migrated.committed) << migrated.abort_reason;
  ClusterTestPeer::ExpectRoutesByNodeServiceRelations(*cluster);
  const std::shared_ptr<const serve::Relation> moved =
      ClusterTestPeer::EpochRelation(*cluster, "dm");
  for (uint64_t b = 0; b < grid.num_buckets(); ++b) {
    EXPECT_EQ(moved->disk_map->DiskAt(b), dm.DiskAt(b)) << "bucket " << b;
  }

  // An added node copies the epoch too, and serves the same relations.
  EXPECT_EQ(cluster->AddNode(2, 2).value(), 4u);
  ClusterTestPeer::ExpectRoutesByNodeServiceRelations(*cluster);
  EXPECT_EQ(ClusterTestPeer::EpochRelation(*cluster, "dm"), moved);
  EXPECT_EQ(ClusterTestPeer::EpochService(*cluster, 4)->relations().at("dm"),
            moved);

  const ClusterQueryResult r = cluster->Execute(full);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.matches, Direct(catalog, full));
}

TEST(RepairTest, StagedCorruptionFailsVerificationAndAborts) {
  // A repair loads its new generation once, from its copy source (the
  // first live participant, node 1 here), and checks every other
  // participant's staged data files against that generation's manifest.
  // So one corrupt staged page aborts the repair on either kind of node.
  const serve::QueryRequest full = Range({0.0, 0.0}, {1.0, 1.0});
  for (const uint32_t corrupt : {2u, 1u}) {  // Not the source; the source.
    SCOPED_TRACE("corrupt node " + std::to_string(corrupt));
    MemEnv env;
    const Catalog catalog = CommitWideCatalog(&env);
    auto cluster = Cluster::Create(env, HealingOptions()).value();
    ASSERT_TRUE(cluster->KillNode(0).ok());
    ASSERT_TRUE(cluster->AdvanceTimeMs(60.0).ok());
    const std::vector<std::string> files_before =
        NodeFiles(cluster.get(), corrupt);

    RepairOptions ro;
    ro.on_phase = [&](const std::string& p) {
      if (p != "staged") return;
      MemEnv* node_env = cluster->node_env_for_test(corrupt);
      const std::string name =
          ReadManifest(*node_env, 2).value().DataFileName(0);
      const GridFileHeader header =
          ParseGridFileHeader(node_env->ReadFile(name).value()).value();
      ASSERT_TRUE(
          node_env->CorruptByte(name, header.layout.PageOffset(0) + 8, 0x20)
              .ok());
    };
    const RepairReport report = cluster->Repair(ro).value();
    EXPECT_FALSE(report.committed);
    EXPECT_NE(report.abort_reason.find("staging service on node " +
                                       std::to_string(corrupt)),
              std::string::npos)
        << report.abort_reason;
    EXPECT_EQ(cluster->generation(), 1u);
    EXPECT_EQ(NodeFiles(cluster.get(), corrupt), files_before);

    const ClusterQueryResult r = cluster->Execute(full);
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_TRUE(r.complete);
    EXPECT_EQ(r.matches, Direct(catalog, full));
  }
}

// ---------------------------------------------------------------------------
// Failover follows the placement
// ---------------------------------------------------------------------------

/// A node that owns two disks whose copy-1 holders differ, per the
/// cluster's routing placement: the route no single replica node can
/// take over whole.
struct SplitRoute {
  uint32_t node = 0;
  uint32_t d_a = 0;  ///< The route's first disk; copy 1 on h_a.
  uint32_t d_b = 0;  ///< Copy 1 on h_b != h_a.
  uint32_t h_a = 0;
  uint32_t h_b = 0;
};

std::optional<SplitRoute> FindSplitRoute(const Cluster& cluster) {
  const PlacementMap map =
      PlacementMap::Build(cluster.placement_spec(), cluster.num_disks(), 2)
          .value();
  for (uint32_t a = 0; a < cluster.num_disks(); ++a) {
    for (uint32_t b = a + 1; b < cluster.num_disks(); ++b) {
      if (map.NodeOf(a, 0) == map.NodeOf(b, 0) &&
          map.NodeOf(a, 1) != map.NodeOf(b, 1)) {
        return SplitRoute{map.NodeOf(a, 0), a, b, map.NodeOf(a, 1),
                          map.NodeOf(b, 1)};
      }
    }
  }
  return std::nullopt;
}

/// Flips one byte in every page of `file` in `target` that holds a bucket
/// of `disk`, locating the pages in the intact catalog `seed` (copy files
/// share the data file's layout).
void CorruptDiskPages(const MemEnv& seed, uint32_t disk,
                      const std::string& file, MemEnv* target) {
  const std::string data = ReadCurrentManifest(seed).value().DataFileName(0);
  std::string bytes = target->ReadFile(file).value();
  const std::vector<FaultRange> pages =
      serve::DiskFaultSchedule(seed, "dm", disk).value();
  for (const FaultRange& range : pages) {
    if (range.file != data) continue;
    bytes[range.offset + range.length / 2] ^= 0x5a;
  }
  ASSERT_TRUE(target->WriteFile(file, bytes).ok());
}

TEST(RepairTest, FailoverReadsOnlyTheCopiesThePlacementAssigns) {
  // Node n's copy-0 pages of d_a and d_b are corrupt and h_b, the holder
  // of d_b's only other copy, is dead. d_a is served by h_a's copy 1;
  // d_b's buckets are unavailable — neither node n's own mirror file nor
  // h_a may stand in for a copy the placement puts on h_b.
  for (const bool corrupt_local_mirror : {false, true}) {
    SCOPED_TRACE(corrupt_local_mirror ? "both local copies corrupt"
                                      : "copy 0 corrupt");
    MemEnv env;
    const Catalog catalog = CommitWideCatalog(&env);
    ClusterOptions options = HealingOptions();
    options.node.pool_pages = 0;
    auto cluster = Cluster::Create(env, options).value();
    const std::optional<SplitRoute> split = FindSplitRoute(*cluster);
    ASSERT_TRUE(split.has_value());
    ASSERT_TRUE(cluster->KillNode(split->h_b).ok());
    MemEnv* node_env = cluster->node_env_for_test(split->node);
    const CatalogManifest m = ReadCurrentManifest(*node_env).value();
    for (const uint32_t d : {split->d_a, split->d_b}) {
      CorruptDiskPages(env, d, m.DataFileName(0), node_env);
      if (corrupt_local_mirror) {
        CorruptDiskPages(env, d, m.MirrorFileName(0, 1), node_env);
      }
    }

    const serve::QueryRequest full = Range({0.0, 0.0}, {1.0, 1.0});
    const DeclusteredFile& df = *catalog.Find("dm");
    std::vector<RecordId> want;
    for (RecordId id : Direct(catalog, full)) {
      if (df.method().DiskOf(df.file().BucketOfRecord(id)) != split->d_b) {
        want.push_back(id);
      }
    }
    uint64_t d_b_buckets = 0;
    const GridSpec& grid = df.file().grid();
    for (uint64_t b = 0; b < grid.num_buckets(); ++b) {
      if (df.method().DiskOf(grid.Delinearize(b)) == split->d_b) {
        ++d_b_buckets;
      }
    }

    const ClusterQueryResult r = cluster->Execute(full);
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_FALSE(r.complete);
    EXPECT_EQ(r.unavailable_buckets, d_b_buckets);
    EXPECT_EQ(r.matches, want);
    EXPECT_EQ(std::count(r.winners.begin(), r.winners.end(), 'u'), 1)
        << r.winners;
  }
}

TEST(RepairTest, NoHedgeWithoutOneHolderOfEveryDisk) {
  // Node n is slow, but no single node holds another copy of both its
  // disks: a hedge would have to read a copy the placement puts
  // elsewhere, so none fires and the primary serves.
  MemEnv env;
  const Catalog catalog = CommitWideCatalog(&env);
  ClusterOptions options = HealingOptions();
  options.hedging = true;
  options.hedge_policy = HedgePolicy::kFirstSuccess;
  options.hedge_delay_ms = 0.5;
  std::optional<SplitRoute> split;
  {
    auto probe = Cluster::Create(env, options).value();
    split = FindSplitRoute(*probe);
  }
  ASSERT_TRUE(split.has_value());
  options.node_latency_ms.assign(4, 0.0);
  options.node_latency_ms[split->node] = 20.0;
  auto cluster = Cluster::Create(env, options).value();

  // Two vertically adjacent buckets, one on each of the route's disks.
  const DeclusteredFile& df = *catalog.Find("dm");
  const GridSpec& grid = df.file().grid();
  std::optional<serve::QueryRequest> pair;
  for (uint64_t b = 0; b < grid.num_buckets() && !pair; ++b) {
    const BucketCoords c = grid.Delinearize(b);
    if (c[1] + 1 >= 8 || df.method().DiskOf(c) != split->d_a) continue;
    BucketCoords above = c;
    above[1] += 1;
    if (df.method().DiskOf(above) != split->d_b) continue;
    pair = Range({(c[0] + 0.01) / 8.0, (c[1] + 0.01) / 8.0},
                 {(c[0] + 0.99) / 8.0, (c[1] + 1.99) / 8.0});
  }
  ASSERT_TRUE(pair.has_value());

  const ClusterQueryResult r = cluster->Execute(*pair);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.matches, Direct(catalog, *pair));
  EXPECT_EQ(r.hedges_fired, 0u);
  EXPECT_EQ(r.winners, "p");
}

TEST(RepairTest, DegradedReadTakesTheLowestUsableCopyWhileItsHolderIsBusy) {
  // Disk 0's owner, node 0, is dead. Copy 1 of disk 0 lives on node 1,
  // which is slow and busy serving a query on its own disks; copy 2 lives
  // on node 2, whose copy-2 file is corrupt. The plan takes the lowest
  // usable copy whatever its holder's load, so node 1's primary serves.
  MemEnv env;
  RelationRedundancy mirror3 = Mirror2();
  mirror3.copies = 3;
  const Catalog catalog = CommitWideCatalog(&env, 1, mirror3);
  ClusterOptions options = HealingOptions();
  options.node.pool_pages = 0;
  options.placement->table = {{0, 0, 1, 1, 2, 2, 3, 3},
                              {1, 1, 2, 2, 3, 3, 0, 0},
                              {2, 2, 3, 3, 0, 0, 1, 1}};
  options.node_latency_ms = {0.0, 20.0, 0.0, 0.0};
  auto cluster = Cluster::Create(env, options).value();
  ASSERT_TRUE(cluster->KillNode(0).ok());
  MemEnv* node2 = cluster->node_env_for_test(2);
  CorruptDiskPages(
      env, 0, ReadCurrentManifest(*node2).value().MirrorFileName(0, 2), node2);

  // Bucket (0, 0) is on disk 0; buckets (0, 2) and (0, 3) are on node 1's
  // disks 2 and 3.
  const DeclusteredFile& df = *catalog.Find("dm");
  ASSERT_EQ(df.method().DiskOf({0, 0}), 0u);
  ASSERT_EQ(df.method().DiskOf({0, 2}), 2u);
  ASSERT_EQ(df.method().DiskOf({0, 3}), 3u);
  const serve::QueryRequest disk0 =
      Range({0.01 / 8.0, 0.01 / 8.0}, {0.99 / 8.0, 0.99 / 8.0});
  const serve::QueryRequest busy =
      Range({0.01 / 8.0, 2.01 / 8.0}, {0.99 / 8.0, 3.99 / 8.0});

  std::atomic<bool> started{false};
  std::atomic<bool> stop{false};
  std::thread load([&] {
    while (!stop.load()) {
      started.store(true);
      const ClusterQueryResult r = cluster->Execute(busy);
      EXPECT_TRUE(r.complete) << r.status.ToString();
    }
  });
  while (!started.load()) std::this_thread::yield();
  // Let the busy query reach node 1: it holds it for about 40 ms.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const ClusterQueryResult r = cluster->Execute(disk0);
  stop.store(true);
  load.join();

  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.winners, "p");
  EXPECT_EQ(r.matches, Direct(catalog, disk0));
}

// ---------------------------------------------------------------------------
// Budgets
// ---------------------------------------------------------------------------

TEST(RepairTest, RetryBudgetCapsPerQueryFailovers) {
  // The budget caps failover *resubmits* — sub-queries that looked alive
  // at planning but failed at execution. Seeded permanent per-page faults
  // give exactly that: a route's primary dies mid-read and the mirror
  // serves the retry. Scan fault seeds for a query needing at least two
  // failovers; there the unlimited run completes while a budget of one
  // denies the second failover and flags the result partial.
  struct Run {
    bool created = false;
    bool complete = false;
    uint64_t denied = 0;
  };
  const auto run = [](uint32_t budget, uint64_t fault_seed) {
    Run out;
    MemEnv env;
    CommitWideCatalog(&env);
    ClusterOptions o = HealingOptions();
    o.retry_budget_per_query = budget;
    o.fault_seed = fault_seed;
    // A sub-query reads only the copy it names, so it fails when any of
    // its pages is faulted: the per-page kill probability is prob.
    o.node_transient_prob = 0.04;
    o.node_max_transient_attempts = 1000000;  // Per-page faults stick.
    o.node.read.retry.max_attempts = 1;       // Services do not retry.
    auto cluster = Cluster::Create(env, o);
    if (!cluster.ok()) return out;  // Faults hit the catalog load itself.
    out.created = true;
    const ClusterQueryResult r =
        cluster.value()->Execute(Range({0.0, 0.0}, {1.0, 1.0}));
    if (!r.status.ok()) return out;
    out.complete = r.complete;
    obs::MetricsRegistry reg;
    cluster.value()->SnapshotMetrics(&reg);
    out.denied = reg.GetCounter("cluster.retry_budget_denied")->value();
    return out;
  };

  bool found = false;
  for (uint64_t seed = 1; seed <= 300 && !found; ++seed) {
    const Run unlimited = run(0, seed);
    if (!unlimited.created || !unlimited.complete) continue;
    EXPECT_EQ(unlimited.denied, 0u) << "seed " << seed;
    const Run capped = run(1, seed);
    ASSERT_TRUE(capped.created) << "seed " << seed;
    if (capped.denied == 0) continue;  // Fewer than two failovers needed.
    EXPECT_FALSE(capped.complete) << "seed " << seed;
    found = true;
  }
  EXPECT_TRUE(found)
      << "no fault seed in 1..300 produced a two-failover query";
}

TEST(RepairTest, HedgeBudgetDeniesExtrasWhenExhausted) {
  MemEnv env;
  CommitWideCatalog(&env);
  ClusterOptions options = HealingOptions();
  options.hedging = true;
  options.hedge_policy = HedgePolicy::kFirstSuccess;
  options.hedge_delay_ms = 0.1;
  options.hedge_budget_fraction = 1e-9;  // Effectively zero headroom.
  options.node_latency_ms = {0.0, 0.0, 0.0, 30.0};
  // A hedge needs one node holding another copy of every disk of the
  // route: node 3's disks 6 and 7 keep copy 1 together on node 1.
  options.placement->table = {{0, 0, 1, 1, 2, 2, 3, 3},
                              {2, 2, 3, 3, 0, 0, 1, 1}};
  auto cluster = Cluster::Create(env, options).value();

  const ClusterQueryResult r =
      cluster->Execute(Range({0.0, 0.0}, {1.0, 1.0}));
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.hedges_fired, 0u);  // Every hedge admit was denied.

  obs::MetricsRegistry reg;
  cluster->SnapshotMetrics(&reg);
  EXPECT_GE(reg.GetCounter("cluster.hedge_budget_denied")->value(), 1u);

  ClusterOptions bad = HealingOptions();
  bad.hedge_budget_fraction = -0.5;
  EXPECT_EQ(Cluster::Create(env, bad).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Repair torture: node loss at every phase
// ---------------------------------------------------------------------------

TEST(RepairTortureTest, SourceLossAtEveryPhaseAbortsAndRestoresPlacement) {
  // Kill a plan-time-live node at each phase boundary, across seeds. A
  // clean abort must restore the pre-stage state exactly: generation,
  // placement table, and every node's file set.
  for (const uint64_t seed : {1u, 2u}) {
    for (const std::string kill_at : {"copy", "staged", "verify", "commit"}) {
      MemEnv env;
      const Catalog catalog = CommitWideCatalog(&env, seed);
      auto cluster = Cluster::Create(env, HealingOptions()).value();
      ASSERT_TRUE(cluster->KillNode(0).ok());
      cluster->AdvanceTimeMs(60.0);

      std::vector<std::vector<std::string>> files_before;
      for (uint32_t n = 0; n < 4; ++n) {
        files_before.push_back(NodeFiles(cluster.get(), n));
      }
      const std::vector<std::vector<uint32_t>> table_before =
          cluster->placement_spec().table;

      RepairOptions ro;
      ro.on_phase = [&](const std::string& p) {
        if (p == kill_at) {
          ASSERT_TRUE(cluster->KillNode(1).ok());
        }
      };
      const RepairReport report = cluster->Repair(ro).value();
      EXPECT_FALSE(report.committed) << "seed " << seed << " at " << kill_at;
      EXPECT_EQ(report.abort_reason, "repair-source node lost")
          << "seed " << seed << " at " << kill_at;
      EXPECT_EQ(cluster->generation(), 1u);
      EXPECT_FALSE(cluster->migrating());
      EXPECT_EQ(cluster->placement_spec().table, table_before);
      for (uint32_t n = 0; n < 4; ++n) {
        EXPECT_EQ(NodeFiles(cluster.get(), n), files_before[n])
            << "seed " << seed << " at " << kill_at << ", node " << n;
      }

      // Zone 1 is intact, so the degraded old layout still serves the
      // truth — no silent wrong data after the abort.
      const serve::QueryRequest full = Range({0.0, 0.0}, {1.0, 1.0});
      const ClusterQueryResult r = cluster->Execute(full);
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
      EXPECT_TRUE(r.complete);
      EXPECT_EQ(r.matches, Direct(catalog, full));

      // Recovery: revive the lost source and the retry commits.
      ASSERT_TRUE(cluster->ReviveNode(1).ok());
      const RepairReport retry = cluster->Repair({}).value();
      EXPECT_TRUE(retry.committed) << retry.abort_reason;
      EXPECT_EQ(cluster->generation(), retry.new_generation);

      obs::MetricsRegistry reg;
      cluster->SnapshotMetrics(&reg);
      EXPECT_EQ(reg.GetCounter("cluster.repairs_aborted")->value(), 1u);
      EXPECT_EQ(reg.GetCounter("cluster.repairs_committed")->value(), 1u);
    }
  }
}

TEST(RepairTortureTest, ExternalAbortAndSecondRepairRefusal) {
  MemEnv env;
  CommitWideCatalog(&env);
  auto cluster = Cluster::Create(env, HealingOptions()).value();
  ASSERT_TRUE(cluster->KillNode(0).ok());
  cluster->AdvanceTimeMs(60.0);

  Status nested = Status::Ok();
  RepairOptions ro;
  ro.on_phase = [&](const std::string& p) {
    if (p == "staged") {
      nested = cluster->Repair({}).status();  // Single-flight with itself.
      cluster->AbortMigration();
    }
  };
  const RepairReport report = cluster->Repair(ro).value();
  EXPECT_FALSE(report.committed);
  EXPECT_EQ(report.abort_reason, "externally aborted");
  EXPECT_EQ(nested.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(cluster->generation(), 1u);

  // The abort flag is consumed: a fresh repair commits.
  const RepairReport retry = cluster->Repair({}).value();
  EXPECT_TRUE(retry.committed) << retry.abort_reason;
}

TEST(RepairTortureTest, UnrecoverableLossRefusesToCommit) {
  // Chained placement on two-disk nodes self-colocates both copies of the
  // even disks; losing a whole zone with both zone-0 nodes loses disks
  // outright — repair must refuse, not fake a heal.
  MemEnv env;
  CommitWideCatalog(&env);
  ClusterOptions options = HealingOptions();
  PlacementSpec spec;
  spec.policy = PlacementPolicy::kChained;
  spec.topology = Topology::Grid(4, 2, 2).value();
  spec.seed = 7;
  options.placement = spec;
  auto cluster = Cluster::Create(env, options).value();
  ASSERT_TRUE(cluster->KillZone(0).ok());
  cluster->AdvanceTimeMs(60.0);
  const RepairReport report = cluster->Repair({}).value();
  EXPECT_FALSE(report.committed);
  EXPECT_NE(report.abort_reason.find("unrecoverable"), std::string::npos)
      << report.abort_reason;
  EXPECT_EQ(cluster->generation(), 1u);
}

// ---------------------------------------------------------------------------
// Script directives
// ---------------------------------------------------------------------------

TEST(RepairScriptTest, ParsesRepairAddNodeAndRemoveNode) {
  const auto commands = ParseClusterScript(
                            "repair\n"
                            "repair 50000\n"
                            "add-node 2 1\n"
                            "remove-node 3\n")
                            .value();
  ASSERT_EQ(commands.size(), 4u);
  EXPECT_EQ(commands[0].kind, ClusterCommand::Kind::kRepair);
  EXPECT_EQ(commands[0].repair_bytes_per_sec, 0.0);
  EXPECT_EQ(commands[1].kind, ClusterCommand::Kind::kRepair);
  EXPECT_EQ(commands[1].repair_bytes_per_sec, 50000.0);
  EXPECT_EQ(commands[2].kind, ClusterCommand::Kind::kAddNode);
  EXPECT_EQ(commands[2].add_rack, 2u);
  EXPECT_EQ(commands[2].add_zone, 1u);
  EXPECT_EQ(commands[3].kind, ClusterCommand::Kind::kRemoveNode);
  EXPECT_EQ(commands[3].node, 3u);

  EXPECT_FALSE(ParseClusterScript("repair -5\n").ok());
  EXPECT_FALSE(ParseClusterScript("repair 1 2\n").ok());
  EXPECT_FALSE(ParseClusterScript("add-node 1\n").ok());
  EXPECT_FALSE(ParseClusterScript("remove-node\n").ok());
}

}  // namespace
}  // namespace cluster
}  // namespace griddecl
