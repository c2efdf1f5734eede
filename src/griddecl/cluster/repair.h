#ifndef GRIDDECL_CLUSTER_REPAIR_H_
#define GRIDDECL_CLUSTER_REPAIR_H_

#include "griddecl/cluster/cluster.h"

/// \file
/// Self-healing: diff the current placement against the live topology
/// and re-replicate what a dead or decommissioned node was holding.
///
/// The repair is a pure **planner** plus a delta for the one staged
/// transition engine:
///
///  * `PlanRepair` takes the current `(copy, disk) -> node` table, the
///    topology, and the set of dead/removed nodes, and produces the
///    minimal set of re-target actions: pass 1 moves every replica
///    assignment that lives on a dead node to the best live node (scored
///    zone_aware: new zone > new rack > new node > lightest load, seeded
///    deterministic tie-break — the same ranking placement.cc uses); pass
///    2 then fixes *placement violations* that survive pass 1, i.e. disks
///    whose live replicas cover fewer distinct zones than they could
///    (e.g. two copies in one zone after a node add/remove). A disk with
///    no live replica at all is unrecoverable (data loss) and reported,
///    never silently dropped. The planner is a pure function of its input
///    — repair plans are deterministic and replayable.
///
///  * `Cluster::Repair` fires the "plan" phase, runs the planner over the
///    detector-dead plus removed nodes, and hands the plan to the
///    StagedTransition (cluster/transition.h, single-flight with
///    migrations) as a delta: the plan-time-live nodes take part (losing
///    one aborts with "repair-source node lost"); the staging epoch routes
///    by the current spec plus the repaired table, which the staged
///    manifest's placement record persists; each file is charged only
///    its rebuilt share (retargeted replicas / all replicas); and the
///    degraded old layout may answer verify queries partially. Any abort
///    drops every staged file and leaves the old generation serving:
///    placement is exactly what it was before the repair started. A
///    committed repair reports its MTTR.
///
/// Dead nodes receive nothing during the repair, and the repaired epoch
/// holds no service for them: that null entry is how `Cluster::ReviveNode`
/// knows to catch a returning node up from a live peer before it serves.
/// A revival is refused while the repair runs (they share the single-flight
/// slot), so no node comes back between the plan and the cutover to an
/// epoch that leaves it out.

namespace griddecl::cluster {

/// One replica re-target: copy `copy` of primary disk `disk` moves from
/// `from_node` (dead, removed, or zone-violating) to `to_node` (live).
struct RepairAction {
  uint32_t disk = 0;
  uint32_t copy = 0;
  uint32_t from_node = 0;
  uint32_t to_node = 0;
};

struct RepairPlanInput {
  /// Current placement: table[copy][disk] = node (PlacementMap::Table()).
  std::vector<std::vector<uint32_t>> table;
  Topology topology;
  /// Nodes to plan around (detector-dead plus removed), ids ascending.
  std::vector<uint32_t> dead_nodes;
  /// Deterministic tie-break seed (the placement spec's seed).
  uint64_t seed = 0;
};

struct RepairPlan {
  std::vector<RepairAction> actions;
  /// The repaired table: input.table with every action applied.
  std::vector<std::vector<uint32_t>> new_table;
  /// Disks whose every replica was on a dead node — lost data; the
  /// repair refuses to stage a plan with any of these.
  std::vector<uint32_t> unrecoverable_disks;

  bool healthy() const {
    return actions.empty() && unrecoverable_disks.empty();
  }
};

/// Pure planning function; see file comment. Errors on malformed input
/// (ragged table, unknown nodes, every node dead).
Result<RepairPlan> PlanRepair(const RepairPlanInput& input);

}  // namespace griddecl::cluster

#endif  // GRIDDECL_CLUSTER_REPAIR_H_
