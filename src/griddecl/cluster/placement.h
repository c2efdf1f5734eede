#ifndef GRIDDECL_CLUSTER_PLACEMENT_H_
#define GRIDDECL_CLUSTER_PLACEMENT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "griddecl/common/status.h"
#include "griddecl/gridfile/manifest.h"

/// \file
/// Failure-domain-aware replica placement for the cluster.
///
/// A `Topology` arranges the N nodes of a cluster into racks and racks
/// into zones (node -> rack -> zone). A `PlacementMap` then assigns every
/// `(primary disk, mirror copy)` pair to a node under one of three
/// policies:
///
///  * `chained`  — copy c of disk d lives on disk (d+c) mod M, i.e. on
///    whatever node owns that disk. This is the classic chained
///    declustering layout (and the only one PR 7 had). Its trap: with two
///    disks per node, copy 1 of an even disk lands on the owner's *own*
///    node, so a node kill can take both replicas of a bucket down at
///    once. Kept for comparison and as the backward-compatible default.
///  * `spread`   — copy c of disk d lives on node (owner(d)+c) mod N:
///    copies always land on distinct nodes, round-robin. Survives any
///    single node loss at copies>=2, but a rack/zone kill can still take
///    adjacent nodes (and therefore all copies) down together.
///  * `zone_aware` — copy 0 stays on the owner; each further copy greedily
///    picks the node that maximizes (new zone, new rack, new node,
///    lightest replica load), with deterministic seeded tie-breaking. At
///    copies=2 with >=2 zones every bucket has replicas in two distinct
///    zones, so killing any single zone leaves the catalog fully
///    available.
///
/// The chosen policy + topology + seed (and, after a repair, an explicit
/// table) are persisted in the catalog manifest (`ManifestPlacement`,
/// manifest.h); a manifest without the record implies chained over a flat
/// topology. At runtime the cluster's routing epoch owns the one
/// `PlacementMap` every layer reads (cluster/cluster.h).

namespace griddecl::cluster {

enum class PlacementPolicy : uint32_t {
  kChained = 0,
  kSpread = 1,
  kZoneAware = 2,
};

const char* PlacementPolicyName(PlacementPolicy policy);
Result<PlacementPolicy> ParsePlacementPolicy(const std::string& name);

/// Node -> rack -> zone arrangement. Valid iff every node has a rack,
/// every rack a zone, and ids are dense (rack ids in [0, num_racks),
/// zone ids in [0, num_zones)).
struct Topology {
  /// node_rack[n] = rack of node n; size = num_nodes.
  std::vector<uint32_t> node_rack;
  /// rack_zone[r] = zone of rack r; size = num_racks.
  std::vector<uint32_t> rack_zone;

  uint32_t num_nodes() const {
    return static_cast<uint32_t>(node_rack.size());
  }
  uint32_t num_racks() const {
    return static_cast<uint32_t>(rack_zone.size());
  }
  uint32_t num_zones() const;
  uint32_t rack_of(uint32_t node) const { return node_rack[node]; }
  uint32_t zone_of(uint32_t node) const {
    return rack_zone[node_rack[node]];
  }

  Status Validate() const;

  /// Every node in its own rack, every rack in its own zone — the
  /// degenerate topology where zone_aware == spread.
  static Topology Flat(uint32_t num_nodes);
  /// `num_nodes` nodes dealt contiguously into `num_racks` racks, racks
  /// dealt contiguously into `num_zones` zones. Requires
  /// num_nodes >= num_racks >= num_zones >= 1.
  static Result<Topology> Grid(uint32_t num_nodes, uint32_t num_racks,
                               uint32_t num_zones);
};

/// Parses "N" (flat) or "NxR" or "NxRxZ" (grid), e.g. "4x2x2".
Result<Topology> ParseTopology(const std::string& text);

/// The contiguous deal of `count` items into `slots` slots: item i goes to
/// slot i * slots / count. Disk d of M is owned by node d * N / M (row 0
/// of every policy placement); `Topology::Grid` deals nodes into racks and
/// racks into zones the same way.
std::vector<uint32_t> ContiguousDeal(uint32_t count, uint32_t slots);

/// Policy + topology + seed: everything needed to deterministically
/// recompute the replica placement of a catalog.
struct PlacementSpec {
  PlacementPolicy policy = PlacementPolicy::kChained;
  Topology topology;
  /// Tie-break seed for zone_aware (ignored by chained/spread).
  uint64_t seed = 0;
  /// Optional explicit assignment: table[copy][disk] = node. Non-empty
  /// after a repair / re-placement, whose incremental re-targeting
  /// deviates from the pure policy formula — then it overrides the policy
  /// entirely (the policy/topology/seed are kept as the spec the table was
  /// derived from). Row 0 is the primary-owner map. All rows must have
  /// one entry per disk, every entry < topology.num_nodes().
  std::vector<std::vector<uint32_t>> table;
};

/// Conversions to/from the manifest's serialized record.
ManifestPlacement ToManifestPlacement(const PlacementSpec& spec);
Result<PlacementSpec> FromManifestPlacement(const ManifestPlacement& record);

/// The materialized (disk, copy) -> node table. Immutable once built.
class PlacementMap {
 public:
  /// Places `num_disks` primary disks; `max_copies` >= 1 is the largest
  /// mirror copy count of any relation. When `spec.table` is non-empty it
  /// is used verbatim, row 0 included: it must have >= max_copies rows of
  /// `num_disks` entries, each inside the topology. Otherwise disk
  /// ownership (row 0) is `ContiguousDeal(num_disks, N)` and the policy
  /// formula places the other copies.
  static Result<PlacementMap> Build(const PlacementSpec& spec,
                                    uint32_t num_disks, uint32_t max_copies);

  /// The same node table under `grown`, a topology that only appended
  /// nodes (and racks / zones) to this map's — how AddNode publishes a
  /// new node that holds nothing until the next Repair / Migrate.
  PlacementMap WithTopology(Topology grown) const;

  /// The raw (copy, disk) -> node rows — the repair planner's input.
  const std::vector<std::vector<uint32_t>>& Table() const { return node_of_; }

  PlacementPolicy policy() const { return spec_.policy; }
  const PlacementSpec& spec() const { return spec_; }
  uint32_t num_disks() const {
    return static_cast<uint32_t>(node_of_.empty()
                                     ? 0
                                     : node_of_[0].size());
  }
  uint32_t max_copies() const {
    return static_cast<uint32_t>(node_of_.size());
  }

  /// Node holding copy `copy` of primary disk `disk`. copy 0 is always
  /// the owner.
  uint32_t NodeOf(uint32_t disk, uint32_t copy) const {
    return node_of_[copy][disk];
  }

  /// Primary disks whose first `copies` replicas do NOT all live on
  /// distinct nodes — the self-colocation trap. Empty for a safe layout.
  std::vector<uint32_t> SelfColocatedDisks(uint32_t copies) const;

  /// Distinct zones covered by the first `copies` replicas of `disk`.
  uint32_t DistinctZones(uint32_t disk, uint32_t copies) const;
  /// Distinct nodes covered by the first `copies` replicas of `disk`.
  uint32_t DistinctNodes(uint32_t disk, uint32_t copies) const;

 private:
  PlacementSpec spec_;
  /// node_of_[copy][disk] = node; row 0 is the disk owner.
  std::vector<std::vector<uint32_t>> node_of_;
};

}  // namespace griddecl::cluster

#endif  // GRIDDECL_CLUSTER_PLACEMENT_H_
