#include "griddecl/cluster/placement.h"

#include <set>

#include <gtest/gtest.h>

namespace griddecl::cluster {
namespace {

PlacementMap Build(PlacementPolicy policy, const Topology& topology,
                   uint32_t num_disks, uint32_t copies, uint64_t seed = 7) {
  PlacementSpec spec;
  spec.policy = policy;
  spec.topology = topology;
  spec.seed = seed;
  return PlacementMap::Build(spec, num_disks, copies).value();
}

TEST(TopologyTest, FlatAndGrid) {
  const Topology flat = Topology::Flat(4);
  EXPECT_TRUE(flat.Validate().ok());
  EXPECT_EQ(flat.num_nodes(), 4u);
  EXPECT_EQ(flat.num_racks(), 4u);
  EXPECT_EQ(flat.num_zones(), 4u);

  const Topology grid = Topology::Grid(8, 4, 2).value();
  EXPECT_TRUE(grid.Validate().ok());
  EXPECT_EQ(grid.num_nodes(), 8u);
  EXPECT_EQ(grid.num_racks(), 4u);
  EXPECT_EQ(grid.num_zones(), 2u);
  // Contiguous deal: nodes 0,1 -> rack 0; racks 0,1 -> zone 0.
  EXPECT_EQ(grid.rack_of(0), grid.rack_of(1));
  EXPECT_EQ(grid.zone_of(0), grid.zone_of(3));
  EXPECT_NE(grid.zone_of(0), grid.zone_of(4));

  EXPECT_FALSE(Topology::Grid(2, 4, 1).ok());  // racks > nodes
  EXPECT_FALSE(Topology::Grid(4, 2, 3).ok());  // zones > racks
  EXPECT_FALSE(Topology::Grid(0, 0, 0).ok());
}

TEST(TopologyTest, ValidateRejectsRaggedIds) {
  Topology t;
  t.node_rack = {0, 1};
  t.rack_zone = {0};  // node 1 references rack 1, which has no zone.
  EXPECT_FALSE(t.Validate().ok());

  t.node_rack = {0, 0};
  t.rack_zone = {5};  // zone id not dense.
  EXPECT_FALSE(t.Validate().ok());
}

TEST(TopologyTest, ParseForms) {
  const Topology flat = ParseTopology("4").value();
  EXPECT_EQ(flat.num_nodes(), 4u);
  EXPECT_EQ(flat.num_zones(), 4u);

  const Topology nr = ParseTopology("8x4").value();
  EXPECT_EQ(nr.num_racks(), 4u);

  const Topology nrz = ParseTopology("4x2x2").value();
  EXPECT_EQ(nrz.num_nodes(), 4u);
  EXPECT_EQ(nrz.num_racks(), 2u);
  EXPECT_EQ(nrz.num_zones(), 2u);

  EXPECT_FALSE(ParseTopology("").ok());
  EXPECT_FALSE(ParseTopology("4x").ok());
  EXPECT_FALSE(ParseTopology("axb").ok());
  EXPECT_FALSE(ParseTopology("2x4").ok());
  EXPECT_FALSE(ParseTopology("1x1x1x1").ok());
}

TEST(PlacementPolicyTest, NamesRoundTrip) {
  for (PlacementPolicy p : {PlacementPolicy::kChained,
                            PlacementPolicy::kSpread,
                            PlacementPolicy::kZoneAware}) {
    EXPECT_EQ(ParsePlacementPolicy(PlacementPolicyName(p)).value(), p);
  }
  EXPECT_FALSE(ParsePlacementPolicy("bogus").ok());
}

TEST(PlacementMapTest, ChainedMatchesDiskArithmetic) {
  // chained: copy c of disk d lives on the node owning disk (d+c) mod M.
  const Topology topo = Topology::Grid(4, 2, 2).value();
  const std::vector<uint32_t> disk_node = ContiguousDeal(8, 4);
  const PlacementMap map = Build(PlacementPolicy::kChained, topo, 8, 2);
  for (uint32_t d = 0; d < 8; ++d) {
    EXPECT_EQ(map.NodeOf(d, 0), disk_node[d]);
    EXPECT_EQ(map.NodeOf(d, 1), disk_node[(d + 1) % 8]);
  }
}

TEST(PlacementMapTest, ChainedSelfColocationTrapIsPinned) {
  // The regression the warning exists for: M=8 on N=4 puts two disks per
  // node, so chained copy 1 of every even disk lands on the owner's own
  // node. These are exactly disks 0, 2, 4, 6.
  const Topology topo = Topology::Grid(4, 2, 2).value();
  const PlacementMap map = Build(PlacementPolicy::kChained, topo, 8, 2);
  EXPECT_EQ(map.SelfColocatedDisks(2),
            (std::vector<uint32_t>{0, 2, 4, 6}));
  for (uint32_t d : {0u, 2u, 4u, 6u}) {
    EXPECT_EQ(map.DistinctNodes(d, 2), 1u);
  }
}

TEST(PlacementMapTest, SpreadAlwaysUsesDistinctNodes) {
  const Topology topo = Topology::Grid(4, 2, 2).value();
  const PlacementMap map = Build(PlacementPolicy::kSpread, topo, 8, 3);
  EXPECT_TRUE(map.SelfColocatedDisks(3).empty());
  for (uint32_t d = 0; d < 8; ++d) {
    EXPECT_EQ(map.DistinctNodes(d, 3), 3u);
  }
}

TEST(PlacementMapTest, ZoneAwareCoversDistinctZonesFirst) {
  // 8 nodes / 4 racks / 2 zones, copies=2: every disk's two replicas must
  // land in both zones; at copies=3 they must also span >= 2 racks.
  const Topology topo = Topology::Grid(8, 4, 2).value();
  const PlacementMap map = Build(PlacementPolicy::kZoneAware, topo, 16, 3);
  for (uint32_t d = 0; d < 16; ++d) {
    EXPECT_EQ(map.DistinctZones(d, 2), 2u) << "disk " << d;
    EXPECT_EQ(map.DistinctNodes(d, 3), 3u) << "disk " << d;
  }
  EXPECT_TRUE(map.SelfColocatedDisks(3).empty());
}

TEST(PlacementMapTest, ZoneAwareIsDeterministicUnderSeed) {
  const Topology topo = Topology::Grid(8, 4, 2).value();
  const PlacementMap a = Build(PlacementPolicy::kZoneAware, topo, 16, 2, 9);
  const PlacementMap b = Build(PlacementPolicy::kZoneAware, topo, 16, 2, 9);
  for (uint32_t d = 0; d < 16; ++d) {
    EXPECT_EQ(a.NodeOf(d, 1), b.NodeOf(d, 1));
  }
}

TEST(PlacementMapTest, BuildValidates) {
  PlacementSpec spec;
  spec.topology = Topology::Flat(4);
  EXPECT_FALSE(PlacementMap::Build(spec, 0, 2).ok());
  EXPECT_FALSE(PlacementMap::Build(spec, 4, 0).ok());
}

TEST(PlacementSpecTest, ManifestRoundTrip) {
  PlacementSpec spec;
  spec.policy = PlacementPolicy::kZoneAware;
  spec.topology = Topology::Grid(4, 2, 2).value();
  spec.seed = 0xdeadbeefULL;

  const ManifestPlacement record = ToManifestPlacement(spec);
  const PlacementSpec back = FromManifestPlacement(record).value();
  EXPECT_EQ(back.policy, spec.policy);
  EXPECT_EQ(back.seed, spec.seed);
  EXPECT_EQ(back.topology.node_rack, spec.topology.node_rack);
  EXPECT_EQ(back.topology.rack_zone, spec.topology.rack_zone);

  ManifestPlacement bad = record;
  bad.policy = 99;
  EXPECT_FALSE(FromManifestPlacement(bad).ok());
}

TEST(PlacementMapTest, ExplicitTableOverridesThePolicyFormula) {
  // A repair leaves an explicit table that deliberately disagrees with
  // what the policy would compute; Build must serve it verbatim.
  PlacementSpec spec;
  spec.policy = PlacementPolicy::kChained;
  spec.topology = Topology::Flat(4);
  // Row 0 (ownership) comes from the table too: disk 0 re-homed to node 1.
  spec.table = {{1, 1, 2, 3}, {2, 3, 0, 0}};  // Chained: {0,1,2,3},{1,2,3,0}.
  const PlacementMap map = PlacementMap::Build(spec, 4, 2).value();
  EXPECT_EQ(map.NodeOf(0, 0), 1u);
  EXPECT_EQ(map.NodeOf(0, 1), 2u);
  EXPECT_EQ(map.NodeOf(3, 1), 0u);
  EXPECT_EQ(map.Table(), spec.table);

  // Rows must be full width, entries must be inside the topology, and
  // there must be a row per copy.
  PlacementSpec bad = spec;
  bad.table[1].pop_back();
  EXPECT_FALSE(PlacementMap::Build(bad, 4, 2).ok());
  bad = spec;
  bad.table[1][0] = 9;
  EXPECT_FALSE(PlacementMap::Build(bad, 4, 2).ok());
  EXPECT_FALSE(PlacementMap::Build(spec, 4, 3).ok());
}

TEST(PlacementSpecTest, ManifestRoundTripCarriesTheTable) {
  PlacementSpec spec;
  spec.policy = PlacementPolicy::kZoneAware;
  spec.topology = Topology::Grid(4, 2, 2).value();
  spec.seed = 11;
  spec.table = {{0, 1, 2, 3}, {2, 3, 0, 1}};

  const ManifestPlacement record = ToManifestPlacement(spec);
  EXPECT_EQ(record.table_copies, 2u);
  EXPECT_EQ(record.table_disks, 4u);
  const PlacementSpec back = FromManifestPlacement(record).value();
  EXPECT_EQ(back.table, spec.table);

  // Table-less specs round-trip with an empty table, as before.
  spec.table.clear();
  const ManifestPlacement tableless = ToManifestPlacement(spec);
  EXPECT_TRUE(tableless.table.empty());
  EXPECT_TRUE(FromManifestPlacement(tableless).value().table.empty());

  ManifestPlacement bad = record;
  bad.table[5] = 42;  // No node 42 in a 4-node topology.
  EXPECT_FALSE(FromManifestPlacement(bad).ok());
  bad = record;
  bad.table_disks = 3;  // Dims no longer match the flat payload.
  EXPECT_FALSE(FromManifestPlacement(bad).ok());
}

}  // namespace
}  // namespace griddecl::cluster
