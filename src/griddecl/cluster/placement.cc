#include "griddecl/cluster/placement.h"

#include <algorithm>
#include <set>
#include <utility>

#include "griddecl/common/hash.h"

namespace griddecl::cluster {

const char* PlacementPolicyName(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kChained:
      return "chained";
    case PlacementPolicy::kSpread:
      return "spread";
    case PlacementPolicy::kZoneAware:
      return "zone_aware";
  }
  return "unknown";
}

Result<PlacementPolicy> ParsePlacementPolicy(const std::string& name) {
  if (name == "chained") return PlacementPolicy::kChained;
  if (name == "spread") return PlacementPolicy::kSpread;
  if (name == "zone_aware") return PlacementPolicy::kZoneAware;
  return Status::InvalidArgument("bad placement policy '" + name +
                                 "' (chained|spread|zone_aware)");
}

uint32_t Topology::num_zones() const {
  uint32_t highest = 0;
  for (uint32_t zone : rack_zone) highest = std::max(highest, zone);
  return rack_zone.empty() ? 0 : highest + 1;
}

Status Topology::Validate() const {
  if (node_rack.empty()) {
    return Status::InvalidArgument("topology has no nodes");
  }
  if (rack_zone.empty()) {
    return Status::InvalidArgument("topology has no racks");
  }
  if (rack_zone.size() > node_rack.size()) {
    return Status::InvalidArgument("topology has more racks than nodes");
  }
  for (uint32_t rack : node_rack) {
    if (rack >= num_racks()) {
      return Status::InvalidArgument("topology rack id out of range");
    }
  }
  for (uint32_t zone : rack_zone) {
    if (zone >= num_racks()) {
      return Status::InvalidArgument("topology zone id out of range");
    }
  }
  return Status::Ok();
}

Topology Topology::Flat(uint32_t num_nodes) {
  Topology t;
  t.node_rack.resize(num_nodes);
  t.rack_zone.resize(num_nodes);
  for (uint32_t n = 0; n < num_nodes; ++n) {
    t.node_rack[n] = n;
    t.rack_zone[n] = n;
  }
  return t;
}

Result<Topology> Topology::Grid(uint32_t num_nodes, uint32_t num_racks,
                                uint32_t num_zones) {
  if (num_zones < 1 || num_racks < num_zones || num_nodes < num_racks) {
    return Status::InvalidArgument(
        "topology needs nodes >= racks >= zones >= 1");
  }
  Topology t;
  t.node_rack = ContiguousDeal(num_nodes, num_racks);
  t.rack_zone = ContiguousDeal(num_racks, num_zones);
  return t;
}

std::vector<uint32_t> ContiguousDeal(uint32_t count, uint32_t slots) {
  std::vector<uint32_t> slot_of(count);
  for (uint32_t i = 0; i < count; ++i) {
    slot_of[i] =
        static_cast<uint32_t>(static_cast<uint64_t>(i) * slots / count);
  }
  return slot_of;
}

Result<Topology> ParseTopology(const std::string& text) {
  std::vector<uint32_t> parts;
  std::string token;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == 'x') {
      if (token.empty()) {
        return Status::InvalidArgument("bad topology '" + text +
                                       "' (want N, NxR, or NxRxZ)");
      }
      uint64_t value = 0;
      for (char c : token) {
        if (c < '0' || c > '9') {
          return Status::InvalidArgument("bad topology '" + text +
                                         "' (want N, NxR, or NxRxZ)");
        }
        value = value * 10 + static_cast<uint64_t>(c - '0');
        if (value > (1u << 20)) {
          return Status::InvalidArgument("topology dimension too large");
        }
      }
      parts.push_back(static_cast<uint32_t>(value));
      token.clear();
    } else {
      token += text[i];
    }
  }
  if (parts.empty() || parts.size() > 3) {
    return Status::InvalidArgument("bad topology '" + text +
                                   "' (want N, NxR, or NxRxZ)");
  }
  const uint32_t nodes = parts[0];
  const uint32_t racks = parts.size() >= 2 ? parts[1] : nodes;
  const uint32_t zones = parts.size() >= 3 ? parts[2] : racks;
  return Topology::Grid(nodes, racks, zones);
}

ManifestPlacement ToManifestPlacement(const PlacementSpec& spec) {
  ManifestPlacement record;
  record.policy = static_cast<uint32_t>(spec.policy);
  record.seed = spec.seed;
  record.node_rack = spec.topology.node_rack;
  record.rack_zone = spec.topology.rack_zone;
  if (!spec.table.empty()) {
    record.table_copies = static_cast<uint32_t>(spec.table.size());
    record.table_disks = static_cast<uint32_t>(spec.table[0].size());
    record.table.reserve(static_cast<size_t>(record.table_copies) *
                         record.table_disks);
    for (const std::vector<uint32_t>& row : spec.table) {
      record.table.insert(record.table.end(), row.begin(), row.end());
    }
  }
  return record;
}

Result<PlacementSpec> FromManifestPlacement(const ManifestPlacement& record) {
  if (record.policy > static_cast<uint32_t>(PlacementPolicy::kZoneAware)) {
    return Status::InvalidArgument("unknown placement policy " +
                                   std::to_string(record.policy));
  }
  PlacementSpec spec;
  spec.policy = static_cast<PlacementPolicy>(record.policy);
  spec.seed = record.seed;
  spec.topology.node_rack = record.node_rack;
  spec.topology.rack_zone = record.rack_zone;
  const Status valid = spec.topology.Validate();
  if (!valid.ok()) return valid;
  if (!record.table.empty()) {
    if (record.table_copies < 1 || record.table_disks < 1 ||
        record.table.size() != static_cast<size_t>(record.table_copies) *
                                   record.table_disks) {
      return Status::InvalidArgument("placement table dims inconsistent");
    }
    spec.table.assign(record.table_copies,
                      std::vector<uint32_t>(record.table_disks, 0));
    for (uint32_t c = 0; c < record.table_copies; ++c) {
      for (uint32_t d = 0; d < record.table_disks; ++d) {
        const uint32_t node =
            record.table[static_cast<size_t>(c) * record.table_disks + d];
        if (node >= spec.topology.num_nodes()) {
          return Status::InvalidArgument(
              "placement table entry names an unknown node");
        }
        spec.table[c][d] = node;
      }
    }
  }
  return spec;
}

Result<PlacementMap> PlacementMap::Build(const PlacementSpec& spec,
                                         uint32_t num_disks,
                                         uint32_t max_copies) {
  const Status valid = spec.topology.Validate();
  if (!valid.ok()) return valid;
  if (num_disks < 1) {
    return Status::InvalidArgument("placement needs at least one disk");
  }
  if (max_copies < 1) {
    return Status::InvalidArgument("placement needs max_copies >= 1");
  }
  const uint32_t num_nodes = spec.topology.num_nodes();

  PlacementMap map;
  map.spec_ = spec;

  if (!spec.table.empty()) {
    // Explicit table (post-repair ground truth): use it verbatim.
    if (spec.table.size() < max_copies) {
      return Status::InvalidArgument(
          "placement table has fewer rows than mirror copies");
    }
    for (const std::vector<uint32_t>& row : spec.table) {
      if (row.size() != num_disks) {
        return Status::InvalidArgument(
            "placement table row width != number of disks");
      }
      for (uint32_t node : row) {
        if (node >= num_nodes) {
          return Status::InvalidArgument(
              "placement table entry outside the topology");
        }
      }
    }
    map.node_of_ = spec.table;
    return map;
  }

  map.node_of_.assign(max_copies, std::vector<uint32_t>(num_disks, 0));
  map.node_of_[0] = ContiguousDeal(num_disks, num_nodes);
  const std::vector<uint32_t>& disk_node = map.node_of_[0];

  switch (spec.policy) {
    case PlacementPolicy::kChained:
      // Copy c of disk d lives on disk (d+c) mod M — on whatever node
      // happens to own that disk (the self-colocation trap with several
      // disks per node).
      for (uint32_t c = 1; c < max_copies; ++c) {
        for (uint32_t d = 0; d < num_disks; ++d) {
          map.node_of_[c][d] = disk_node[(d + c) % num_disks];
        }
      }
      break;
    case PlacementPolicy::kSpread:
      // Round-robin over nodes: copies always land on distinct nodes
      // (as long as copies <= N), blind to racks and zones.
      for (uint32_t c = 1; c < max_copies; ++c) {
        for (uint32_t d = 0; d < num_disks; ++d) {
          map.node_of_[c][d] = (disk_node[d] + c) % num_nodes;
        }
      }
      break;
    case PlacementPolicy::kZoneAware: {
      // Greedy per (disk, copy): prefer a new zone, then a new rack, then
      // a new node, then the node with the lightest replica load, with a
      // seeded hash as the final deterministic tie-break. Load starts at
      // each node's primary-disk count so replicas also level out.
      std::vector<uint64_t> load(num_nodes, 0);
      for (uint32_t node : disk_node) ++load[node];
      for (uint32_t c = 1; c < max_copies; ++c) {
        for (uint32_t d = 0; d < num_disks; ++d) {
          std::set<uint32_t> used_nodes, used_racks, used_zones;
          for (uint32_t prev = 0; prev < c; ++prev) {
            const uint32_t node = map.node_of_[prev][d];
            used_nodes.insert(node);
            used_racks.insert(spec.topology.rack_of(node));
            used_zones.insert(spec.topology.zone_of(node));
          }
          uint32_t best = 0;
          bool have_best = false;
          auto score = [&](uint32_t n) {
            const uint64_t zone_new =
                used_zones.count(spec.topology.zone_of(n)) == 0 ? 1 : 0;
            const uint64_t rack_new =
                used_racks.count(spec.topology.rack_of(n)) == 0 ? 1 : 0;
            const uint64_t node_new = used_nodes.count(n) == 0 ? 1 : 0;
            return std::make_tuple(zone_new, rack_new, node_new, ~load[n],
                                   Mix64(spec.seed ^
                                         (static_cast<uint64_t>(d) << 32) ^
                                         (static_cast<uint64_t>(c) << 20) ^
                                         n));
          };
          for (uint32_t n = 0; n < num_nodes; ++n) {
            if (!have_best || score(n) > score(best)) {
              best = n;
              have_best = true;
            }
          }
          map.node_of_[c][d] = best;
          ++load[best];
        }
      }
      break;
    }
  }
  return map;
}

PlacementMap PlacementMap::WithTopology(Topology grown) const {
  PlacementMap map = *this;
  map.spec_.topology = std::move(grown);
  return map;
}

std::vector<uint32_t> PlacementMap::SelfColocatedDisks(uint32_t copies) const {
  std::vector<uint32_t> colocated;
  const uint32_t effective = std::min<uint32_t>(copies, max_copies());
  if (effective < 2) return colocated;
  for (uint32_t d = 0; d < num_disks(); ++d) {
    if (DistinctNodes(d, effective) < effective) colocated.push_back(d);
  }
  return colocated;
}

uint32_t PlacementMap::DistinctZones(uint32_t disk, uint32_t copies) const {
  std::set<uint32_t> zones;
  const uint32_t effective = std::min<uint32_t>(copies, max_copies());
  for (uint32_t c = 0; c < effective; ++c) {
    zones.insert(spec_.topology.zone_of(node_of_[c][disk]));
  }
  return static_cast<uint32_t>(zones.size());
}

uint32_t PlacementMap::DistinctNodes(uint32_t disk, uint32_t copies) const {
  std::set<uint32_t> nodes;
  const uint32_t effective = std::min<uint32_t>(copies, max_copies());
  for (uint32_t c = 0; c < effective; ++c) {
    nodes.insert(node_of_[c][disk]);
  }
  return static_cast<uint32_t>(nodes.size());
}

}  // namespace griddecl::cluster
