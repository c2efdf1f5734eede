#include "griddecl/cluster/repair.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <tuple>
#include <utility>

#include "griddecl/cluster/transition.h"
#include "griddecl/common/backoff.h"
#include "griddecl/common/hash.h"

namespace griddecl::cluster {

Result<RepairPlan> PlanRepair(const RepairPlanInput& input) {
  GRIDDECL_RETURN_IF_ERROR(input.topology.Validate());
  if (input.table.empty() || input.table[0].empty()) {
    return Status::InvalidArgument("repair plan needs a placement table");
  }
  const uint32_t num_nodes = input.topology.num_nodes();
  const uint32_t copies = static_cast<uint32_t>(input.table.size());
  const uint32_t num_disks = static_cast<uint32_t>(input.table[0].size());
  for (const std::vector<uint32_t>& row : input.table) {
    if (row.size() != num_disks) {
      return Status::InvalidArgument("repair plan table is ragged");
    }
    for (uint32_t node : row) {
      if (node >= num_nodes) {
        return Status::InvalidArgument(
            "repair plan table names an unknown node");
      }
    }
  }
  std::vector<bool> dead(num_nodes, false);
  for (uint32_t n : input.dead_nodes) {
    if (n >= num_nodes) {
      return Status::InvalidArgument("dead node id out of range");
    }
    dead[n] = true;
  }
  uint32_t live_count = 0;
  std::set<uint32_t> live_zones;
  for (uint32_t n = 0; n < num_nodes; ++n) {
    if (dead[n]) continue;
    ++live_count;
    live_zones.insert(input.topology.zone_of(n));
  }
  if (live_count == 0) {
    return Status::InvalidArgument("repair plan has no live nodes");
  }

  RepairPlan plan;
  plan.new_table = input.table;

  // Replica load per node (live nodes only matter, dead entries are about
  // to move anyway) — the balancing signal for re-target choice.
  std::vector<uint64_t> load(num_nodes, 0);
  for (const std::vector<uint32_t>& row : input.table) {
    for (uint32_t node : row) {
      if (!dead[node]) ++load[node];
    }
  }

  // Best live node for copy `c` of disk `d`, scored against the OTHER
  // live-assigned copies of d in the evolving new_table: prefer a new
  // zone, then a new rack, then a new node, then the lightest load, with
  // the seeded hash as the final deterministic tie-break.
  const auto pick = [&](uint32_t d, uint32_t c) -> uint32_t {
    std::set<uint32_t> used_nodes, used_racks, used_zones;
    for (uint32_t c2 = 0; c2 < copies; ++c2) {
      if (c2 == c) continue;
      const uint32_t node = plan.new_table[c2][d];
      if (dead[node]) continue;  // itself pending re-target
      used_nodes.insert(node);
      used_racks.insert(input.topology.rack_of(node));
      used_zones.insert(input.topology.zone_of(node));
    }
    const auto score = [&](uint32_t n) {
      const uint64_t zone_new =
          used_zones.count(input.topology.zone_of(n)) == 0 ? 1 : 0;
      const uint64_t rack_new =
          used_racks.count(input.topology.rack_of(n)) == 0 ? 1 : 0;
      const uint64_t node_new = used_nodes.count(n) == 0 ? 1 : 0;
      return std::make_tuple(zone_new, rack_new, node_new, ~load[n],
                             Mix64(input.seed ^
                                   (static_cast<uint64_t>(d) << 32) ^
                                   (static_cast<uint64_t>(c) << 20) ^ n));
    };
    uint32_t best = 0;
    bool have_best = false;
    for (uint32_t n = 0; n < num_nodes; ++n) {
      if (dead[n]) continue;
      if (!have_best || score(n) > score(best)) {
        best = n;
        have_best = true;
      }
    }
    return best;
  };

  // Pass 1: evacuate dead assignments. A disk with NO live replica lost
  // its data — record it and leave its row untouched for the caller.
  std::vector<bool> unrecoverable(num_disks, false);
  for (uint32_t d = 0; d < num_disks; ++d) {
    bool any_live = false;
    for (uint32_t c = 0; c < copies; ++c) {
      if (!dead[input.table[c][d]]) any_live = true;
    }
    if (!any_live) {
      unrecoverable[d] = true;
      plan.unrecoverable_disks.push_back(d);
      continue;
    }
    for (uint32_t c = 0; c < copies; ++c) {
      const uint32_t from = plan.new_table[c][d];
      if (!dead[from]) continue;
      const uint32_t to = pick(d, c);
      plan.new_table[c][d] = to;
      ++load[to];
      plan.actions.push_back(RepairAction{d, c, from, to});
    }
  }

  // Pass 2: placement violations. A disk whose replicas cover fewer
  // distinct zones than min(copies, live zones) is under-spread (e.g.
  // after an add-node opened a new zone, or pass 1 had to double up);
  // move the first copy that duplicates an earlier copy's zone to a
  // strictly-new zone when a live node there exists.
  const uint32_t target_zones =
      std::min<uint32_t>(copies, static_cast<uint32_t>(live_zones.size()));
  for (uint32_t d = 0; d < num_disks; ++d) {
    if (unrecoverable[d]) continue;
    for (uint32_t c = 1; c < copies; ++c) {
      std::set<uint32_t> zones;
      for (uint32_t c2 = 0; c2 < copies; ++c2) {
        zones.insert(input.topology.zone_of(plan.new_table[c2][d]));
      }
      if (zones.size() >= target_zones) break;
      const uint32_t zc = input.topology.zone_of(plan.new_table[c][d]);
      bool duplicate = false;
      for (uint32_t c2 = 0; c2 < c; ++c2) {
        if (input.topology.zone_of(plan.new_table[c2][d]) == zc) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) continue;
      // Best live node in a zone no copy of d covers yet.
      uint32_t best = 0;
      bool have_best = false;
      for (uint32_t n = 0; n < num_nodes; ++n) {
        if (dead[n]) continue;
        if (zones.count(input.topology.zone_of(n)) != 0) continue;
        const auto key = std::make_tuple(
            ~load[n], Mix64(input.seed ^ (static_cast<uint64_t>(d) << 32) ^
                            (static_cast<uint64_t>(c) << 20) ^ n));
        const auto best_key = std::make_tuple(
            ~load[best],
            Mix64(input.seed ^ (static_cast<uint64_t>(d) << 32) ^
                  (static_cast<uint64_t>(c) << 20) ^ best));
        if (!have_best || key > best_key) {
          best = n;
          have_best = true;
        }
      }
      if (!have_best) continue;
      const uint32_t from = plan.new_table[c][d];
      if (load[from] > 0) --load[from];
      plan.new_table[c][d] = best;
      ++load[best];
      plan.actions.push_back(RepairAction{d, c, from, best});
    }
  }
  return plan;
}

Result<RepairReport> Cluster::Repair(const RepairOptions& options) {
  RepairReport report;
  const double wall_t0 = MonotonicNowMs();
  // Redundancy-restored-by anchor: the earliest detector death among the
  // nodes being repaired around.
  double earliest_dead = std::numeric_limits<double>::infinity();
  GRIDDECL_RETURN_IF_ERROR(RunTransition(
      options, &report,
      [&](const Epoch& current, TransitionDelta* delta) -> Status {
        if (options.on_phase) options.on_phase("plan");
        report.dead_nodes = DeadNodesForRepair();
        std::vector<bool> is_dead(num_nodes(), false);
        for (uint32_t n : report.dead_nodes) is_dead[n] = true;
        // The nodes the repair runs ON: alive now and not being repaired
        // around.
        std::vector<uint32_t> live;
        for (uint32_t n = 0; n < num_nodes(); ++n) {
          if (!is_dead[n] && NodeAlive(n)) live.push_back(n);
        }
        if (live.empty()) {
          report.abort_reason = "no live node to repair from";
          return Status::Ok();
        }

        const PlacementSpec& spec = current.placement.spec();
        RepairPlanInput in;
        in.table = current.placement.Table();
        in.topology = spec.topology;
        in.dead_nodes = report.dead_nodes;
        in.seed = spec.seed;
        auto plan = PlanRepair(in);
        if (!plan.ok()) return plan.status();
        if (!plan.value().unrecoverable_disks.empty()) {
          report.abort_reason =
              std::to_string(plan.value().unrecoverable_disks.size()) +
              " disk(s) lost every replica: unrecoverable";
          return Status::Ok();
        }
        if (plan.value().actions.empty()) {
          report.already_healthy = true;
          return Status::Ok();
        }
        report.replicas_retargeted = plan.value().actions.size();
        for (uint32_t n : report.dead_nodes) {
          const double since = NodeDeadSinceMs(n);
          if (since > 0.0) earliest_dead = std::min(earliest_dead, since);
        }

        delta->participants = std::move(live);
        delta->placement = spec;
        delta->placement.table = plan.value().new_table;
        const ManifestPlacement record = ToManifestPlacement(delta->placement);
        delta->edit_manifest = [record](CatalogManifest* staged) {
          staged->placement = record;
        };
        // Only the rebuilt share of each file actually moves.
        delta->charge_fraction =
            static_cast<double>(plan.value().actions.size()) /
            (static_cast<double>(in.table.size()) *
             static_cast<double>(in.table[0].size()));
        delta->old_may_be_partial = true;
        delta->node_lost = "repair-source node lost";
        delta->copy_failed = "repair copy failed";
        delta->new_layout = "repaired layout";
        delta->old_and_new = "old and repaired placements";
        return Status::Ok();
      }));
  if (report.committed) {
    if (std::isfinite(earliest_dead)) {
      report.mttr_virtual_ms = std::max(0.0, VirtualNowMs() - earliest_dead);
    }
    report.mttr_wall_ms = MonotonicNowMs() - wall_t0;
  }
  std::lock_guard<std::mutex> lock(metrics_mu_);
  if (report.committed) {
    ++repairs_committed_;
    repair_replicas_rebuilt_ += report.replicas_retargeted;
    repair_bytes_copied_ += report.bytes_copied;
  } else if (!report.already_healthy) {
    ++repairs_aborted_;
  }
  return report;
}

}  // namespace griddecl::cluster
