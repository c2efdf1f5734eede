#include "griddecl/sim/availability.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <utility>

#include "griddecl/cluster/repair.h"
#include "griddecl/common/random.h"
#include "griddecl/methods/registry.h"
#include "griddecl/methods/replicated.h"
#include "griddecl/query/generator.h"

namespace griddecl {

const char* FailureDomainName(FailureDomain domain) {
  switch (domain) {
    case FailureDomain::kDisk: return "disk";
    case FailureDomain::kNode: return "node";
    case FailureDomain::kRack: return "rack";
    case FailureDomain::kZone: return "zone";
  }
  return "disk";
}

Result<FailureDomain> ParseFailureDomain(const std::string& name) {
  if (name == "disk") return FailureDomain::kDisk;
  if (name == "node") return FailureDomain::kNode;
  if (name == "rack") return FailureDomain::kRack;
  if (name == "zone") return FailureDomain::kZone;
  return Status::InvalidArgument("unknown failure domain '" + name +
                                 "' (want disk|node|rack|zone)");
}

namespace {

/// Deterministic shortest-roundtrip float formatting ("%.9g" is stable for
/// identical doubles, which determinism of the sweep guarantees).
std::string JsonNum(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string JsonUintList(const std::vector<uint32_t>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(values[i]);
  }
  return out + "]";
}

Status ValidateSweepOptions(const AvailabilitySweepOptions& o) {
  if (o.num_disks < 1) {
    return Status::InvalidArgument("sweep needs at least one disk");
  }
  if (o.num_queries < 1) {
    return Status::InvalidArgument("sweep needs at least one query");
  }
  if (o.max_failed > o.num_disks) {
    return Status::InvalidArgument(
        "max_failed must be <= num_disks");
  }
  for (uint32_t r : o.replication) {
    if (r < 2 || r > o.num_disks) {
      return Status::InvalidArgument(
          "replication degrees must be in [2, num_disks]");
    }
  }
  if (o.sim.faults != nullptr || o.sim.degraded != nullptr) {
    return Status::InvalidArgument(
        "sweep options must not pre-set faults/degraded; the sweep "
        "installs them per point");
  }
  if (o.failure_domain != FailureDomain::kDisk) {
    GRIDDECL_RETURN_IF_ERROR(o.topology.Validate());
    if (o.topology.num_nodes() > o.num_disks) {
      return Status::InvalidArgument(
          "correlated sweep needs num_nodes <= num_disks");
    }
    for (cluster::PlacementPolicy p : o.placement_policies) {
      if (static_cast<uint32_t>(p) > 2) {
        return Status::InvalidArgument("unknown placement policy");
      }
    }
  } else if (!o.forced_domain_order.empty() ||
             !o.placement_policies.empty() || o.repair) {
    return Status::InvalidArgument(
        "forced_domain_order / placement_policies / repair require a "
        "correlated failure_domain");
  }
  if (o.repair_detect_ms < 0.0 || o.repair_ms_per_replica < 0.0) {
    return Status::InvalidArgument("repair model times must be >= 0");
  }
  return Status::Ok();
}

/// Domain count for the correlated failure unit.
uint32_t DomainCount(const AvailabilitySweepOptions& o) {
  switch (o.failure_domain) {
    case FailureDomain::kDisk: return o.num_disks;
    case FailureDomain::kNode: return o.topology.num_nodes();
    case FailureDomain::kRack: return o.topology.num_racks();
    case FailureDomain::kZone: return o.topology.num_zones();
  }
  return o.num_disks;
}

/// The domain id hosting node `n` under the sweep's failure unit.
uint32_t DomainOfNode(const AvailabilitySweepOptions& o, uint32_t n) {
  switch (o.failure_domain) {
    case FailureDomain::kDisk:
    case FailureDomain::kNode: return n;
    case FailureDomain::kRack: return o.topology.rack_of(n);
    case FailureDomain::kZone: return o.topology.zone_of(n);
  }
  return n;
}

/// Lowers node-level replica rows (`node_rows[i][disk] = node`) to a
/// per-primary-disk replica table for ReplicatedPlacement::CreateWithTable.
/// Each row starts with the primary disk itself (`CreateWithTable`
/// requires it), then takes one disk per node row: a disk owned by that
/// row's node under `disk_node`, probing within the node's slice (then
/// globally) to keep the row's disks distinct. A same-node copy (chained
/// self-colocation) stays on the node — exactly the correlated-loss
/// behaviour the experiment measures. A policy placement passes its copy
/// rows 1.. (copy 0 is the primary); a repaired table passes every row,
/// copy 0 included, because a repair may have re-homed copy 0 off the
/// primary's node — when the primary's domain is dead, the leading
/// primary entry is dead with it, so it never inflates availability.
Result<std::vector<std::vector<uint32_t>>> LowerNodeRowsToDisks(
    const std::vector<std::vector<uint32_t>>& node_rows,
    const std::vector<uint32_t>& disk_node) {
  const uint32_t m = static_cast<uint32_t>(disk_node.size());
  // Node -> [first disk, disk count] of its contiguous slice.
  std::vector<uint32_t> lo(m, 0), count(m, 0);
  std::vector<bool> seen(m, false);
  for (uint32_t d = 0; d < m; ++d) {
    const uint32_t n = disk_node[d];
    if (!seen[n]) {
      seen[n] = true;
      lo[n] = d;
    }
    ++count[n];
  }
  std::vector<std::vector<uint32_t>> table(m);
  for (uint32_t d = 0; d < m; ++d) {
    std::vector<uint32_t>& row = table[d];
    row.push_back(d);
    for (const std::vector<uint32_t>& node_row : node_rows) {
      const uint32_t n = node_row[d];
      uint32_t disk = m;  // sentinel: unplaced
      for (uint32_t k = 0; k < count[n]; ++k) {
        const uint32_t candidate = lo[n] + (d + k) % count[n];
        if (std::find(row.begin(), row.end(), candidate) == row.end()) {
          disk = candidate;
          break;
        }
      }
      for (uint32_t k = 0; disk == m && k < m; ++k) {
        const uint32_t candidate = (d + 1 + k) % m;
        if (std::find(row.begin(), row.end(), candidate) == row.end()) {
          disk = candidate;
        }
      }
      if (disk == m) {
        return Status::Internal("replica lowering could not place a copy");
      }
      row.push_back(disk);
    }
  }
  return table;
}

/// One simulated point: `f` permanently failed disks under `plan`.
Result<AvailabilityPoint> RunPoint(const DeclusteringMethod& method,
                                   const std::string& registry_name,
                                   const Workload& workload,
                                   const AvailabilitySweepOptions& options,
                                   const DegradedPlan& plan,
                                   const std::vector<uint32_t>& dead_disks,
                                   std::string strategy, uint32_t replicas) {
  FaultSpec spec;
  spec.seed = options.seed;
  for (uint32_t d : dead_disks) spec.failures.push_back({d, 0.0});
  Result<FaultModel> fm = FaultModel::Create(method.num_disks(), spec);
  GRIDDECL_RETURN_IF_ERROR(fm.status());

  ThroughputOptions sim = options.sim;
  sim.faults = &fm.value();
  sim.degraded = &plan;
  Result<ThroughputResult> run = SimulateThroughput(method, workload, sim);
  GRIDDECL_RETURN_IF_ERROR(run.status());
  const ThroughputResult& r = run.value();

  AvailabilityPoint point;
  // The registry name, not the display name: aliases (dm vs cmd, fx vs
  // fx-auto) stay distinguishable in the report.
  point.method = registry_name;
  point.strategy = std::move(strategy);
  point.replicas = replicas;
  point.failed_disks = static_cast<uint32_t>(dead_disks.size());
  point.mean_latency_ms = r.mean_latency_ms;
  point.total_ms = r.total_ms;
  point.availability = r.Availability();
  point.unavailable_queries = r.unavailable_queries;
  point.rerouted_buckets = r.rerouted_buckets;
  point.reconstruction_reads = r.reconstruction_reads;
  point.transient_retries = r.transient_retries;
  return point;
}

/// Appends f = 0..max_failed points for one (method, plan-builder) pair and
/// fills in `degraded_ratio` against the pair's own f = 0 mean.
/// `dead_sets[f]` is the full failed-disk set at level f (a prefix chain:
/// each level's set contains the previous one's).
template <typename PlanBuilder>
Status SweepStrategy(const DeclusteringMethod& method,
                     const std::string& registry_name,
                     const Workload& workload,
                     const AvailabilitySweepOptions& options,
                     const std::vector<std::vector<uint32_t>>& dead_sets,
                     std::string strategy, uint32_t replicas,
                     const PlanBuilder& build_plan,
                     std::vector<AvailabilityPoint>* points) {
  double healthy_mean = 0;
  for (uint32_t f = 0; f <= options.max_failed; ++f) {
    const std::vector<uint32_t>& dead = dead_sets[f];
    std::vector<bool> mask(method.num_disks(), false);
    for (uint32_t d : dead) mask[d] = true;
    Result<DegradedPlan> plan = build_plan(mask);
    GRIDDECL_RETURN_IF_ERROR(plan.status());
    Result<AvailabilityPoint> point =
        RunPoint(method, registry_name, workload, options, plan.value(),
                 dead, strategy, replicas);
    GRIDDECL_RETURN_IF_ERROR(point.status());
    if (f == 0) healthy_mean = point.value().mean_latency_ms;
    point.value().failed_domains = f;
    point.value().degraded_ratio =
        healthy_mean <= 0 ? 0
                          : point.value().mean_latency_ms / healthy_mean;
    points->push_back(std::move(point).value());
  }
  return Status::Ok();
}

}  // namespace

Result<AvailabilitySweep> RunAvailabilitySweep(
    const AvailabilitySweepOptions& options) {
  GRIDDECL_RETURN_IF_ERROR(ValidateSweepOptions(options));
  Result<GridSpec> grid = GridSpec::Create(options.grid_dims);
  GRIDDECL_RETURN_IF_ERROR(grid.status());

  QueryGenerator gen(grid.value());
  Rng workload_rng(options.seed);
  Result<Workload> workload = gen.SampledPlacements(
      options.query_shape, options.num_queries, &workload_rng, "a11");
  GRIDDECL_RETURN_IF_ERROR(workload.status());

  // The failed set at level f nests the one at f - 1, and is identical
  // across runs at the same seed. Classic mode kills the first f disks of
  // a seeded permutation; correlated mode kills the first f whole domains
  // (seeded permutation of domain ids, unless the caller forced an order).
  const bool correlated = options.failure_domain != FailureDomain::kDisk;
  std::vector<std::vector<uint32_t>> dead_sets(options.max_failed + 1);
  // Correlated mode: the domain kill order, kept for the repair planner,
  // and the cluster's contiguous disk -> node ownership.
  std::vector<uint32_t> domain_order;
  std::vector<uint32_t> disk_node;
  if (!correlated) {
    Rng fail_rng(options.seed);
    const std::vector<uint32_t> fail_order =
        fail_rng.Permutation(options.num_disks);
    for (uint32_t f = 1; f <= options.max_failed; ++f) {
      dead_sets[f].assign(fail_order.begin(), fail_order.begin() + f);
    }
  } else {
    const uint32_t domains = DomainCount(options);
    if (options.max_failed > domains) {
      return Status::InvalidArgument(
          "max_failed exceeds the correlated domain count");
    }
    domain_order = options.forced_domain_order;
    if (domain_order.empty()) {
      Rng fail_rng(options.seed);
      domain_order = fail_rng.Permutation(domains);
    } else {
      std::set<uint32_t> distinct;
      for (uint32_t id : domain_order) {
        if (id >= domains || !distinct.insert(id).second) {
          return Status::InvalidArgument(
              "forced_domain_order entries must be distinct domain ids");
        }
      }
      if (domain_order.size() < options.max_failed) {
        return Status::InvalidArgument(
            "forced_domain_order must cover max_failed domains");
      }
    }
    disk_node = cluster::ContiguousDeal(options.num_disks,
                                        options.topology.num_nodes());
    for (uint32_t f = 1; f <= options.max_failed; ++f) {
      dead_sets[f] = dead_sets[f - 1];
      for (uint32_t d = 0; d < options.num_disks; ++d) {
        if (DomainOfNode(options, disk_node[d]) == domain_order[f - 1]) {
          dead_sets[f].push_back(d);
        }
      }
    }
  }

  const std::vector<std::string> names =
      options.methods.empty() ? AllMethodNames() : options.methods;

  AvailabilitySweep sweep;
  sweep.options = options;
  for (const std::string& name : names) {
    Result<std::unique_ptr<DeclusteringMethod>> made =
        CreateMethod(name, grid.value(), options.num_disks);
    if (!made.ok()) {
      if (options.methods.empty()) continue;  // e.g. ECC off-configuration.
      return made.status();
    }
    const DeclusteringMethod& method = *made.value();

    // r = 1, no redundancy: buckets on dead disks fail their queries.
    GRIDDECL_RETURN_IF_ERROR(SweepStrategy(
        method, name, workload.value(), options, dead_sets, "plain", 1,
        [&](std::vector<bool> mask) {
          return DegradedPlan::ForMethod(method, std::move(mask));
        },
        &sweep.points));

    if (!correlated) {
      // Replicated placements: optimal re-routing around failures.
      for (uint32_t r : options.replication) {
        Result<std::unique_ptr<DeclusteringMethod>> base =
            CreateMethod(name, grid.value(), options.num_disks);
        GRIDDECL_RETURN_IF_ERROR(base.status());
        Result<ReplicatedPlacement> placement = ReplicatedPlacement::Create(
            std::move(base).value(), r, /*offset=*/1);
        GRIDDECL_RETURN_IF_ERROR(placement.status());
        GRIDDECL_RETURN_IF_ERROR(SweepStrategy(
            method, name, workload.value(), options, dead_sets,
            "replica-r" + std::to_string(r), r,
            [&](std::vector<bool> mask) {
              return DegradedPlan::ForReplicated(placement.value(),
                                                 std::move(mask));
            },
            &sweep.points));
      }

      // Parity-group reconstruction, where the method's coding supports
      // it. (Correlated mode skips ECC: parity groups are not
      // topology-aware, so a whole-domain kill defeats them by design.)
      if (DegradedPlan::ForEcc(method, std::vector<bool>(options.num_disks,
                                                         false))
              .ok()) {
        GRIDDECL_RETURN_IF_ERROR(SweepStrategy(
            method, name, workload.value(), options, dead_sets,
            "ecc-reconstruct", 1,
            [&](std::vector<bool> mask) {
              return DegradedPlan::ForEcc(method, std::move(mask));
            },
            &sweep.points));
      }
    } else {
      // Topology-aware replica placements: the cluster's node-level
      // policies lowered to disk-level tables, routed optimally.
      std::vector<cluster::PlacementPolicy> policies =
          options.placement_policies;
      if (policies.empty()) {
        policies = {cluster::PlacementPolicy::kChained,
                    cluster::PlacementPolicy::kSpread,
                    cluster::PlacementPolicy::kZoneAware};
      }
      for (cluster::PlacementPolicy policy : policies) {
        for (uint32_t r : options.replication) {
          cluster::PlacementSpec spec;
          spec.policy = policy;
          spec.topology = options.topology;
          spec.seed = options.placement_seed;
          Result<cluster::PlacementMap> map =
              cluster::PlacementMap::Build(spec, options.num_disks, r);
          GRIDDECL_RETURN_IF_ERROR(map.status());
          const std::vector<std::vector<uint32_t>>& rows = map.value().Table();
          Result<std::vector<std::vector<uint32_t>>> table =
              LowerNodeRowsToDisks({rows.begin() + 1, rows.end()}, disk_node);
          GRIDDECL_RETURN_IF_ERROR(table.status());
          Result<std::unique_ptr<DeclusteringMethod>> base =
              CreateMethod(name, grid.value(), options.num_disks);
          GRIDDECL_RETURN_IF_ERROR(base.status());
          Result<ReplicatedPlacement> placement =
              ReplicatedPlacement::CreateWithTable(
                  std::move(base).value(), std::move(table).value());
          GRIDDECL_RETURN_IF_ERROR(placement.status());
          GRIDDECL_RETURN_IF_ERROR(SweepStrategy(
              method, name, workload.value(), options, dead_sets,
              std::string(cluster::PlacementPolicyName(policy)) + "-r" +
                  std::to_string(r),
              r,
              [&](std::vector<bool> mask) {
                return DegradedPlan::ForReplicated(placement.value(),
                                                   std::move(mask));
              },
              &sweep.points));

          if (!options.repair) continue;
          // Repair-aware strategy: by the time domain f dies, kills
          // 1..f-1 have each been healed by the cluster's repair planner,
          // so the point at f measures only the window after the latest
          // kill. table_at[f] is the node-level placement after kill f's
          // repair; rebuilt[f] is what that repair had to re-target.
          std::vector<std::vector<std::vector<uint32_t>>> table_at(
              options.max_failed + 1);
          std::vector<uint32_t> rebuilt(options.max_failed + 1, 0);
          table_at[0] = map.value().Table();
          std::vector<uint32_t> dead_nodes;
          for (uint32_t f = 1; f <= options.max_failed; ++f) {
            for (uint32_t n = 0; n < options.topology.num_nodes(); ++n) {
              if (DomainOfNode(options, n) == domain_order[f - 1]) {
                dead_nodes.push_back(n);
              }
            }
            std::sort(dead_nodes.begin(), dead_nodes.end());
            cluster::RepairPlanInput in;
            in.table = table_at[f - 1];
            in.topology = options.topology;
            in.dead_nodes = dead_nodes;
            in.seed = options.placement_seed;
            Result<cluster::RepairPlan> repair_plan = cluster::PlanRepair(in);
            if (repair_plan.ok()) {
              rebuilt[f] = static_cast<uint32_t>(
                  repair_plan.value().actions.size());
              table_at[f] = std::move(repair_plan.value().new_table);
            } else {
              // Every node dead: nothing left to repair onto; the
              // placement carries forward and the points go dark honestly.
              table_at[f] = table_at[f - 1];
            }
          }
          std::vector<ReplicatedPlacement> repaired;
          repaired.reserve(options.max_failed + 1);
          for (uint32_t f = 0; f <= options.max_failed; ++f) {
            // The placement the f-th point sees: repairs for kills
            // 1..f-1 are done, kill f is not yet repaired.
            const uint32_t healed = f == 0 ? 0 : f - 1;
            Result<std::vector<std::vector<uint32_t>>> lowered =
                LowerNodeRowsToDisks(table_at[healed], disk_node);
            GRIDDECL_RETURN_IF_ERROR(lowered.status());
            Result<std::unique_ptr<DeclusteringMethod>> rb =
                CreateMethod(name, grid.value(), options.num_disks);
            GRIDDECL_RETURN_IF_ERROR(rb.status());
            Result<ReplicatedPlacement> rp =
                ReplicatedPlacement::CreateWithTable(
                    std::move(rb).value(), std::move(lowered).value());
            GRIDDECL_RETURN_IF_ERROR(rp.status());
            repaired.push_back(std::move(rp).value());
          }
          uint32_t call = 0;
          GRIDDECL_RETURN_IF_ERROR(SweepStrategy(
              method, name, workload.value(), options, dead_sets,
              std::string(cluster::PlacementPolicyName(policy)) + "-r" +
                  std::to_string(r) + "+repair",
              r,
              [&](std::vector<bool> mask) {
                return DegradedPlan::ForReplicated(repaired[call++],
                                                   std::move(mask));
              },
              &sweep.points));
          for (uint32_t f = 0; f <= options.max_failed; ++f) {
            AvailabilityPoint& p =
                sweep.points[sweep.points.size() - 1 - options.max_failed +
                             f];
            p.replicas_rebuilt = rebuilt[f];
            p.redundancy_restored_ms =
                rebuilt[f] == 0
                    ? 0.0
                    : options.repair_detect_ms +
                          rebuilt[f] * options.repair_ms_per_replica;
          }
        }
      }
    }
  }
  return sweep;
}

std::string AvailabilitySweep::ToJson() const {
  std::string out;
  out += "{\n";
  out += "  \"experiment\": \"a11-degraded\",\n";
  out += "  \"grid\": " + JsonUintList(options.grid_dims) + ",\n";
  out += "  \"num_disks\": " + std::to_string(options.num_disks) + ",\n";
  out += "  \"query_shape\": " + JsonUintList(options.query_shape) + ",\n";
  out += "  \"num_queries\": " + std::to_string(options.num_queries) + ",\n";
  out += "  \"max_failed\": " + std::to_string(options.max_failed) + ",\n";
  out += "  \"replication\": " + JsonUintList(options.replication) + ",\n";
  const bool correlated = options.failure_domain != FailureDomain::kDisk;
  if (correlated) {
    out += "  \"failure_domain\": \"" +
           std::string(FailureDomainName(options.failure_domain)) + "\",\n";
    out += "  \"topology\": \"" + std::to_string(options.topology.num_nodes()) +
           "x" + std::to_string(options.topology.num_racks()) + "x" +
           std::to_string(options.topology.num_zones()) + "\",\n";
    std::vector<cluster::PlacementPolicy> policies =
        options.placement_policies;
    if (policies.empty()) {
      policies = {cluster::PlacementPolicy::kChained,
                  cluster::PlacementPolicy::kSpread,
                  cluster::PlacementPolicy::kZoneAware};
    }
    out += "  \"policies\": [";
    for (size_t i = 0; i < policies.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + std::string(cluster::PlacementPolicyName(policies[i])) +
             "\"";
    }
    out += "],\n";
    if (options.repair) {
      out += "  \"repair\": true,\n";
      out += "  \"repair_detect_ms\": " + JsonNum(options.repair_detect_ms) +
             ",\n";
      out += "  \"repair_ms_per_replica\": " +
             JsonNum(options.repair_ms_per_replica) + ",\n";
    }
  }
  out += "  \"seed\": " + std::to_string(options.seed) + ",\n";
  out +=
      "  \"concurrency\": " + std::to_string(options.sim.concurrency) + ",\n";
  out += "  \"points\": [";
  for (size_t i = 0; i < points.size(); ++i) {
    const AvailabilityPoint& p = points[i];
    out += i > 0 ? ",\n    " : "\n    ";
    out += "{\"method\": \"" + p.method + "\"";
    out += ", \"strategy\": \"" + p.strategy + "\"";
    out += ", \"replicas\": " + std::to_string(p.replicas);
    out += ", \"failed_disks\": " + std::to_string(p.failed_disks);
    if (correlated) {
      out += ", \"failed_domains\": " + std::to_string(p.failed_domains);
    }
    out += ", \"mean_latency_ms\": " + JsonNum(p.mean_latency_ms);
    out += ", \"total_ms\": " + JsonNum(p.total_ms);
    out += ", \"availability\": " + JsonNum(p.availability);
    out += ", \"unavailable_queries\": " +
           std::to_string(p.unavailable_queries);
    out += ", \"rerouted_buckets\": " + std::to_string(p.rerouted_buckets);
    out += ", \"reconstruction_reads\": " +
           std::to_string(p.reconstruction_reads);
    out += ", \"transient_retries\": " +
           std::to_string(p.transient_retries);
    out += ", \"degraded_ratio\": " + JsonNum(p.degraded_ratio);
    if (options.repair) {
      out += ", \"replicas_rebuilt\": " + std::to_string(p.replicas_rebuilt);
      out += ", \"redundancy_restored_ms\": " +
             JsonNum(p.redundancy_restored_ms);
    }
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace griddecl
