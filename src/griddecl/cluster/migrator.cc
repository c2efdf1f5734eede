#include "griddecl/cluster/transition.h"

#include "griddecl/methods/registry.h"

namespace griddecl::cluster {

Result<MigrationReport> Cluster::Migrate(const MigrationOptions& options) {
  MigrationReport report;
  GRIDDECL_RETURN_IF_ERROR(RunTransition(
      options, &report,
      [&](const Epoch& current, TransitionDelta* delta) -> Status {
        // Hard validation: a target the new layout cannot express is a
        // caller error, not an abort.
        if (options.new_num_disks == 0) {
          return Status::InvalidArgument("new_num_disks must be >= 1");
        }
        if (num_nodes() > options.new_num_disks) {
          return Status::InvalidArgument(
              "new_num_disks " + std::to_string(options.new_num_disks) +
              " < cluster nodes " + std::to_string(num_nodes()));
        }
        for (const auto& [name, rel] : current.relations()) {
          auto method = CreateMethod(options.new_method,
                                     rel->header.partitioner.grid(),
                                     options.new_num_disks);
          if (!method.ok()) {
            return Status::InvalidArgument(
                "method '" + options.new_method + "' invalid for relation '" +
                name + "': " + method.status().ToString());
          }
          if (rel->redundancy.policy == RelationRedundancy::Policy::kMirror &&
              rel->redundancy.copies > options.new_num_disks) {
            return Status::InvalidArgument(
                "relation '" + name + "' has " +
                std::to_string(rel->redundancy.copies) +
                " mirror copies but only " +
                std::to_string(options.new_num_disks) + " target disks");
          }
        }
        // Decommissioned nodes are expected to be dark; every member node
        // must stay healthy.
        for (uint32_t n = 0; n < num_nodes(); ++n) {
          if (!nodes_[n]->removed.load()) delta->participants.push_back(n);
        }
        if (delta->participants.empty()) {
          return Status::FailedPrecondition("every node is removed");
        }
        // Re-place by policy over the new disk count: a repair's table
        // names the old disks.
        delta->placement = current.placement.spec();
        delta->placement.table.clear();
        delta->edit_manifest = [&options](CatalogManifest* staged) {
          staged->num_disks = options.new_num_disks;
          for (ManifestRelation& mr : staged->relations) {
            mr.method = options.new_method;
          }
          if (staged->placement.has_value()) {
            staged->placement->table.clear();
            staged->placement->table_copies = 0;
            staged->placement->table_disks = 0;
          }
        };
        return Status::Ok();
      }));
  std::lock_guard<std::mutex> lock(metrics_mu_);
  if (report.committed) {
    ++migrations_committed_;
  } else {
    ++migrations_aborted_;
  }
  migration_buckets_copied_ += report.buckets_copied;
  return report;
}

}  // namespace griddecl::cluster
