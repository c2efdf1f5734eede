#ifndef GRIDDECL_CLUSTER_SCRIPT_H_
#define GRIDDECL_CLUSTER_SCRIPT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "griddecl/common/status.h"
#include "griddecl/serve/service.h"

/// \file
/// Text format for driving `declctl cluster`: the serve script's query
/// lines plus cluster control directives, executed strictly in file order.
///
///     query <relation> <lo1,..> <hi1,..> [deadline_ms]
///     kill-node <node>
///     revive-node <node>
///     kill-zone <zone>
///     revive-zone <zone>
///     advance-ms <virtual_ms>
///     migrate <method> <num_disks>
///     repair [bytes_per_sec]
///     add-node <rack> <zone>
///     remove-node <node>
///
/// `kill-zone`/`revive-zone` act on every node of the failure domain at
/// once (the cluster's topology decides membership) — the script-level
/// face of correlated failures. `repair` runs a paced re-replication
/// repair (optional bytes/sec pacing budget; omitted or 0 = unpaced);
/// note the heartbeat must have declared the losses dead first (advance
/// the virtual clock past dead_after intervals). `advance-ms` sets the
/// virtual clock to an absolute time, never earlier than the last one.
/// `add-node` grows the
/// cluster by one node in the given rack/zone (== the current count
/// appends a new rack / opens a new zone); `remove-node` decommissions a
/// node — the next `repair` evacuates it.
///
/// Blank lines and lines starting with `#` are skipped. Example — kill a
/// node mid-traffic, then re-decluster to FX on 8 disks:
///
///     query uniform 0.0,0.0 1.0,1.0
///     kill-node 2
///     query uniform 0.0,0.0 1.0,1.0
///     revive-node 2
///     migrate fx 8
///     query uniform 0.0,0.0 1.0,1.0

namespace griddecl::cluster {

struct ClusterCommand {
  enum class Kind {
    kQuery,
    kKillNode,
    kReviveNode,
    kKillZone,
    kReviveZone,
    kAdvance,
    kMigrate,
    kRepair,
    kAddNode,
    kRemoveNode,
  };

  Kind kind = Kind::kQuery;
  /// kQuery only.
  serve::QueryRequest query;
  /// kKillNode / kReviveNode / kRemoveNode.
  uint32_t node = 0;
  /// kKillZone / kReviveZone.
  uint32_t zone = 0;
  /// kAdvance: the new virtual time in ms.
  double advance_ms = 0.0;
  /// kMigrate.
  std::string migrate_method;
  uint32_t migrate_disks = 0;
  /// kRepair: pacing budget in bytes/sec; 0 = unpaced.
  double repair_bytes_per_sec = 0.0;
  /// kAddNode.
  uint32_t add_rack = 0;
  uint32_t add_zone = 0;
};

/// Parses a cluster script, in file order. Fails with kInvalidArgument
/// naming the offending line on any malformed input.
Result<std::vector<ClusterCommand>> ParseClusterScript(std::string_view text);

}  // namespace griddecl::cluster

#endif  // GRIDDECL_CLUSTER_SCRIPT_H_
