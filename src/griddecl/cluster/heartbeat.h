#ifndef GRIDDECL_CLUSTER_HEARTBEAT_H_
#define GRIDDECL_CLUSTER_HEARTBEAT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "griddecl/common/status.h"

/// \file
/// Virtual-clock heartbeat failure detector.
///
/// Every node is expected to answer a heartbeat probe once per
/// `interval_ms` of *virtual* time, which only `Cluster::AdvanceTimeMs`
/// moves. A probe answers iff the node is alive (not killed, not removed)
/// when the clock is advanced, so detector behaviour is a pure function of
/// the kill, revive and `AdvanceTimeMs` calls — deterministic and
/// replayable. The detector walks the per-node state machine
///
///     alive --(suspect_after missed beats)--> suspect
///     suspect --(dead_after missed beats)--> dead
///     any --(one answered beat)--> alive
///
/// and records the virtual timestamp of each death. Declaring a node dead
/// is deliberately *distinct* from the cluster's imperative `KillNode`
/// (which only affects routing): repair planning keys off detector-dead
/// nodes, so a node killed and revived within `dead_after * interval_ms`
/// of virtual time degrades routing but never triggers a spurious
/// re-replication.
///
/// Removed (decommissioned) nodes are excluded from probing and reported
/// as `kRemoved`; a revived node is reset to `kAlive` explicitly by the
/// coordinator once it passes the generation fence.
///
/// Thread model: `AdvanceTo`, `MarkRemoved` and `Reset` must be
/// serialized by the caller (the cluster holds a mutex); `HealthOf`,
/// `DeadSinceMs` and `DeadNodes` are lock-free atomic reads safe from any
/// thread.

namespace griddecl::cluster {

enum class NodeHealth : uint32_t {
  kAlive = 0,
  kSuspect = 1,
  kDead = 2,
  kRemoved = 3,
};

struct HeartbeatOptions {
  /// Virtual milliseconds between heartbeat probes.
  double interval_ms = 10.0;
  /// Consecutive missed beats before a node turns suspect.
  uint32_t suspect_after = 2;
  /// Consecutive missed beats before a node is declared dead. Must be
  /// >= suspect_after.
  uint32_t dead_after = 4;
};

Status ValidateHeartbeatOptions(const HeartbeatOptions& options);

class HeartbeatDetector {
 public:
  struct Counters {
    uint64_t beats = 0;      ///< Probes answered.
    uint64_t missed = 0;     ///< Probes missed.
    uint64_t suspected = 0;  ///< alive -> suspect transitions.
    uint64_t died = 0;       ///< suspect -> dead transitions.
    uint64_t recovered = 0;  ///< suspect/dead -> alive transitions.
  };

  /// `max_nodes` fixes the tracked-slot count for the detector's lifetime
  /// (slots for not-yet-added cluster nodes simply never get probed).
  HeartbeatDetector(const HeartbeatOptions& options, uint32_t max_nodes);

  /// Processes every whole heartbeat interval in (last-processed, now_ms]:
  /// at each tick t the detector asks `probe(node, t)` whether the node
  /// answered, and advances the state machine. `probe` returning false for
  /// an untracked/removed slot is ignored. Monotonic `now_ms` by
  /// convention; a non-advancing call is a no-op.
  void AdvanceTo(double now_ms,
                 const std::function<bool(uint32_t, double)>& probe);

  /// Marks a node as tracked (probed from the next tick on). Newly created
  /// detectors track the first `initial_tracked` passed here by Create;
  /// added cluster nodes call this when they join.
  void Track(uint32_t node);
  /// Decommission: the node stops being probed and reports kRemoved.
  void MarkRemoved(uint32_t node);
  /// Revival: back to kAlive with a clean miss counter (the coordinator
  /// calls this only after the node passed the generation fence).
  void Reset(uint32_t node);

  NodeHealth HealthOf(uint32_t node) const;
  /// Virtual timestamp the node was last declared dead (0 = never).
  double DeadSinceMs(uint32_t node) const;
  /// Tracked nodes currently kDead, ascending.
  std::vector<uint32_t> DeadNodes() const;

  Counters counters() const;
  double interval_ms() const { return options_.interval_ms; }

 private:
  struct Slot {
    std::atomic<uint32_t> state{static_cast<uint32_t>(NodeHealth::kAlive)};
    std::atomic<double> dead_since_ms{0.0};
    uint32_t misses = 0;
    bool tracked = false;
  };

  HeartbeatOptions options_;
  std::vector<std::unique_ptr<Slot>> slots_;
  double processed_ms_ = 0.0;
  Counters counters_;
};

}  // namespace griddecl::cluster

#endif  // GRIDDECL_CLUSTER_HEARTBEAT_H_
