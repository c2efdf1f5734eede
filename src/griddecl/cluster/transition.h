#ifndef GRIDDECL_CLUSTER_TRANSITION_H_
#define GRIDDECL_CLUSTER_TRANSITION_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "griddecl/cluster/cluster.h"

/// \file
/// The one staged-generation transition engine behind `Cluster::Migrate`
/// and `Cluster::Repair`.
///
/// Both change the committed bucket -> node map by shipping a new catalog
/// generation through the manifest commit protocol. Only the *delta*
/// differs — which nodes take part, what the staged manifest says, how
/// much of each file really moves — so each caller is a planner that
/// fills a `TransitionDelta`, and `StagedTransition` runs the one
/// protocol (`TransitionOptions::on_phase` fires at each boundary):
///
///   0. **preflight** — abort at once when a trigger is already active.
///   1. **copy** — read every relation file of the committed generation G
///      from the first participant and write it to every participant under
///      generation-G' names (G' = NextManifestGeneration, never reused),
///      paced by a `TokenBucket` and charged `charge_fraction` of its size.
///      An unpaced copy raises every participant's read latency by
///      `copy_contention_ms` until the phase ends.
///   2. **staged** — write the edited `MANIFEST-G'` to every participant.
///      It is invisible to `ReadCurrentManifest` (it looks exactly like the
///      wreckage of a crashed save, which recovery already skips).
///   3. **verify** — load G' once from the copy source, check every other
///      participant's staged data files against its manifest, bring up one
///      staging `QueryService` per participant on that one load, install
///      the staging epoch so live traffic double-reads old-vs-new on every
///      complete query, and run the verify sample through both epochs,
///      comparing match sets byte for byte.
///   4. **commit** — `CommitStagedManifest` flips CURRENT on every
///      participant behind the generation fence (a mid-commit failure rolls
///      the flipped nodes back), the cluster adopts the staging epoch —
///      and with it the delta's placement — and old generations are
///      garbage-collected.
///
/// Every abort trigger — `AbortMigration`, a live double-read divergence,
/// a lost participant, a failed copy, verify query or commit — takes the
/// one clean-abort path: drop the staging epoch, `DropStagedManifest` on
/// every node, and report `committed = false` with the reason. The old
/// generation is never touched before the commit point.

namespace griddecl::cluster {

/// Clock-agnostic token bucket: tokens accrue at `rate_per_sec` up to a
/// `burst` bank (the bucket starts empty, so the first consume already
/// pays for itself); consumption may run the balance negative (debt), and
/// the returned delay is how long the consumer must stall for the balance
/// to recover to zero. The caller supplies timestamps, so the same bucket
/// paces wall-clock transitions and virtual-clock tests identically.
class TokenBucket {
 public:
  /// `rate_per_sec` <= 0 disables pacing (every consume returns 0).
  TokenBucket(double rate_per_sec, double burst)
      : rate_(rate_per_sec), burst_(burst < 0.0 ? 0.0 : burst) {}

  /// Consumes `amount` tokens at time `now_ms` (monotone by convention)
  /// and returns the milliseconds to wait before proceeding — 0 whenever
  /// the bucket held enough.
  double ConsumeDelayMs(double amount, double now_ms) {
    if (rate_ <= 0.0) return 0.0;
    if (!initialized_) {
      last_ms_ = now_ms;
      initialized_ = true;
    }
    tokens_ += (now_ms - last_ms_) * rate_ / 1000.0;
    if (tokens_ > burst_) tokens_ = burst_;
    last_ms_ = now_ms;
    tokens_ -= amount;
    if (tokens_ >= 0.0) return 0.0;
    return -tokens_ * 1000.0 / rate_;
  }

  double tokens() const { return tokens_; }

 private:
  double rate_;
  double burst_;
  double tokens_ = 0.0;
  double last_ms_ = 0.0;
  bool initialized_ = false;
};

/// What one transition changes; everything else is the engine's.
struct TransitionDelta {
  /// Nodes that receive the staged generation, serve it and commit it,
  /// ascending. The first is the copy source. Losing any one aborts.
  std::vector<uint32_t> participants;
  /// Edits the staged copy of the committed manifest (its generation is
  /// already G').
  std::function<void(CatalogManifest*)> edit_manifest;
  /// What the staging epoch routes by, and so the cluster after commit.
  PlacementSpec placement;
  /// Share of each file's bytes charged to pacing and `bytes_copied`.
  double charge_fraction = 1.0;
  /// Whether the old layout may answer a verify query partially (a repair
  /// runs because it is degraded); the new layout must always be complete.
  bool old_may_be_partial = false;
  /// Abort-reason wording.
  const char* node_lost = "node lost";
  const char* copy_failed = "copy failed";
  const char* new_layout = "new layout";
  const char* old_and_new = "old and new layouts";
};

/// One run of the engine; see file comment. Constructed by
/// `Cluster::RunTransition`, which holds the single-flight slot.
class StagedTransition {
 public:
  StagedTransition(Cluster* cluster, const TransitionOptions& options,
                   TransitionDelta delta)
      : cluster_(cluster), options_(options), delta_(std::move(delta)) {}

  /// Moves the cluster from `old_epoch` (whose generation `report` already
  /// carries) to the delta's new generation, filling `report`. A clean
  /// abort is Ok with `committed = false`; a copy source whose next
  /// generation cannot be named is an error status.
  Status Run(std::shared_ptr<const Cluster::Epoch> old_epoch,
             TransitionReport* report);

 private:
  void Phase(const char* phase) const;
  /// First active abort trigger, or nullptr when none.
  const char* AbortTrigger() const;
  /// Sleeps `ms`, cut short by an abort trigger; returns the active
  /// trigger afterwards, or nullptr.
  const char* SleepAbortable(double ms) const;
  /// The clean-abort path: clears the staging epoch, drops the staged
  /// generation on every node (once staged), fills the report.
  Status Abort(std::string reason);
  /// Writes `bytes` as `name` on every participant.
  Status WriteToParticipants(const std::string& name,
                             const std::string& bytes) const;

  Cluster* cluster_;
  const TransitionOptions& options_;
  TransitionDelta delta_;
  TransitionReport* report_ = nullptr;
};

}  // namespace griddecl::cluster

#endif  // GRIDDECL_CLUSTER_TRANSITION_H_
