#ifndef GRIDDECL_CLUSTER_CLUSTER_H_
#define GRIDDECL_CLUSTER_CLUSTER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "griddecl/cluster/heartbeat.h"
#include "griddecl/cluster/placement.h"
#include "griddecl/common/status.h"
#include "griddecl/gridfile/faulty_env.h"
#include "griddecl/gridfile/manifest.h"
#include "griddecl/gridfile/storage.h"
#include "griddecl/gridfile/storage_env.h"
#include "griddecl/obs/metrics.h"
#include "griddecl/serve/circuit_breaker.h"
#include "griddecl/serve/service.h"

/// \file
/// Multi-node scatter-gather over the single-node query service.
///
/// A `Cluster` simulates N nodes. Each node holds a private `MemEnv`
/// materialization of the committed catalog, a `FaultyEnv` that injects the
/// node's read latency and seeded transient faults, and a
/// `serve::QueryService` over that env. Nodes die and come back only
/// through `KillNode` / `KillZone` / `ReviveNode` / `ReviveZone` (and leave
/// for good through `RemoveNode`).
///
/// **A node comes in one way.** `Create`, a `ReviveNode` that catches up
/// and `AddNode` all copy a source env's files into the node (the seed,
/// else a live peer the routing epoch holds a service for), check each
/// relation's data file against the manifest, start the node's service on
/// the epoch's shared load, and publish it in a fresh epoch. Revivals,
/// adds, migrations and repairs share one single-flight slot, so a node
/// never joins under a transition that would cut over without it.
///
/// **One load per generation.** A declustering method is a pure function
/// of the grid and M, so a generation has one bucket -> disk map. The
/// cluster loads each generation once (`serve::LoadGeneration`): `Create`
/// from the seed, a transition from its copy source after staging. Every
/// node service and the routing epoch share that load; a joining node
/// reuses the epoch's and derives nothing.
///
/// **Placement has one source of truth: the routing epoch's
/// `PlacementMap`** (cluster/placement.h). It says which node holds each
/// (virtual disk, mirror copy); row 0 is disk ownership — the contiguous
/// deal (node k owns [k*M/N, (k+1)*M/N)) unless a repair left an explicit
/// table. Routing, hedging, failover, `placement_spec()`, `KillZone` and
/// the repair planner all read that one map, and placement changes only
/// by publishing a new epoch: `Create` builds it from
/// `ClusterOptions::placement`, else the manifest's record, else chained
/// over a flat topology; a committed `Repair` installs its planned table;
/// a committed `Migrate` re-places by policy over the new disk count;
/// `AddNode` grows the topology under an unchanged table. Ownership is a
/// *routing* convention: every node's env holds every file, so re-owning
/// a disk never moves bytes — exactly the virtual fault-domain model serve
/// already uses, lifted one level.
///
/// The coordinator (`Execute`, caller-thread, concurrency-safe) plans one
/// sub-query per (node, copy) from the relation's `DiskMap`, scatters them
/// tagged with the routing epoch's catalog generation (the fence), and
/// gathers. Each node answers in ascending record-id order and the
/// sub-queries read disjoint primary-disk sets, so the gather keeps every
/// served sub-answer as one sorted run and k-way merges the runs into the
/// answer, allocated once at its exact size. The plan, the scatter and the
/// gather reuse one per-thread scratch from query to query:
///
///  * **Where a sub-query runs.** On the coordinator's own thread when its
///    node's reads cannot wait (`FaultyEnv::ReadsCanWait`: no injected
///    latency, no copy contention, no faults a read policy retries with
///    backoff), through `QueryService::ExecuteOnCaller`, which borrows the
///    request: a worker thread would add only a hop, a request copy and a
///    promise. Otherwise on the node's queue, so device waits overlap and a
///    hedge can race it. The rule holds for primaries, hedges and
///    failovers alike and is asked per sub-query, since contention comes
///    and goes with a transition's copy. The scatter queues the waiting
///    nodes' primaries first, then serves the rest itself, then gathers in
///    route order, so routing, winners, breaker feeds, the fence and the
///    counts do not depend on where a sub-query ran;
///    `cluster.sub_queries_on_caller` counts the ones that ran here. A
///    node's `num_threads` and `max_queue` bound its queued path only.
///  * **One resilience layer.** Every sub-query names (disk, copy) pairs
///    the epoch's `PlacementMap` assigns to the node it is sent to, and the
///    node reads exactly those (serve sub-queries are strict: no per-disk
///    breaker, no inline mirror failover). Only the coordinator moves a
///    read to another copy, and always to that copy's holder.
///  * **Quorum-aware degraded routing.** A disk whose owner is dead or
///    breaker-refused is planned onto the *lowest usable copy*: the lowest
///    copy index whose holder, per the epoch's `PlacementMap`
///    (cluster/placement.h: chained `(d+c) mod M`, spread, zone_aware, or a
///    repaired table), is alive and not breaker-refused. Which node serves
///    each read is therefore a function of the placement, the killed and
///    removed set and the node breakers alone — never of load or timing.
///    Buckets with no live route are reported, not served: the query
///    returns a partial result with an explicit `availability` fraction
///    instead of failing. Below quorum (alive nodes <= quorum_fraction * N)
///    the cluster refuses outright with kUnavailable. Whole failure domains
///    die together via `KillZone`.
///  * **One fallback rule.** A route's fallback, once the nodes already
///    tried for it have failed, is one sub-query to the lowest copy whose
///    holder is the same usable (alive, not refused, not yet tried) node
///    for every disk of the route; failing that, the route's disks are
///    split by holder with the planner's per-disk rule. Failover serves
///    every fallback sub-query and replaces a failed one by its own
///    fallback, under the retry budgets; a disk left with no usable holder
///    counts its buckets unavailable while the route's other disks still
///    merge their matches.
///  * **Hedged requests.** When a primary sub-query is still running after
///    a per-node hedge delay — the node's observed sub-query p95 times 3,
///    plus seeded jitter, floored at 0.2 ms, or a fixed `hedge_delay_ms` —
///    the coordinator re-issues it to the route's fallback, when that is
///    one sub-query (a route whose disks keep their other copies on
///    different nodes is never hedged). Only a queued primary can still be
///    running then: one that ran on the coordinator's thread finished
///    before its delay could start. A hedge to a node whose reads cannot
///    wait runs on the coordinator's thread too, while the primary keeps
///    running on its node.
///    `HedgePolicy::kFirstSuccess` takes whichever completes first
///    (tail-latency mode); `kPrimaryPreferred` always takes the primary's
///    result when the primary succeeds, making *winner selection* a pure
///    function of the fault schedule (the determinism property tests run
///    this mode). Result BYTES are identical either way — mirror copies
///    are byte-identical and serve outcomes are schedule-determined — so
///    the policies differ only in which route's latency you pay and which
///    counter ticks. The loser is cancelled cooperatively: its result is
///    discarded and never merged, never fed to breakers.
///  * **Node-level failure detection.** One circuit breaker per node, fed
///    one outcome per observed primary sub-query completion. An open
///    breaker removes the node from planning exactly like a death, until
///    its half-open probe heals it.
///  * **Staged transitions.** `Migrate` (a new method / disk count) and
///    `Repair` (replicas off dead nodes) both run one StagedTransition
///    (cluster/transition.h): copy the catalog to a staged generation
///    while `Execute` keeps serving, double-read old vs new layouts, and
///    cut over atomically via the manifest generation fence. While a
///    staging epoch is installed, every complete query is double-read
///    against it and byte-compared — a mismatch flags divergence and
///    aborts the transition, never serves mixed data.
///
/// ## Determinism contract
///
/// With seeded FaultyEnvs, `hedge_policy = kPrimaryPreferred`, node
/// breakers pinned open once tripped, per-node services that neither shed
/// nor time out, and a fixed kill schedule, each query's outcome — status,
/// completeness, matches, unavailable-bucket count, and per-route winner
/// selection — is a pure function of the schedule, independent of how many
/// coordinator threads call Execute. The plan itself never reads load or
/// the clock: it is a pure function of the placement, the dead set and the
/// node breakers.
/// Latencies, hedge firing counts and pool hits may vary; the property
/// test asserts outcomes and winners only. Under `kFirstSuccess`, winner
/// selection becomes timing-dependent (that is its purpose) but matches
/// are still byte-identical.

namespace griddecl::cluster {

/// Who wins when a hedge and its primary both complete. See file comment.
enum class HedgePolicy {
  /// First successful completion wins — minimizes tail latency.
  kFirstSuccess,
  /// The primary wins whenever it succeeds; the hedge only covers primary
  /// failure. Winner selection is schedule-deterministic.
  kPrimaryPreferred,
};

struct ClusterOptions {
  uint32_t num_nodes = 4;
  /// Slot capacity for topology growth (`AddNode`). 0 = num_nodes (no
  /// growth); at most the catalog's disk count, like num_nodes. Node slots
  /// beyond num_nodes are preallocated empty so adding a node never
  /// reallocates state concurrent Execute calls read.
  uint32_t max_nodes = 0;
  /// Per-node service template. `seed` is offset by the node index so
  /// retry jitter decorrelates across nodes. Every node serves the
  /// cluster's one load of the routed generation (see file comment).
  /// `num_threads` and `max_queue` bound only the sub-queries queued on the
  /// node (see file comment: a node whose reads cannot wait serves on the
  /// caller).
  serve::ServeOptions node;
  /// Node-level breaker. (The per-disk breakers inside each node's
  /// service never act in a cluster: sub-queries bypass them.)
  BreakerOptions node_breaker;

  /// Re-issues a primary sub-query still running after the hedge delay to
  /// its route's one-sub-query fallback (see file comment). Only a primary
  /// queued on a node whose reads can wait can still be running then, so
  /// with no injected latency, contention or faults no hedge fires.
  bool hedging = true;
  HedgePolicy hedge_policy = HedgePolicy::kFirstSuccess;
  /// Fixed hedge delay in ms; < 0 selects the adaptive delay: the node's
  /// observed sub-query p95 times 3, floored at 0.2 ms, plus up to 25%
  /// seeded jitter. 0 hedges immediately (useful in tests).
  double hedge_delay_ms = -1.0;

  /// Execute refuses (kUnavailable) unless alive > num_nodes * fraction.
  double quorum_fraction = 0.5;

  /// Per-query cap on failover resubmits (post-failure reroutes). 0 =
  /// unlimited (the default; preserves the determinism contract).
  uint32_t retry_budget_per_query = 0;
  /// Cluster-wide cap on extra sub-queries (hedges + failover retries) as
  /// a fraction of primary sub-queries submitted so far: a storm of
  /// retries cannot more than (1 + fraction)x the offered load. 0 =
  /// unlimited (the default). The budget is a cluster-lifetime ratio
  /// enforced with atomics, so under concurrency admission is approximate
  /// by design.
  double hedge_budget_fraction = 0.0;

  /// Virtual-clock failure detector driven by AdvanceTimeMs; see
  /// cluster/heartbeat.h. Repair acts on detector-dead nodes only.
  HeartbeatOptions heartbeat;

  /// Seed for hedge jitter.
  uint64_t seed = 0;

  /// Replica-placement override, routed by verbatim (an explicit `table`
  /// included). Absent = the catalog manifest's placement record, or
  /// chained over a flat topology when the manifest predates placement.
  /// Whichever wins seeds the first routing epoch's PlacementMap; its
  /// topology's node count must equal num_nodes.
  std::optional<PlacementSpec> placement;

  /// Per-node injected read latency in ms (index = node id, missing = 0).
  /// The knob the slow-node hedging benchmark turns.
  std::vector<double> node_latency_ms;
  /// Per-node transient-fault injection, forwarded to each FaultyEnv.
  double node_transient_prob = 0.0;
  uint32_t node_max_transient_attempts = 3;
  uint64_t fault_seed = 0;
};

/// Outcome of one cluster query. Contract: `status` is kOk with `complete
/// = true` and full matches, kOk with `complete = false` and an explicit
/// availability deficit (quorum-degraded partial — never silently short),
/// or an error with no matches.
struct ClusterQueryResult {
  Status status;
  bool complete = true;
  uint64_t buckets_touched = 0;
  uint64_t unavailable_buckets = 0;
  /// Served fraction of touched buckets (1.0 when complete).
  double availability = 1.0;
  /// Matching record ids, strictly ascending: the merge of the served
  /// sub-answers, which are sorted and pairwise disjoint.
  std::vector<RecordId> matches;

  uint64_t sub_queries = 0;
  /// The sub-queries that ran on the coordinator's thread (see file
  /// comment); the rest were queued on their nodes.
  uint64_t sub_queries_on_caller = 0;
  uint64_t hedges_fired = 0;
  uint64_t hedge_wins = 0;
  uint64_t hedges_cancelled = 0;
  /// Sub-queries planned or failed over to a replica-holding node.
  uint64_t rerouted_subqueries = 0;
  /// Catalog generation the query was served at.
  uint64_t generation = 0;
  /// How each slice of the plan was finally served: one 'u' per disk
  /// dropped at plan time (no alive owner or replica holder), then one
  /// letter per route in route order — 'p' primary, 'h' the first
  /// fallback (hedge or failover), 'r' a deeper fallback, 'u' some bucket
  /// of the route ended unavailable.
  /// Deterministic under kPrimaryPreferred; part of the property-test
  /// fingerprint.
  std::string winners;
  double total_ms = 0.0;
};

/// Options every staged transition (Migrate, Repair) takes.
struct TransitionOptions {
  /// Copy-phase pacing budget in bytes/sec (token bucket against the wall
  /// clock): the transition thread sleeps whenever the charged bytes run
  /// ahead of the budget, so bulk copy traffic fits inside spare bandwidth
  /// instead of saturating the device concurrent queries share. 0 =
  /// unpaced (copy as fast as possible). Repair charges only the *rebuilt
  /// share* of each file (retargeted replicas / total replicas).
  double copy_bytes_per_sec = 0.0;
  /// Simulated copy-device throughput in bytes/sec: each copied file
  /// charges size/rate of wall-clock transfer time, so the copy phase has
  /// real duration for concurrent traffic to overlap. 0 = instantaneous.
  double copy_device_bytes_per_sec = 0.0;
  /// Extra per-read latency (ms) injected on every participating node for
  /// the duration of an *unpaced* copy phase — the contention an
  /// unthrottled bulk copy inflicts on concurrent queries at the shared
  /// device. A paced copy (copy_bytes_per_sec > 0) fits in spare bandwidth
  /// and injects nothing. 0 disables the contention model.
  double copy_contention_ms = 0.0;
  /// Test hook: called at phase boundaries on the transition thread —
  /// "copy", "staged", "verify", "commit", "committed", preceded by "plan"
  /// for a repair. Kills injected here exercise the abort paths
  /// deterministically.
  std::function<void(const std::string&)> on_phase;
};

/// What every staged transition reports.
struct TransitionReport {
  bool committed = false;
  /// Set when `committed` is false (and a repair was not already healthy):
  /// why the transition aborted. An aborted transition leaves the old
  /// generation fully intact and serving, and drops every staged file.
  std::string abort_reason;
  uint64_t old_generation = 0;
  uint64_t new_generation = 0;
  /// Buckets of the relations whose files the copy phase staged.
  uint64_t buckets_copied = 0;
  uint64_t files_copied = 0;
  /// Charged payload bytes of the copy phase (each file counted once, not
  /// per node — one read fanned out to N writes; a repair counts only the
  /// rebuilt share).
  uint64_t bytes_copied = 0;
  /// Total wall-clock milliseconds the copy phase slept to stay under
  /// `copy_bytes_per_sec`. 0 when unpaced.
  double pacing_wait_ms = 0.0;
  uint64_t verify_queries = 0;
  uint64_t verify_mismatches = 0;
};

/// Live re-declustering to a new method / disk count; see
/// cluster/transition.h.
struct MigrationOptions : TransitionOptions {
  /// Registry name of the target declustering method.
  std::string new_method;
  /// Target virtual-disk count M'.
  uint32_t new_num_disks = 0;
};

struct MigrationReport : TransitionReport {};

/// Paced re-replication repair; see cluster/repair.h.
struct RepairOptions : TransitionOptions {};

struct RepairReport : TransitionReport {
  /// The cluster was already fully placed: nothing to do, no new
  /// generation. Reported with committed = false and no abort_reason.
  bool already_healthy = false;
  /// Nodes the repair planned around (detector-dead plus removed).
  std::vector<uint32_t> dead_nodes;
  /// (disk, copy) replica assignments moved off dead/removed nodes or
  /// re-spread across zones.
  uint64_t replicas_retargeted = 0;
  /// Redundancy-restored-by, virtual clock: commit-time virtual now minus
  /// the earliest heartbeat death among the repaired nodes. 0 when no
  /// repaired node had a detector death timestamp.
  double mttr_virtual_ms = 0.0;
  /// Wall-clock repair duration (plan to commit).
  double mttr_wall_ms = 0.0;
};

class StagedTransition;
struct TransitionDelta;

/// N simulated nodes + coordinator; see file comment. Thread-safe:
/// Execute may be called from any number of threads, concurrently with
/// KillNode / AdvanceTimeMs / Migrate / Repair.
class Cluster {
 public:
  /// Loads `seed`'s committed generation once, materializes `seed` (a
  /// committed catalog env) into every node and starts the per-node
  /// services on that load. Requires num_nodes >= 1, and num_nodes and
  /// max_nodes <= the catalog's disk count.
  static Result<std::unique_ptr<Cluster>> Create(const StorageEnv& seed,
                                                 ClusterOptions options);

  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Scatter-gather one query; see file comment for the routing rules.
  ClusterQueryResult Execute(const serve::QueryRequest& request);

  /// Node death: the node is routed around from now on.
  Status KillNode(uint32_t node);
  /// Revives a killed node behind a catch-up fence the routing epoch
  /// decides (see `Epoch::services`): a node the epoch holds a service for
  /// already serves its generation and only comes back to routing; a node
  /// it holds none for missed a commit (a repair stages only to live
  /// nodes) and is first caught up from a live peer the epoch holds a
  /// service for, with a fresh service on the epoch's load.
  /// With no such peer the revival is refused with kUnavailable and the
  /// node stays dead rather than serving a stale generation.
  ///
  /// Takes the single-flight slot, so it is refused with
  /// kFailedPrecondition while a migration, a repair, an AddNode or another
  /// revival runs (also from a transition's `on_phase`): a transition cuts
  /// over to an epoch planned before the revival, which holds no service
  /// for the node and never staged the new generation to it.
  Status ReviveNode(uint32_t node);
  /// Kills / revives every node in the placement topology's zone `zone`
  /// at once — a power or network domain failing as a unit.
  Status KillZone(uint32_t zone);
  Status ReviveZone(uint32_t zone);

  /// Advances the virtual clock the heartbeat detector runs on to
  /// `now_ms`. The clock only moves forward: a time earlier than
  /// VirtualNowMs(), or NaN, is kInvalidArgument and changes nothing; the
  /// same time again is a no-op advance.
  Status AdvanceTimeMs(double now_ms);
  double VirtualNowMs() const { return virtual_now_ms_.load(); }

  /// Live re-declustering: moves the serving catalog to a new declustering
  /// method and/or virtual-disk count without stopping reads.
  ///
  /// Re-declustering changes only the bucket -> disk mapping (the method
  /// and M recorded in the manifest), never the record order, the grid, or
  /// the page layout — so the new generation's data files are byte-for-byte
  /// copies of the old ones under new generation-numbered names, and the
  /// migration is a metadata change shipped by the StagedTransition
  /// (cluster/transition.h). Its delta: every non-removed member node takes
  /// part (losing one aborts with "node lost"); the staged manifest gets
  /// the new method and disk count and drops any explicit placement table
  /// (it is keyed to the old layout, so the new generation re-places by
  /// policy); each file is charged in full; the old layout must answer
  /// every verify query completely. Unknown methods and too few disks are
  /// caller errors, refused before anything is staged.
  ///
  /// One transition at a time; returns kFailedPrecondition while the
  /// single-flight slot is held (see migrating()). A non-committed report
  /// (clean abort) is an Ok result.
  Result<MigrationReport> Migrate(const MigrationOptions& options);
  /// Requests a clean abort of the running migration or repair (no-op
  /// when idle, and no effect on an AddNode or a revival, which run to
  /// their end).
  void AbortMigration() { abort_migration_.store(true); }

  /// Paced re-replication repair; see cluster/repair.h. Diffs the current
  /// placement against the live topology (heartbeat-dead plus removed
  /// nodes), re-targets lost / zone-violating replicas zone-aware, stages
  /// the repaired placement to the live nodes, verifies, and commits
  /// behind the generation fence. Mutually exclusive with Migrate,
  /// AddNode and ReviveNode (same single-flight slot). A clean abort is an
  /// Ok, non-committed report.
  Result<RepairReport> Repair(const RepairOptions& options);

  /// Grows the cluster by one node in rack `rack` (== num_racks appends a
  /// new rack in zone `zone`; `zone` == num_zones then opens a new zone).
  /// The node joins the way a stale revival does: caught up from a live
  /// peer the epoch holds a service for, published in a fresh epoch under
  /// the grown topology. Existing placement is untouched until the next
  /// Repair/Migrate re-places. Returns the new node id. Requires a free
  /// slot (ClusterOptions::max_nodes) and a live peer.
  ///
  /// Holds the single-flight slot from its first check to the epoch
  /// publish, so it is refused with kFailedPrecondition while a migration,
  /// a repair, a revival or another AddNode runs (also when called from a
  /// transition's `on_phase`): a transition cuts over to an epoch planned
  /// before the add, which would drop the node's service and topology
  /// entry while `num_nodes()` still counted it.
  Result<uint32_t> AddNode(uint32_t rack, uint32_t zone);
  /// Marks a node as permanently decommissioned: it is routed around like
  /// a death, excluded from quorum, and the next Repair evacuates every
  /// replica assignment it held. Irreversible (ReviveNode refuses).
  Status RemoveNode(uint32_t node);

  /// Heartbeat verdict for `node` (kRemoved when out of range).
  NodeHealth NodeHealthOf(uint32_t node) const;
  HeartbeatDetector::Counters HeartbeatCounters() const;

  uint32_t num_nodes() const { return active_nodes_.load(); }
  uint32_t num_disks() const;
  /// Committed catalog generation the current routing epoch serves.
  uint64_t generation() const;
  std::vector<std::string> RelationNames() const;
  /// True while a Migrate, a Repair, an AddNode or a ReviveNode holds the
  /// single-flight slot, which each claims without waiting and refuses
  /// with kFailedPrecondition when taken. A migration or repair installs
  /// its staging epoch (the double-read window) only inside it, and every
  /// change of the routing epoch happens inside it.
  bool migrating() const { return migrating_.load(); }

  BreakerState NodeBreakerState(uint32_t node) const;
  /// In range, not killed and not removed.
  bool NodeAlive(uint32_t node) const;

  /// The spec of the current routing epoch's PlacementMap — what the
  /// cluster routes by (see file comment). Returned by value: a later
  /// epoch may replace it.
  PlacementSpec placement_spec() const;
  /// Self-colocation warnings computed at Create: one line per mirror
  /// relation whose placement puts two copies of some disk on one node
  /// (the chained trap). Empty = every relation survives any single node
  /// loss placement-wise.
  const std::vector<std::string>& PlacementWarnings() const {
    return placement_warnings_;
  }
  /// Test hook: the raw (fault-free) storage env backing `node`, or
  /// nullptr when out of range. Chaos tests corrupt staged files through
  /// it to drive the migration verify/abort paths deterministically.
  MemEnv* node_env_for_test(uint32_t node) {
    return node < num_nodes() ? &nodes_[node]->env : nullptr;
  }

  /// Publishes absolute totals: cluster.* keys, each node's breaker
  /// transitions summed under cluster.node_breaker.*, and each
  /// serve::kServeCounterNames counter summed over the current epoch's
  /// node services under cluster.node_serve.* (e.g.
  /// cluster.node_serve.retries). A node service replaced by a revive or
  /// a cutover takes its counts with it, so the node_serve sums cover only
  /// the services now routed to.
  void SnapshotMetrics(obs::MetricsRegistry* out) const;

 private:
  friend class StagedTransition;
  /// Test-only read access to the routing epochs, defined by the tests.
  friend struct ClusterTestPeer;

  struct Node {
    MemEnv env;
    std::unique_ptr<FaultyEnv> faulty;
    std::atomic<bool> killed{false};
    /// Decommissioned via RemoveNode: permanently dead for routing and
    /// quorum, evacuated by the next repair. The slot (and node id) stays.
    std::atomic<bool> removed{false};
  };

  /// One immutable routing view: the generation's load, placement and the
  /// per-node service snapshot. Cutover swaps the shared_ptr atomically;
  /// in-flight queries finish on the epoch they grabbed.
  struct Epoch {
    /// The generation this epoch routes, loaded once (see file comment):
    /// every non-null entry of `services` serves this very load, and the
    /// epoch routes by its relations — each one's header (for
    /// ResolveRange), DiskMap and copy count (`placement->num_replicas()`).
    /// Copying an epoch (a revival, an added node) copies the pointer and
    /// derives nothing.
    std::shared_ptr<const serve::LoadedGeneration> loaded;
    /// (disk, copy) -> node; row 0 is disk ownership. The cluster's only
    /// runtime placement state.
    PlacementMap placement;
    /// Per node, the service it is routed to, serving `loaded`. A null
    /// entry is a node that did not take part in the commit that made this
    /// epoch — dead, killed or removed then — so its env may lack the
    /// generation; ReviveNode catches it up before readmitting it. The
    /// rule holds because every epoch change (cutover, revival, add) runs
    /// in the single-flight slot: a non-null entry's node env is at the
    /// generation and can be any joining node's copy source.
    std::vector<std::shared_ptr<serve::QueryService>> services;

    uint64_t generation() const { return loaded->manifest.generation; }
    uint32_t num_disks() const { return loaded->manifest.num_disks; }
    const serve::RelationMap& relations() const { return loaded->relations; }
  };

  /// One sub-query: a set of primary disk ids served from mirror copy
  /// `copy` by `node`, which the epoch's PlacementMap assigns that copy of
  /// every one of them. Copy != 0 means planned onto a replica.
  struct Route {
    uint32_t node = 0;
    uint32_t copy = 0;
    std::vector<uint32_t> disks;
    uint64_t buckets = 0;
    /// Nodes whose sub-queries for these disks already failed this query.
    std::vector<uint32_t> tried;
  };

  /// A (node, copy) that can serve every disk of a route alone.
  struct Holder {
    uint32_t node = 0;
    uint32_t copy = 0;
  };

  /// RouteDisks' (node, copy)-indexed working arrays, reused across calls.
  struct RouteIndex {
    /// Per input disk: its key node * copies + copy, or kNoKey when lost.
    std::vector<uint32_t> disk_key;
    /// Per key: the index of the route it became, or kNoKey when unused.
    std::vector<uint32_t> key_route;
  };

  /// Coordinator state one thread reuses from query to query; defined in
  /// cluster.cc.
  struct Scratch;

  Cluster() = default;

  /// Builds a routing epoch of `loaded` over `services`, which serve it
  /// (null for a node the epoch leaves out), routing by `placement` (see
  /// file comment for who hands in which spec). It reads no file and
  /// derives nothing: generation, disk count and relations are the load's.
  static Result<std::shared_ptr<const Epoch>> BuildEpoch(
      std::shared_ptr<const serve::LoadedGeneration> loaded,
      std::vector<std::shared_ptr<serve::QueryService>> services,
      const PlacementSpec& placement);

  std::shared_ptr<const Epoch> CurrentEpoch() const;
  std::shared_ptr<const Epoch> StagingEpoch() const;
  void SetStagingEpoch(std::shared_ptr<const Epoch> epoch);
  /// Publishes `epoch` as current and clears staging: a transition's
  /// cutover, or a node joining (no staging epoch is installed then).
  void AdoptEpoch(std::shared_ptr<const Epoch> epoch);

  /// Frees the single-flight slot when it goes out of scope.
  class SlotRelease {
   public:
    explicit SlotRelease(std::atomic<bool>* slot) : slot_(slot) {}
    SlotRelease(const SlotRelease&) = delete;
    SlotRelease& operator=(const SlotRelease&) = delete;
    ~SlotRelease() { slot_->store(false); }

   private:
    std::atomic<bool>* slot_;
  };
  /// Claims the single-flight slot of Migrate, Repair, AddNode and
  /// ReviveNode; the caller frees it with a SlotRelease. The claim never
  /// waits, so a call from a transition's `on_phase` is refused with
  /// kFailedPrecondition instead of deadlocking.
  Status ClaimSlot();

  ClusterQueryResult ExecuteOnEpoch(const Epoch& epoch,
                                    const serve::QueryRequest& request,
                                    bool allow_hedge);
  /// Whether `node` can take a sub-query: not in `tried`, alive and not
  /// breaker-refused.
  bool NodeUsable(uint32_t node, const std::vector<uint32_t>& tried) const;
  /// The per-disk routing rule the plan and every fallback share: disk d
  /// is served by the lowest copy whose holder is usable — copy 0, its
  /// owner, whenever the owner is. Groups `disks` into one route per
  /// (node, copy), in (node, copy) order, each listing its disks in input
  /// order, with bucket counts from `counts` and `tried` as its tried
  /// list; appends the disks no usable holder is left for to `lost`. The
  /// routes overwrite the front of `routes`, reusing the entries (and
  /// their lists) already there, which never shrinks; returns how many.
  size_t RouteDisks(const Epoch& epoch, uint32_t copies,
                    const std::vector<uint32_t>& disks,
                    const std::vector<uint64_t>& counts,
                    const std::vector<uint32_t>& tried, RouteIndex* index,
                    std::vector<Route>* routes,
                    std::vector<uint32_t>* lost) const;
  /// The one-sub-query fallback of a sub-query that `failed`, which rules
  /// out its node and `failed.tried`: the lowest copy whose holder is the
  /// same usable node for every disk of `failed`. Allocates nothing, so
  /// the gather asks it of every hedgeable route.
  std::optional<Holder> OneHolderFallback(const Epoch& epoch,
                                          uint32_t copies,
                                          const Route& failed) const;
  /// The fallback of a sub-query that `failed`: the OneHolderFallback
  /// route when there is one, else its disks split by RouteDisks.
  std::vector<Route> Fallback(const Epoch& epoch, uint32_t copies,
                              const Route& failed,
                              const std::vector<uint64_t>& counts,
                              RouteIndex* index,
                              std::vector<uint32_t>* lost) const;

  /// Runs one Migrate or Repair in the single-flight slot: claims it (or
  /// refuses with kFailedPrecondition),
  /// records the current generation in `report`, lets `plan` describe the
  /// change against the current epoch, and runs the StagedTransition. A
  /// plan that returns Ok with no participants has settled the report
  /// itself (nothing to stage).
  Status RunTransition(
      const TransitionOptions& options, TransitionReport* report,
      const std::function<Status(const Epoch& current, TransitionDelta* delta)>&
          plan);

  /// Applies `fn` to every node of `zone` in the current epoch's topology,
  /// stopping at the first error; kInvalidArgument for an unknown zone.
  Status ForEachNodeInZone(uint32_t zone,
                           const std::function<Status(uint32_t)>& fn);
  /// Detector-dead plus removed nodes — the set a repair plans around.
  std::vector<uint32_t> DeadNodesForRepair() const;
  /// Virtual time the heartbeat declared `node` dead (0 = never).
  double NodeDeadSinceMs(uint32_t node) const;
  /// Node `n`'s query service over its FaultyEnv, serving `loaded`. With
  /// `check_copy` (the load was read from another env), each relation's
  /// data file in node n's env must first match the size and CRC32C the
  /// load's manifest records, so a bad copy is refused. Builds the
  /// FaultyEnv first when the node has none (Create, AddNode): fault seed
  /// `fault_seed + n` and node n's injected latency. The service runs
  /// `options_.node` with `seed + n`, decorrelating retry jitter across
  /// nodes.
  Result<std::shared_ptr<serve::QueryService>> NodeService(
      uint32_t n, std::shared_ptr<const serve::LoadedGeneration> loaded,
      bool check_copy);
  /// The step every node joins by (see file comment): copies every file
  /// of `source` into node n's env and starts its service on `loaded`,
  /// checking the copy.
  Result<std::shared_ptr<serve::QueryService>> JoinNode(
      uint32_t n, const StorageEnv& source,
      std::shared_ptr<const serve::LoadedGeneration> loaded);
  /// JoinNode from the first live node other than `n` the current epoch
  /// holds a service for, on the epoch's load, then publishes the service
  /// as node n's in a fresh epoch, under `grown` when given (AddNode).
  /// kUnavailable when there is no such peer. The caller holds the
  /// single-flight slot.
  Status CatchUpNode(uint32_t n, std::optional<Topology> grown);
  /// Admits one extra sub-query (hedge or failover retry) against the
  /// cluster-wide hedge budget; false = over budget, skip it.
  bool AdmitExtraSub(bool is_hedge);
  void ObserveNodeLatency(uint32_t node, double ms);
  /// Hedge delay for `node` on coordinator sequence number `seq`.
  double HedgeDelayMs(uint32_t node, uint64_t seq) const;

  ClusterOptions options_;
  std::vector<std::string> placement_warnings_;
  /// Preallocated to max_nodes so AddNode never reallocates; slots in
  /// [active_nodes_, max) are default-constructed and untouched until
  /// activated. All loops bound by num_nodes() == active_nodes_.
  std::vector<std::unique_ptr<Node>> nodes_;
  /// Materialized node count; release-incremented by AddNode after the
  /// slot is fully built.
  std::atomic<uint32_t> active_nodes_{0};
  /// RemoveNode count — shrinks the quorum denominator.
  std::atomic<uint32_t> removed_count_{0};
  /// Written under hb_mu_, so it moves forward with the detector.
  std::atomic<double> virtual_now_ms_{0.0};

  mutable std::mutex epoch_mu_;
  std::shared_ptr<const Epoch> epoch_;
  std::shared_ptr<const Epoch> staging_epoch_;

  /// One breaker per node slot (max_nodes).
  std::unique_ptr<BreakerSet> node_breakers_;

  /// Virtual-clock failure detector; AdvanceTo/MarkRemoved/Reset are
  /// serialized by hb_mu_, health reads are lock-free.
  mutable std::mutex hb_mu_;
  std::unique_ptr<HeartbeatDetector> heartbeat_;

  /// Cluster-wide hedge/retry budget accounting (lock-free; see
  /// ClusterOptions::hedge_budget_fraction).
  std::atomic<uint64_t> primary_subs_{0};
  std::atomic<uint64_t> extra_subs_{0};
  std::atomic<uint64_t> hedge_budget_denied_{0};
  std::atomic<uint64_t> retry_budget_denied_{0};

  /// The single-flight slot of Migrate, Repair, AddNode and ReviveNode.
  std::atomic<bool> migrating_{false};
  std::atomic<bool> abort_migration_{false};
  /// Set by a live double-read mismatch; checked by the transition.
  std::atomic<bool> divergence_{false};

  mutable std::mutex metrics_mu_;
  uint64_t queries_ = 0;
  uint64_t complete_ = 0;
  uint64_t partial_ = 0;
  uint64_t failed_ = 0;
  uint64_t sub_queries_ = 0;
  uint64_t sub_queries_on_caller_ = 0;
  uint64_t hedges_fired_ = 0;
  uint64_t hedge_wins_ = 0;
  uint64_t hedges_cancelled_ = 0;
  uint64_t rerouted_subqueries_ = 0;
  uint64_t unavailable_buckets_ = 0;
  uint64_t quorum_rejections_ = 0;
  uint64_t verify_reads_ = 0;
  uint64_t verify_mismatches_ = 0;
  uint64_t migrations_committed_ = 0;
  uint64_t migrations_aborted_ = 0;
  uint64_t migration_buckets_copied_ = 0;
  uint64_t repairs_committed_ = 0;
  uint64_t repairs_aborted_ = 0;
  uint64_t repair_replicas_rebuilt_ = 0;
  uint64_t repair_bytes_copied_ = 0;
  uint64_t revive_catchups_ = 0;
  uint64_t revive_fenced_ = 0;
  uint64_t nodes_added_ = 0;
  uint64_t nodes_removed_ = 0;
  obs::Histogram query_ms_{obs::DefaultLatencyBoundsMs()};
  /// Per-node sub-query latency (adaptive hedge delay reads its p95).
  std::vector<obs::Histogram> node_query_ms_;
  std::atomic<uint64_t> query_seq_{0};
};

}  // namespace griddecl::cluster

#endif  // GRIDDECL_CLUSTER_CLUSTER_H_
