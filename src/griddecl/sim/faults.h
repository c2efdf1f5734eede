#ifndef GRIDDECL_SIM_FAULTS_H_
#define GRIDDECL_SIM_FAULTS_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "griddecl/common/backoff.h"
#include "griddecl/common/status.h"
#include "griddecl/eval/replica_router.h"
#include "griddecl/methods/method.h"
#include "griddecl/methods/replicated.h"
#include "griddecl/query/query.h"

/// \file
/// Fault injection for the I/O simulators.
///
/// The paper's model (and this repo's simulators before this module) only
/// answers "how fast is the happy path?". Real arrays lose spindles
/// mid-workload, and ECC-style declustering is motivated partly by its
/// coding-theoretic structure — structure that also supports *recovery*.
/// This module describes faults and decides how reads are served around
/// them; `io_sim`, `throughput`, and `event_sim` consume it.
///
/// Three fault classes, all deterministic under a seed:
///
///  * **Permanent disk failures** — disk d is dead from `at_ms` onwards
///    (`at_ms = 0` means failed from the start). The multi-query
///    simulators evaluate liveness at query admission time; the
///    single-query simulator uses the terminal (eventually-failed) set.
///  * **Transient read errors** — each request attempt fails independently
///    with probability `transient_error_prob`, up to `max_retries` failed
///    attempts (the attempt after the last allowed retry always succeeds:
///    bounded retry). Whether attempt k of the request for `address` on
///    `disk` fails is a pure hash of (seed, disk, address, k), so the same
///    request faults identically regardless of simulation order — this is
///    what makes fault runs reproducible bit-for-bit.
///  * **Stragglers** — disk d is slowed by `factor` inside a time window,
///    multiplying its service times (compounding with the simulator's
///    static per-disk `slowdown`).
///
/// `DegradedPlan` is the policy layer: given the failed-disk set, how is a
/// bucket whose primary disk is dead served?
///
///  * `kUnavailable` — plain methods: the bucket (and any query touching
///    it) cannot be answered;
///  * `kReplicaReroute` — replicated placements: the query is re-routed by
///    the exact min-makespan replica router (eval/replica_router.h) over
///    the surviving replicas;
///  * `kEccReconstruct` — ECC declustering: the bucket is rebuilt by
///    reading the surviving members of its parity group. The group of
///    bucket v is its single-bit coordinate neighbors {v ^ e_j}: because
///    the code has minimum distance >= 3, those n = sum(log2 d_i) buckets
///    sit on n *pairwise-distinct* disks, none of them disk(v) — a
///    RAID-5-like stripe the parity-check matrix hands us for free. Each
///    reconstruction therefore fans out n real extra reads; if any group
///    member's disk is also dead (or a parity-check column is zero, which
///    would place the "neighbor" on the dead primary), the bucket is
///    unavailable — single-failure tolerance, exactly what distance 3
///    promises.

namespace griddecl {

/// A permanent disk failure. `at_ms = 0` fails the disk from the start.
struct DiskFailure {
  uint32_t disk = 0;
  double at_ms = 0.0;
};

/// A time-windowed service-time multiplier on one disk.
struct Straggler {
  uint32_t disk = 0;
  /// Service-time multiplier while active; must be > 0 (values > 1 slow
  /// the disk down, which is the interesting case).
  double factor = 1.0;
  double from_ms = 0.0;
  double until_ms = std::numeric_limits<double>::infinity();
};

/// Declarative description of every fault a simulation injects.
struct FaultSpec {
  /// Seed for the transient-error hash. Same seed => same fault pattern.
  uint64_t seed = 0;
  std::vector<DiskFailure> failures;
  /// Per-attempt transient read-error probability, in [0, 1).
  double transient_error_prob = 0.0;
  /// Maximum *failed* attempts per request; the next attempt succeeds.
  uint32_t max_retries = 3;
  /// Firmware-style wait charged to the disk per failed attempt (not
  /// scaled by disk speed).
  double retry_backoff_ms = 1.0;
  std::vector<Straggler> stragglers;
};

/// Immutable, validated fault model over `num_disks` disks. Safe to share
/// across threads for concurrent reads.
class FaultModel {
 public:
  /// Validated factory: disk ids in range, probability in [0, 1), straggler
  /// factors > 0, windows well-formed, times non-negative.
  static Result<FaultModel> Create(uint32_t num_disks, FaultSpec spec);

  /// A model with no faults at all (never fails, never slows, never errs).
  static FaultModel None(uint32_t num_disks);

  uint32_t num_disks() const { return num_disks_; }
  const FaultSpec& spec() const { return spec_; }

  bool has_failures() const { return num_terminal_failed_ > 0; }
  bool has_stragglers() const { return !spec_.stragglers.empty(); }
  bool has_transient_errors() const {
    return spec_.transient_error_prob > 0.0;
  }
  /// True when the model can never perturb a simulation.
  bool IsNoop() const {
    return !has_failures() && !has_stragglers() && !has_transient_errors();
  }

  /// Permanent failure state of `disk` at simulated time `time_ms`.
  bool FailedAt(uint32_t disk, double time_ms) const;

  /// Failure mask at `time_ms` (one flag per disk).
  std::vector<bool> FailedMaskAt(double time_ms) const;

  /// Disks that ever fail — the mask degraded plans are built against.
  const std::vector<bool>& terminal_failed() const {
    return terminal_failed_;
  }
  uint32_t num_terminal_failed() const { return num_terminal_failed_; }

  /// Combined straggler multiplier of `disk` at `time_ms` (product of all
  /// active windows; 1.0 when none).
  double SlowdownAt(uint32_t disk, double time_ms) const;

  /// True iff attempt `attempt` (0-based) of the request for `address` on
  /// `disk` suffers a transient error. Always false once `attempt` reaches
  /// `max_retries` (bounded retry) — and false for any attempt when
  /// `transient_error_prob` is 0.
  bool AttemptFails(uint32_t disk, uint64_t address, uint32_t attempt) const;

  /// Number of failed attempts the request for `address` on `disk` pays
  /// before succeeding, in [0, max_retries].
  uint32_t TransientRetries(uint32_t disk, uint64_t address) const;

  /// The retry/backoff policy the simulators charge: the shared
  /// implementation (common/backoff.h) with a degenerate configuration —
  /// constant `retry_backoff_ms` per retry, no jitter — so simulator and
  /// serving layer draw delays from one audited source.
  const BackoffPolicy& retry_policy() const { return retry_policy_; }

  /// Firmware-style wait charged before retry `retry` (0-based). Exactly
  /// `spec().retry_backoff_ms` for every retry under the degenerate
  /// policy; routed through `BackoffDelayMs` so the charge and the serving
  /// layer's real sleeps share an implementation.
  double RetryDelayMs(uint32_t retry) const {
    return BackoffDelayMs(retry_policy_, spec_.seed, 0, retry);
  }

 private:
  FaultModel(uint32_t num_disks, FaultSpec spec);

  uint32_t num_disks_;
  FaultSpec spec_;
  BackoffPolicy retry_policy_;
  /// Earliest failure time per disk; +inf when the disk never fails.
  std::vector<double> fail_at_;
  std::vector<bool> terminal_failed_;
  uint32_t num_terminal_failed_ = 0;
};

/// How a bucket on a failed disk is served.
enum class DegradedReadStrategy {
  /// The bucket cannot be served; queries touching it fail.
  kUnavailable,
  /// Re-route to a surviving replica (optimal min-makespan routing).
  kReplicaReroute,
  /// Reconstruct from the surviving members of the ECC parity group.
  kEccReconstruct,
};

/// Policy layer mapping each query to the physical reads that serve it
/// under a failure mask. Holds non-owning references: the method (or
/// placement) must outlive the plan.
class DegradedPlan {
 public:
  /// Plain (unreplicated, non-ECC) method: dead-disk buckets are
  /// unavailable. `failed` must have one entry per disk.
  static Result<DegradedPlan> ForMethod(const DeclusteringMethod& method,
                                        std::vector<bool> failed);

  /// Replicated placement: queries re-route around dead disks via the
  /// exact replica router.
  static Result<DegradedPlan> ForReplicated(
      const ReplicatedPlacement& placement, std::vector<bool> failed);

  /// ECC method: dead-disk buckets are reconstructed from their parity
  /// group. Returns kUnsupported when `method` is not ECC declustering.
  static Result<DegradedPlan> ForEcc(const DeclusteringMethod& method,
                                     std::vector<bool> failed);

  DegradedReadStrategy strategy() const { return strategy_; }
  uint32_t num_disks() const { return num_disks_; }
  const GridSpec& grid() const;
  /// The terminal failure mask the plan was built for (the default mask
  /// `ExpandQuery` uses).
  const std::vector<bool>& failed() const { return failed_; }

  /// Physical reads serving one query, per disk, addressed grid-linearly.
  struct QueryPlan {
    std::vector<std::vector<uint64_t>> per_disk;
    /// Buckets that cannot be served at all (a query with any is failed).
    uint64_t unavailable_buckets = 0;
    /// Buckets served by a non-primary replica.
    uint64_t rerouted_buckets = 0;
    /// Extra reads issued to rebuild dead-disk buckets.
    uint64_t reconstruction_reads = 0;
  };

  /// Expands `query` into per-disk reads. `failed_now`, when given, is the
  /// failure mask in effect (e.g. at query admission time) and must have
  /// one entry per disk; defaults to the plan's terminal mask. Degraded
  /// reads never target a disk failed in `failed_now`.
  Result<QueryPlan> ExpandQuery(const RangeQuery& query,
                                const std::vector<bool>* failed_now =
                                    nullptr) const;

 private:
  DegradedPlan(DegradedReadStrategy strategy, uint32_t num_disks,
               std::vector<bool> failed)
      : strategy_(strategy),
        num_disks_(num_disks),
        failed_(std::move(failed)) {}

  Result<QueryPlan> ExpandPlain(const RangeQuery& query,
                                const std::vector<bool>& failed) const;
  Result<QueryPlan> ExpandReplicated(const RangeQuery& query,
                                     const std::vector<bool>& failed) const;
  Result<QueryPlan> ExpandEcc(const RangeQuery& query,
                              const std::vector<bool>& failed) const;

  DegradedReadStrategy strategy_;
  uint32_t num_disks_;
  std::vector<bool> failed_;
  /// Exactly one of these is set, by strategy.
  const DeclusteringMethod* method_ = nullptr;
  const ReplicatedPlacement* placement_ = nullptr;
  /// ECC reconstruction tables: per concatenated coordinate bit j, the
  /// parity-check column as a syndrome value (disk(v ^ e_j) =
  /// disk(v) ^ column_syndrome_[j]), plus the (dimension, bit) it flips.
  std::vector<uint64_t> column_syndrome_;
  std::vector<uint32_t> column_dim_;
  std::vector<uint32_t> column_bit_;
};

}  // namespace griddecl

#endif  // GRIDDECL_SIM_FAULTS_H_
