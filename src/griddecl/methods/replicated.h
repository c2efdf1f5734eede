#ifndef GRIDDECL_METHODS_REPLICATED_H_
#define GRIDDECL_METHODS_REPLICATED_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "griddecl/methods/method.h"

/// \file
/// Replicated declustering.
///
/// The paper explicitly scopes replication out ("we do not consider
/// techniques where a data subspace can be assigned to more than one
/// disk") while noting that block-level replication was already standard
/// for reliability (RAID, its reference [7]). This module implements the
/// natural extension the paper leaves open: store every bucket on `r`
/// distinct disks and let the *query router* pick, per query, which
/// replica serves each bucket (eval/replica_router.h computes the optimal
/// choice exactly).
///
/// Placement policy: replica 0 is the base declustering method's disk;
/// replica i lives on `(disk + i * offset) mod M`. `offset = 1` is chained
/// declustering (Hsiao & DeWitt); `offset = M / r` approximates interleaved
/// mirroring. Requires r <= M and the offsets to produce distinct disks.

namespace griddecl {

/// A bucket-to-disk-set placement built from a base method.
class ReplicatedPlacement {
 public:
  /// Validated factory. Requires 1 <= num_replicas <= base->num_disks()
  /// and `i * offset mod M` distinct for i in [0, r) (guaranteed when
  /// offset and M are coprime, or when r * offset <= M).
  static Result<ReplicatedPlacement> Create(
      std::unique_ptr<DeclusteringMethod> base, uint32_t num_replicas,
      uint32_t offset = 1);

  /// Table-driven factory: `replica_disks[primary]` lists the disks
  /// holding every bucket whose base disk is `primary` (element 0 must be
  /// `primary` itself; all entries distinct and < M). This is how
  /// topology-aware cluster placements (cluster/placement.h) are lowered
  /// into the simulator: the node-level policy decides a per-primary-disk
  /// replica set, and the sweep evaluates it with the same degraded
  /// router the arithmetic `offset` placements use.
  static Result<ReplicatedPlacement> CreateWithTable(
      std::unique_ptr<DeclusteringMethod> base,
      std::vector<std::vector<uint32_t>> replica_disks);

  const DeclusteringMethod& base() const { return *base_; }
  uint32_t num_replicas() const { return num_replicas_; }
  uint32_t num_disks() const { return base_->num_disks(); }
  uint32_t offset() const { return offset_; }

  /// The `num_replicas` distinct disks holding bucket `c`; element 0 is
  /// the primary (the base method's disk).
  std::vector<uint32_t> DisksOf(const BucketCoords& c) const;

  /// Disk holding replica `copy` (< num_replicas) of every bucket whose
  /// primary disk is `primary`: DisksOf(c)[copy] for any such bucket c,
  /// without allocating and without asking the base method.
  uint32_t DiskOfCopy(uint32_t primary, uint32_t copy) const {
    if (!table_.empty()) return table_[primary][copy];
    return static_cast<uint32_t>(
        (primary + static_cast<uint64_t>(copy) * offset_) % num_disks());
  }

  /// Storage blow-up per disk: each disk holds `num_replicas` x its
  /// unreplicated share (loads returned in buckets, including replicas).
  std::vector<uint64_t> DiskLoadHistogram() const;

 private:
  ReplicatedPlacement(std::unique_ptr<DeclusteringMethod> base,
                      uint32_t num_replicas, uint32_t offset)
      : base_(std::move(base)),
        num_replicas_(num_replicas),
        offset_(offset) {}

  std::unique_ptr<DeclusteringMethod> base_;
  uint32_t num_replicas_;
  uint32_t offset_;
  /// Non-empty iff built by CreateWithTable; indexed by primary disk.
  std::vector<std::vector<uint32_t>> table_;
};

}  // namespace griddecl

#endif  // GRIDDECL_METHODS_REPLICATED_H_
