#include "griddecl/sim/faults.h"

#include <algorithm>
#include <cmath>

#include "griddecl/common/bit_util.h"
#include "griddecl/common/hash.h"
#include "griddecl/methods/ecc.h"

namespace griddecl {

namespace {

/// The transient-error draw for one request attempt is a pure function of
/// (seed, disk, address, attempt), so fault patterns do not depend on
/// simulation order.
uint64_t AttemptHash(uint64_t seed, uint32_t disk, uint64_t address,
                     uint32_t attempt) {
  uint64_t h = Mix64(seed ^ 0x6a09e667f3bcc909ull);
  h = Mix64(h ^ disk);
  h = Mix64(h ^ address);
  h = Mix64(h ^ attempt);
  return h;
}

}  // namespace

FaultModel::FaultModel(uint32_t num_disks, FaultSpec spec)
    : num_disks_(num_disks),
      spec_(std::move(spec)),
      fail_at_(num_disks, std::numeric_limits<double>::infinity()),
      terminal_failed_(num_disks, false) {
  // Degenerate shared-backoff policy: constant wait, no jitter — keeps the
  // charged delay exactly `retry_backoff_ms` (bit-identical to the
  // pre-extraction inline charge).
  retry_policy_.base_ms = spec_.retry_backoff_ms;
  retry_policy_.multiplier = 1.0;
  retry_policy_.cap_ms = spec_.retry_backoff_ms;
  retry_policy_.jitter = 0.0;
  retry_policy_.max_attempts = spec_.max_retries + 1;
  for (const DiskFailure& f : spec_.failures) {
    fail_at_[f.disk] = std::min(fail_at_[f.disk], f.at_ms);
    terminal_failed_[f.disk] = true;
  }
  for (bool b : terminal_failed_) num_terminal_failed_ += b ? 1 : 0;
}

Result<FaultModel> FaultModel::Create(uint32_t num_disks, FaultSpec spec) {
  if (num_disks < 1) {
    return Status::InvalidArgument("fault model needs at least one disk");
  }
  for (const DiskFailure& f : spec.failures) {
    if (f.disk >= num_disks) {
      return Status::InvalidArgument(
          "failure names disk " + std::to_string(f.disk) + " but only " +
          std::to_string(num_disks) + " disks exist");
    }
    if (!(f.at_ms >= 0.0)) {
      return Status::InvalidArgument("failure time must be >= 0");
    }
  }
  if (!(spec.transient_error_prob >= 0.0) ||
      spec.transient_error_prob >= 1.0) {
    return Status::InvalidArgument(
        "transient_error_prob must be in [0, 1)");
  }
  if (!(spec.retry_backoff_ms >= 0.0)) {
    return Status::InvalidArgument("retry_backoff_ms must be >= 0");
  }
  for (const Straggler& s : spec.stragglers) {
    if (s.disk >= num_disks) {
      return Status::InvalidArgument(
          "straggler names disk " + std::to_string(s.disk) + " but only " +
          std::to_string(num_disks) + " disks exist");
    }
    if (!(s.factor > 0.0)) {
      return Status::InvalidArgument("straggler factor must be > 0");
    }
    if (!(s.from_ms >= 0.0) || !(s.until_ms >= s.from_ms)) {
      return Status::InvalidArgument("straggler window is ill-formed");
    }
  }
  return FaultModel(num_disks, std::move(spec));
}

FaultModel FaultModel::None(uint32_t num_disks) {
  GRIDDECL_CHECK(num_disks >= 1);
  return FaultModel(num_disks, FaultSpec{});
}

bool FaultModel::FailedAt(uint32_t disk, double time_ms) const {
  GRIDDECL_CHECK(disk < num_disks_);
  return time_ms >= fail_at_[disk];
}

std::vector<bool> FaultModel::FailedMaskAt(double time_ms) const {
  std::vector<bool> mask(num_disks_, false);
  for (uint32_t d = 0; d < num_disks_; ++d) {
    mask[d] = time_ms >= fail_at_[d];
  }
  return mask;
}

double FaultModel::SlowdownAt(uint32_t disk, double time_ms) const {
  GRIDDECL_CHECK(disk < num_disks_);
  double factor = 1.0;
  for (const Straggler& s : spec_.stragglers) {
    if (s.disk == disk && time_ms >= s.from_ms && time_ms < s.until_ms) {
      factor *= s.factor;
    }
  }
  return factor;
}

bool FaultModel::AttemptFails(uint32_t disk, uint64_t address,
                              uint32_t attempt) const {
  GRIDDECL_CHECK(disk < num_disks_);
  if (spec_.transient_error_prob <= 0.0) return false;
  if (attempt >= spec_.max_retries) return false;
  const uint64_t h = AttemptHash(spec_.seed, disk, address, attempt);
  // Compare the hash's top 53 bits as a uniform double in [0, 1).
  const double u =
      static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < spec_.transient_error_prob;
}

uint32_t FaultModel::TransientRetries(uint32_t disk, uint64_t address) const {
  uint32_t k = 0;
  while (k < spec_.max_retries && AttemptFails(disk, address, k)) ++k;
  return k;
}

namespace {

Status CheckMask(const std::vector<bool>& failed, uint32_t num_disks) {
  if (failed.size() != num_disks) {
    return Status::InvalidArgument("need one failure flag per disk");
  }
  return Status::Ok();
}

}  // namespace

const GridSpec& DegradedPlan::grid() const {
  return placement_ != nullptr ? placement_->base().grid() : method_->grid();
}

Result<DegradedPlan> DegradedPlan::ForMethod(
    const DeclusteringMethod& method, std::vector<bool> failed) {
  GRIDDECL_RETURN_IF_ERROR(CheckMask(failed, method.num_disks()));
  DegradedPlan plan(DegradedReadStrategy::kUnavailable, method.num_disks(),
                    std::move(failed));
  plan.method_ = &method;
  return plan;
}

Result<DegradedPlan> DegradedPlan::ForReplicated(
    const ReplicatedPlacement& placement, std::vector<bool> failed) {
  GRIDDECL_RETURN_IF_ERROR(CheckMask(failed, placement.num_disks()));
  DegradedPlan plan(DegradedReadStrategy::kReplicaReroute,
                    placement.num_disks(), std::move(failed));
  plan.placement_ = &placement;
  return plan;
}

Result<DegradedPlan> DegradedPlan::ForEcc(const DeclusteringMethod& method,
                                          std::vector<bool> failed) {
  GRIDDECL_RETURN_IF_ERROR(CheckMask(failed, method.num_disks()));
  const auto* ecc = dynamic_cast<const EccMethod*>(&method);
  if (ecc == nullptr) {
    return Status::Unsupported(
        "ECC reconstruction requires an ECC declustering method, got " +
        method.name());
  }
  DegradedPlan plan(DegradedReadStrategy::kEccReconstruct,
                    method.num_disks(), std::move(failed));
  plan.method_ = &method;
  // Parity-group tables from the parity-check matrix: flipping coordinate
  // bit j moves a bucket from disk s to disk s ^ column_j (syndromes are
  // linear), so the matrix columns *are* the reconstruction fan-out.
  const BitMatrix& h = ecc->parity_check();
  const GridSpec& grid = method.grid();
  uint32_t bit = 0;
  for (uint32_t dim = 0; dim < grid.num_dims(); ++dim) {
    const uint32_t width =
        static_cast<uint32_t>(FloorLog2(grid.dim(dim)));
    for (uint32_t b = 0; b < width; ++b, ++bit) {
      // Degenerate matrices (M = 1 or a 1-bucket grid) have fewer columns
      // than coordinate bits; treat the missing columns as zero (the
      // bucket is then unreconstructable, matching the degenerate case).
      plan.column_syndrome_.push_back(
          bit < h.cols() ? h.Column(bit).ToUint64() : 0);
      plan.column_dim_.push_back(dim);
      plan.column_bit_.push_back(b);
    }
  }
  return plan;
}

Result<DegradedPlan::QueryPlan> DegradedPlan::ExpandQuery(
    const RangeQuery& query, const std::vector<bool>* failed_now) const {
  const std::vector<bool>& failed =
      failed_now != nullptr ? *failed_now : failed_;
  GRIDDECL_RETURN_IF_ERROR(CheckMask(failed, num_disks_));
  switch (strategy_) {
    case DegradedReadStrategy::kUnavailable:
      return ExpandPlain(query, failed);
    case DegradedReadStrategy::kReplicaReroute:
      return ExpandReplicated(query, failed);
    case DegradedReadStrategy::kEccReconstruct:
      return ExpandEcc(query, failed);
  }
  return Status::Internal("unknown degraded-read strategy");
}

Result<DegradedPlan::QueryPlan> DegradedPlan::ExpandPlain(
    const RangeQuery& query, const std::vector<bool>& failed) const {
  QueryPlan plan;
  plan.per_disk.resize(num_disks_);
  const GridSpec& g = method_->grid();
  query.rect().ForEachBucket([&](const BucketCoords& c) {
    const uint32_t d = method_->DiskOf(c);
    if (failed[d]) {
      ++plan.unavailable_buckets;
    } else {
      plan.per_disk[d].push_back(g.Linearize(c));
    }
  });
  return plan;
}

Result<DegradedPlan::QueryPlan> DegradedPlan::ExpandReplicated(
    const RangeQuery& query, const std::vector<bool>& failed) const {
  QueryPlan plan;
  plan.per_disk.resize(num_disks_);
  Result<RoutedQuery> routed = RouteQuery(*placement_, query, &failed);
  if (!routed.ok()) {
    if (routed.status().code() == StatusCode::kUnsupported) {
      // Some bucket lost every replica: the whole query is unanswerable.
      plan.unavailable_buckets = query.NumBuckets();
      return plan;
    }
    return routed.status();
  }
  const GridSpec& g = placement_->base().grid();
  const std::vector<uint32_t>& assignment = routed.value().assignment;
  uint64_t i = 0;
  query.rect().ForEachBucket([&](const BucketCoords& c) {
    const uint32_t d = assignment[static_cast<size_t>(i++)];
    if (d != placement_->base().DiskOf(c)) ++plan.rerouted_buckets;
    plan.per_disk[d].push_back(g.Linearize(c));
  });
  return plan;
}

Result<DegradedPlan::QueryPlan> DegradedPlan::ExpandEcc(
    const RangeQuery& query, const std::vector<bool>& failed) const {
  QueryPlan plan;
  plan.per_disk.resize(num_disks_);
  const GridSpec& g = method_->grid();
  const uint32_t n = static_cast<uint32_t>(column_syndrome_.size());
  query.rect().ForEachBucket([&](const BucketCoords& c) {
    const uint32_t primary = method_->DiskOf(c);
    if (!failed[primary]) {
      plan.per_disk[primary].push_back(g.Linearize(c));
      return;
    }
    // Reconstruct from the n single-bit neighbors. All must be readable:
    // a zero column would put the "neighbor" on the dead primary disk,
    // and a neighbor on another dead disk breaks the stripe.
    std::vector<std::pair<uint32_t, uint64_t>> reads;
    reads.reserve(n);
    bool ok = n > 0;
    for (uint32_t j = 0; j < n && ok; ++j) {
      const uint32_t neighbor_disk = static_cast<uint32_t>(
          primary ^ column_syndrome_[j]);
      if (column_syndrome_[j] == 0 || neighbor_disk >= num_disks_ ||
          failed[neighbor_disk]) {
        ok = false;
        break;
      }
      BucketCoords neighbor = c;
      neighbor[column_dim_[j]] ^= (1u << column_bit_[j]);
      reads.push_back({neighbor_disk, g.Linearize(neighbor)});
    }
    if (!ok) {
      ++plan.unavailable_buckets;
      return;
    }
    for (const auto& [disk, addr] : reads) {
      plan.per_disk[disk].push_back(addr);
    }
    plan.reconstruction_reads += n;
  });
  return plan;
}

}  // namespace griddecl
