#include "griddecl/cluster/transition.h"

#include <algorithm>
#include <utility>

#include "griddecl/common/backoff.h"

namespace griddecl::cluster {

namespace {

/// Raises the given envs' extra read latency for the lifetime of the
/// guard — the contention an unpaced bulk copy inflicts on concurrent
/// queries at the shared device. Destructor-managed so every abort return
/// inside the copy phase clears it.
class ContentionGuard {
 public:
  ContentionGuard() = default;
  ContentionGuard(const ContentionGuard&) = delete;
  ContentionGuard& operator=(const ContentionGuard&) = delete;
  ~ContentionGuard() { Release(); }

  void Engage(std::vector<FaultyEnv*> envs, double ms) {
    envs_ = std::move(envs);
    for (FaultyEnv* env : envs_) env->SetExtraLatencyMs(ms);
  }

  void Release() {
    for (FaultyEnv* env : envs_) env->SetExtraLatencyMs(0.0);
    envs_.clear();
  }

 private:
  std::vector<FaultyEnv*> envs_;
};

}  // namespace

void StagedTransition::Phase(const char* phase) const {
  if (options_.on_phase) options_.on_phase(phase);
}

const char* StagedTransition::AbortTrigger() const {
  if (cluster_->abort_migration_.load()) return "externally aborted";
  if (cluster_->divergence_.load()) return "live double-read divergence";
  for (uint32_t n : delta_.participants) {
    if (!cluster_->NodeAlive(n)) return delta_.node_lost;
  }
  return nullptr;
}

const char* StagedTransition::SleepAbortable(double ms) const {
  SleepInterruptible(ms, [this] { return AbortTrigger() != nullptr; });
  return AbortTrigger();
}

Status StagedTransition::Abort(std::string reason) {
  cluster_->SetStagingEpoch(nullptr);
  if (report_->new_generation != 0) {
    for (uint32_t n = 0; n < cluster_->num_nodes(); ++n) {
      // Best effort on every node, dead ones included: the simulated env
      // stays writable, and a real node re-runs the drop on recovery,
      // which recovery's wreckage scan makes safe anyway.
      (void)DropStagedManifest(&cluster_->nodes_[n]->env,
                               report_->new_generation);
    }
  }
  report_->committed = false;
  report_->abort_reason = std::move(reason);
  return Status::Ok();
}

Status StagedTransition::WriteToParticipants(const std::string& name,
                                             const std::string& bytes) const {
  for (uint32_t n : delta_.participants) {
    GRIDDECL_RETURN_IF_ERROR(cluster_->nodes_[n]->env.WriteFile(name, bytes));
  }
  return Status::Ok();
}

Status StagedTransition::Run(std::shared_ptr<const Cluster::Epoch> old_epoch,
                             TransitionReport* report) {
  report_ = report;
  if (const char* trigger = AbortTrigger()) return Abort(trigger);

  // --- copy ----------------------------------------------------------------
  Phase("copy");
  // Pacing: a token bucket over the wall clock keeps the copy inside its
  // bytes/sec budget. The bucket banks up to 50 ms of budget so pacing
  // throttles the sustained rate, not every single small file.
  TokenBucket bucket(options_.copy_bytes_per_sec,
                     options_.copy_bytes_per_sec * 0.05);
  // An unpaced copy saturates the shared device: every participant's read
  // pays the contention penalty until the copy phase ends. A paced copy
  // fits in spare bandwidth and injects nothing.
  ContentionGuard contention;
  if (options_.copy_bytes_per_sec <= 0.0 && options_.copy_contention_ms > 0.0) {
    std::vector<FaultyEnv*> envs;
    for (uint32_t n : delta_.participants) {
      envs.push_back(cluster_->nodes_[n]->faulty.get());
    }
    contention.Engage(std::move(envs), options_.copy_contention_ms);
  }

  // Participants hold identical committed files; the raw MemEnv (not the
  // faulty wrapper) keeps the copy source fault-free.
  const uint32_t source = delta_.participants[0];
  const StorageEnv& src = cluster_->nodes_[source]->env;
  // The committed generation's manifest is the old epoch's load, read once.
  const CatalogManifest& old_manifest = old_epoch->loaded->manifest;
  auto next = NextManifestGeneration(src);
  if (!next.ok()) return next.status();
  report->new_generation = next.value();
  CatalogManifest staged = old_manifest;
  staged.generation = report->new_generation;
  delta_.edit_manifest(&staged);

  for (size_t i = 0; i < staged.relations.size(); ++i) {
    const ManifestRelation& mr = staged.relations[i];
    std::vector<std::pair<std::string, std::string>> files;
    files.emplace_back(old_manifest.DataFileName(i), staged.DataFileName(i));
    if (mr.redundancy.policy == RelationRedundancy::Policy::kMirror) {
      for (uint32_t c = 1; c < mr.redundancy.copies; ++c) {
        files.emplace_back(old_manifest.MirrorFileName(i, c),
                           staged.MirrorFileName(i, c));
      }
    }
    if (mr.parity_size > 0) {
      files.emplace_back(old_manifest.ParityFileName(i),
                         staged.ParityFileName(i));
    }
    for (const auto& [from, to] : files) {
      if (const char* trigger = AbortTrigger()) return Abort(trigger);
      auto bytes = src.ReadFile(from);
      if (!bytes.ok()) {
        return Abort(std::string(delta_.copy_failed) + ": " +
                     bytes.status().ToString());
      }
      const double charge =
          static_cast<double>(bytes.value().size()) * delta_.charge_fraction;
      // Pace BEFORE the transfer: the budget gates when bytes enter the
      // device, so a paced copy never bursts ahead of its rate.
      if (options_.copy_bytes_per_sec > 0.0) {
        const double wait =
            bucket.ConsumeDelayMs(charge, MonotonicNowMs());
        if (wait > 0.0) {
          report->pacing_wait_ms += wait;
          if (const char* trigger = SleepAbortable(wait)) {
            return Abort(trigger);
          }
        }
      }
      // Simulated device transfer time for the charged bytes.
      if (options_.copy_device_bytes_per_sec > 0.0) {
        if (const char* trigger = SleepAbortable(
                charge * 1000.0 / options_.copy_device_bytes_per_sec)) {
          return Abort(trigger);
        }
      }
      Status w = WriteToParticipants(to, bytes.value());
      if (!w.ok()) {
        return Abort(std::string(delta_.copy_failed) + ": " + w.ToString());
      }
      ++report->files_copied;
      report->bytes_copied += static_cast<uint64_t>(charge);
    }
    report->buckets_copied +=
        old_epoch->relations().at(mr.name)->header.partitioner.grid()
            .num_buckets();
  }

  Status w = WriteToParticipants(ManifestFileName(report->new_generation),
                                 SerializeManifest(staged));
  if (!w.ok()) return Abort("staging manifest: " + w.ToString());
  // Copy traffic is done: lift the contention penalty before verify.
  contention.Release();
  Phase("staged");
  if (const char* trigger = AbortTrigger()) return Abort(trigger);

  // --- verify --------------------------------------------------------------
  Phase("verify");
  // The new generation is loaded once, from the copy source (the first
  // participant, so a failed load aborts on it); every other participant
  // checks its staged data files against the load's manifest, so a bad
  // staged copy on any node aborts here. Non-participants keep a null
  // service: they miss this commit, so a revival catches them up first
  // (see Cluster::Epoch::services).
  const auto loaded = serve::LoadGeneration(src, report->new_generation);
  std::vector<std::shared_ptr<serve::QueryService>> staging_services(
      cluster_->num_nodes());
  for (uint32_t n : delta_.participants) {
    auto service = loaded.ok()
                       ? cluster_->NodeService(n, loaded.value(), n != source)
                       : loaded.status();
    if (!service.ok()) {
      return Abort("staging service on node " + std::to_string(n) + ": " +
                   service.status().ToString());
    }
    staging_services[n] = std::move(service.value());
  }
  auto staging_epoch = Cluster::BuildEpoch(
      loaded.value(), std::move(staging_services), delta_.placement);
  if (!staging_epoch.ok()) {
    return Abort("staging epoch: " + staging_epoch.status().ToString());
  }
  // From here on, every complete live query is double-read against the
  // staging epoch (Cluster::Execute) — traffic itself verifies the copy.
  cluster_->SetStagingEpoch(staging_epoch.value());

  // The verify sample per relation: the full box plus each attribute's
  // lower half (exercises multi-disk routing in every dimension).
  std::vector<serve::QueryRequest> sample;
  for (const auto& [name, rel] : old_epoch->relations()) {
    const Schema& schema = rel->header.schema;
    serve::QueryRequest full;
    full.relation = name;
    for (uint32_t a = 0; a < schema.num_attributes(); ++a) {
      full.lo.push_back(schema.attribute(a).lo);
      full.hi.push_back(schema.attribute(a).hi);
    }
    sample.push_back(full);
    for (uint32_t a = 0; a < schema.num_attributes(); ++a) {
      serve::QueryRequest half = full;
      half.hi[a] = (schema.attribute(a).lo + schema.attribute(a).hi) / 2.0;
      sample.push_back(std::move(half));
    }
  }
  for (const serve::QueryRequest& vq : sample) {
    if (const char* trigger = AbortTrigger()) return Abort(trigger);
    ClusterQueryResult old_r =
        cluster_->ExecuteOnEpoch(*old_epoch, vq, /*allow_hedge=*/false);
    ClusterQueryResult new_r = cluster_->ExecuteOnEpoch(
        *staging_epoch.value(), vq, /*allow_hedge=*/false);
    ++report->verify_queries;
    const bool old_complete = old_r.status.ok() && old_r.complete;
    if (!old_complete && !delta_.old_may_be_partial) {
      return Abort("verify query failed on old layout: " +
                   old_r.status.ToString());
    }
    if (!new_r.status.ok() || !new_r.complete) {
      return Abort("verify query failed on " + std::string(delta_.new_layout) +
                   ": " + new_r.status.ToString());
    }
    // A partial old answer cannot be byte-compared; the complete new one
    // stands on its own.
    if (old_complete && old_r.matches != new_r.matches) {
      ++report->verify_mismatches;
      return Abort("divergence: " + std::string(delta_.old_and_new) +
                   " disagree on '" + vq.relation + "'");
    }
  }

  // --- commit --------------------------------------------------------------
  Phase("commit");
  if (const char* trigger = AbortTrigger()) return Abort(trigger);
  std::vector<uint32_t> committed;
  for (uint32_t n : delta_.participants) {
    Status s = CommitStagedManifest(&cluster_->nodes_[n]->env,
                                    report->new_generation);
    if (!s.ok()) {
      // Fence the cutover back out: nodes that already flipped return to
      // the old generation, then the staged files are dropped everywhere.
      for (uint32_t j : committed) {
        (void)RollbackToGeneration(&cluster_->nodes_[j]->env,
                                   report->old_generation);
      }
      return Abort("commit failed on node " + std::to_string(n) + ": " +
                   s.ToString());
    }
    committed.push_back(n);
  }
  // The atomic cutover point for routing: new services, new placement,
  // new generation in one epoch swap. In-flight queries finish on the old
  // epoch; their sub-queries still carry the old generation fence and the
  // old services keep serving them until the last shared_ptr drops.
  cluster_->AdoptEpoch(staging_epoch.value());
  for (uint32_t n : delta_.participants) {
    GarbageCollectManifests(&cluster_->nodes_[n]->env, report->new_generation);
  }
  Phase("committed");
  report->committed = true;
  return Status::Ok();
}

Status Cluster::RunTransition(
    const TransitionOptions& options, TransitionReport* report,
    const std::function<Status(const Epoch& current, TransitionDelta* delta)>&
        plan) {
  GRIDDECL_RETURN_IF_ERROR(ClaimSlot());
  const SlotRelease release(&migrating_);
  abort_migration_.store(false);
  divergence_.store(false);
  // The NaN-safe form: a NaN rate fails every comparison.
  if (!(options.copy_bytes_per_sec >= 0.0 &&
        options.copy_device_bytes_per_sec >= 0.0 &&
        options.copy_contention_ms >= 0.0)) {
    return Status::InvalidArgument(
        "copy pacing rates and contention must be >= 0");
  }
  auto epoch = CurrentEpoch();
  report->old_generation = epoch->generation();
  TransitionDelta delta;
  Status status = plan(*epoch, &delta);
  if (status.ok() && !delta.participants.empty()) {
    status = StagedTransition(this, options, std::move(delta))
                 .Run(std::move(epoch), report);
  }
  SetStagingEpoch(nullptr);
  return status;
}

}  // namespace griddecl::cluster
