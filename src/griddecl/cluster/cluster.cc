#include "griddecl/cluster/cluster.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <limits>
#include <span>
#include <utility>

#include "griddecl/common/backoff.h"
#include "griddecl/common/hash.h"

namespace griddecl::cluster {

namespace {

/// Uniform double in [0, 1) from a hash of (seed, a, b).
double HashUnit(uint64_t seed, uint64_t a, uint64_t b) {
  const uint64_t h = Mix64(seed ^ Mix64(a ^ Mix64(b)));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Adaptive hedge delay: the node's sub-query p95 times kHedgeFactor,
/// floored at kHedgeMinMs (ClusterOptions::hedge_delay_ms < 0).
constexpr double kHedgeFactor = 3.0;
constexpr double kHedgeMinMs = 0.2;

/// Copies every file of `from` into `to`: how a node env is seeded from
/// the committed catalog or caught up from a live peer.
Status CopyAllFiles(const StorageEnv& from, StorageEnv* to) {
  auto files = from.ListFiles();
  if (!files.ok()) return files.status();
  for (const std::string& name : files.value()) {
    auto bytes = from.ReadFile(name);
    if (!bytes.ok()) return bytes.status();
    GRIDDECL_RETURN_IF_ERROR(to->WriteFile(name, bytes.value()));
  }
  return Status::Ok();
}

/// RouteIndex entry of a lost disk or an unused (node, copy) key.
constexpr uint32_t kNoKey = std::numeric_limits<uint32_t>::max();

/// The unread rest of one sorted run.
struct RunHead {
  const RecordId* next;
  const RecordId* end;
};

/// Sets `out` to the union of ascending, pairwise disjoint `runs`,
/// allocated once at its exact size. A linear min over the run heads picks
/// the run with the smallest head, which is copied up to the next smallest
/// head; there are at most as many runs as touched disks, one per route
/// unless a route failed over. `heads` is working space.
void MergeRuns(const std::vector<std::vector<RecordId>>& runs,
               std::vector<RunHead>* heads, std::vector<RecordId>* out) {
  size_t total = 0;
  heads->clear();
  for (const std::vector<RecordId>& run : runs) {
    if (run.empty()) continue;
    total += run.size();
    heads->push_back({run.data(), run.data() + run.size()});
  }
  out->resize(total);
  RecordId* dst = out->data();
  while (heads->size() > 1) {
    size_t min = 0;
    RecordId bound = std::numeric_limits<RecordId>::max();
    for (size_t h = 1; h < heads->size(); ++h) {
      const RecordId head = *(*heads)[h].next;
      if (head < *(*heads)[min].next) {
        bound = *(*heads)[min].next;
        min = h;
      } else {
        bound = std::min(bound, head);
      }
    }
    RunHead& run = (*heads)[min];
    do {
      *dst++ = *run.next++;
    } while (run.next != run.end && *run.next < bound);
    if (run.next == run.end) {
      run = heads->back();
      heads->pop_back();
    }
  }
  if (!heads->empty()) {
    std::copy(heads->front().next, heads->front().end, dst);
  }
}

/// An admitted sub-query's answer: the future of one queued on its node,
/// or the answer of one that ran on the coordinator's thread, which is in
/// from the start.
class Reply {
 public:
  Reply() = default;
  explicit Reply(std::future<serve::QueryResult> queued)
      : queued_(std::move(queued)) {}
  explicit Reply(serve::QueryResult answer)
      : answer_(std::move(answer)), ready_(true) {}

  bool valid() const { return ready_ || queued_.valid(); }
  /// Whether the answer is in within `wait`.
  template <typename Rep, typename Period>
  bool WaitFor(std::chrono::duration<Rep, Period> wait) const {
    return ready_ || queued_.wait_for(wait) == std::future_status::ready;
  }
  /// Takes the answer, blocking until it is in.
  serve::QueryResult Get() {
    if (!ready_) return queued_.get();
    ready_ = false;
    return std::move(answer_);
  }

 private:
  std::future<serve::QueryResult> queued_;
  serve::QueryResult answer_;
  bool ready_ = false;
};

}  // namespace

/// See ExecuteOnEpoch. O(M + nodes x copies) between queries: the
/// sub-answers in `runs` are freed when each query's merge is done.
struct Cluster::Scratch {
  std::vector<uint64_t> counts;
  std::vector<uint32_t> touched;
  std::vector<uint32_t> lost;
  RouteIndex index;
  /// The plan is a prefix; RouteDisks reuses the entries and disk lists.
  std::vector<Route> routes;
  std::vector<Reply> primaries;
  /// The routes whose primaries run on this thread, after the queued ones.
  std::vector<size_t> caller_routes;
  /// One ascending run per served sub-query, in the order they settled.
  std::vector<std::vector<RecordId>> runs;
  std::vector<RunHead> heads;
};

Result<std::unique_ptr<Cluster>> Cluster::Create(const StorageEnv& seed,
                                                 ClusterOptions options) {
  if (options.num_nodes == 0) {
    return Status::InvalidArgument("cluster needs at least one node");
  }
  // The NaN-safe form: a NaN fraction fails every comparison.
  if (!(options.quorum_fraction >= 0.0 && options.quorum_fraction < 1.0)) {
    return Status::InvalidArgument("quorum_fraction must be in [0, 1)");
  }
  GRIDDECL_RETURN_IF_ERROR(ValidateBreakerOptions(options.node_breaker));
  GRIDDECL_RETURN_IF_ERROR(ValidateHeartbeatOptions(options.heartbeat));
  if (options.retry_budget_per_query > (1u << 20) ||
      !(options.hedge_budget_fraction >= 0.0) ||
      !std::isfinite(options.hedge_delay_ms)) {
    return Status::InvalidArgument("budget or hedge delay out of domain");
  }

  // The one load of the committed generation every node service and the
  // first epoch share.
  auto loaded = serve::LoadGeneration(seed, 0);
  if (!loaded.ok()) return loaded.status();
  const CatalogManifest& manifest = loaded.value()->manifest;
  // Growth slots are preallocated, so they are capped like nodes.
  const uint32_t max_nodes = std::max(options.max_nodes, options.num_nodes);
  if (max_nodes > manifest.num_disks) {
    return Status::InvalidArgument(
        "more nodes than virtual disks: " + std::to_string(max_nodes) +
        " > " + std::to_string(manifest.num_disks));
  }

  // The first epoch's placement: the override verbatim, else the
  // manifest's persisted record, else chained over a flat topology.
  PlacementSpec spec;
  if (options.placement.has_value()) {
    spec = *options.placement;
  } else if (manifest.placement.has_value()) {
    auto from = FromManifestPlacement(*manifest.placement);
    if (!from.ok()) return from.status();
    spec = std::move(from).value();
  } else {
    spec.policy = PlacementPolicy::kChained;
    spec.topology = Topology::Flat(options.num_nodes);
    spec.seed = options.seed;
  }
  GRIDDECL_RETURN_IF_ERROR(spec.topology.Validate());
  if (spec.topology.num_nodes() != options.num_nodes) {
    return Status::InvalidArgument(
        "placement topology describes " +
        std::to_string(spec.topology.num_nodes()) + " nodes, cluster has " +
        std::to_string(options.num_nodes));
  }

  std::unique_ptr<Cluster> cluster(new Cluster());
  cluster->options_ = std::move(options);
  const ClusterOptions& opts = cluster->options_;

  // Preallocate every slot up to max_nodes so AddNode never reallocates
  // state concurrent Execute calls index into.
  cluster->heartbeat_ =
      std::make_unique<HeartbeatDetector>(opts.heartbeat, max_nodes);

  // Growth slots beyond num_nodes stay empty until AddNode materializes
  // them, and killed until then so no path ever routes to them.
  std::vector<std::shared_ptr<serve::QueryService>> services;
  for (uint32_t n = 0; n < max_nodes; ++n) {
    cluster->nodes_.push_back(std::make_unique<Node>());
    Node& node = *cluster->nodes_.back();
    if (n >= opts.num_nodes) {
      node.killed.store(true);
      continue;
    }
    auto service = cluster->JoinNode(n, seed, loaded.value());
    if (!service.ok()) return service.status();
    services.push_back(std::move(service).value());
    cluster->heartbeat_->Track(n);
  }
  cluster->active_nodes_.store(opts.num_nodes);

  cluster->node_breakers_ =
      std::make_unique<BreakerSet>(max_nodes, opts.node_breaker);
  for (uint32_t n = 0; n < max_nodes; ++n) {
    cluster->node_query_ms_.emplace_back(obs::DefaultLatencyBoundsMs());
  }

  auto epoch = BuildEpoch(loaded.value(), std::move(services), spec);
  if (!epoch.ok()) return epoch.status();
  cluster->epoch_ = std::move(epoch.value());

  // Self-colocation check: warn (loudly, once, at construction) about any
  // mirror relation whose placement puts two copies of some disk on one
  // node — the chained trap where a single node kill can take every
  // replica of a bucket down at once.
  for (const auto& [name, rel] : cluster->epoch_->relations()) {
    const uint32_t copies = rel->placement->num_replicas();
    if (copies < 2) continue;
    const std::vector<uint32_t> colocated =
        cluster->epoch_->placement.SelfColocatedDisks(copies);
    if (colocated.empty()) continue;
    std::string disks;
    for (uint32_t d : colocated) {
      if (!disks.empty()) disks += ",";
      disks += std::to_string(d);
    }
    std::string warning =
        "placement warning: relation '" + name + "' (" +
        PlacementPolicyName(cluster->epoch_->placement.policy()) +
        ", copies=" + std::to_string(copies) +
        ") co-locates copies of disk(s) " +
        disks + " on one node; a single node loss can drop those buckets";
    std::fprintf(stderr, "%s\n", warning.c_str());
    cluster->placement_warnings_.push_back(std::move(warning));
  }
  return cluster;
}

Cluster::~Cluster() = default;

Result<std::shared_ptr<const Cluster::Epoch>> Cluster::BuildEpoch(
    std::shared_ptr<const serve::LoadedGeneration> loaded,
    std::vector<std::shared_ptr<serve::QueryService>> services,
    const PlacementSpec& placement) {
  auto epoch = std::make_shared<Epoch>();
  epoch->loaded = std::move(loaded);
  uint32_t max_copies = 1;
  for (const auto& [name, rel] : epoch->relations()) {
    max_copies = std::max(max_copies, rel->placement->num_replicas());
  }
  auto map = PlacementMap::Build(placement, epoch->num_disks(), max_copies);
  if (!map.ok()) return map.status();
  epoch->placement = std::move(map).value();
  epoch->services = std::move(services);
  return std::shared_ptr<const Epoch>(std::move(epoch));
}

std::shared_ptr<const Cluster::Epoch> Cluster::CurrentEpoch() const {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  return epoch_;
}

std::shared_ptr<const Cluster::Epoch> Cluster::StagingEpoch() const {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  return staging_epoch_;
}

void Cluster::SetStagingEpoch(std::shared_ptr<const Epoch> epoch) {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  staging_epoch_ = std::move(epoch);
}

void Cluster::AdoptEpoch(std::shared_ptr<const Epoch> epoch) {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  epoch_ = std::move(epoch);
  staging_epoch_.reset();
}

uint32_t Cluster::num_disks() const { return CurrentEpoch()->num_disks(); }

uint64_t Cluster::generation() const { return CurrentEpoch()->generation(); }

std::vector<std::string> Cluster::RelationNames() const {
  auto epoch = CurrentEpoch();
  std::vector<std::string> names;
  names.reserve(epoch->relations().size());
  for (const auto& [name, rel] : epoch->relations()) {
    names.push_back(name);
  }
  return names;
}

BreakerState Cluster::NodeBreakerState(uint32_t node) const {
  return node_breakers_->StateOf(node);
}

bool Cluster::NodeAlive(uint32_t node) const {
  return node < num_nodes() && !nodes_[node]->killed.load() &&
         !nodes_[node]->removed.load();
}

Status Cluster::ClaimSlot() {
  if (migrating_.exchange(true)) {
    return Status::FailedPrecondition(
        "a migration, repair, node add or revival is already running");
  }
  return Status::Ok();
}

Result<std::shared_ptr<serve::QueryService>> Cluster::NodeService(
    uint32_t n, std::shared_ptr<const serve::LoadedGeneration> loaded,
    bool check_copy) {
  Node& nd = *nodes_[n];
  const CatalogManifest& m = loaded->manifest;
  for (size_t i = 0; check_copy && i < m.relations.size(); ++i) {
    const ManifestRelation& mr = m.relations[i];
    GRIDDECL_RETURN_IF_ERROR(CheckFileAgainstManifest(
        nd.env, m.DataFileName(i), mr.data_size, mr.data_crc));
  }
  if (nd.faulty == nullptr) {
    FaultyEnvOptions fo;
    fo.seed = options_.fault_seed + n;
    fo.transient_error_prob = options_.node_transient_prob;
    fo.max_transient_attempts = options_.node_max_transient_attempts;
    fo.latency_ms =
        n < options_.node_latency_ms.size() ? options_.node_latency_ms[n] : 0.0;
    auto faulty = FaultyEnv::Create(&nd.env, std::move(fo));
    if (!faulty.ok()) return faulty.status();
    nd.faulty = std::move(faulty).value();
  }
  serve::ServeOptions so = options_.node;
  so.seed += n;
  auto service =
      serve::QueryService::Create(nd.faulty.get(), so, std::move(loaded));
  if (!service.ok()) return service.status();
  return std::shared_ptr<serve::QueryService>(std::move(service).value());
}

Result<std::shared_ptr<serve::QueryService>> Cluster::JoinNode(
    uint32_t n, const StorageEnv& source,
    std::shared_ptr<const serve::LoadedGeneration> loaded) {
  GRIDDECL_RETURN_IF_ERROR(CopyAllFiles(source, &nodes_[n]->env));
  return NodeService(n, std::move(loaded), /*check_copy=*/true);
}

Status Cluster::CatchUpNode(uint32_t n, std::optional<Topology> grown) {
  const auto epoch = CurrentEpoch();
  // A node the epoch holds a service for has its env at the epoch's
  // generation (see Epoch::services).
  uint32_t peer = 0;
  while (peer < epoch->services.size() &&
         (peer == n || epoch->services[peer] == nullptr || !NodeAlive(peer))) {
    ++peer;
  }
  if (peer == epoch->services.size()) {
    return Status::Unavailable(
        "no live peer at the committed generation to catch node " +
        std::to_string(n) + " up");
  }
  auto service = JoinNode(n, nodes_[peer]->env, epoch->loaded);
  if (!service.ok()) return service.status();
  // The slot keeps every other epoch change out, so `epoch` is still
  // current.
  auto fresh = std::make_shared<Epoch>(*epoch);
  if (n == fresh->services.size()) fresh->services.emplace_back();
  fresh->services[n] = std::move(service).value();
  if (grown.has_value()) {
    fresh->placement = fresh->placement.WithTopology(std::move(*grown));
  }
  AdoptEpoch(std::move(fresh));
  return Status::Ok();
}

void Cluster::ObserveNodeLatency(uint32_t node, double ms) {
  std::lock_guard<std::mutex> lock(metrics_mu_);
  node_query_ms_[node].Observe(ms);
}

double Cluster::HedgeDelayMs(uint32_t node, uint64_t seq) const {
  double base = options_.hedge_delay_ms;
  if (base < 0.0) {
    double p95 = 0.0;
    {
      std::lock_guard<std::mutex> lock(metrics_mu_);
      const obs::Histogram& h = node_query_ms_[node];
      if (h.count() >= 8) p95 = h.Percentile(95);
    }
    base = std::max(kHedgeMinMs, p95 * kHedgeFactor);
  }
  // Up to 25% seeded jitter decorrelates hedges across concurrent queries.
  return base * (1.0 + 0.25 * HashUnit(options_.seed, node, seq));
}

Status Cluster::AdvanceTimeMs(double now_ms) {
  std::lock_guard<std::mutex> lock(hb_mu_);
  const double current = virtual_now_ms_.load();
  if (!(now_ms >= current)) {  // Also refuses NaN.
    char message[128];
    std::snprintf(message, sizeof(message),
                  "virtual time only moves forward: %g ms is before %g ms",
                  now_ms, current);
    return Status::InvalidArgument(message);
  }
  virtual_now_ms_.store(now_ms);
  // Drive the failure detector over every heartbeat tick in the advanced
  // span. The probe answers iff the node is alive now — a pure function of
  // the kill, revive and AdvanceTimeMs calls, so detector verdicts are
  // deterministic and replayable.
  heartbeat_->AdvanceTo(now_ms,
                        [this](uint32_t n, double) { return NodeAlive(n); });
  return Status::Ok();
}

std::vector<uint32_t> Cluster::DeadNodesForRepair() const {
  std::vector<uint32_t> dead;
  {
    std::lock_guard<std::mutex> lock(hb_mu_);
    dead = heartbeat_->DeadNodes();
  }
  const uint32_t active = num_nodes();
  for (uint32_t n = 0; n < active; ++n) {
    if (nodes_[n]->removed.load() &&
        std::find(dead.begin(), dead.end(), n) == dead.end()) {
      dead.push_back(n);
    }
  }
  std::sort(dead.begin(), dead.end());
  dead.erase(std::remove_if(dead.begin(), dead.end(),
                            [this](uint32_t n) { return n >= num_nodes(); }),
             dead.end());
  return dead;
}

double Cluster::NodeDeadSinceMs(uint32_t node) const {
  std::lock_guard<std::mutex> lock(hb_mu_);
  return heartbeat_->DeadSinceMs(node);
}

NodeHealth Cluster::NodeHealthOf(uint32_t node) const {
  if (node >= num_nodes()) return NodeHealth::kRemoved;
  if (nodes_[node]->removed.load()) return NodeHealth::kRemoved;
  std::lock_guard<std::mutex> lock(hb_mu_);
  return heartbeat_->HealthOf(node);
}

HeartbeatDetector::Counters Cluster::HeartbeatCounters() const {
  std::lock_guard<std::mutex> lock(hb_mu_);
  return heartbeat_->counters();
}

PlacementSpec Cluster::placement_spec() const {
  return CurrentEpoch()->placement.spec();
}

bool Cluster::AdmitExtraSub(bool is_hedge) {
  if (options_.hedge_budget_fraction <= 0.0) return true;
  const uint64_t extra = extra_subs_.fetch_add(1) + 1;
  const double cap = options_.hedge_budget_fraction *
                     static_cast<double>(primary_subs_.load());
  if (static_cast<double>(extra) > cap) {
    extra_subs_.fetch_sub(1);
    if (is_hedge) {
      hedge_budget_denied_.fetch_add(1);
    } else {
      retry_budget_denied_.fetch_add(1);
    }
    return false;
  }
  return true;
}

Status Cluster::KillNode(uint32_t node) {
  if (node >= num_nodes()) {
    return Status::InvalidArgument("no node " + std::to_string(node));
  }
  nodes_[node]->killed.store(true);
  return Status::Ok();
}

Status Cluster::ReviveNode(uint32_t node) {
  if (node >= num_nodes()) {
    return Status::InvalidArgument("no node " + std::to_string(node));
  }
  Node& nd = *nodes_[node];
  if (nd.removed.load()) {
    return Status::FailedPrecondition("node " + std::to_string(node) +
                                      " was decommissioned");
  }
  GRIDDECL_RETURN_IF_ERROR(ClaimSlot());
  const SlotRelease release(&migrating_);
  // Catch-up fence: a node the epoch holds no service for missed a commit
  // while it was down, so its env can lack the served generation entirely.
  // Never readmit a stale route.
  if (CurrentEpoch()->services[node] == nullptr) {
    const Status caught_up = CatchUpNode(node, std::nullopt);
    std::lock_guard<std::mutex> lock(metrics_mu_);
    ++(caught_up.ok() ? revive_catchups_ : revive_fenced_);
    if (!caught_up.ok()) return caught_up;
  }
  nd.killed.store(false);
  {
    std::lock_guard<std::mutex> lock(hb_mu_);
    heartbeat_->Reset(node);
  }
  return Status::Ok();
}

Status Cluster::KillZone(uint32_t zone) {
  return ForEachNodeInZone(zone, [this](uint32_t n) { return KillNode(n); });
}

Status Cluster::ReviveZone(uint32_t zone) {
  return ForEachNodeInZone(zone,
                           [this](uint32_t n) { return ReviveNode(n); });
}

Status Cluster::ForEachNodeInZone(
    uint32_t zone, const std::function<Status(uint32_t)>& fn) {
  const auto epoch = CurrentEpoch();
  const Topology& topology = epoch->placement.spec().topology;
  if (zone >= topology.num_zones()) {
    return Status::InvalidArgument("no zone " + std::to_string(zone));
  }
  for (uint32_t n = 0; n < num_nodes(); ++n) {
    if (topology.zone_of(n) == zone) GRIDDECL_RETURN_IF_ERROR(fn(n));
  }
  return Status::Ok();
}

Result<uint32_t> Cluster::AddNode(uint32_t rack, uint32_t zone) {
  // Hold the slot from the first check to the publish: a transition
  // running now would cut over to an epoch planned without the node.
  GRIDDECL_RETURN_IF_ERROR(ClaimSlot());
  const SlotRelease release(&migrating_);
  const uint32_t id = active_nodes_.load();
  if (id >= nodes_.size()) {
    return Status::FailedPrecondition(
        "cluster is at max_nodes (" + std::to_string(nodes_.size()) +
        "); create with a larger ClusterOptions::max_nodes to grow");
  }
  Topology topo = CurrentEpoch()->placement.spec().topology;
  if (rack > topo.num_racks()) {
    return Status::InvalidArgument(
        "rack " + std::to_string(rack) + " out of range (have " +
        std::to_string(topo.num_racks()) + " racks; == appends)");
  }
  if (rack == topo.num_racks()) {
    if (zone > topo.num_zones()) {
      return Status::InvalidArgument(
          "zone " + std::to_string(zone) + " out of range (have " +
          std::to_string(topo.num_zones()) + " zones; == opens a new one)");
    }
    topo.rack_zone.push_back(zone);
  } else if (zone != topo.rack_zone[rack]) {
    return Status::InvalidArgument(
        "rack " + std::to_string(rack) + " is in zone " +
        std::to_string(topo.rack_zone[rack]) + ", not " +
        std::to_string(zone));
  }
  topo.node_rack.push_back(rack);
  GRIDDECL_RETURN_IF_ERROR(topo.Validate());

  // Publish the epoch with the grown topology first, then the node
  // (release on active_nodes_ so any reader that sees the new count sees a
  // fully built slot). The node table is untouched — the new node takes
  // traffic only after the next Repair / Migrate re-places.
  GRIDDECL_RETURN_IF_ERROR(CatchUpNode(id, std::move(topo)));
  Node& nd = *nodes_[id];
  nd.killed.store(false);
  nd.removed.store(false);
  active_nodes_.store(id + 1);
  {
    std::lock_guard<std::mutex> hlock(hb_mu_);
    heartbeat_->Track(id);
  }
  {
    std::lock_guard<std::mutex> mlock(metrics_mu_);
    ++nodes_added_;
  }
  return id;
}

Status Cluster::RemoveNode(uint32_t node) {
  if (node >= num_nodes()) {
    return Status::InvalidArgument("no node " + std::to_string(node));
  }
  Node& nd = *nodes_[node];
  if (nd.removed.exchange(true)) {
    return Status::FailedPrecondition("node " + std::to_string(node) +
                                      " already removed");
  }
  nd.killed.store(true);
  removed_count_.fetch_add(1);
  {
    std::lock_guard<std::mutex> lock(hb_mu_);
    heartbeat_->MarkRemoved(node);
  }
  {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    ++nodes_removed_;
  }
  return Status::Ok();
}

ClusterQueryResult Cluster::Execute(const serve::QueryRequest& request) {
  const double t0 = MonotonicNowMs();
  auto epoch = CurrentEpoch();
  ClusterQueryResult result =
      ExecuteOnEpoch(*epoch, request, /*allow_hedge=*/options_.hedging);

  // Live double-read while a migration's staging epoch is installed: run
  // every complete query against the new layout too and compare bytes. A
  // mismatch is divergence — flagged here, acted on by the migrator.
  auto staging = StagingEpoch();
  if (staging != nullptr && result.status.ok() && result.complete) {
    ClusterQueryResult shadow =
        ExecuteOnEpoch(*staging, request, /*allow_hedge=*/false);
    bool mismatch = false;
    if (shadow.status.ok() && shadow.complete &&
        shadow.matches != result.matches) {
      mismatch = true;
      divergence_.store(true);
    }
    std::lock_guard<std::mutex> lock(metrics_mu_);
    ++verify_reads_;
    if (mismatch) ++verify_mismatches_;
  }

  result.total_ms = MonotonicNowMs() - t0;
  {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    ++queries_;
    if (!result.status.ok()) {
      ++failed_;
    } else if (result.complete) {
      ++complete_;
    } else {
      ++partial_;
    }
    sub_queries_ += result.sub_queries;
    sub_queries_on_caller_ += result.sub_queries_on_caller;
    hedges_fired_ += result.hedges_fired;
    hedge_wins_ += result.hedge_wins;
    hedges_cancelled_ += result.hedges_cancelled;
    rerouted_subqueries_ += result.rerouted_subqueries;
    unavailable_buckets_ += result.unavailable_buckets;
    query_ms_.Observe(result.total_ms);
  }
  return result;
}

ClusterQueryResult Cluster::ExecuteOnEpoch(const Epoch& epoch,
                                           const serve::QueryRequest& request,
                                           bool allow_hedge) {
  ClusterQueryResult result;
  result.generation = epoch.generation();

  // Quorum gate: with a majority (per quorum_fraction) of nodes down, a
  // "partial" result would be mostly holes — refuse loudly instead.
  // Decommissioned nodes leave the denominator: a shrunk cluster is not
  // permanently degraded.
  const uint32_t active = num_nodes();
  const uint32_t members = active - std::min(active, removed_count_.load());
  uint32_t alive = 0;
  for (uint32_t n = 0; n < active; ++n) {
    if (NodeAlive(n)) ++alive;
  }
  const uint32_t needed =
      static_cast<uint32_t>(std::floor(members * options_.quorum_fraction)) +
      1;
  if (alive < needed) {
    result.status = Status::Unavailable(
        "quorum lost: " + std::to_string(alive) + " of " +
        std::to_string(members) + " nodes alive, need " +
        std::to_string(needed));
    result.complete = false;
    result.availability = 0.0;
    std::lock_guard<std::mutex> lock(metrics_mu_);
    ++quorum_rejections_;
    return result;
  }

  auto it = epoch.relations().find(request.relation);
  if (it == epoch.relations().end()) {
    result.status = Status::NotFound("no relation " + request.relation);
    result.complete = false;
    return result;
  }
  const serve::Relation& rel = *it->second;
  const uint32_t copies = rel.placement->num_replicas();

  auto rq = ResolveRange(rel.header.partitioner, request.lo, request.hi);
  if (!rq.ok()) {
    result.status = rq.status();
    result.complete = false;
    return result;
  }
  result.buckets_touched = rq.value().NumBuckets();

  // One scratch per calling thread: ExecuteOnEpoch never re-enters itself
  // on a thread (the staging double-read runs after the live read has
  // returned), so concurrent callers never share one.
  thread_local Scratch scratch;
  std::vector<uint64_t>& counts = scratch.counts;
  rel.disk_map->CountsForRect(rq.value().rect(), counts);

  // Plan: one route per (node, copy), each disk placed by the per-disk
  // rule (RouteDisks). Disks with no usable holder lose their buckets —
  // parity repairs a disk *within* a node, not a whole node.
  std::vector<uint32_t>& touched = scratch.touched;
  touched.clear();
  for (uint32_t d = 0; d < epoch.num_disks(); ++d) {
    if (counts[d] > 0) touched.push_back(d);
  }
  std::vector<uint32_t>& lost = scratch.lost;
  lost.clear();
  // RouteDisks may reallocate scratch.routes, so take data() only after it
  // has returned.
  const size_t num_routes =
      RouteDisks(epoch, copies, touched, counts, /*tried=*/{},
                 &scratch.index, &scratch.routes, &lost);
  const std::span<const Route> routes(scratch.routes.data(), num_routes);
  for (uint32_t d : lost) {
    result.unavailable_buckets += counts[d];
    result.winners.push_back('u');
  }

  // Where a sub-query runs: on this thread when its node's reads cannot
  // wait (no injected latency, contention or faults), since a worker would
  // add only a thread hop; else queued on the node, so device waits
  // overlap and a hedge can race it. Asked per sub-query: the contention
  // latency moves while a transition copies.
  const auto runs_on_caller = [&](uint32_t node) {
    const FaultyEnv* env = nodes_[node]->faulty.get();
    return env != nullptr && !env->ReadsCanWait();
  };
  // A sub-query reads exactly the (disk, copy) pairs it names; the node
  // never moves a read to another copy itself. One run on this thread
  // borrows the request, so nothing is copied.
  auto submit = [&](uint32_t node, uint32_t copy,
                    const std::vector<uint32_t>& disks,
                    bool on_caller) -> Result<Reply> {
    // A repair epoch carries null services for the nodes it planned
    // around; planning avoids them, but guard the submit.
    if (epoch.services[node] == nullptr || !node_breakers_->Admit(node)) {
      return Status::Unavailable("no service on node, or its breaker is open");
    }
    serve::QueryService& service = *epoch.services[node];
    if (on_caller) {
      auto answer = service.ExecuteOnCaller(
          request, serve::SubQuery{disks, copy, epoch.generation()});
      if (!answer.ok()) return answer.status();
      ++result.sub_queries;
      ++result.sub_queries_on_caller;
      return Reply(std::move(answer).value());
    }
    serve::QueryRequest req = request;
    req.disks = disks;
    req.serve_copy = copy;
    req.expected_generation = epoch.generation();
    auto f = service.Submit(std::move(req));
    if (!f.ok()) return f.status();
    ++result.sub_queries;
    return Reply(std::move(f).value());
  };

  // Scatter every primary up front: queue those of nodes that can wait
  // first, so they run while this thread serves the rest itself. Routes
  // whose breaker admission or submit fails (no valid reply) fall to the
  // failover path below.
  std::vector<Reply>& primaries = scratch.primaries;
  primaries.resize(routes.size());
  const auto scatter = [&](size_t i, bool on_caller) {
    auto submitted =
        submit(routes[i].node, routes[i].copy, routes[i].disks, on_caller);
    if (submitted.ok()) {
      primaries[i] = std::move(submitted).value();
      primary_subs_.fetch_add(1);
    }
  };
  std::vector<size_t>& caller_routes = scratch.caller_routes;
  caller_routes.clear();
  for (size_t i = 0; i < routes.size(); ++i) {
    if (runs_on_caller(routes[i].node)) {
      caller_routes.push_back(i);
    } else {
      scatter(i, /*on_caller=*/false);
    }
    if (routes[i].copy != 0) ++result.rerouted_subqueries;
  }
  for (size_t i : caller_routes) scatter(i, /*on_caller=*/true);

  // Gather in deterministic route order. Every served sub-answer becomes
  // one ascending run; a route that fails over, or whose hedge wins, may
  // add several.
  std::vector<std::vector<RecordId>>& runs = scratch.runs;
  const uint64_t seq = query_seq_.fetch_add(1);
  uint32_t retries_used = 0;
  for (size_t i = 0; i < routes.size(); ++i) {
    const Route& route = routes[i];
    Reply& primary = primaries[i];
    const bool submitted = primary.valid();
    // The hedge target is the route's fallback when that is one
    // sub-query. A failover with no failed hedge behind it goes to the
    // same place, so "served by the first fallback" has one winner letter
    // ('h') whether the attempt launched before or after the primary
    // failed — that keeps winners schedule-deterministic under
    // kPrimaryPreferred. A primary whose answer is in already, as one that
    // ran on this thread always is, never hedges, so it needs no target.
    std::optional<Holder> alt;
    if (submitted && allow_hedge && route.copy == 0 &&
        !primary.WaitFor(std::chrono::seconds(0))) {
      alt = OneHolderFallback(epoch, copies, route);
    }

    char winner = 0;
    Reply hedge;
    bool hedge_fired = false;
    bool hedge_failed = false;

    // One observed completion on `node`: feeds its breaker and latency
    // stats and, on success, keeps the matches as a run. Returns whether
    // it served the sub-query.
    auto settle = [&](uint32_t node, serve::QueryResult r) {
      node_breakers_->Record(node, r.status.ok());
      ObserveNodeLatency(node, r.total_ms);
      if (!r.status.ok()) return false;
      runs.push_back(std::move(r.matches));
      return true;
    };
    // Consumes the hedge, blocking until it completes.
    auto settle_hedge = [&] {
      if (settle(alt->node, hedge.Get())) {
        ++result.hedge_wins;
        winner = 'h';
      } else {
        hedge_failed = true;
      }
    };

    if (submitted) {
      if (alt.has_value()) {
        const auto wait = std::chrono::duration<double, std::milli>(
            HedgeDelayMs(route.node, seq));
        if (!primary.WaitFor(wait) && AdmitExtraSub(/*is_hedge=*/true)) {
          auto h = submit(alt->node, alt->copy, route.disks,
                          runs_on_caller(alt->node));
          if (h.ok()) {
            hedge = std::move(h).value();
            hedge_fired = true;
            ++result.hedges_fired;
          }
        }
      }
      if (options_.hedge_policy == HedgePolicy::kFirstSuccess && hedge_fired) {
        // Race primary vs hedge; the first success wins and the loser's
        // future is dropped unread (cooperative cancel: never merged,
        // never fed to the breakers).
        bool primary_done = false;
        bool hedge_done = false;
        const auto slice = std::chrono::microseconds(50);
        while (winner == 0 && !(primary_done && hedge_done)) {
          if (!primary_done && primary.WaitFor(slice)) {
            primary_done = true;
            if (settle(route.node, primary.Get())) {
              if (!hedge_done) ++result.hedges_cancelled;
              winner = 'p';
              break;
            }
          }
          // Poll the hedge; once the primary has failed, block on it.
          if (!hedge_done &&
              (primary_done || hedge.WaitFor(std::chrono::seconds(0)))) {
            hedge_done = true;
            settle_hedge();
          }
        }
      } else if (settle(route.node, primary.Get())) {
        // kPrimaryPreferred (or no hedge in flight): the primary's result
        // is authoritative whenever it succeeds, so winner selection is a
        // pure function of the fault schedule.
        if (hedge_fired) ++result.hedges_cancelled;
        winner = 'p';
      } else if (hedge_fired) {
        settle_hedge();
      }
    }
    if (winner != 0) {
      result.winners.push_back(winner);
      continue;
    }

    // Failover: the primary (and any hedge) failed or was never
    // submitted. Serve the fallback of the last sub-query that failed the
    // whole route; a fallback sub-query that fails is replaced by its own
    // fallback. Each resubmit is charged to the retry budgets (a
    // per-query cap, then the cluster-wide extra-sub-query budget; both
    // default off).
    bool deeper = hedge_failed;
    uint64_t unserved = 0;
    std::vector<Route> attempts;
    const auto expand = [&](const Route& failed) {
      std::vector<uint32_t> lost_disks;
      for (Route& sub : Fallback(epoch, copies, failed, counts,
                                 &scratch.index, &lost_disks)) {
        attempts.push_back(std::move(sub));
      }
      for (uint32_t d : lost_disks) unserved += counts[d];
    };
    if (hedge_failed) {
      // The hedge was the route's one-holder fallback, and it failed too.
      Route hedged{alt->node, alt->copy, route.disks, route.buckets,
                   route.tried};
      hedged.tried.push_back(route.node);
      expand(hedged);
    } else {
      expand(route);
    }
    for (size_t a = 0; a < attempts.size(); ++a) {
      const Route sub = std::move(attempts[a]);
      const bool capped = options_.retry_budget_per_query > 0 &&
                          retries_used >= options_.retry_budget_per_query;
      if (capped) retry_budget_denied_.fetch_add(1);
      if (capped || !AdmitExtraSub(/*is_hedge=*/false)) {
        unserved += sub.buckets;
        continue;
      }
      ++retries_used;
      auto f =
          submit(sub.node, sub.copy, sub.disks, runs_on_caller(sub.node));
      if (f.ok() && settle(sub.node, f.value().Get())) {
        ++result.rerouted_subqueries;
        continue;
      }
      deeper = true;
      expand(sub);
    }
    result.unavailable_buckets += unserved;
    result.winners.push_back(unserved > 0 ? 'u' : deeper ? 'r' : 'h');
  }
  // Drop the losers' replies now, not at this thread's next query.
  primaries.clear();

  if (result.buckets_touched > 0) {
    result.availability =
        1.0 - static_cast<double>(result.unavailable_buckets) /
                  static_cast<double>(result.buckets_touched);
  }
  result.complete = result.unavailable_buckets == 0;
  if (!result.complete &&
      result.unavailable_buckets == result.buckets_touched &&
      result.buckets_touched > 0) {
    result.status = Status::Unavailable("no live route to any touched bucket");
    result.availability = 0.0;
  } else {
    result.status = Status::Ok();
    MergeRuns(runs, &scratch.heads, &result.matches);
  }
  runs.clear();
  return result;
}

bool Cluster::NodeUsable(uint32_t node,
                         const std::vector<uint32_t>& tried) const {
  return std::find(tried.begin(), tried.end(), node) == tried.end() &&
         NodeAlive(node) && !node_breakers_->WouldRefuse(node);
}

size_t Cluster::RouteDisks(const Epoch& epoch, uint32_t copies,
                           const std::vector<uint32_t>& disks,
                           const std::vector<uint64_t>& counts,
                           const std::vector<uint32_t>& tried,
                           RouteIndex* index, std::vector<Route>* routes,
                           std::vector<uint32_t>* lost) const {
  // Key each disk by the (node, copy) that serves it, then number the
  // used keys in (node, copy) order.
  std::vector<uint32_t>& disk_key = index->disk_key;
  std::vector<uint32_t>& key_route = index->key_route;
  disk_key.resize(disks.size());
  key_route.assign(nodes_.size() * copies, kNoKey);
  for (size_t i = 0; i < disks.size(); ++i) {
    const uint32_t d = disks[i];
    uint32_t copy = 0;
    while (copy < copies &&
           !NodeUsable(epoch.placement.NodeOf(d, copy), tried)) {
      ++copy;
    }
    if (copy == copies) {
      lost->push_back(d);
      disk_key[i] = kNoKey;
      continue;
    }
    disk_key[i] = epoch.placement.NodeOf(d, copy) * copies + copy;
    key_route[disk_key[i]] = 0;
  }
  uint32_t num_routes = 0;
  for (uint32_t key = 0; key < key_route.size(); ++key) {
    if (key_route[key] == kNoKey) continue;
    key_route[key] = num_routes++;
    if (routes->size() < num_routes) routes->resize(num_routes);
    Route& r = (*routes)[num_routes - 1];
    r.node = key / copies;
    r.copy = key % copies;
    r.disks.clear();
    r.buckets = 0;
    r.tried = tried;
  }
  for (size_t i = 0; i < disks.size(); ++i) {
    if (disk_key[i] == kNoKey) continue;
    Route& r = (*routes)[key_route[disk_key[i]]];
    r.disks.push_back(disks[i]);
    r.buckets += counts[disks[i]];
  }
  return num_routes;
}

std::optional<Cluster::Holder> Cluster::OneHolderFallback(
    const Epoch& epoch, uint32_t copies, const Route& failed) const {
  for (uint32_t c = 0; c < copies; ++c) {
    const uint32_t node = epoch.placement.NodeOf(failed.disks.front(), c);
    if (node == failed.node) continue;  // Tried: it just failed.
    const bool one_holder = std::all_of(
        failed.disks.begin(), failed.disks.end(),
        [&](uint32_t d) { return epoch.placement.NodeOf(d, c) == node; });
    if (one_holder && NodeUsable(node, failed.tried)) return Holder{node, c};
  }
  return std::nullopt;
}

std::vector<Cluster::Route> Cluster::Fallback(
    const Epoch& epoch, uint32_t copies, const Route& failed,
    const std::vector<uint64_t>& counts, RouteIndex* index,
    std::vector<uint32_t>* lost) const {
  std::vector<uint32_t> tried = failed.tried;
  tried.push_back(failed.node);
  if (const std::optional<Holder> one =
          OneHolderFallback(epoch, copies, failed)) {
    return {Route{one->node, one->copy, failed.disks, failed.buckets,
                  std::move(tried)}};
  }
  std::vector<Route> routes;
  routes.resize(
      RouteDisks(epoch, copies, failed.disks, counts, tried, index, &routes,
                 lost));
  return routes;
}

void Cluster::SnapshotMetrics(obs::MetricsRegistry* out) const {
  if (out == nullptr) return;
  const auto set = [out](const std::string& name, uint64_t v) {
    obs::Counter* c = out->GetCounter(name);
    c->Reset();
    c->Inc(v);
  };
  obs::MetricsRegistry node_serve;
  // Hold the epoch: a concurrent cutover may swap epoch_ mid-loop.
  const auto epoch = CurrentEpoch();
  for (const auto& service : epoch->services) {
    if (service == nullptr) continue;
    obs::MetricsRegistry one;
    service->SnapshotMetrics(&one);
    node_serve.Merge(one);
  }
  for (const char* name : serve::kServeCounterNames) {
    set(std::string("cluster.node_serve.") + name,
        node_serve.GetCounter(std::string("serve.") + name)->value());
  }

  std::lock_guard<std::mutex> lock(metrics_mu_);
  set("cluster.queries", queries_);
  set("cluster.complete", complete_);
  set("cluster.partial", partial_);
  set("cluster.failed", failed_);
  set("cluster.sub_queries", sub_queries_);
  set("cluster.sub_queries_on_caller", sub_queries_on_caller_);
  set("cluster.hedges_fired", hedges_fired_);
  set("cluster.hedge_wins", hedge_wins_);
  set("cluster.hedges_cancelled", hedges_cancelled_);
  set("cluster.rerouted_subqueries", rerouted_subqueries_);
  set("cluster.unavailable_buckets", unavailable_buckets_);
  set("cluster.quorum_rejections", quorum_rejections_);
  set("cluster.verify_reads", verify_reads_);
  set("cluster.verify_mismatches", verify_mismatches_);
  set("cluster.migrations_committed", migrations_committed_);
  set("cluster.migrations_aborted", migrations_aborted_);
  set("cluster.migration_buckets_copied", migration_buckets_copied_);
  set("cluster.repairs_committed", repairs_committed_);
  set("cluster.repairs_aborted", repairs_aborted_);
  set("cluster.repair_replicas_rebuilt", repair_replicas_rebuilt_);
  set("cluster.repair_bytes_copied", repair_bytes_copied_);
  set("cluster.revive_catchups", revive_catchups_);
  set("cluster.revive_fenced", revive_fenced_);
  set("cluster.nodes_added", nodes_added_);
  set("cluster.nodes_removed", nodes_removed_);
  set("cluster.hedge_budget_denied", hedge_budget_denied_.load());
  set("cluster.retry_budget_denied", retry_budget_denied_.load());
  {
    HeartbeatDetector::Counters hb;
    {
      std::lock_guard<std::mutex> hlock(hb_mu_);
      hb = heartbeat_->counters();
    }
    set("cluster.heartbeat.beats", hb.beats);
    set("cluster.heartbeat.missed", hb.missed);
    set("cluster.heartbeat.suspected", hb.suspected);
    set("cluster.heartbeat.died", hb.died);
    set("cluster.heartbeat.recovered", hb.recovered);
  }
  obs::Histogram* h = out->GetHistogram("cluster.query_ms", query_ms_.bounds());
  h->Reset();
  h->Merge(query_ms_);

  const BreakerCounters totals = node_breakers_->Totals();
  set("cluster.node_breaker.opened", totals.opened);
  set("cluster.node_breaker.half_opened", totals.half_opened);
  set("cluster.node_breaker.closed", totals.closed);
  set("cluster.node_breaker.reopened", totals.reopened);
}

}  // namespace griddecl::cluster
