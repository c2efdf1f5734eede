/// Ablation A17 (ours): self-healing repair. Eight disks over four nodes
/// in two 2-node zones, zone_aware placement at copies=2 — the layout
/// where one node loss leaves every bucket readable but redundancy
/// degraded. The bench prices the full heal cycle (heartbeat-detected
/// death -> plan -> paced copy -> verify -> fenced cutover) and pins the
/// A17 acceptance pair as deterministic counters: after losing one node
/// AND a different whole zone, the repaired cluster still answers every
/// query (availability 1.000) while the unrepaired control loses buckets.
/// Timing stats cover the concurrent-query p99 during a live repair: a
/// paced copy stays within 3x of the healthy tail while an unpaced copy's
/// device contention blows past it, plus the (virtual-clock) MTTR.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "griddecl/cluster/cluster.h"
#include "griddecl/cluster/repair.h"

namespace griddecl {
namespace {

constexpr uint32_t kGridSide = 16;
constexpr uint32_t kNumDisks = 8;
constexpr uint32_t kNumNodes = 4;
constexpr uint32_t kNumRacks = 2;
constexpr uint32_t kNumZones = 2;
constexpr uint32_t kCopies = 2;
constexpr uint32_t kRecordsPerBucket = 8;
constexpr int kNumQueries = 256;
constexpr uint32_t kDeadNode = 0;
constexpr uint32_t kDeadZone = 1;  // The *other* zone: node 0 is in zone 0.
constexpr uint64_t kPlacementSeed = 7;

/// Heartbeat: 10 ms beats, dead after 4 misses (t = 40); repairs launch at
/// t = 60, so the deterministic detection-to-commit MTTR is 20 virtual ms.
constexpr double kDetectAdvanceMs = 60.0;

/// Repair pacing knobs. A node loss rebuilds ~1/4 of the replica entries,
/// so at 32 KB/s the staged copy lasts long enough for the concurrent
/// query loop to collect a real tail.
constexpr double kCopyBudgetBytesPerSec = 32.0 * 1024.0;
constexpr double kContentionMs = 2.0;
constexpr double kBaseReadLatencyMs = 0.05;

cluster::PlacementSpec ZoneAwareSpec() {
  cluster::PlacementSpec spec;
  spec.policy = cluster::PlacementPolicy::kZoneAware;
  spec.topology =
      cluster::Topology::Grid(kNumNodes, kNumRacks, kNumZones).value();
  spec.seed = kPlacementSeed;
  return spec;
}

/// Bucket-clustered data: 168-byte v3 pages hold exactly the 8 records
/// inserted per bucket, so node and zone kills map to whole pages.
GridFile MakeClusteredFile(uint64_t seed) {
  Schema schema = Schema::Create({{"x", 0.0, 1.0}, {"y", 0.0, 1.0}}).value();
  GridFile f =
      GridFile::Create(std::move(schema), {kGridSide, kGridSide}).value();
  const GridSpec grid = f.grid();
  Rng rng(seed);
  for (uint64_t b = 0; b < grid.num_buckets(); ++b) {
    const BucketCoords c = grid.Delinearize(b);
    for (uint32_t k = 0; k < kRecordsPerBucket; ++k) {
      const std::vector<double> point = {(c[0] + rng.NextDouble()) / kGridSide,
                                         (c[1] + rng.NextDouble()) / kGridSide};
      GRIDDECL_CHECK(f.Insert(point).ok());
    }
  }
  return f;
}

MemEnv MakeClusterEnv() {
  Catalog catalog(kNumDisks);
  GRIDDECL_CHECK(
      catalog
          .AddRelation("dm", DeclusteredFile::Create(MakeClusteredFile(1),
                                                     "dm", kNumDisks)
                                 .value())
          .ok());
  MemEnv env;
  ManifestSaveOptions options;
  options.page_size_bytes = 168;
  options.default_redundancy.policy = RelationRedundancy::Policy::kMirror;
  options.default_redundancy.copies = kCopies;
  options.placement = cluster::ToManifestPlacement(ZoneAwareSpec());
  GRIDDECL_CHECK(SaveCatalogManifest(catalog, &env, options).ok());
  return env;
}

std::vector<serve::QueryRequest> MakeWorkload(uint64_t seed, int count) {
  std::vector<serve::QueryRequest> queries;
  Rng rng(seed);
  for (int q = 0; q < count; ++q) {
    serve::QueryRequest req;
    req.relation = "dm";
    req.lo.resize(2);
    req.hi.resize(2);
    for (int d = 0; d < 2; ++d) {
      const double a = rng.NextDouble();
      const double b = rng.NextDouble();
      req.lo[d] = std::min(a, b);
      req.hi[d] = std::max(a, b);
    }
    queries.push_back(std::move(req));
  }
  return queries;
}

/// After the acceptance kills a single node survives, so the quorum gate
/// must admit 1-of-4 (floor(4 * 0.2) + 1 = 1).
cluster::ClusterOptions BaseOptions() {
  cluster::ClusterOptions options;
  options.num_nodes = kNumNodes;
  options.node.seed = 42;
  options.node.max_queue = kNumQueries;
  options.hedging = false;
  options.quorum_fraction = 0.2;
  options.seed = 42;
  options.placement = ZoneAwareSpec();
  return options;
}

struct PassStats {
  uint64_t complete = 0;
  uint64_t matches = 0;
  uint64_t unavailable_buckets = 0;
};

PassStats RunPass(cluster::Cluster* c,
                  const std::vector<serve::QueryRequest>& queries,
                  bool expect_complete) {
  PassStats stats;
  for (const serve::QueryRequest& q : queries) {
    const cluster::ClusterQueryResult r = c->Execute(q);
    GRIDDECL_CHECK(r.status.ok() ||
                   r.status.code() == StatusCode::kUnavailable);
    GRIDDECL_CHECK(!expect_complete || (r.status.ok() && r.complete));
    const bool complete = r.status.ok() && r.complete;
    stats.complete += complete ? 1 : 0;
    stats.matches += r.matches.size();
    stats.unavailable_buckets +=
        r.status.ok() ? r.unavailable_buckets : std::max<uint64_t>(
                                                    r.unavailable_buckets, 1);
  }
  return stats;
}

double PercentileMs(std::vector<double> ms, double q) {
  GRIDDECL_CHECK(!ms.empty());
  std::sort(ms.begin(), ms.end());
  const size_t idx = static_cast<size_t>(q * (ms.size() - 1));
  return ms[idx];
}

/// One full heal cycle: kill a node, let the heartbeat declare it dead,
/// repair. Returns the committed report.
cluster::RepairReport HealNodeLoss(cluster::Cluster* c) {
  GRIDDECL_CHECK(c->KillNode(kDeadNode).ok());
  c->AdvanceTimeMs(kDetectAdvanceMs);
  GRIDDECL_CHECK(c->NodeHealthOf(kDeadNode) == cluster::NodeHealth::kDead);
  const cluster::RepairReport report = c->Repair({}).value();
  GRIDDECL_CHECK(report.committed);
  GRIDDECL_CHECK(report.verify_mismatches == 0);
  GRIDDECL_CHECK(report.replicas_retargeted > 0);
  return report;
}

/// Concurrent-query tail during one live repair. The repair runs on a
/// background thread (its source node already heartbeat-dead); the caller
/// thread drives queries from copy start until the staged manifest lands.
struct RepairTail {
  double p99_ms = 0.0;
  double p50_ms = 0.0;
  double pacing_wait_ms = 0.0;
  uint64_t bytes_copied = 0;
  size_t samples = 0;
};

RepairTail MeasureRepairTail(const MemEnv& env,
                             const std::vector<serve::QueryRequest>& queries,
                             uint64_t reference_matches, bool paced) {
  cluster::ClusterOptions options = BaseOptions();
  options.node_latency_ms.assign(kNumNodes, kBaseReadLatencyMs);
  // Pool off: every bucket read pays the simulated device (base latency
  // plus the unpaced copy's contention). A warm pool would absorb reads
  // and hide exactly the interference this stat prices.
  options.node.pool_pages = 0;
  auto c = cluster::Cluster::Create(env, options).value();
  GRIDDECL_CHECK(c->KillNode(kDeadNode).ok());
  c->AdvanceTimeMs(kDetectAdvanceMs);

  std::atomic<bool> copy_started{false};
  std::atomic<bool> copy_done{false};
  cluster::RepairOptions ro;
  ro.copy_contention_ms = kContentionMs;
  if (paced) {
    ro.copy_bytes_per_sec = kCopyBudgetBytesPerSec;
  } else {
    ro.copy_device_bytes_per_sec = kCopyBudgetBytesPerSec;
  }
  ro.on_phase = [&](const std::string& phase) {
    if (phase == "copy") copy_started.store(true);
    if (phase == "staged") copy_done.store(true);
  };

  cluster::RepairReport report;
  std::thread repairer([&] { report = c->Repair(ro).value(); });
  while (!copy_started.load()) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  using Clock = std::chrono::steady_clock;
  std::vector<double> ms;
  size_t next = 0;
  while (!copy_done.load()) {
    const serve::QueryRequest& q = queries[next++ % queries.size()];
    const auto t0 = Clock::now();
    const cluster::ClusterQueryResult r = c->Execute(q);
    const auto t1 = Clock::now();
    // One node is dead mid-repair; zone_aware still serves everything.
    GRIDDECL_CHECK(r.status.ok() && r.complete);
    ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  repairer.join();

  GRIDDECL_CHECK(report.committed);
  GRIDDECL_CHECK(report.verify_mismatches == 0);
  GRIDDECL_CHECK(paced ? report.pacing_wait_ms > 0.0
                       : report.pacing_wait_ms == 0.0);
  GRIDDECL_CHECK(ms.size() >= 20);
  // Post-repair sanity: the healed layout serves the same bytes.
  const PassStats after = RunPass(c.get(), queries, true);
  GRIDDECL_CHECK(after.matches == reference_matches);

  RepairTail tail;
  tail.p99_ms = PercentileMs(ms, 0.99);
  tail.p50_ms = PercentileMs(ms, 0.5);
  tail.pacing_wait_ms = report.pacing_wait_ms;
  tail.bytes_copied = report.bytes_copied;
  tail.samples = ms.size();
  return tail;
}

int RunBenchJson(bench::BenchJson& json) {
  const MemEnv env = MakeClusterEnv();
  const std::vector<serve::QueryRequest> queries =
      MakeWorkload(17, kNumQueries);

  // Reference answer from one healthy pass; every healed pass must
  // reproduce it exactly.
  auto healthy = cluster::Cluster::Create(env, BaseOptions()).value();
  const PassStats reference = RunPass(healthy.get(), queries, true);
  GRIDDECL_CHECK(reference.complete == static_cast<uint64_t>(kNumQueries));

  // The repair cycle kernel: fresh cluster, node loss, detection, plan,
  // copy, verify, fenced cutover — the price of one heal.
  json.TimeKernel("repair_heal_cycle", [&] {
    auto c = cluster::Cluster::Create(env, BaseOptions()).value();
    const cluster::RepairReport r = HealNodeLoss(c.get());
    GRIDDECL_CHECK(r.new_generation == 2);
  });

  // The A17 acceptance pair: node 0 dies and is healed, then all of zone
  // 1 dies. Repaired: every query complete (availability 1.000) off the
  // single surviving node. Control (no repair in between): buckets whose
  // zone-0 copy lived on node 0 lost both replicas.
  uint64_t repaired_incomplete = 0;
  uint64_t control_incomplete = 0;
  uint64_t control_unavailable = 0;
  cluster::RepairReport heal_report;
  {
    auto c = cluster::Cluster::Create(env, BaseOptions()).value();
    heal_report = HealNodeLoss(c.get());
    GRIDDECL_CHECK(c->KillZone(kDeadZone).ok());
    json.TimeKernel("repair_zone_kill_degraded", [&] {
      const PassStats s = RunPass(c.get(), queries, true);
      GRIDDECL_CHECK(s.matches == reference.matches);
      GRIDDECL_CHECK(s.unavailable_buckets == 0);
    });
    const PassStats s = RunPass(c.get(), queries, true);
    repaired_incomplete = kNumQueries - s.complete;

    auto control = cluster::Cluster::Create(env, BaseOptions()).value();
    GRIDDECL_CHECK(control->KillNode(kDeadNode).ok());
    GRIDDECL_CHECK(control->KillZone(kDeadZone).ok());
    const PassStats cs = RunPass(control.get(), queries, false);
    control_incomplete = kNumQueries - cs.complete;
    control_unavailable = cs.unavailable_buckets;
    GRIDDECL_CHECK(control_incomplete > 0);
    GRIDDECL_CHECK(control_unavailable > 0);
  }
  GRIDDECL_CHECK(repaired_incomplete == 0);

  // Repair pacing, reported as timing stats (wall-clock tails are too
  // environment-sensitive for a gated kernel). The acceptance bar: the
  // paced copy keeps the concurrent-query p99 within 3x of the healthy
  // tail; the unpaced copy's contention pushes it past that bar.
  {
    cluster::ClusterOptions options = BaseOptions();
    options.node_latency_ms.assign(kNumNodes, kBaseReadLatencyMs);
    options.node.pool_pages = 0;  // Same device model as the tails below.
    auto base = cluster::Cluster::Create(env, options).value();
    using Clock = std::chrono::steady_clock;
    std::vector<double> healthy_ms;
    for (const serve::QueryRequest& q : queries) {
      const auto t0 = Clock::now();
      const cluster::ClusterQueryResult r = base->Execute(q);
      const auto t1 = Clock::now();
      GRIDDECL_CHECK(r.status.ok() && r.complete);
      healthy_ms.push_back(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
    const double p99_healthy = PercentileMs(healthy_ms, 0.99);

    const RepairTail paced =
        MeasureRepairTail(env, queries, reference.matches, /*paced=*/true);
    const RepairTail unpaced =
        MeasureRepairTail(env, queries, reference.matches, /*paced=*/false);

    json.TimingStat("repair_p99_healthy_ms", p99_healthy);
    json.TimingStat("repair_p99_paced_ms", paced.p99_ms);
    json.TimingStat("repair_p99_unpaced_ms", unpaced.p99_ms);
    json.TimingStat("repair_p50_paced_ms", paced.p50_ms);
    json.TimingStat("repair_p50_unpaced_ms", unpaced.p50_ms);
    json.TimingStat("repair_pacing_wait_ms", paced.pacing_wait_ms);
    json.TimingStat("repair_paced_samples",
                    static_cast<double>(paced.samples));
    json.TimingStat("repair_unpaced_samples",
                    static_cast<double>(unpaced.samples));
    GRIDDECL_CHECK(p99_healthy > 0.0);
    GRIDDECL_CHECK(paced.p99_ms <= 3.0 * p99_healthy);
    GRIDDECL_CHECK(unpaced.p99_ms > 3.0 * p99_healthy);
    json.Counter("repair_bytes_copied",
                 static_cast<double>(paced.bytes_copied));
  }

  json.Counter("num_queries", kNumQueries);
  json.Counter("total_matches", static_cast<double>(reference.matches));
  json.Counter("num_disks", kNumDisks);
  json.Counter("num_nodes", kNumNodes);
  json.Counter("num_zones", kNumZones);
  json.Counter("mirror_copies", kCopies);
  // The acceptance pair and the MTTR model, pinned byte-for-byte: at the
  // fixed seed the heal is fully deterministic.
  json.Counter("repaired_zone_kill_incomplete",
               static_cast<double>(repaired_incomplete));
  json.Counter("control_zone_kill_incomplete",
               static_cast<double>(control_incomplete));
  json.Counter("control_zone_kill_unavailable",
               static_cast<double>(control_unavailable));
  json.Counter("repair_replicas_retargeted",
               static_cast<double>(heal_report.replicas_retargeted));
  json.Counter("repair_files_copied",
               static_cast<double>(heal_report.files_copied));
  json.Counter("repair_mttr_virtual_ms", heal_report.mttr_virtual_ms);

  // Registry snapshot from a dedicated deterministic heal + zone kill.
  {
    auto c = cluster::Cluster::Create(env, BaseOptions()).value();
    HealNodeLoss(c.get());
    GRIDDECL_CHECK(c->KillZone(kDeadZone).ok());
    const PassStats s = RunPass(c.get(), queries, true);
    GRIDDECL_CHECK(s.matches == reference.matches);
    obs::MetricsRegistry registry;
    c->SnapshotMetrics(&registry);
    // How many of the pass's sub-queries ran on the coordinator's thread,
    // as a top-level counter: compare_bench.py gates those exactly, and
    // not the registry section.
    json.Counter("sub_queries_on_caller",
                 static_cast<double>(
                     registry.GetCounter("cluster.sub_queries_on_caller")
                         ->value()));
    json.AttachRegistry(registry);
  }
  return json.Write();
}

void PrintExperiment() {
  const std::vector<serve::QueryRequest> queries =
      MakeWorkload(17, kNumQueries);
  const MemEnv env = MakeClusterEnv();

  Table t({"Cluster", "Complete", "Unavailable", "MTTR(virt ms)",
           "Rebuilt"});
  {
    auto c = cluster::Cluster::Create(env, BaseOptions()).value();
    GRIDDECL_CHECK(c->KillNode(kDeadNode).ok());
    GRIDDECL_CHECK(c->KillZone(kDeadZone).ok());
    const PassStats s = RunPass(c.get(), queries, false);
    t.AddRow({"node 0 + zone 1 dead, no repair",
              std::to_string(s.complete) + "/" + std::to_string(kNumQueries),
              std::to_string(s.unavailable_buckets), "-", "-"});
  }
  {
    auto c = cluster::Cluster::Create(env, BaseOptions()).value();
    const cluster::RepairReport r = HealNodeLoss(c.get());
    GRIDDECL_CHECK(c->KillZone(kDeadZone).ok());
    const PassStats s = RunPass(c.get(), queries, true);
    char mttr[32];
    std::snprintf(mttr, sizeof(mttr), "%.1f", r.mttr_virtual_ms);
    t.AddRow({"node 0 healed, then zone 1 dead",
              std::to_string(s.complete) + "/" + std::to_string(kNumQueries),
              std::to_string(s.unavailable_buckets), mttr,
              std::to_string(r.replicas_retargeted)});
  }
  bench::PrintTable(
      "A17 — self-healing repair vs unrepaired control (zone_aware, "
      "copies=2)",
      t);
}

void BM_RepairHealCycle(benchmark::State& state) {
  const MemEnv env = MakeClusterEnv();
  for (auto _ : state) {
    auto c = cluster::Cluster::Create(env, BaseOptions()).value();
    const cluster::RepairReport r = HealNodeLoss(c.get());
    benchmark::DoNotOptimize(r.replicas_retargeted);
  }
}
BENCHMARK(BM_RepairHealCycle)->Unit(benchmark::kMillisecond);

void BM_HealedZoneKillPass(benchmark::State& state) {
  const MemEnv env = MakeClusterEnv();
  const std::vector<serve::QueryRequest> queries =
      MakeWorkload(17, kNumQueries);
  auto c = cluster::Cluster::Create(env, BaseOptions()).value();
  HealNodeLoss(c.get());
  GRIDDECL_CHECK(c->KillZone(kDeadZone).ok());
  for (auto _ : state) {
    const PassStats s = RunPass(c.get(), queries, true);
    benchmark::DoNotOptimize(s.matches);
  }
  state.SetItemsProcessed(state.iterations() * kNumQueries);
}
BENCHMARK(BM_HealedZoneKillPass)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace griddecl

int main(int argc, char** argv) {
  griddecl::bench::BenchJson json("a17_repair", &argc, argv);
  if (json.enabled()) return griddecl::RunBenchJson(json);
  griddecl::PrintExperiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
