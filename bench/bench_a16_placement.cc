/// Ablation A16 (ours): failure-domain-aware replica placement and
/// traffic-paced migration. Eight disks over four nodes in two 2-node
/// zones — the topology where the three placement policies separate:
/// chained self-colocates copy 1 of every even disk, spread guarantees
/// distinct nodes but not zones, zone_aware spans both zones at copies=2.
/// The bench prices (a) the degraded scatter-gather pass with a whole
/// zone dead behind zone_aware placement — every query stays complete —
/// and (b) the correlated availability sweep; it pins (as deterministic
/// counters) the worst-case availability of each policy under zone and
/// node kills, and (as timing stats) the concurrent-query p99 during a
/// live migration: a paced copy stays within 3x of the healthy tail
/// while an unpaced copy's device contention blows past it.

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
#include "griddecl/sim/availability.h"

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
constexpr uint32_t kDeadZone = 1;
constexpr uint64_t kPlacementSeed = 7;

/// Migration pacing knobs. The catalog's two files (data + mirror) total
/// ~86 KB, so a 64 KB/s budget makes the copy phase last ~1.3 s — long
/// enough for the concurrent query loop to collect a real tail.
constexpr double kCopyBudgetBytesPerSec = 64.0 * 1024.0;
constexpr double kContentionMs = 2.0;
constexpr double kBaseReadLatencyMs = 0.05;

cluster::Topology ZonedTopology() {
  return cluster::Topology::Grid(kNumNodes, kNumRacks, kNumZones).value();
}

cluster::PlacementSpec Spec(cluster::PlacementPolicy policy) {
  cluster::PlacementSpec spec;
  spec.policy = policy;
  spec.topology = ZonedTopology();
  spec.seed = kPlacementSeed;
  return spec;
}

/// Bucket-clustered data: 168-byte v3 pages hold exactly the 8 records
/// inserted per bucket, so a zone kill maps to whole pages.
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

/// Commits the catalog with the policy's placement recorded in the
/// manifest — the cluster resolves it from there, end to end.
MemEnv MakeClusterEnv(cluster::PlacementPolicy policy) {
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
  options.placement = cluster::ToManifestPlacement(Spec(policy));
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

/// Killing a 2-node zone of 4 leaves 2 alive; the default quorum (alive >
/// N/2) would refuse, so zone-kill passes run at quorum_fraction 0.25.
cluster::ClusterOptions BaseOptions() {
  cluster::ClusterOptions options;
  options.num_nodes = kNumNodes;
  options.node.seed = 42;
  options.node.max_queue = kNumQueries;
  options.hedging = false;
  options.quorum_fraction = 0.25;
  options.seed = 42;
  return options;
}

struct PassStats {
  uint64_t complete = 0;
  uint64_t matches = 0;
  uint64_t unavailable_buckets = 0;
};

/// Drives the workload once. With `expect_complete` every query must be a
/// complete kOk result; without it, partial results and whole-query
/// kUnavailable refusals (every touched bucket dead — the chained layout
/// under a zone kill produces both) are tallied instead of fatal.
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

/// Sorted per-query wall-clock p-quantile in ms.
double PercentileMs(std::vector<double> ms, double q) {
  GRIDDECL_CHECK(!ms.empty());
  std::sort(ms.begin(), ms.end());
  const size_t idx = static_cast<size_t>(q * (ms.size() - 1));
  return ms[idx];
}

/// Base configuration for the correlated availability sweeps — the same
/// 8-disk / 4-node / 2-zone layout the cluster passes run on.
AvailabilitySweepOptions SweepOptions(FailureDomain domain,
                                      std::vector<uint32_t> replication) {
  AvailabilitySweepOptions opts;
  opts.grid_dims = {8, 8};
  opts.num_disks = kNumDisks;
  opts.query_shape = {2, 2};
  opts.num_queries = 40;
  opts.max_failed = 1;
  opts.replication = std::move(replication);
  opts.seed = 42;
  opts.methods = {"dm"};
  opts.failure_domain = domain;
  opts.topology = ZonedTopology();
  opts.placement_seed = kPlacementSeed;
  return opts;
}

/// Worst-case (over every single-domain kill) availability of `policy` at
/// replication `r`, probing each domain explicitly via forced_domain_order.
double WorstKillAvailability(cluster::PlacementPolicy policy,
                             FailureDomain domain, uint32_t num_domains,
                             uint32_t r) {
  double worst = 1.0;
  for (uint32_t dom = 0; dom < num_domains; ++dom) {
    AvailabilitySweepOptions opts = SweepOptions(domain, {r});
    opts.placement_policies = {policy};
    opts.forced_domain_order = {dom};
    const AvailabilitySweep sweep = RunAvailabilitySweep(opts).value();
    for (const AvailabilityPoint& p : sweep.points) {
      if (p.strategy == "plain" || p.failed_domains == 0) continue;
      worst = std::min(worst, p.availability);
    }
  }
  return worst;
}

/// Concurrent-query tail during one live dm->fx migration. The migration
/// runs on a background thread; the caller thread drives queries from the
/// moment the copy phase starts until the staged manifest lands, timing
/// each one. `paced` selects the bytes/sec budget; unpaced runs model the
/// bulk copy saturating the shared device (copy_contention_ms on every
/// read) at the same effective transfer rate.
struct MigrationTail {
  double p99_ms = 0.0;
  double p50_ms = 0.0;
  double pacing_wait_ms = 0.0;
  uint64_t bytes_copied = 0;
  size_t samples = 0;
};

MigrationTail MeasureMigrationTail(const MemEnv& env,
                                   const std::vector<serve::QueryRequest>&
                                       queries,
                                   uint64_t reference_matches, bool paced) {
  cluster::ClusterOptions options = BaseOptions();
  options.node_latency_ms.assign(kNumNodes, kBaseReadLatencyMs);
  // Pool off: every bucket read pays the simulated device (base latency
  // plus the unpaced copy's contention). A warm pool would absorb reads
  // and hide exactly the interference this stat prices.
  options.node.pool_pages = 0;
  auto c = cluster::Cluster::Create(env, options).value();

  std::atomic<bool> copy_started{false};
  std::atomic<bool> copy_done{false};
  cluster::MigrationOptions mo;
  mo.new_method = "fx";
  mo.new_num_disks = kNumDisks;
  mo.copy_contention_ms = kContentionMs;
  if (paced) {
    mo.copy_bytes_per_sec = kCopyBudgetBytesPerSec;
  } else {
    mo.copy_device_bytes_per_sec = kCopyBudgetBytesPerSec;
  }
  mo.on_phase = [&](const std::string& phase) {
    if (phase == "copy") copy_started.store(true);
    if (phase == "staged") copy_done.store(true);
  };

  cluster::MigrationReport report;
  std::thread migrator([&] { report = c->Migrate(mo).value(); });
  while (!copy_started.load()) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  using Clock = std::chrono::steady_clock;
  std::vector<double> ms;
  uint64_t matches = 0;
  size_t next = 0;
  while (!copy_done.load()) {
    const serve::QueryRequest& q = queries[next++ % queries.size()];
    const auto t0 = Clock::now();
    const cluster::ClusterQueryResult r = c->Execute(q);
    const auto t1 = Clock::now();
    GRIDDECL_CHECK(r.status.ok() && r.complete);
    matches += r.matches.size();
    ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  migrator.join();

  GRIDDECL_CHECK(report.committed);
  GRIDDECL_CHECK(report.verify_mismatches == 0);
  GRIDDECL_CHECK(paced ? report.pacing_wait_ms > 0.0
                       : report.pacing_wait_ms == 0.0);
  // A ~1.3 s copy phase must have seen a statistically meaningful number
  // of concurrent queries.
  GRIDDECL_CHECK(ms.size() >= 20);
  // Post-migration sanity: the cut-over layout serves the same bytes.
  const PassStats after = RunPass(c.get(), queries, true);
  GRIDDECL_CHECK(after.matches == reference_matches);

  MigrationTail tail;
  tail.p99_ms = PercentileMs(ms, 0.99);
  tail.p50_ms = PercentileMs(ms, 0.5);
  tail.pacing_wait_ms = report.pacing_wait_ms;
  tail.bytes_copied = report.bytes_copied;
  tail.samples = ms.size();
  return tail;
}

int RunBenchJson(bench::BenchJson& json) {
  const MemEnv zoned_env = MakeClusterEnv(cluster::PlacementPolicy::kZoneAware);
  const MemEnv chained_env = MakeClusterEnv(cluster::PlacementPolicy::kChained);
  const std::vector<serve::QueryRequest> queries =
      MakeWorkload(17, kNumQueries);

  // Reference answer from one healthy pass; the zone-degraded and
  // post-migration passes must reproduce it exactly.
  auto healthy = cluster::Cluster::Create(zoned_env, BaseOptions()).value();
  const PassStats reference = RunPass(healthy.get(), queries, true);
  GRIDDECL_CHECK(reference.complete == static_cast<uint64_t>(kNumQueries));

  json.TimeKernel("placement_healthy", [&] {
    const PassStats s = RunPass(healthy.get(), queries, true);
    GRIDDECL_CHECK(s.matches == reference.matches);
  });

  // The A16 acceptance pair: one whole zone dead at copies=2. zone_aware
  // placed every disk's mirror in the other zone, so the pass stays
  // complete with zero unavailable buckets; chained self-colocated the
  // even disks' mirrors and loses buckets outright.
  uint64_t chained_unavailable = 0;
  uint64_t chained_incomplete = 0;
  {
    auto zoned = cluster::Cluster::Create(zoned_env, BaseOptions()).value();
    GRIDDECL_CHECK(zoned->PlacementWarnings().empty());
    GRIDDECL_CHECK(zoned->KillZone(kDeadZone).ok());
    json.TimeKernel("placement_zone_kill_degraded", [&] {
      const PassStats s = RunPass(zoned.get(), queries, true);
      GRIDDECL_CHECK(s.matches == reference.matches);
      GRIDDECL_CHECK(s.unavailable_buckets == 0);
    });

    auto chained =
        cluster::Cluster::Create(chained_env, BaseOptions()).value();
    GRIDDECL_CHECK(!chained->PlacementWarnings().empty());
    GRIDDECL_CHECK(chained->KillZone(kDeadZone).ok());
    const PassStats s = RunPass(chained.get(), queries, false);
    chained_unavailable = s.unavailable_buckets;
    chained_incomplete = kNumQueries - s.complete;
    GRIDDECL_CHECK(chained_unavailable > 0);
    GRIDDECL_CHECK(chained_incomplete > 0);
  }

  // The correlated sweep kernel: all three policies x copies {2,3} under
  // single-zone, single-rack, and single-node kills, at 4x the stat
  // sweeps' workload so the timing is stable enough for the 15% gate.
  json.TimeKernel("correlated_sweep", [&] {
    for (const FailureDomain domain :
         {FailureDomain::kZone, FailureDomain::kRack,
          FailureDomain::kNode}) {
      AvailabilitySweepOptions opts = SweepOptions(domain, {2, 3});
      opts.num_queries = 160;
      const AvailabilitySweep sweep = RunAvailabilitySweep(opts).value();
      GRIDDECL_CHECK(sweep.points.size() >= 12);
    }
  });

  // Worst-case availability per (policy, copies, domain) — deterministic
  // at the fixed seed, so these live in counters and the baseline pins
  // the policy ordering byte-for-byte.
  const std::vector<std::pair<std::string, cluster::PlacementPolicy>>
      policies = {{"chained", cluster::PlacementPolicy::kChained},
                  {"spread", cluster::PlacementPolicy::kSpread},
                  {"zone_aware", cluster::PlacementPolicy::kZoneAware}};
  double zone_r2[3] = {0, 0, 0};
  for (size_t i = 0; i < policies.size(); ++i) {
    for (uint32_t r : {2u, 3u}) {
      const double worst = WorstKillAvailability(
          policies[i].second, FailureDomain::kZone, kNumZones, r);
      json.Counter("avail_zone_kill_" + policies[i].first + "_r" +
                       std::to_string(r),
                   worst);
      if (r == 2) zone_r2[i] = worst;
    }
    json.Counter("avail_node_kill_" + policies[i].first + "_r2",
                 WorstKillAvailability(policies[i].second,
                                       FailureDomain::kNode, kNumNodes, 2));
    // On the 4x2x2 topology each rack IS a zone's node set, so the rack
    // numbers pin that the rack domain lowers identically.
    json.Counter("avail_rack_kill_" + policies[i].first + "_r2",
                 WorstKillAvailability(policies[i].second,
                                       FailureDomain::kRack, kNumRacks, 2));
  }
  GRIDDECL_CHECK(zone_r2[2] >= 1.0);           // zone_aware survives.
  GRIDDECL_CHECK(zone_r2[2] >= zone_r2[1]);    // >= spread
  GRIDDECL_CHECK(zone_r2[1] >= zone_r2[0]);    // >= chained
  GRIDDECL_CHECK(zone_r2[0] < 1.0);            // chained loses data access.

  // Migration pacing, reported as timing stats (wall-clock tails are too
  // environment-sensitive for a gated kernel). The acceptance bar: the
  // paced copy keeps the concurrent-query p99 within 3x of the healthy
  // tail; the unpaced copy's contention pushes it past that bar.
  {
    cluster::ClusterOptions options = BaseOptions();
    options.node_latency_ms.assign(kNumNodes, kBaseReadLatencyMs);
    options.node.pool_pages = 0;  // Same device model as the tails below.
    auto base = cluster::Cluster::Create(zoned_env, options).value();
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

    const MigrationTail paced = MeasureMigrationTail(
        zoned_env, queries, reference.matches, /*paced=*/true);
    const MigrationTail unpaced = MeasureMigrationTail(
        zoned_env, queries, reference.matches, /*paced=*/false);

    json.TimingStat("migration_p99_healthy_ms", p99_healthy);
    json.TimingStat("migration_p99_paced_ms", paced.p99_ms);
    json.TimingStat("migration_p99_unpaced_ms", unpaced.p99_ms);
    json.TimingStat("migration_p50_paced_ms", paced.p50_ms);
    json.TimingStat("migration_p50_unpaced_ms", unpaced.p50_ms);
    json.TimingStat("migration_pacing_wait_ms", paced.pacing_wait_ms);
    json.TimingStat("migration_paced_samples",
                    static_cast<double>(paced.samples));
    json.TimingStat("migration_unpaced_samples",
                    static_cast<double>(unpaced.samples));
    GRIDDECL_CHECK(p99_healthy > 0.0);
    GRIDDECL_CHECK(paced.p99_ms <= 3.0 * p99_healthy);
    GRIDDECL_CHECK(unpaced.p99_ms > 3.0 * p99_healthy);
    json.Counter("migration_bytes_copied",
                 static_cast<double>(paced.bytes_copied));
  }

  json.Counter("num_queries", kNumQueries);
  json.Counter("total_matches", static_cast<double>(reference.matches));
  json.Counter("num_disks", kNumDisks);
  json.Counter("num_nodes", kNumNodes);
  json.Counter("num_zones", kNumZones);
  json.Counter("mirror_copies", kCopies);
  json.Counter("zone_kill_unavailable_chained",
               static_cast<double>(chained_unavailable));
  json.Counter("zone_kill_incomplete_chained",
               static_cast<double>(chained_incomplete));
  json.Counter("zone_kill_unavailable_zone_aware", 0.0);

  // Registry snapshot from a dedicated deterministic pass: zone_aware
  // placement, zone 1 dead, one coordinator thread.
  {
    auto c = cluster::Cluster::Create(zoned_env, BaseOptions()).value();
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
  const std::vector<std::pair<std::string, cluster::PlacementPolicy>>
      policies = {{"chained", cluster::PlacementPolicy::kChained},
                  {"spread", cluster::PlacementPolicy::kSpread},
                  {"zone_aware", cluster::PlacementPolicy::kZoneAware}};

  Table t({"Policy", "Complete", "Unavailable", "WorstZoneAvail(r2)",
           "WorstNodeAvail(r2)"});
  for (const auto& [name, policy] : policies) {
    const MemEnv env = MakeClusterEnv(policy);
    auto c = cluster::Cluster::Create(env, BaseOptions()).value();
    GRIDDECL_CHECK(c->KillZone(kDeadZone).ok());
    const PassStats s = RunPass(c.get(), queries, false);
    char zone_buf[32];
    char node_buf[32];
    std::snprintf(zone_buf, sizeof(zone_buf), "%.3f",
                  WorstKillAvailability(policy, FailureDomain::kZone,
                                        kNumZones, 2));
    std::snprintf(node_buf, sizeof(node_buf), "%.3f",
                  WorstKillAvailability(policy, FailureDomain::kNode,
                                        kNumNodes, 2));
    t.AddRow({name,
              std::to_string(s.complete) + "/" + std::to_string(kNumQueries),
              std::to_string(s.unavailable_buckets), zone_buf, node_buf});
  }
  bench::PrintTable(
      "A16 — replica placement under a whole-zone kill (copies=2)", t);
}

void BM_ZoneKillDegradedPass(benchmark::State& state) {
  const MemEnv env = MakeClusterEnv(cluster::PlacementPolicy::kZoneAware);
  const std::vector<serve::QueryRequest> queries =
      MakeWorkload(17, kNumQueries);
  auto c = cluster::Cluster::Create(env, BaseOptions()).value();
  GRIDDECL_CHECK(c->KillZone(kDeadZone).ok());
  for (auto _ : state) {
    const PassStats s = RunPass(c.get(), queries, true);
    benchmark::DoNotOptimize(s.matches);
  }
  state.SetItemsProcessed(state.iterations() * kNumQueries);
}
BENCHMARK(BM_ZoneKillDegradedPass)->Unit(benchmark::kMillisecond);

void BM_CorrelatedZoneSweep(benchmark::State& state) {
  const AvailabilitySweepOptions opts =
      SweepOptions(FailureDomain::kZone, {2, 3});
  for (auto _ : state) {
    const AvailabilitySweep sweep = RunAvailabilitySweep(opts).value();
    benchmark::DoNotOptimize(sweep.points.size());
  }
}
BENCHMARK(BM_CorrelatedZoneSweep)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace griddecl

int main(int argc, char** argv) {
  griddecl::bench::BenchJson json("a16_placement", &argc, argv);
  if (json.enabled()) return griddecl::RunBenchJson(json);
  griddecl::PrintExperiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
