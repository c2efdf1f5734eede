/// Ablation A13 (ours): resilient query serving. The serving layer wraps
/// the declustered storage in admission control, deadlines, retries, and
/// per-disk circuit breakers; this experiment prices that machinery. It
/// times an end-to-end pass of a fixed random range-query workload through
/// the service (a) against healthy storage and (b) with one disk
/// permanently dead behind mirrors — where every read off the dead disk
/// either fails over inline or is rerouted once the breaker trips — and
/// measures the shed rate when the same workload is forced through an
/// undersized admission queue.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "griddecl/gridfile/faulty_env.h"
#include "griddecl/serve/service.h"

namespace griddecl {
namespace {

constexpr uint32_t kGridSide = 16;
constexpr uint32_t kNumDisks = 8;
constexpr uint32_t kRecordsPerBucket = 8;
constexpr int kNumQueries = 1000;
constexpr uint32_t kDeadDisk = 2;
/// QueryService::Create calls per serve_create repetition.
constexpr int kCreatesPerRep = 100;

/// Bucket-clustered data: with 168-byte v3 pages (capacity 8) and 8
/// records inserted per bucket in linearization order, every storage page
/// holds exactly one bucket, which is the layout DiskFaultSchedule
/// requires to translate "disk d died" into byte ranges.
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

MemEnv MakeMirrorEnv() {
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
  options.default_redundancy.copies = 2;
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

struct PassStats {
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t matches = 0;
};

/// Submits the whole workload to an existing service and drains it.
/// Queries refused at admission count as shed, not failed.
PassStats RunPassOn(serve::QueryService* service,
                    const std::vector<serve::QueryRequest>& queries) {
  std::vector<std::future<serve::QueryResult>> futures;
  PassStats stats;
  for (const serve::QueryRequest& q : queries) {
    Result<std::future<serve::QueryResult>> f = service->Submit(q);
    if (!f.ok()) {
      GRIDDECL_CHECK(f.status().code() == StatusCode::kResourceExhausted);
      stats.shed++;
      continue;
    }
    futures.push_back(std::move(f.value()));
  }
  for (auto& f : futures) {
    const serve::QueryResult r = f.get();
    if (r.status.ok()) {
      stats.ok++;
      stats.matches += r.matches.size();
    }
  }
  return stats;
}

/// One end-to-end pass: fresh service (cold buffer pool), submit
/// everything, wait, drain.
PassStats RunPass(StorageEnv* env, const serve::ServeOptions& options,
                  const std::vector<serve::QueryRequest>& queries) {
  auto service = serve::QueryService::Create(env, options).value();
  const PassStats stats = RunPassOn(service.get(), queries);
  GRIDDECL_CHECK(service->Shutdown().ok());
  return stats;
}

serve::ServeOptions WidePipe() {
  serve::ServeOptions options;
  options.num_threads = 4;
  options.max_queue = kNumQueries;
  options.seed = 42;
  return options;
}

/// One worker for the *timed* kernels: the gate watches the serving
/// layer's per-query overhead (planning, verification, breaker checks,
/// failover), which a single thread measures CPU-bound and repeatably —
/// a multi-threaded pass is mostly scheduler noise on a small runner.
serve::ServeOptions SerialPipe() {
  serve::ServeOptions options = WidePipe();
  options.num_threads = 1;
  return options;
}

std::unique_ptr<FaultyEnv> DeadDiskEnv(MemEnv* env) {
  FaultyEnvOptions fault;
  fault.permanent = serve::DiskFaultSchedule(*env, "dm", kDeadDisk).value();
  return FaultyEnv::Create(env, fault).value();
}

int RunBenchJson(bench::BenchJson& json) {
  MemEnv env = MakeMirrorEnv();
  const std::vector<serve::QueryRequest> queries =
      MakeWorkload(17, kNumQueries);

  // Healthy pass: every query succeeds with the direct-storage answer.
  const PassStats healthy = RunPass(&env, WidePipe(), queries);
  GRIDDECL_CHECK(healthy.ok == static_cast<uint64_t>(kNumQueries));
  json.TimeKernel("serve_healthy", [&] {
    const PassStats s = RunPass(&env, SerialPipe(), queries);
    GRIDDECL_CHECK(s.ok == healthy.ok && s.matches == healthy.matches);
  });

  // Start-up: Create verifies every page of the catalog and builds each
  // relation's bucket -> pages index from the pages' zone maps; Shutdown
  // joins the worker. kCreatesPerRep lifts the kernel well above timer
  // and thread-start noise.
  json.TimeKernel("serve_create", [&] {
    for (int i = 0; i < kCreatesPerRep; ++i) {
      auto service = serve::QueryService::Create(&env, SerialPipe()).value();
      GRIDDECL_CHECK(service->Shutdown().ok());
    }
  });

  // Degraded pass: disk kDeadDisk is gone; mirrors keep every query whole
  // (inline failover before the breaker trips, plan reroute after), so
  // results stay identical and only latency moves.
  json.TimeKernel("serve_one_disk_dead", [&] {
    auto faulty = DeadDiskEnv(&env);
    const PassStats s = RunPass(faulty.get(), SerialPipe(), queries);
    GRIDDECL_CHECK(s.ok == healthy.ok && s.matches == healthy.matches);
  });

  const double healthy_ms = json.KernelMedianMs("serve_healthy");
  const double dead_ms = json.KernelMedianMs("serve_one_disk_dead");
  if (healthy_ms > 0.0) {
    json.TimingStat("degraded_overhead_pct",
                    100.0 * (dead_ms - healthy_ms) / healthy_ms);
  }

  // Steady-state repeated-query pass: one long-lived service replaying
  // the same workload, so after TimeKernel's untimed warmup every page
  // read is a buffer-pool hit (no I/O, no re-verify, no re-decode).
  {
    auto warm = serve::QueryService::Create(&env, SerialPipe()).value();
    json.TimeKernel("serve_warm_pool", [&] {
      const PassStats s = RunPassOn(warm.get(), queries);
      GRIDDECL_CHECK(s.ok == healthy.ok && s.matches == healthy.matches);
    });
    GRIDDECL_CHECK(warm->Shutdown().ok());
  }

  // Warm-pool speedup under a device-latency model: FaultyEnv charges
  // 50 us per physical page read, the price MemEnv's free reads hide. A
  // warm pool answers a repeated pass without issuing a single read;
  // pool_pages = 0 pays the device on every page visit. Sleep-based
  // latency is too environment-sensitive for a gated kernel, so the
  // passes are timed directly and reported as timing stats — the ratio
  // is governed by the deterministic count of physical reads avoided.
  {
    FaultyEnvOptions device_model;
    device_model.latency_ms = 0.05;
    auto device = FaultyEnv::Create(&env, device_model).value();
    const std::vector<serve::QueryRequest> sample(queries.begin(),
                                                  queries.begin() + 100);

    auto timed_pass = [&sample](serve::QueryService* service) {
      const auto start = std::chrono::steady_clock::now();
      const PassStats s = RunPassOn(service, sample);
      const auto stop = std::chrono::steady_clock::now();
      GRIDDECL_CHECK(s.ok == sample.size());
      return std::make_pair(
          std::chrono::duration<double, std::milli>(stop - start).count(),
          s.matches);
    };

    auto warm =
        serve::QueryService::Create(device.get(), SerialPipe()).value();
    (void)RunPassOn(warm.get(), sample);  // Fill the pool.
    const auto [warm_ms, warm_matches] = timed_pass(warm.get());
    GRIDDECL_CHECK(warm->Shutdown().ok());

    serve::ServeOptions no_pool = SerialPipe();
    no_pool.pool_pages = 0;
    auto cold =
        serve::QueryService::Create(device.get(), no_pool).value();
    const auto [no_pool_ms, no_pool_matches] = timed_pass(cold.get());
    GRIDDECL_CHECK(cold->Shutdown().ok());

    GRIDDECL_CHECK(warm_matches == no_pool_matches);
    json.TimingStat("warm_pool_pass_ms", warm_ms);
    json.TimingStat("no_pool_pass_ms", no_pool_ms);
    if (warm_ms > 0.0) {
      json.TimingStat("warm_pool_speedup", no_pool_ms / warm_ms);
    }
  }

  // Overload: one slow worker (1 ms per page read) behind a queue of 8.
  // The exact shed count depends on drain timing, so it lives with the
  // wall-clock stats, not the deterministic counters.
  {
    FaultyEnvOptions fault;
    fault.latency_ms = 1.0;
    auto slow = FaultyEnv::Create(&env, fault).value();
    serve::ServeOptions options;
    options.num_threads = 1;
    options.max_queue = 8;
    options.seed = 42;
    const PassStats s = RunPass(slow.get(), options, queries);
    GRIDDECL_CHECK(s.shed > 0);
    json.TimingStat("overload_shed_fraction",
                    static_cast<double>(s.shed) / kNumQueries);
  }

  json.Counter("num_queries", kNumQueries);
  json.Counter("total_matches", static_cast<double>(healthy.matches));
  json.Counter("num_disks", kNumDisks);
  json.Counter("grid_buckets", kGridSide * kGridSide);

  // Registry snapshot from a deterministic pass: one thread, synchronous
  // Execute per query, healthy storage — every count is workload-defined.
  {
    serve::ServeOptions options;
    options.num_threads = 1;
    options.max_queue = 1;
    options.seed = 42;
    auto service = serve::QueryService::Create(&env, options).value();
    for (const serve::QueryRequest& q : queries) {
      GRIDDECL_CHECK(service->Execute(q).status.ok());
    }
    obs::MetricsRegistry registry;
    service->SnapshotMetrics(&registry);
    GRIDDECL_CHECK(service->Shutdown().ok());
    json.AttachRegistry(registry);
  }
  return json.Write();
}

void PrintExperiment() {
  MemEnv env = MakeMirrorEnv();
  const std::vector<serve::QueryRequest> queries =
      MakeWorkload(17, kNumQueries);
  const PassStats healthy = RunPass(&env, WidePipe(), queries);

  Table t({"Scenario", "Queries", "Ok", "Shed", "Matches"});
  t.AddRow({"healthy", std::to_string(kNumQueries),
            std::to_string(healthy.ok), std::to_string(healthy.shed),
            std::to_string(healthy.matches)});
  {
    auto faulty = DeadDiskEnv(&env);
    const PassStats dead = RunPass(faulty.get(), WidePipe(), queries);
    t.AddRow({"one disk dead (mirrored)", std::to_string(kNumQueries),
              std::to_string(dead.ok), std::to_string(dead.shed),
              std::to_string(dead.matches)});
  }
  {
    auto service = serve::QueryService::Create(&env, WidePipe()).value();
    (void)RunPassOn(service.get(), queries);  // Warm the buffer pool.
    const PassStats warm = RunPassOn(service.get(), queries);
    GRIDDECL_CHECK(service->Shutdown().ok());
    t.AddRow({"repeated pass (warm buffer pool)",
              std::to_string(kNumQueries), std::to_string(warm.ok),
              std::to_string(warm.shed), std::to_string(warm.matches)});
  }
  {
    FaultyEnvOptions fault;
    fault.latency_ms = 1.0;
    auto slow = FaultyEnv::Create(&env, fault).value();
    serve::ServeOptions options;
    options.num_threads = 1;
    options.max_queue = 8;
    options.seed = 42;
    const PassStats overload = RunPass(slow.get(), options, queries);
    t.AddRow({"overload (1 thread, queue 8, 1 ms reads)",
              std::to_string(kNumQueries), std::to_string(overload.ok),
              std::to_string(overload.shed),
              std::to_string(overload.matches)});
  }
  bench::PrintTable(
      "A13 — resilient query service: availability under faults and load",
      t);
}

void BM_ServeHealthyPass(benchmark::State& state) {
  MemEnv env = MakeMirrorEnv();
  const std::vector<serve::QueryRequest> queries =
      MakeWorkload(17, kNumQueries);
  for (auto _ : state) {
    const PassStats s = RunPass(&env, WidePipe(), queries);
    benchmark::DoNotOptimize(s.matches);
  }
  state.SetItemsProcessed(state.iterations() * kNumQueries);
}
BENCHMARK(BM_ServeHealthyPass)->Unit(benchmark::kMillisecond);

void BM_ServeDegradedPass(benchmark::State& state) {
  MemEnv env = MakeMirrorEnv();
  const std::vector<serve::QueryRequest> queries =
      MakeWorkload(17, kNumQueries);
  for (auto _ : state) {
    auto faulty = DeadDiskEnv(&env);
    const PassStats s = RunPass(faulty.get(), WidePipe(), queries);
    benchmark::DoNotOptimize(s.matches);
  }
  state.SetItemsProcessed(state.iterations() * kNumQueries);
}
BENCHMARK(BM_ServeDegradedPass)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace griddecl

int main(int argc, char** argv) {
  griddecl::bench::BenchJson json("a13_serve", &argc, argv);
  if (json.enabled()) return griddecl::RunBenchJson(json);
  griddecl::PrintExperiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
