/// perfbench: the serving benchmark for griddecl.
///
/// One process runs one workload from one load-generator thread and prints,
/// as its last stdout line, one JSON object:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
/// `--trace 0` measures the end-to-end metrics (no spans recorded);
/// `--trace 1` runs the traced per-layer decomposition instead, a fixed
/// amount of work that ignores --seconds. See
/// README.md beside this file for the workloads, the metric definitions
/// and the layer -> end-to-end metric table.
///
///   perfbench --workload serve_hit|serve_miss|cluster_churn --seed N
///             --seconds S --trace 0|1 [--trace-out FILE]
///   perfbench --dump --workload W --seed N   (queries + churn schedule)
///
/// Every answer is checked against GridFile::RangeSearch ground truth and
/// every query's bucket counts against the Evaluator; any mismatch makes
/// the run incorrect and the exit code 1.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "griddecl/cluster/cluster.h"
#include "griddecl/cluster/placement.h"
#include "griddecl/common/random.h"
#include "griddecl/eval/disk_map.h"
#include "griddecl/eval/evaluator.h"
#include "griddecl/gridfile/catalog.h"
#include "griddecl/gridfile/declustered_file.h"
#include "griddecl/gridfile/grid_file.h"
#include "griddecl/gridfile/manifest.h"
#include "griddecl/gridfile/page_store.h"
#include "griddecl/gridfile/read_policy.h"
#include "griddecl/gridfile/storage.h"
#include "griddecl/gridfile/storage_env.h"
#include "griddecl/methods/registry.h"
#include "griddecl/serve/service.h"

namespace {

namespace gd = griddecl;
namespace cl = griddecl::cluster;
namespace sv = griddecl::serve;

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Bucket-clustered mirrored catalogs: 8 records per bucket inserted in
/// grid-linear order and 168-byte v3 pages (capacity 8), so one page holds
/// exactly one bucket.
constexpr uint32_t kRecordsPerBucket = 8;
constexpr uint32_t kPageBytes = 168;
constexpr uint32_t kCopies = 2;
/// Requests the generator keeps outstanding through QueryService::Submit.
constexpr size_t kInFlight = 4;
/// Distinct queries per seed; the request stream cycles through them.
constexpr size_t kPoolQueries = 4000;
/// bucket_dev_mean is taken over the first kDevWindow served reads, so it
/// is a deterministic count for a seed (two passes of the pool; two churn
/// cycles).
constexpr size_t kDevWindow = 8000;
/// Requests per measurement window of the serve workloads; qps, p50 and
/// p99 are the medians of the per-window values.
constexpr size_t kServeWindow = 2000;
/// Reads per churn phase; a cycle (one measurement window) is four phases.
constexpr size_t kChurnPhaseReads = 1000;
/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 5;
constexpr uint32_t kNodes = 4;
constexpr uint32_t kRacks = 2;
constexpr uint32_t kZones = 2;
constexpr uint64_t kPlacementSeed = 7;
/// Virtual time a churn cycle advances past the heartbeat's dead_after
/// (4 missed 10 ms beats), and after a revival (one answered beat).
constexpr double kDetectAdvanceMs = 60.0;
constexpr double kReviveAdvanceMs = 20.0;
const char* const kRelation = "r";
const char* const kMethods[2] = {"hcam", "dm"};

struct Shape {
  const char* name;
  uint32_t side;         ///< Grid is side x side.
  uint32_t disks;        ///< Virtual disks M.
  double max_side_frac;  ///< Query box side <= this share of each axis.
  size_t pool_pages;     ///< Buffer-pool pages per service.
  bool cluster;
};

const Shape kShapes[] = {
    // Pool (16384) larger than the data (2 copies x 4096 pages), warmed.
    {"serve_hit", 64, 16, 0.25, 16384, false},
    // Pool = 1/16 of the 16384 primary pages: ~94% of page visits miss.
    {"serve_miss", 128, 16, 0.125, 1024, false},
    // 4 nodes in 2 zones, zone_aware placement; per-node pools hold the data.
    {"cluster_churn", 64, 8, 0.25, 16384, true},
};

const Shape* FindShape(const std::string& name) {
  for (const Shape& s : kShapes) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::exit(1);
}

void Must(const gd::Status& st, const char* what) {
  if (!st.ok()) Die(std::string(what) + ": " + st.ToString());
}

template <typename T>
T Must(gd::Result<T> r, const char* what) {
  if (!r.ok()) Die(std::string(what) + ": " + r.status().ToString());
  return std::move(r).value();
}

/// CPU affinity. Every run pins itself to the one CPU it started on
/// before any thread exists, so all service, node and generator threads
/// share it: on a virtual machine whose host steals CPU time, a cross-CPU
/// wake-up can cost milliseconds, and an unpinned cluster_churn run
/// measured the host (1.5k-3.7k qps from run to run) rather than the
/// program (4.1k-4.3k pinned). The contention probes, which exist to
/// measure multi-CPU scaling, widen the mask back with `Unpinned`.
cpu_set_t g_all_cpus;
cpu_set_t g_one_cpu;

void PinToCurrentCpu() {
  sched_getaffinity(0, sizeof(g_all_cpus), &g_all_cpus);
  g_one_cpu = g_all_cpus;
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  CPU_ZERO(&g_one_cpu);
  CPU_SET(cpu, &g_one_cpu);
  sched_setaffinity(0, sizeof(g_one_cpu), &g_one_cpu);
  std::printf("%-30s %16d\n", "pinned_cpu", cpu);
}

/// Threads created while this lives may run on every CPU.
class Unpinned {
 public:
  Unpinned() { sched_setaffinity(0, sizeof(g_all_cpus), &g_all_cpus); }
  ~Unpinned() { sched_setaffinity(0, sizeof(g_one_cpu), &g_one_cpu); }
  Unpinned(const Unpinned&) = delete;
  Unpinned& operator=(const Unpinned&) = delete;
};

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

gd::GridFile MakeFile(const Shape& s, uint64_t seed) {
  gd::Schema schema =
      Must(gd::Schema::Create({{"x", 0.0, 1.0}, {"y", 0.0, 1.0}}), "schema");
  gd::GridFile f =
      Must(gd::GridFile::Create(std::move(schema), {s.side, s.side}), "grid");
  const gd::GridSpec grid = f.grid();
  gd::Rng rng(Mix(seed, 1));
  for (uint64_t b = 0; b < grid.num_buckets(); ++b) {
    const gd::BucketCoords c = grid.Delinearize(b);
    for (uint32_t k = 0; k < kRecordsPerBucket; ++k) {
      Must(f.Insert({(c[0] + rng.NextDouble()) / s.side,
                     (c[1] + rng.NextDouble()) / s.side}),
           "insert");
    }
  }
  return f;
}

/// 2-D range boxes at random positions, sides up to max_side_frac.
std::vector<sv::QueryRequest> MakeQueries(const Shape& s, uint64_t seed) {
  std::vector<sv::QueryRequest> queries;
  gd::Rng rng(Mix(seed, 2));
  for (size_t q = 0; q < kPoolQueries; ++q) {
    sv::QueryRequest req;
    req.relation = kRelation;
    for (int d = 0; d < 2; ++d) {
      const double w = s.max_side_frac * rng.NextDouble();
      const double lo = (1.0 - w) * rng.NextDouble();
      req.lo.push_back(lo);
      req.hi.push_back(lo + w);
    }
    queries.push_back(std::move(req));
  }
  return queries;
}

/// Node killed in churn cycle c (seeded; the rest of a cycle is fixed).
std::vector<uint32_t> MakeKillSchedule(uint64_t seed, size_t cycles) {
  gd::Rng rng(Mix(seed, 3));
  std::vector<uint32_t> kills;
  for (size_t c = 0; c < cycles; ++c) {
    kills.push_back(static_cast<uint32_t>(rng.NextBelow(kNodes)));
  }
  return kills;
}

cl::PlacementSpec ZoneAwareSpec() {
  cl::PlacementSpec spec;
  spec.policy = cl::PlacementPolicy::kZoneAware;
  spec.topology = Must(cl::Topology::Grid(kNodes, kRacks, kZones), "topology");
  spec.seed = kPlacementSeed;
  return spec;
}

/// Catalog build + persistence into a fresh MemEnv.
std::unique_ptr<gd::MemEnv> BuildCatalogEnv(const Shape& s, uint64_t seed) {
  gd::Catalog catalog(s.disks);
  Must(catalog.AddRelation(
           kRelation, Must(gd::DeclusteredFile::Create(MakeFile(s, seed),
                                                       kMethods[0], s.disks),
                           "declustered file")),
       "add relation");
  auto env = std::make_unique<gd::MemEnv>();
  gd::ManifestSaveOptions options;
  options.page_size_bytes = kPageBytes;
  options.default_redundancy.policy = gd::RelationRedundancy::Policy::kMirror;
  options.default_redundancy.copies = kCopies;
  if (s.cluster) options.placement = cl::ToManifestPlacement(ZoneAwareSpec());
  Must(SaveCatalogManifest(catalog, env.get(), options), "save manifest");
  return env;
}

sv::ServeOptions ServiceOptions(uint32_t workers,
                                size_t pool_pages) {
  sv::ServeOptions o;
  o.num_threads = workers;
  o.max_queue = 64;
  o.pool_pages = pool_pages;
  o.seed = 42;
  return o;
}

cl::ClusterOptions ClusterOpts(const Shape& s) {
  cl::ClusterOptions o;
  o.num_nodes = kNodes;
  o.node = ServiceOptions(1, s.pool_pages);
  o.seed = 42;
  o.placement = ZoneAwareSpec();
  return o;
}

sv::QueryRequest FullRange() {
  sv::QueryRequest r;
  r.relation = kRelation;
  r.lo = {0.0, 0.0};
  r.hi = {1.0, 1.0};
  return r;
}

std::unique_ptr<sv::QueryService> StartService(const gd::StorageEnv* env,
                                               sv::ServeOptions options) {
  auto service = Must(sv::QueryService::Create(env, options), "service");
  if (!service->Execute(FullRange()).status.ok()) Die("service warm-up");
  return service;
}

std::unique_ptr<cl::Cluster> StartCluster(const gd::StorageEnv& env,
                                          const Shape& s) {
  auto cluster = Must(cl::Cluster::Create(env, ClusterOpts(s)), "cluster");
  const cl::ClusterQueryResult warm = cluster->Execute(FullRange());
  if (!warm.status.ok() || !warm.complete) Die("cluster warm-up");
  return cluster;
}

// ---------------------------------------------------------------------------
// Ground truth and the paper's metric
// ---------------------------------------------------------------------------

uint64_t HashIds(const std::vector<gd::RecordId>& ids) {
  uint64_t h = 1469598103934665603ull;
  for (gd::RecordId id : ids) {
    h = (h ^ id) * 1099511628211ull;
  }
  return h;
}

/// What a correct answer to pool query q looks like.
struct Expected {
  uint64_t count = 0;
  uint64_t hash = 0;
  uint64_t buckets = 0;  ///< |Q|
  /// Busiest disk's buckets minus ceil(|Q|/M), per method in kMethods.
  uint64_t dev[2] = {0, 0};
};

/// Ground truth from GridFile::RangeSearch; the deviation from the
/// Evaluator on the method's virtual DiskOf path, cross-checked against a
/// DiskMap tally of the same rectangle. Any disagreement aborts the run.
std::vector<Expected> ComputeExpected(const Shape& s, const gd::GridFile& f,
                                      const std::vector<sv::QueryRequest>& qs) {
  std::vector<Expected> out(qs.size());
  for (int m = 0; m < 2; ++m) {
    auto method = Must(gd::CreateMethod(kMethods[m], f.grid(), s.disks),
                       "method");
    gd::EvalOptions eo;
    eo.use_disk_map = false;
    const gd::Evaluator evaluator(*method, eo);
    const gd::DiskMap map = gd::DiskMap::Build(*method);
    std::vector<uint64_t> scratch;
    std::vector<uint64_t> counts;
    for (size_t q = 0; q < qs.size(); ++q) {
      const gd::RangeQuery rq =
          Must(f.ResolveRange(qs[q].lo, qs[q].hi), "resolve range");
      const gd::QueryEval e = evaluator.EvaluateQuery(rq, scratch);
      map.CountsForRect(rq.rect(), counts);
      const uint64_t tally = *std::max_element(counts.begin(), counts.end());
      if (tally != e.response) {
        Die("cross-check: DiskMap tally " + std::to_string(tally) +
            " != Evaluator response " + std::to_string(e.response));
      }
      out[q].buckets = e.num_buckets;
      out[q].dev[m] = e.AdditiveDeviation();
    }
  }
  for (size_t q = 0; q < qs.size(); ++q) {
    const std::vector<gd::RecordId> ids =
        Must(f.RangeSearch(qs[q].lo, qs[q].hi), "range search");
    out[q].count = ids.size();
    out[q].hash = HashIds(ids);
  }
  return out;
}

bool Matches(const Expected& e, const std::vector<gd::RecordId>& ids,
             uint64_t buckets) {
  return buckets == e.buckets && ids.size() == e.count &&
         HashIds(ids) == e.hash;
}

/// Observes the paper's metric on the serving path for a sample of
/// queries: one disk-filtered sub-query per disk reports how many buckets
/// that disk serves; the busiest minus ceil(|Q|/M) must equal the
/// Evaluator's deviation. Returns the number of mismatches.
uint64_t ObserveDeviation(sv::QueryService* service, uint32_t disks,
                          const std::vector<sv::QueryRequest>& qs,
                          const std::vector<Expected>& expected,
                          size_t sample) {
  uint64_t mismatches = 0;
  for (size_t q = 0; q < std::min(sample, qs.size()); ++q) {
    uint64_t busiest = 0;
    uint64_t total = 0;
    for (uint32_t d = 0; d < disks; ++d) {
      sv::QueryRequest sub = qs[q];
      sub.disks = {d};
      const sv::QueryResult r = service->Execute(sub);
      if (!r.status.ok()) return mismatches + 1;
      busiest = std::max(busiest, r.buckets_touched);
      total += r.buckets_touched;
    }
    const uint64_t optimal = (total + disks - 1) / disks;
    if (total != expected[q].buckets ||
        busiest - optimal != expected[q].dev[0]) {
      ++mismatches;
    }
  }
  return mismatches;
}

// ---------------------------------------------------------------------------
// Statistics and output
// ---------------------------------------------------------------------------

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t idx = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())) - 1.0);
  return v[std::min(idx, v.size() - 1)];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Measurement windows: each contributes its throughput and latency
/// percentiles, and the reported figure is a quantile over windows chosen
/// so that a minority of windows disturbed by the host does not move it.
/// Windows that fall in a calm moment are fast by chance, so qps is the
/// rate sustained in three windows of four (lower quartile) and p50 the
/// latency met in three of four (upper quartile). Windows that catch a host
/// stall have a tail far above the rest, so p99 is the median window's.
/// Across ten seeds of serve_hit, this cut the spread of qps and p50 from
/// about 12% (medians) to 3%, and p99's median held 8% where its upper
/// quartile swung 30%.
struct Windows {
  std::vector<double> qps, p50, p99;
  void Add(double ops, double wall_ms, const std::vector<double>& lat_ms) {
    qps.push_back(ops / (wall_ms / 1000.0));
    p50.push_back(Quantile(lat_ms, 0.50));
    p99.push_back(Quantile(lat_ms, 0.99));
  }
};

struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<Metric> metrics;
};

/// Prints the metric lines and the JSON result; returns whether the run
/// is correct. A metric that is not a finite number (a window of only
/// failed requests) prints as JSON null and makes the run incorrect.
bool Print(const RunResult& r) {
  bool correct = r.correct;
  for (const Metric& m : r.metrics) {
    correct = correct && std::isfinite(m.value);
  }
  for (const Metric& m : r.metrics) {
    std::printf("%-30s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", r.attempted, r.failed);
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": ", i ? ", " : "", m.name.c_str());
    std::isfinite(m.value) ? std::printf("%.17g", m.value)
                           : std::printf("null");
    std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct;
}

// ---------------------------------------------------------------------------
// End-to-end runs (no tracing)
// ---------------------------------------------------------------------------

/// Everything a run checks answers against; built before timing starts and
/// not part of setup_s.
struct Inputs {
  const Shape* shape;
  uint64_t seed;
  std::vector<sv::QueryRequest> queries;
  std::vector<Expected> expected;
};

Inputs MakeInputs(const Shape& s, uint64_t seed) {
  Inputs in{&s, seed, MakeQueries(s, seed), {}};
  const gd::GridFile truth = MakeFile(s, seed);
  in.expected = ComputeExpected(s, truth, in.queries);
  return in;
}

/// Counts a served read into the failure tally and the deviation window.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  uint64_t dev_sum = 0;
  uint64_t dev_n = 0;
  void Read(bool ok, bool right, uint64_t dev) {
    ++attempted;
    if (!ok || !right) ++failed;
    if (ok && !right) ++wrong;
    if (ok && right && dev_n < kDevWindow) {
      dev_sum += dev;
      ++dev_n;
    }
  }
};

/// The closed-loop generator: keeps kInFlight requests outstanding through
/// Submit, in pool order, until `deadline`; latency runs from when the
/// request was due (its slot freed) to when its answer was observed.
/// Shed or failed requests count as infinitely late.
void PipelinedLoop(sv::QueryService* service, const Inputs& in,
                   Clock::time_point deadline, Tally* tally, Windows* win) {
  struct InFlight {
    size_t q;
    Clock::time_point due;
    std::future<sv::QueryResult> result;
  };
  std::deque<InFlight> pending;
  std::vector<double> lat;
  lat.reserve(kServeWindow);
  size_t next = 0;
  Clock::time_point free_at = Clock::now();
  Clock::time_point window_start = free_at;
  bool stop = false;
  while (!stop || !pending.empty()) {
    while (!stop && pending.size() < kInFlight) {
      const size_t q = next++ % in.queries.size();
      gd::Result<std::future<sv::QueryResult>> f =
          service->Submit(in.queries[q]);
      if (!f.ok()) {
        tally->Read(false, false, 0);
        lat.push_back(INFINITY);
        continue;
      }
      pending.push_back({q, free_at, std::move(f).value()});
    }
    if (pending.empty()) {  // Everything was shed.
      if (Clock::now() >= deadline) break;
      continue;
    }
    InFlight head = std::move(pending.front());
    pending.pop_front();
    const sv::QueryResult r = head.result.get();
    const Clock::time_point done = Clock::now();
    free_at = done;
    const bool ok = r.status.ok();
    const bool right =
        ok && Matches(in.expected[head.q], r.matches, r.buckets_touched);
    tally->Read(ok, right, in.expected[head.q].dev[0]);
    lat.push_back(ok && right ? std::chrono::duration<double, std::milli>(
                                    done - head.due)
                                    .count()
                              : INFINITY);
    if (lat.size() >= kServeWindow) {
      win->Add(static_cast<double>(lat.size()),
               std::chrono::duration<double, std::milli>(done - window_start)
                   .count(),
               lat);
      lat.clear();
      window_start = done;
    }
    // Run at least the deviation window so bucket_dev_mean is exact.
    if (done >= deadline && tally->dev_n >= kDevWindow) stop = true;
  }
}

RunResult FinishE2E(const Tally& t, const Windows& w, double setup_s,
                    uint64_t cross_mismatches) {
  RunResult r;
  r.attempted = t.attempted;
  r.failed = t.failed;
  r.correct = t.wrong == 0 && cross_mismatches == 0 && t.dev_n > 0 &&
              !w.qps.empty();
  const double dev_mean = Ratio(static_cast<double>(t.dev_sum),
                                static_cast<double>(t.dev_n));
  r.metrics = {
      {"setup_s", setup_s, "s"},
      {"qps", Quantile(w.qps, 0.25), "1/s"},
      {"p50_ms", Quantile(w.p50, 0.75), "ms"},
      {"p99_ms", Median(w.p99), "ms"},
      {"rss_mb", PeakRssMb(), "MB"},
      {"bucket_dev_mean", dev_mean, "buckets"},
  };
  std::printf("%-30s %16" PRIu64 " windows\n", "measurement_windows",
              static_cast<uint64_t>(w.qps.size()));
  std::printf("%-30s %16.6f frac (%" PRIu64 " of %" PRIu64 ")\n", "fail_frac",
              Ratio(static_cast<double>(t.failed),
                    static_cast<double>(t.attempted)),
              t.failed, t.attempted);
  if (cross_mismatches) {
    std::fprintf(stderr, "perfbench: %" PRIu64
                 " served bucket counts disagree with the Evaluator\n",
                 cross_mismatches);
  }
  if (t.wrong) {
    std::fprintf(stderr, "perfbench: %" PRIu64 " wrong answers\n", t.wrong);
  }
  return r;
}

RunResult RunServeE2E(const Inputs& in, double seconds) {
  const Shape& s = *in.shape;
  std::vector<double> setups;
  std::unique_ptr<gd::MemEnv> env;
  std::unique_ptr<sv::QueryService> service;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    service.reset();
    env.reset();
    const Clock::time_point t0 = Clock::now();
    env = BuildCatalogEnv(s, in.seed);
    service = StartService(env.get(), ServiceOptions(1, s.pool_pages));
    setups.push_back(MsSince(t0) / 1000.0);
  }
  Tally tally;
  Windows win;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  PipelinedLoop(service.get(), in, deadline, &tally, &win);
  const uint64_t mismatches =
      ObserveDeviation(service.get(), s.disks, in.queries, in.expected, 32);
  Must(service->Shutdown(), "shutdown");
  return FinishE2E(tally, win, Median(setups), mismatches);
}

/// What one churn cycle's transitions took and moved.
struct CycleReport {
  double repair_ms = 0, revive_ms = 0, migrate_ms = 0;
  uint64_t transition_bytes = 0;
  uint64_t replicas_retargeted = 0;
  uint64_t verify_queries = 0;
  uint64_t uncommitted = 0;  ///< Repair/Migrate calls that did not commit.
};

struct ClusterReads {
  std::vector<double> lat_ms;
  uint64_t sub_queries = 0, hedges_fired = 0, hedge_wins = 0, rerouted = 0;
  uint64_t reads = 0;
};

/// Reads `n` pool queries through Cluster::Execute, one at a time.
void ClusterReadPhase(cl::Cluster* c, const Inputs& in, int method, size_t n,
                      size_t* next, Tally* tally, ClusterReads* out) {
  Clock::time_point due = Clock::now();
  for (size_t i = 0; i < n; ++i) {
    const size_t q = (*next)++ % in.queries.size();
    const cl::ClusterQueryResult r = c->Execute(in.queries[q]);
    const Clock::time_point done = Clock::now();
    const bool ok = r.status.ok() && r.complete;
    const bool right =
        ok && Matches(in.expected[q], r.matches, r.buckets_touched);
    tally->Read(ok, right, in.expected[q].dev[method]);
    out->lat_ms.push_back(
        ok && right ? std::chrono::duration<double, std::milli>(done - due)
                          .count()
                    : INFINITY);
    out->sub_queries += r.sub_queries;
    out->hedges_fired += r.hedges_fired;
    out->hedge_wins += r.hedge_wins;
    out->rerouted += r.rerouted_subqueries;
    out->reads++;
    due = done;
  }
}

/// One churn cycle: kill -> reads -> detect + unpaced Repair -> reads ->
/// ReviveNode -> reads -> Migrate to the other method -> reads. `*method`
/// tracks which of kMethods the cluster serves; `*vnow` the virtual clock.
CycleReport ChurnCycle(cl::Cluster* c, const Inputs& in, uint32_t kill,
                       size_t phase_reads, int* method, double* vnow,
                       size_t* next, Tally* tally, ClusterReads* reads) {
  CycleReport rep;
  Must(c->KillNode(kill), "kill node");
  ClusterReadPhase(c, in, *method, phase_reads, next, tally, reads);

  Clock::time_point t0 = Clock::now();
  *vnow += kDetectAdvanceMs;
  c->AdvanceTimeMs(*vnow);
  const cl::RepairReport repair = Must(c->Repair({}), "repair");
  rep.repair_ms = MsSince(t0);
  rep.uncommitted += repair.committed ? 0 : 1;
  rep.transition_bytes += repair.bytes_copied;
  rep.replicas_retargeted += repair.replicas_retargeted;
  rep.verify_queries += repair.verify_queries;
  ClusterReadPhase(c, in, *method, phase_reads, next, tally, reads);

  t0 = Clock::now();
  Must(c->ReviveNode(kill), "revive node");
  *vnow += kReviveAdvanceMs;
  c->AdvanceTimeMs(*vnow);
  rep.revive_ms = MsSince(t0);
  ClusterReadPhase(c, in, *method, phase_reads, next, tally, reads);

  t0 = Clock::now();
  cl::MigrationOptions mo;
  mo.new_method = kMethods[1 - *method];
  mo.new_num_disks = in.shape->disks;
  const cl::MigrationReport migrate = Must(c->Migrate(mo), "migrate");
  rep.migrate_ms = MsSince(t0);
  rep.uncommitted += migrate.committed ? 0 : 1;
  if (migrate.committed) *method = 1 - *method;
  rep.transition_bytes += migrate.bytes_copied;
  rep.verify_queries += migrate.verify_queries;
  ClusterReadPhase(c, in, *method, phase_reads, next, tally, reads);
  return rep;
}

RunResult RunClusterE2E(const Inputs& in, double seconds) {
  const Shape& s = *in.shape;
  std::vector<double> setups;
  std::unique_ptr<gd::MemEnv> env;
  std::unique_ptr<cl::Cluster> cluster;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    cluster.reset();
    env.reset();
    const Clock::time_point t0 = Clock::now();
    env = BuildCatalogEnv(s, in.seed);
    cluster = StartCluster(*env, s);
    setups.push_back(MsSince(t0) / 1000.0);
  }
  Tally tally;
  Windows win;
  std::vector<double> transitions;
  uint64_t uncommitted = 0;
  int method = 0;
  double vnow = 0.0;
  size_t next = 0;
  const std::vector<uint32_t> kills = MakeKillSchedule(in.seed, 1024);
  const Clock::time_point start = Clock::now();
  for (size_t cycle = 0; cycle < kills.size(); ++cycle) {
    // At least the cycles that cover the deviation window.
    if (cycle * 4 * kChurnPhaseReads >= kDevWindow &&
        MsSince(start) >= seconds * 1000.0) {
      break;
    }
    const Clock::time_point t0 = Clock::now();
    ClusterReads reads;
    const CycleReport rep = ChurnCycle(cluster.get(), in, kills[cycle],
                                       kChurnPhaseReads, &method, &vnow,
                                       &next, &tally, &reads);
    // Three transition operations (repair, revive, migrate) per cycle.
    tally.attempted += 3;
    uncommitted += rep.uncommitted;
    tally.failed += rep.uncommitted;
    transitions.push_back(rep.repair_ms);
    transitions.push_back(rep.migrate_ms);
    // One window per cycle, so every window holds the same operation mix
    // and the transitions' time counts against qps.
    win.Add(static_cast<double>(reads.reads + 3), MsSince(t0), reads.lat_ms);
  }
  // The sample observation runs on a standalone service over the catalog
  // as committed at set-up (the cluster's nodes have since migrated).
  auto service = StartService(env.get(), ServiceOptions(1, s.pool_pages));
  const uint64_t mismatches =
      ObserveDeviation(service.get(), s.disks, in.queries, in.expected, 32);
  Must(service->Shutdown(), "shutdown");
  // Printed, not a metric: the serve workloads have no transitions, and
  // every end-to-end metric must exist on every workload. Their time
  // counts in this workload's qps.
  std::printf("%-30s %16.6f ms (median of %zu Repair/Migrate calls)\n",
              "transition_ms", Median(transitions), transitions.size());
  RunResult r = FinishE2E(tally, win, Median(setups), mismatches);
  if (uncommitted) {
    std::fprintf(stderr,
                 "perfbench: %" PRIu64 " Repair/Migrate calls did not commit\n",
                 uncommitted);
  }
  return r;
}

// ---------------------------------------------------------------------------
// Traced per-layer run
// ---------------------------------------------------------------------------

/// In-memory span log. Spans are recorded around the benchmark's calls
/// into each layer's public functions; nothing inside the program is
/// instrumented. Written out as JSON lines when the run ends.
class Tracer {
 public:
  struct Span {
    const char* name;
    uint64_t id;
    uint64_t parent;   ///< 0 = root.
    uint64_t request;  ///< Shared by every span of one request.
    double start_us;
    double end_us;
  };

  explicit Tracer(bool on) : on_(on), t0_(Clock::now()) {}

  uint64_t Begin(const char* name, uint64_t parent, uint64_t request) {
    if (!on_) return 0;
    spans_.push_back({name, spans_.size() + 1, parent, request, NowUs(), 0.0});
    return spans_.size();
  }
  /// Ends span `id`; returns its duration in microseconds.
  double End(uint64_t id) {
    if (!on_ || id == 0) return 0.0;
    Span& s = spans_[id - 1];
    s.end_us = NowUs();
    return s.end_us - s.start_us;
  }
  uint64_t NextRequest() { return ++requests_; }
  size_t size() const { return spans_.size(); }

  /// Mean self time per span name: duration minus the time its direct
  /// children cover (children of one parent never overlap here).
  std::map<std::string, double> MeanSelfUs() const {
    std::vector<double> child_us(spans_.size() + 1, 0.0);
    for (const Span& s : spans_) {
      if (s.parent) child_us[s.parent] += s.end_us - s.start_us;
    }
    std::map<std::string, std::pair<double, uint64_t>> acc;
    for (const Span& s : spans_) {
      auto& a = acc[s.name];
      a.first += (s.end_us - s.start_us) - child_us[s.id];
      a.second++;
    }
    std::map<std::string, double> out;
    for (const auto& [name, a] : acc) out[name] = a.first / a.second;
    return out;
  }

  void Write(const std::string& path) const {
    if (path.empty()) return;
    FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return;
    }
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"id\":%" PRIu64 ",\"parent\":%" PRIu64
                   ",\"request\":%" PRIu64
                   ",\"start_us\":%.3f,\"end_us\":%.3f}\n",
                   s.name, s.id, s.parent, s.request, s.start_us, s.end_us);
    }
    std::fclose(f);
  }

 private:
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
        .count();
  }
  bool on_;
  Clock::time_point t0_;
  uint64_t requests_ = 0;
  std::vector<Span> spans_;
};

/// The relation's data file registered with a standalone PageStore, plus
/// each pool query's page visits in the order the service makes them
/// (disk ascending, then page).
struct PageStream {
  std::string file;
  gd::FileLayout layout;
  std::vector<std::vector<uint64_t>> pages;  ///< Per pool query.
  std::vector<uint64_t> warm;                ///< Full-range visit order.
};

PageStream MakePageStream(const Shape& s, const gd::StorageEnv& env,
                          const gd::GridFile& f,
                          const std::vector<sv::QueryRequest>& qs) {
  PageStream ps;
  const gd::CatalogManifest manifest =
      Must(gd::ReadCurrentManifest(env), "manifest");
  ps.file = manifest.DataFileName(0);
  ps.layout = Must(gd::ParseFileLayout(Must(env.ReadFile(ps.file), "read")),
                   "layout");
  auto method = Must(gd::CreateMethod(kMethods[0], f.grid(), s.disks), "m");
  const gd::DiskMap map = gd::DiskMap::Build(*method);
  const auto visits = [&](const std::vector<double>& lo,
                          const std::vector<double>& hi) {
    const gd::RangeQuery rq = Must(f.ResolveRange(lo, hi), "resolve");
    std::vector<std::pair<uint32_t, uint64_t>> dp;
    map.ForEachRowSpan(rq.rect(), [&](uint64_t begin, uint64_t len) {
      for (uint64_t a = begin; a < begin + len; ++a) {
        uint64_t last = UINT64_MAX;
        for (gd::RecordId id : f.BucketContents(f.grid().Delinearize(a))) {
          const uint64_t page = id / ps.layout.page_capacity;
          if (page != last) dp.push_back({map.DiskAt(a), page});
          last = page;
        }
      }
    });
    std::sort(dp.begin(), dp.end());
    dp.erase(std::unique(dp.begin(), dp.end()), dp.end());
    std::vector<uint64_t> pages;
    for (const auto& [disk, page] : dp) pages.push_back(page);
    return pages;
  };
  for (const sv::QueryRequest& q : qs) ps.pages.push_back(visits(q.lo, q.hi));
  ps.warm = visits({0.0, 0.0}, {1.0, 1.0});
  return ps;
}

std::unique_ptr<gd::PageStore> MakeStore(const gd::StorageEnv& env,
                                         const PageStream& ps, size_t pool) {
  gd::PageStore::Options o;
  o.pool_pages = pool;
  auto store = std::make_unique<gd::PageStore>(&env, o);
  store->RegisterFile(ps.file, ps.layout);
  return store;
}

/// Times GetPage over the pages of pool queries [0, n) on `store`; returns
/// per-call microseconds, split by whether the pool served the page.
struct GetTimes {
  std::vector<double> hit_us, miss_us;
  uint64_t calls = 0;
};

void TimeGets(gd::PageStore* store, const PageStream& ps, size_t begin,
              size_t n, GetTimes* out) {
  const gd::ReadPolicy policy = gd::ServeReadPolicy();
  for (size_t q = begin; q < begin + n; ++q) {
    for (uint64_t page : ps.pages[q % ps.pages.size()]) {
      gd::PageReadStats st;
      const Clock::time_point t0 = Clock::now();
      Must(store->GetPage(ps.file, page, policy, &st), "get page");
      const double us =
          std::chrono::duration<double, std::micro>(Clock::now() - t0)
              .count();
      (st.cache_hit ? out->hit_us : out->miss_us).push_back(us);
      out->calls++;
    }
  }
}

/// What one pipelined pass of the traced run observed.
struct PassCounts {
  std::vector<double> queue_ms;
  uint64_t retries = 0;
  uint64_t shed = 0;
  uint64_t zone_skips = 0;
  uint64_t pages_read = 0;
};

/// Closed-loop qps of a service over `n` pool requests (4 in flight), one
/// serve.request span per request; every answer is checked.
double PipelinedQps(sv::QueryService* service, const Inputs& in, size_t n,
                    Tracer* tracer, PassCounts* counts) {
  struct InFlight {
    size_t q;
    uint64_t span;
    std::future<sv::QueryResult> result;
  };
  std::deque<InFlight> pending;
  const Clock::time_point t0 = Clock::now();
  size_t next = 0;
  while (next < n || !pending.empty()) {
    while (next < n && pending.size() < kInFlight) {
      const size_t q = next++ % in.queries.size();
      const uint64_t span =
          tracer->Begin("serve.request", 0, tracer->NextRequest());
      gd::Result<std::future<sv::QueryResult>> f =
          service->Submit(in.queries[q]);
      if (!f.ok()) {
        tracer->End(span);
        counts->shed++;
        continue;
      }
      pending.push_back({q, span, std::move(f).value()});
    }
    InFlight head = std::move(pending.front());
    pending.pop_front();
    const sv::QueryResult r = head.result.get();
    tracer->End(head.span);
    if (!r.status.ok() ||
        !Matches(in.expected[head.q], r.matches, r.buckets_touched)) {
      Die("traced serve answer disagrees with ground truth");
    }
    counts->queue_ms.push_back(r.queue_ms);
    counts->retries += r.retries;
    counts->zone_skips += r.zone_map_skips;
    counts->pages_read += r.pages_read;
  }
  return static_cast<double>(n) / (MsSince(t0) / 1000.0);
}

uint64_t Counter(gd::obs::MetricsRegistry& reg, const char* name) {
  return reg.GetCounter(name)->value();
}

/// The serve-side layers (eval, gridfile, serve) at this workload's
/// catalog and service shape.
void TraceServeLayers(const Inputs& in, const gd::StorageEnv& env,
                      const gd::GridFile& f, Tracer* tracer,
                      std::vector<Metric>* m, uint64_t* ops) {
  const Shape& s = *in.shape;
  const size_t nq = 1000;  // Pool queries per decomposition pass.
  const PageStream ps = MakePageStream(s, env, f, in.queries);
  const sv::ServeOptions one = ServiceOptions(1, s.pool_pages);

  // --- Pipelined pass (4 in flight), untraced then traced: serve queue,
  // retry and shed counts, pool behaviour, and the tracing overhead.
  double overhead_pct = 0.0;
  PassCounts traced;
  gd::obs::MetricsRegistry before, after;
  {
    auto service = StartService(&env, one);
    Tracer off(false);
    PassCounts untraced;
    const size_t n = 2 * kPoolQueries;
    // The first pass settles the pool into its steady state.
    PipelinedQps(service.get(), in, n, &off, &untraced);
    const double qps_off = PipelinedQps(service.get(), in, n, &off, &untraced);
    service->SnapshotMetrics(&before);
    const double qps_on = PipelinedQps(service.get(), in, n, tracer, &traced);
    service->SnapshotMetrics(&after);
    overhead_pct = 100.0 * (qps_off - qps_on) / qps_off;
    *ops += 3 * n;
    Must(service->Shutdown(), "shutdown");
  }
  const uint64_t hits = Counter(after, "storage.pool.hits") -
                        Counter(before, "storage.pool.hits");
  const uint64_t misses = Counter(after, "storage.pool.misses") -
                          Counter(before, "storage.pool.misses");
  const uint64_t evictions = Counter(after, "storage.pool.evictions") -
                             Counter(before, "storage.pool.evictions");
  const double traced_n = static_cast<double>(2 * kPoolQueries);

  // --- Decomposition pass (one request outstanding): serve.exec around
  // QueryService::Execute, then eval.plan (ResolveRange + CountsForRect)
  // and one gridfile.get per page on a shadow PageStore configured and
  // warmed like the service's, replaying the service's page order.
  std::vector<double> exec_us, plan_us, self_us;
  GetTimes shadow;
  {
    auto service = StartService(&env, one);
    auto store = MakeStore(env, ps, s.pool_pages);
    for (uint64_t page : ps.warm) {
      Must(store->GetPage(ps.file, page, gd::ServeReadPolicy()), "warm");
    }
    auto method = Must(gd::CreateMethod(kMethods[0], f.grid(), s.disks), "m");
    const gd::DiskMap map = gd::DiskMap::Build(*method);
    std::vector<uint64_t> counts;
    const gd::ReadPolicy policy = gd::ServeReadPolicy();
    for (size_t q = 0; q < nq; ++q) {
      const sv::QueryRequest& req = in.queries[q];
      const uint64_t id = tracer->NextRequest();
      const uint64_t root = tracer->Begin("request", 0, id);
      const uint64_t se = tracer->Begin("serve.exec", root, id);
      const sv::QueryResult r = service->Execute(req);
      const double exec = tracer->End(se);
      if (!r.status.ok() ||
          !Matches(in.expected[q], r.matches, r.buckets_touched)) {
        Die("traced serve answer disagrees with ground truth");
      }
      const uint64_t sp = tracer->Begin("eval.plan", root, id);
      const gd::RangeQuery rq = Must(f.ResolveRange(req.lo, req.hi), "plan");
      map.CountsForRect(rq.rect(), counts);
      const double plan = tracer->End(sp);
      double get_sum = 0.0;
      for (uint64_t page : ps.pages[q]) {
        gd::PageReadStats st;
        const uint64_t sg = tracer->Begin("gridfile.get", root, id);
        Must(store->GetPage(ps.file, page, policy, &st), "get page");
        const double us = tracer->End(sg);
        get_sum += us;
        (st.cache_hit ? shadow.hit_us : shadow.miss_us).push_back(us);
      }
      tracer->End(root);
      exec_us.push_back(exec);
      plan_us.push_back(plan);
      self_us.push_back(exec - plan - get_sum);
      ++*ops;
    }
    Must(service->Shutdown(), "shutdown");
  }

  // --- Page-fetch paths in isolation: a warm pool that holds the data
  // (hit), a cold 1024-page pool (miss), and no pool at all.
  GetTimes hit, miss, nopool;
  {
    auto warm = MakeStore(env, ps, 4 * ps.warm.size());
    for (uint64_t page : ps.warm) {
      Must(warm->GetPage(ps.file, page, gd::ServeReadPolicy()), "warm");
    }
    TimeGets(warm.get(), ps, 0, nq, &hit);
    TimeGets(MakeStore(env, ps, 1024).get(), ps, 0, nq, &miss);
    TimeGets(MakeStore(env, ps, 0).get(), ps, 0, nq, &nopool);
  }
  uint64_t pages_total = 0;
  for (const auto& p : ps.pages) pages_total += p.size();

  // --- Contention probes, free to use every CPU: GetPage misses from 2
  // threads vs 1, and this workload's service with 2 workers vs 1.
  double miss_scale = 0.0;
  double scale_2w = 0.0;
  {
    const Unpinned unpinned;
    const auto rate = [&](int threads) {
      auto store = MakeStore(env, ps, 1024);
      const Clock::time_point t0 = Clock::now();
      std::vector<std::thread> ts;
      std::vector<GetTimes> per(threads);
      for (int t = 0; t < threads; ++t) {
        ts.emplace_back([&, t] {
          TimeGets(store.get(), ps, t * (kPoolQueries / 2), nq / 2, &per[t]);
        });
      }
      for (std::thread& th : ts) th.join();
      uint64_t calls = 0;
      for (const GetTimes& g : per) calls += g.calls;
      return static_cast<double>(calls) / (MsSince(t0) / 1000.0);
    };
    miss_scale = rate(2) / rate(1);
    const auto qps = [&](uint32_t workers) {
      auto service = StartService(&env, ServiceOptions(workers,
                                                       s.pool_pages));
      Tracer off(false);
      PassCounts counts;
      const double v =
          PipelinedQps(service.get(), in, kPoolQueries, &off, &counts);
      Must(service->Shutdown(), "shutdown");
      return v;
    };
    scale_2w = qps(2) / qps(1);
    *ops += 2 * kPoolQueries;
  }

  m->push_back({"eval.plan_us", Mean(plan_us), "us"});
  // |Q| over the whole pool, as the Evaluator counts it; equal to
  // pages_per_query because one page holds one bucket.
  double buckets = 0.0;
  for (const Expected& e : in.expected) {
    buckets += static_cast<double>(e.buckets);
  }
  m->push_back({"eval.buckets_per_query",
                buckets / static_cast<double>(in.expected.size()), "count"});
  m->push_back({"gridfile.get_hit_us", Mean(hit.hit_us), "us"});
  m->push_back({"gridfile.get_miss_us", Mean(miss.miss_us), "us"});
  m->push_back({"gridfile.get_nopool_us", Mean(nopool.miss_us), "us"});
  m->push_back({"gridfile.pool_hit_ratio",
                Ratio(static_cast<double>(hits),
                      static_cast<double>(hits + misses)),
                "ratio"});
  m->push_back({"gridfile.evictions_per_query",
                static_cast<double>(evictions) / traced_n, "count"});
  m->push_back({"gridfile.pages_per_query",
                static_cast<double>(pages_total) /
                    static_cast<double>(ps.pages.size()),
                "count"});
  m->push_back({"gridfile.zone_skip_ratio",
                Ratio(static_cast<double>(traced.zone_skips),
                      static_cast<double>(traced.pages_read)),
                "ratio"});
  m->push_back({"gridfile.miss_scale_2t", miss_scale, "ratio"});
  m->push_back({"serve.exec_us", Mean(exec_us), "us"});
  m->push_back({"serve.queue_ms_p50", Quantile(traced.queue_ms, 0.5), "ms"});
  m->push_back({"serve.self_us", Mean(self_us), "us"});
  m->push_back({"serve.retries_per_query",
                static_cast<double>(traced.retries) / traced_n, "count"});
  m->push_back({"serve.shed_frac", static_cast<double>(traced.shed) / traced_n,
                "ratio"});
  m->push_back({"serve.scale_2w", scale_2w, "ratio"});
  m->push_back({"trace.overhead_pct", overhead_pct, "%"});
  std::printf("%-30s %16.6f us (shadow pool, %zu hits / %zu misses)\n",
              "gridfile.shadow_get_us",
              Mean(shadow.hit_us.empty() ? shadow.miss_us : shadow.hit_us),
              shadow.hit_us.size(), shadow.miss_us.size());
}

/// The cluster layer at this workload's catalog: coordinator self time
/// against a standalone service, then churn cycles for the transitions.
void TraceClusterLayer(const Inputs& in, const gd::StorageEnv& env,
                       Tracer* tracer, std::vector<Metric>* m,
                       uint64_t* ops) {
  const Shape& s = *in.shape;
  // Serve catalogs carry no placement record; ClusterOpts' override places
  // them zone_aware on the same 4-node, 2-zone topology.
  auto cluster = StartCluster(env, s);
  auto service = StartService(&env, ServiceOptions(1, s.pool_pages));

  const size_t nq = 1000;
  std::vector<double> exec_us, self_us;
  for (size_t q = 0; q < nq; ++q) {
    const sv::QueryRequest& req = in.queries[q];
    const uint64_t id = tracer->NextRequest();
    const uint64_t root = tracer->Begin("request", 0, id);
    const uint64_t sc = tracer->Begin("cluster.exec", root, id);
    const cl::ClusterQueryResult r = cluster->Execute(req);
    const double cexec = tracer->End(sc);
    const uint64_t ss = tracer->Begin("serve.exec", root, id);
    const sv::QueryResult sr = service->Execute(req);
    const double sexec = tracer->End(ss);
    tracer->End(root);
    if (!r.status.ok() || !r.complete || !sr.status.ok() ||
        !Matches(in.expected[q], r.matches, r.buckets_touched) ||
        !Matches(in.expected[q], sr.matches, sr.buckets_touched)) {
      Die("traced cluster answer disagrees with ground truth");
    }
    exec_us.push_back(cexec);
    self_us.push_back(cexec - sexec);
    ++*ops;
  }
  Must(service->Shutdown(), "shutdown");

  // Two churn cycles on the seeded schedule; spans per transition.
  const std::vector<uint32_t> kills = MakeKillSchedule(in.seed, 2);
  int method = 0;
  double vnow = 0.0;
  size_t next = 0;
  Tally tally;
  ClusterReads reads;
  std::vector<double> repair_ms, migrate_ms, revive_ms;
  std::vector<double> bytes, retargeted, verify;
  for (uint32_t kill : kills) {
    const uint64_t id = tracer->NextRequest();
    const uint64_t span = tracer->Begin("cluster.cycle", 0, id);
    const CycleReport rep = ChurnCycle(cluster.get(), in, kill, 250, &method,
                                       &vnow, &next, &tally, &reads);
    tracer->End(span);
    if (rep.uncommitted) Die("traced churn cycle did not commit");
    repair_ms.push_back(rep.repair_ms);
    migrate_ms.push_back(rep.migrate_ms);
    revive_ms.push_back(rep.revive_ms);
    bytes.push_back(static_cast<double>(rep.transition_bytes));
    retargeted.push_back(static_cast<double>(rep.replicas_retargeted));
    verify.push_back(static_cast<double>(rep.verify_queries));
  }
  if (tally.failed) Die("traced churn reads failed");
  *ops += tally.attempted;
  const double subq = static_cast<double>(reads.sub_queries);
  m->push_back({"cluster.exec_us", Mean(exec_us), "us"});
  m->push_back({"cluster.self_us", Mean(self_us), "us"});
  m->push_back({"cluster.subq_per_query",
                subq / static_cast<double>(reads.reads), "count"});
  m->push_back({"cluster.hedge_ratio",
                Ratio(static_cast<double>(reads.hedges_fired), subq),
                "ratio"});
  m->push_back({"cluster.hedge_win_ratio",
                Ratio(static_cast<double>(reads.hedge_wins),
                      static_cast<double>(reads.hedges_fired)),
                "ratio"});
  m->push_back({"cluster.reroute_per_query",
                static_cast<double>(reads.rerouted) /
                    static_cast<double>(reads.reads),
                "count"});
  m->push_back({"cluster.repair_ms", Median(repair_ms), "ms"});
  m->push_back({"cluster.migrate_ms", Median(migrate_ms), "ms"});
  m->push_back({"cluster.revive_ms", Median(revive_ms), "ms"});
  m->push_back({"cluster.transition_bytes", Mean(bytes), "bytes"});
  m->push_back({"cluster.replicas_retargeted", Mean(retargeted), "count"});
  m->push_back({"cluster.verify_queries", Mean(verify), "count"});
}

RunResult RunTraced(const Inputs& in, const std::string& trace_out) {
  const Shape& s = *in.shape;
  const std::unique_ptr<gd::MemEnv> env = BuildCatalogEnv(s, in.seed);
  const gd::GridFile f = MakeFile(s, in.seed);
  Tracer tracer(true);
  RunResult r;
  TraceServeLayers(in, *env, f, &tracer, &r.metrics, &r.attempted);
  TraceClusterLayer(in, *env, &tracer, &r.metrics, &r.attempted);
  const std::map<std::string, double> self = tracer.MeanSelfUs();
  for (const auto& [name, us] : self) {
    std::printf("%-30s %16.6f us (mean span self time)\n",
                ("span." + name).c_str(), us);
  }
  std::printf("%-30s %16zu spans\n", "trace.spans", tracer.size());
  tracer.Write(trace_out);
  std::sort(r.metrics.begin(), r.metrics.end(),
            [](const Metric& a, const Metric& b) { return a.name < b.name; });
  return r;
}

// ---------------------------------------------------------------------------

void Dump(const Inputs& in) {
  for (const sv::QueryRequest& q : in.queries) {
    std::printf("q %.17g %.17g %.17g %.17g\n", q.lo[0], q.lo[1], q.hi[0],
                q.hi[1]);
  }
  for (uint32_t k : MakeKillSchedule(in.seed, 16)) {
    std::printf("kill %u\n", k);
  }
}

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve_hit|serve_miss|"
               "cluster_churn --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE] [--dump]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_out;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false, dump = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage();
      return argv[++i];
    };
    if (a == "--workload") {
      workload = value();
    } else if (a == "--seed") {
      seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      trace = value() == "1";
    } else if (a == "--trace-out") {
      trace_out = value();
    } else if (a == "--dump") {
      dump = true;
    } else {
      Usage();
    }
  }
  const Shape* shape = FindShape(workload);
  if (!shape || seconds <= 0.0) Usage();

  if (dump) {
    Dump(Inputs{shape, seed, MakeQueries(*shape, seed), {}});
    return 0;
  }
  PinToCurrentCpu();
  const Inputs in = MakeInputs(*shape, seed);
  const RunResult r = trace ? RunTraced(in, trace_out)
                            : shape->cluster ? RunClusterE2E(in, seconds)
                                             : RunServeE2E(in, seconds);
  return Print(r) ? 0 : 1;
}
