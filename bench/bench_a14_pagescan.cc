/// Ablation A14 (ours): vectorized columnar page scans. The v3 page
/// format stores each page's records attribute-major with per-attribute
/// min/max zone maps, and the PageStore verifies a page's CRC once at
/// pool admission; every later read reuses the cached decoded columns.
/// This experiment prices the redesign against the pre-PageStore read
/// path — re-verify the page CRC and row-decode on every visit — on a
/// range-scan workload over data clustered on its first attribute (so
/// the zone maps have teeth). Kernels:
///
///  * pagescan_v2_rowwise — the old path: per page visit, CRC verify +
///    row-major decode + branchy per-record filter. Its pages are the
///    retired row-major v2 page body, `[u32 count][u32 crc][rows…]`,
///    built here by a bench-local codec; the library stores v3 only.
///  * pagescan_v3_cold    — pool invalidated each pass: the first query
///    pays read+verify+decode at admission, the rest hit cache.
///  * pagescan_v3_warm    — steady state: every visit is a pool hit;
///    zone maps skip whole pages, survivors get the branch-free
///    columnar filter.
///
/// All three kernels must produce the identical match total.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "griddecl/common/bytes.h"
#include "griddecl/common/check.h"
#include "griddecl/common/crc32c.h"
#include "griddecl/common/random.h"
#include "griddecl/gridfile/page_store.h"
#include "griddecl/gridfile/storage.h"
#include "griddecl/gridfile/storage_env.h"

namespace griddecl {
namespace {

constexpr uint32_t kNumAttrs = 4;
constexpr int kNumRecords = 60000;
constexpr int kNumQueries = 32;
constexpr uint32_t kPageSize = 4096;

/// Data clustered on attribute 0: random points inserted in sorted-x
/// order, so consecutive record ids — and therefore pages — cover tight
/// attribute-0 ranges and the per-page zone maps can prove misses.
GridFile MakeSortedFile(uint64_t seed) {
  Schema schema = Schema::Create({{"x0", 0.0, 1.0},
                                  {"x1", 0.0, 1.0},
                                  {"x2", 0.0, 1.0},
                                  {"x3", 0.0, 1.0}})
                      .value();
  GridFile f = GridFile::Create(std::move(schema), {4, 4, 4, 4}).value();
  Rng rng(seed);
  std::vector<std::vector<double>> points;
  points.reserve(kNumRecords);
  for (int i = 0; i < kNumRecords; ++i) {
    points.push_back({rng.NextDouble(), rng.NextDouble(), rng.NextDouble(),
                      rng.NextDouble()});
  }
  std::sort(points.begin(), points.end(),
            [](const std::vector<double>& a, const std::vector<double>& b) {
              return a[0] < b[0];
            });
  for (const std::vector<double>& p : points) {
    GRIDDECL_CHECK(f.Insert(p).ok());
  }
  return f;
}

struct Box {
  std::vector<double> lo;
  std::vector<double> hi;
};

/// Half the queries are narrow attribute-0 slices (the zone-map
/// showcase: most pages provably miss), half are wide boxes on every
/// attribute (the filter showcase: most pages must be scanned).
std::vector<Box> MakeQueries(uint64_t seed) {
  std::vector<Box> queries;
  Rng rng(seed);
  for (int q = 0; q < kNumQueries; ++q) {
    Box box;
    box.lo.assign(kNumAttrs, 0.0);
    box.hi.assign(kNumAttrs, 1.0);
    if (q % 2 == 0) {
      const double a = rng.NextDouble() * 0.96;
      box.lo[0] = a;
      box.hi[0] = a + 0.04;
    } else {
      for (uint32_t d = 0; d < kNumAttrs; ++d) {
        const double a = rng.NextDouble() * 0.5;
        box.lo[d] = a;
        box.hi[d] = a + 0.5;
      }
    }
    queries.push_back(std::move(box));
  }
  return queries;
}

std::string Serialize(const GridFile& file) {
  SaveOptions save;
  save.page_size_bytes = kPageSize;
  return SerializeGridFile(file, save).value();
}

/// The row-major reference pages: `kPageSize`-byte pages of
/// `[u32 record_count][u32 page_crc][records, kNumAttrs f64 each]` plus
/// zero padding, packed full in id order, with no file header or footer.
/// `layout` is built by hand so `VerifyPageBytes` checks them: its page
/// capacity is the row-major one, (kPageSize - 8) / (8 * kNumAttrs).
struct RowMajorPages {
  std::string bytes;
  FileLayout layout;
};

RowMajorPages SerializeRowMajor(const GridFile& file) {
  RowMajorPages out;
  FileLayout& l = out.layout;
  l.page_size_bytes = kPageSize;
  l.num_attrs = kNumAttrs;
  l.num_records = file.num_records();
  l.page_capacity = (kPageSize - kPageHeaderBytes) / (8 * kNumAttrs);
  l.num_pages = (l.num_records + l.page_capacity - 1) / l.page_capacity;
  for (uint64_t p = 0; p < l.num_pages; ++p) {
    const size_t page_start = out.bytes.size();
    const uint32_t in_page = l.PageRecords(p);
    AppendU32(&out.bytes, in_page);
    AppendU32(&out.bytes, 0);  // CRC patched below.
    for (uint32_t r = 0; r < in_page; ++r) {
      for (double v : file.record(p * l.page_capacity + r)) {
        AppendF64(&out.bytes, v);
      }
    }
    out.bytes.resize(page_start + kPageSize, '\0');
    const std::string_view page =
        std::string_view(out.bytes).substr(page_start, kPageSize);
    PatchU32(&out.bytes, page_start + 4, Crc32c(page));
  }
  return out;
}

/// The pre-PageStore read path, per page visit: CRC verify, then a
/// row-major decode-and-test of every record (early-exit per attribute).
uint64_t ScanV2Rowwise(const RowMajorPages& pages,
                       const std::vector<Box>& queries) {
  const FileLayout& layout = pages.layout;
  uint64_t matches = 0;
  const std::string_view view(pages.bytes);
  for (const Box& q : queries) {
    for (uint64_t p = 0; p < layout.num_pages; ++p) {
      const std::string_view page =
          view.substr(layout.PageOffset(p), layout.page_size_bytes);
      GRIDDECL_CHECK(VerifyPageBytes(page, layout, p).ok());
      const uint32_t in_page = layout.PageRecords(p);
      const char* rows = page.data() + kPageHeaderBytes;
      for (uint32_t r = 0; r < in_page; ++r) {
        bool match = true;
        for (uint32_t a = 0; a < kNumAttrs; ++a) {
          double v;
          std::memcpy(&v, rows + (uint64_t{r} * kNumAttrs + a) * 8, 8);
          if (v < q.lo[a] || v > q.hi[a]) {
            match = false;
            break;
          }
        }
        if (match) ++matches;
      }
    }
  }
  return matches;
}

/// The PageStore path: pool lookup, zone-map page skip, branch-free
/// columnar filter over the cached column vectors.
uint64_t ScanV3(PageStore* store, const FileLayout& layout,
                const std::vector<Box>& queries, uint64_t* zone_skips) {
  uint64_t matches = 0;
  std::vector<uint8_t> mask;
  for (const Box& q : queries) {
    for (uint64_t p = 0; p < layout.num_pages; ++p) {
      const PinnedPage page =
          store->GetPage("rel", p, ReadPolicy{}).value();
      const DecodedPage& decoded = page.decoded();
      if (!decoded.MayMatch(q.lo, q.hi)) {
        if (zone_skips != nullptr) ++*zone_skips;
        continue;
      }
      const uint32_t in_page = decoded.num_records;
      mask.assign(in_page, 1);
      for (uint32_t a = 0; a < kNumAttrs; ++a) {
        const double lo = q.lo[a];
        const double hi = q.hi[a];
        const double* col = decoded.column(a);
        uint8_t* m = mask.data();
        for (uint32_t slot = 0; slot < in_page; ++slot) {
          m[slot] &=
              static_cast<uint8_t>(col[slot] >= lo && col[slot] <= hi);
        }
      }
      for (uint32_t slot = 0; slot < in_page; ++slot) matches += mask[slot];
    }
  }
  return matches;
}

/// Pool options that keep the whole relation resident: the probation
/// segment (a quarter of capacity) must hold every page, or a cyclic
/// full-relation sweep would evict single-touch pages before their
/// promoting second touch — exactly the flood the scan-resistant pool
/// is designed to not cache.
PageStore::Options StoreOptions(const FileLayout& layout) {
  PageStore::Options options;
  options.pool_pages = static_cast<size_t>(4 * layout.num_pages);
  return options;
}

int RunBenchJson(bench::BenchJson& json) {
  const GridFile file = MakeSortedFile(11);
  const std::vector<Box> queries = MakeQueries(23);

  const RowMajorPages v2 = SerializeRowMajor(file);

  MemEnv env;
  const std::string v3_bytes = Serialize(file);
  GRIDDECL_CHECK(env.WriteFile("rel", v3_bytes).ok());
  const FileLayout v3_layout = ParseFileLayout(v3_bytes).value();

  // Deterministic pass first: match totals must agree across formats,
  // and the zone-skip / pool-hit counters are workload-defined.
  const uint64_t v2_matches = ScanV2Rowwise(v2, queries);
  uint64_t zone_skips = 0;
  PageStore counting_store(&env, StoreOptions(v3_layout));
  counting_store.RegisterFile("rel", v3_layout);
  const uint64_t v3_matches =
      ScanV3(&counting_store, v3_layout, queries, &zone_skips);
  GRIDDECL_CHECK(v2_matches == v3_matches);
  const BufferPool::Stats pool = counting_store.PoolStats();
  GRIDDECL_CHECK(pool.evictions == 0);

  json.TimeKernel("pagescan_v2_rowwise", [&] {
    const uint64_t m = ScanV2Rowwise(v2, queries);
    GRIDDECL_CHECK(m == v2_matches);
  });

  PageStore cold_store(&env, StoreOptions(v3_layout));
  cold_store.RegisterFile("rel", v3_layout);
  json.TimeKernel("pagescan_v3_cold", [&] {
    cold_store.Invalidate("rel");
    const uint64_t m = ScanV3(&cold_store, v3_layout, queries, nullptr);
    GRIDDECL_CHECK(m == v3_matches);
  });

  PageStore warm_store(&env, StoreOptions(v3_layout));
  warm_store.RegisterFile("rel", v3_layout);
  // TimeKernel's untimed warmup pass fills the pool; timed reps are all
  // steady-state hits.
  json.TimeKernel("pagescan_v3_warm", [&] {
    const uint64_t m = ScanV3(&warm_store, v3_layout, queries, nullptr);
    GRIDDECL_CHECK(m == v3_matches);
  });

  const double v2_ms = json.KernelMedianMs("pagescan_v2_rowwise");
  const double cold_ms = json.KernelMedianMs("pagescan_v3_cold");
  const double warm_ms = json.KernelMedianMs("pagescan_v3_warm");
  const double visits =
      static_cast<double>(kNumQueries) *
      static_cast<double>(v3_layout.num_pages);
  if (warm_ms > 0.0) {
    json.TimingStat("v3_warm_speedup_vs_v2", v2_ms / warm_ms);
    json.TimingStat("v3_warm_pages_per_sec", visits / (warm_ms / 1000.0));
  }
  if (cold_ms > 0.0) {
    json.TimingStat("v3_cold_speedup_vs_v2", v2_ms / cold_ms);
  }
  if (v2_ms > 0.0) {
    json.TimingStat("v2_pages_per_sec", visits / (v2_ms / 1000.0));
  }

  json.Counter("num_records", kNumRecords);
  json.Counter("num_attrs", kNumAttrs);
  json.Counter("num_queries", kNumQueries);
  json.Counter("num_pages_v3", static_cast<double>(v3_layout.num_pages));
  json.Counter("num_pages_v2", static_cast<double>(v2.layout.num_pages));
  json.Counter("total_matches", static_cast<double>(v3_matches));
  json.Counter("zone_map_skips", static_cast<double>(zone_skips));
  json.Counter("zone_map_skip_rate_pct",
               100.0 * static_cast<double>(zone_skips) / visits);
  json.Counter("pool_hit_ratio_pct",
               100.0 * static_cast<double>(pool.hits) /
                   static_cast<double>(pool.hits + pool.misses));

  // Pool gauges from the deterministic pass (single fixed workload, so
  // every value is reproducible byte for byte).
  obs::MetricsRegistry registry;
  counting_store.PublishMetrics(&registry);
  json.AttachRegistry(registry);
  return json.Write();
}

void PrintExperiment() {
  const GridFile file = MakeSortedFile(11);
  const std::vector<Box> queries = MakeQueries(23);
  const RowMajorPages v2 = SerializeRowMajor(file);
  MemEnv env;
  const std::string v3_bytes = Serialize(file);
  GRIDDECL_CHECK(env.WriteFile("rel", v3_bytes).ok());
  const FileLayout v3_layout = ParseFileLayout(v3_bytes).value();

  const uint64_t v2_matches = ScanV2Rowwise(v2, queries);
  uint64_t zone_skips = 0;
  PageStore store(&env, StoreOptions(v3_layout));
  store.RegisterFile("rel", v3_layout);
  const uint64_t v3_matches = ScanV3(&store, v3_layout, queries, &zone_skips);
  GRIDDECL_CHECK(v2_matches == v3_matches);

  const uint64_t visits =
      static_cast<uint64_t>(kNumQueries) * v3_layout.num_pages;
  Table t({"Path", "Pages", "Page visits", "Zone-skipped", "Matches"});
  t.AddRow({"v2 rowwise (verify+decode each visit)",
            std::to_string(v2.layout.num_pages), std::to_string(visits), "0",
            std::to_string(v2_matches)});
  t.AddRow({"v3 columnar via PageStore", std::to_string(v3_layout.num_pages),
            std::to_string(visits), std::to_string(zone_skips),
            std::to_string(v3_matches)});
  bench::PrintTable(
      "A14 — columnar v3 page scans: zone-map skips and cached decode", t);
}

void BM_PageScanV2Rowwise(benchmark::State& state) {
  const GridFile file = MakeSortedFile(11);
  const std::vector<Box> queries = MakeQueries(23);
  const RowMajorPages v2 = SerializeRowMajor(file);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ScanV2Rowwise(v2, queries));
  }
  state.SetItemsProcessed(state.iterations() * kNumQueries *
                          static_cast<int64_t>(v2.layout.num_pages));
}
BENCHMARK(BM_PageScanV2Rowwise)->Unit(benchmark::kMillisecond);

void BM_PageScanV3Warm(benchmark::State& state) {
  const GridFile file = MakeSortedFile(11);
  const std::vector<Box> queries = MakeQueries(23);
  MemEnv env;
  const std::string bytes = Serialize(file);
  GRIDDECL_CHECK(env.WriteFile("rel", bytes).ok());
  const FileLayout layout = ParseFileLayout(bytes).value();
  PageStore store(&env, StoreOptions(layout));
  store.RegisterFile("rel", layout);
  (void)ScanV3(&store, layout, queries, nullptr);  // Warm the pool.
  for (auto _ : state) {
    benchmark::DoNotOptimize(ScanV3(&store, layout, queries, nullptr));
  }
  state.SetItemsProcessed(state.iterations() * kNumQueries *
                          static_cast<int64_t>(layout.num_pages));
}
BENCHMARK(BM_PageScanV3Warm)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace griddecl

int main(int argc, char** argv) {
  griddecl::bench::BenchJson json("a14_pagescan", &argc, argv);
  if (json.enabled()) return griddecl::RunBenchJson(json);
  griddecl::PrintExperiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
