/// Ablation A12 (ours): scrub-and-repair throughput. The durability layer
/// (checksummed page format + catalog manifest + scrub) only earns its keep
/// if verification is cheap relative to the data it protects, so this
/// experiment measures end-to-end scrub speed — pages and megabytes per
/// second — on a 64x64, M=16 catalog under each redundancy policy, plus
/// the marginal cost of actually repairing injected page damage.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "bench_util.h"

namespace griddecl {
namespace {

constexpr int kRecordsPerRelation = 50'000;
constexpr uint32_t kNumDisks = 16;

GridFile MakeFile(uint64_t seed) {
  Schema schema = Schema::Create({{"x", 0.0, 1.0}, {"y", 0.0, 1.0}}).value();
  GridFile f = GridFile::Create(std::move(schema), {64, 64}).value();
  Rng rng(seed);
  for (int i = 0; i < kRecordsPerRelation; ++i) {
    (void)f.Insert({rng.NextDouble(), rng.NextDouble()}).value();
  }
  return f;
}

Catalog MakeCatalog() {
  Catalog catalog(kNumDisks);
  uint64_t seed = 7;
  for (const char* method : {"dm", "hcam", "fx"}) {
    GRIDDECL_CHECK(
        catalog
            .AddRelation(method, DeclusteredFile::Create(MakeFile(seed++),
                                                         method, kNumDisks)
                                     .value())
            .ok());
  }
  return catalog;
}

MemEnv SaveWithPolicy(const Catalog& catalog,
                      RelationRedundancy::Policy policy) {
  MemEnv env;
  ManifestSaveOptions options;
  options.default_redundancy.policy = policy;
  options.default_redundancy.copies = 2;
  options.default_redundancy.group_pages = 8;
  (void)SaveCatalogManifest(catalog, &env, options).value();
  return env;
}

/// Flip one byte in the middle of each relation's first data page.
void DamageEveryRelation(MemEnv* env) {
  const CatalogManifest m = ReadCurrentManifest(*env).value();
  for (size_t i = 0; i < m.relations.size(); ++i) {
    const FileLayout layout =
        ParseFileLayout(env->ReadFile(m.DataFileName(i)).value()).value();
    (void)env->CorruptByte(m.DataFileName(i), layout.PageOffset(0) + 64,
                           0xA5);
  }
}

uint64_t CatalogBytes(const MemEnv& env) {
  uint64_t total = 0;
  const std::vector<std::string> names = env.ListFiles().value();
  for (const std::string& name : names) {
    total += env.ReadFile(name).value().size();
  }
  return total;
}

double MedianScrubMs(const MemEnv& base, bool damage) {
  // Median of 5 runs, each on a fresh copy of the env.
  std::vector<double> ms;
  for (int run = 0; run < 5; ++run) {
    MemEnv env = base;
    if (damage) DamageEveryRelation(&env);
    const auto start = std::chrono::steady_clock::now();
    const ScrubReport report = ScrubCatalog(&env).value();
    const auto stop = std::chrono::steady_clock::now();
    GRIDDECL_CHECK(damage ? report.pages_repaired == 3 : report.Clean());
    ms.push_back(
        std::chrono::duration<double, std::milli>(stop - start).count());
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

void PrintExperiment() {
  const Catalog catalog = MakeCatalog();
  Table t({"Policy", "Pages", "MB", "Clean ms", "Pages/s", "MB/s",
           "Repair ms"});
  for (const auto policy : {RelationRedundancy::Policy::kNone,
                            RelationRedundancy::Policy::kMirror,
                            RelationRedundancy::Policy::kParity}) {
    const MemEnv env = SaveWithPolicy(catalog, policy);
    const ScrubReport clean = [&] {
      MemEnv copy = env;
      return ScrubCatalog(&copy).value();
    }();
    const double mb = static_cast<double>(CatalogBytes(env)) / (1 << 20);
    const double clean_ms = MedianScrubMs(env, /*damage=*/false);
    // Repairs need redundancy; unprotected catalogs only report.
    const bool repairable = policy != RelationRedundancy::Policy::kNone;
    const double repair_ms =
        repairable ? MedianScrubMs(env, /*damage=*/true) : 0.0;
    t.AddRow({RedundancyPolicyName(policy),
              std::to_string(clean.pages_scanned), Table::Fmt(mb, 1),
              Table::Fmt(clean_ms, 2),
              Table::Fmt(clean.pages_scanned / (clean_ms / 1000.0), 0),
              Table::Fmt(mb / (clean_ms / 1000.0), 0),
              repairable ? Table::Fmt(repair_ms, 2) : "-"});
  }
  bench::PrintTable(
      "A12: scrub throughput (64x64 grid, M=16, 3 relations x " +
          std::to_string(kRecordsPerRelation) +
          " records, 4 KiB pages; repair = 1 damaged page per relation)",
      t);
  std::cout << "Note: scrub reads every replica, so mirror/parity rows "
               "verify more bytes than the unprotected row at the same "
               "page count; Pages/s counts primary data pages only.\n";
}

void BM_ScrubClean(benchmark::State& state) {
  const Catalog catalog = MakeCatalog();
  const MemEnv base =
      SaveWithPolicy(catalog, RelationRedundancy::Policy::kMirror);
  uint64_t pages = 0;
  for (auto _ : state) {
    MemEnv env = base;
    const ScrubReport report = ScrubCatalog(&env).value();
    pages += report.pages_scanned;
    benchmark::DoNotOptimize(report.pages_scanned);
  }
  state.counters["pages/s"] = benchmark::Counter(
      static_cast<double>(pages), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ScrubClean)->Unit(benchmark::kMillisecond);

void BM_ScrubRepairMirror(benchmark::State& state) {
  const Catalog catalog = MakeCatalog();
  MemEnv damaged =
      SaveWithPolicy(catalog, RelationRedundancy::Policy::kMirror);
  DamageEveryRelation(&damaged);
  for (auto _ : state) {
    MemEnv env = damaged;
    benchmark::DoNotOptimize(ScrubCatalog(&env).value().pages_repaired);
  }
}
BENCHMARK(BM_ScrubRepairMirror)->Unit(benchmark::kMillisecond);

void BM_Crc32c(benchmark::State& state) {
  const std::string buffer(1 << 20, '\x5a');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(buffer));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(buffer.size()));
}
BENCHMARK(BM_Crc32c);

void BM_SerializeGridFile(benchmark::State& state) {
  const GridFile file = MakeFile(99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SerializeGridFile(file).value().size());
  }
}
BENCHMARK(BM_SerializeGridFile)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace griddecl

int main(int argc, char** argv) {
  griddecl::PrintExperiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
