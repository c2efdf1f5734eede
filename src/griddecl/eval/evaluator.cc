#include "griddecl/eval/evaluator.h"

#include <algorithm>
#include <cmath>
#include <thread>

#include "griddecl/eval/metrics.h"

namespace griddecl {

namespace {

/// Below this many queries the thread-spawn overhead is not worth it.
constexpr size_t kSerialThreshold = 64;

void MergeInto(WorkloadEval* total, const WorkloadEval& part) {
  total->num_queries += part.num_queries;
  total->num_optimal += part.num_optimal;
  total->response.Merge(part.response);
  total->optimal.Merge(part.optimal);
  total->ratio.Merge(part.ratio);
  total->additive_deviation.Merge(part.additive_deviation);
}

const DeclusteringMethod& DerefChecked(const DeclusteringMethod* method) {
  GRIDDECL_CHECK(method != nullptr);
  return *method;
}

/// Metric handles for one evaluation pass, resolved once per range so the
/// per-query cost is a null check. All-null when no registry is attached.
struct EvalMetrics {
  explicit EvalMetrics(obs::MetricsRegistry* registry) {
    if (registry == nullptr) return;
    queries = registry->GetCounter("eval.queries");
    buckets = registry->GetCounter("eval.buckets_scanned");
    fastpath = registry->GetCounter("eval.fastpath_queries");
    generic = registry->GetCounter("eval.generic_queries");
    response = registry->GetHistogram("eval.response_time",
                                      obs::ExponentialBounds(1, 2, 16));
  }
  obs::Counter* queries = nullptr;
  obs::Counter* buckets = nullptr;
  obs::Counter* fastpath = nullptr;
  obs::Counter* generic = nullptr;
  obs::Histogram* response = nullptr;
};

}  // namespace

double WorkloadEval::ResponseCi95HalfWidth() const {
  if (num_queries < 2) return 0.0;
  return 1.96 * response.stddev() /
         std::sqrt(static_cast<double>(num_queries));
}

Evaluator::Evaluator(const DeclusteringMethod& method, EvalOptions options)
    : method_(&method), options_(options) {
  if (options_.use_disk_map &&
      DiskMap::BytesNeeded(method.grid(), method.num_disks()) <=
          options_.max_disk_map_bytes) {
    disk_map_.emplace(DiskMap::Build(method));
  }
}

Evaluator::Evaluator(const DeclusteringMethod* method)
    : Evaluator(DerefChecked(method)) {}

QueryEval Evaluator::EvaluateQuery(const RangeQuery& query,
                                   std::vector<uint64_t>& scratch) const {
  QueryEval e;
  e.num_buckets = query.NumBuckets();
  if (disk_map_) {
    e.response = disk_map_->ResponseTimeForRect(query.rect(), scratch);
  } else {
    PerDiskCounts(*method_, query, scratch);
    e.response = *std::max_element(scratch.begin(), scratch.end());
  }
  e.optimal = OptimalResponseTime(e.num_buckets, method_->num_disks());
  return e;
}

QueryEval Evaluator::EvaluateQuery(const RangeQuery& query) const {
  std::vector<uint64_t> scratch;
  return EvaluateQuery(query, scratch);
}

WorkloadEval Evaluator::EvaluateRange(const Workload& workload, size_t begin,
                                      size_t end,
                                      obs::MetricsRegistry* sink) const {
  WorkloadEval agg;
  agg.method_name = method_->name();
  agg.workload_name = workload.name;
  const EvalMetrics m(sink);
  // Fast path = the materialized map's analytic stride counting; the
  // distinction is per evaluator, recorded per query so mixed-method runs
  // sharing a registry stay interpretable.
  obs::Counter* path_counter =
      disk_map_ && disk_map_->has_row_stride() ? m.fastpath : m.generic;
  std::vector<uint64_t> scratch;
  for (size_t i = begin; i < end; ++i) {
    const QueryEval e = EvaluateQuery(workload.queries[i], scratch);
    ++agg.num_queries;
    if (e.response == e.optimal) ++agg.num_optimal;
    agg.response.Add(static_cast<double>(e.response));
    agg.optimal.Add(static_cast<double>(e.optimal));
    agg.ratio.Add(e.Ratio());
    agg.additive_deviation.Add(static_cast<double>(e.AdditiveDeviation()));
    obs::Inc(m.queries);
    obs::Inc(m.buckets, e.num_buckets);
    obs::Inc(path_counter);
    obs::Observe(m.response, static_cast<double>(e.response));
  }
  return agg;
}

WorkloadEval Evaluator::EvaluateWorkload(const Workload& workload) const {
  obs::ScopedTimer timer(
      options_.metrics == nullptr
          ? nullptr
          : options_.metrics->GetHistogram("eval.workload_ms",
                                           obs::DefaultLatencyBoundsMs()));
  const size_t n = workload.size();
  uint32_t num_threads =
      options_.num_threads == 0
          ? std::max(1u, std::thread::hardware_concurrency())
          : options_.num_threads;
  num_threads = static_cast<uint32_t>(std::min<size_t>(
      num_threads, (n + kSerialThreshold - 1) / kSerialThreshold));
  if (num_threads <= 1 || n < kSerialThreshold) {
    return EvaluateRange(workload, 0, n, options_.metrics);
  }

  // One contiguous index slice per worker; threads share the disk map
  // (immutable) and each keeps a private scratch buffer inside
  // EvaluateRange. Partials merge in slice order, so the result is
  // deterministic for a given thread count. Metrics shard the same way:
  // each worker records into a private registry, merged in slice order
  // after the join, so counter totals are thread-count independent.
  std::vector<WorkloadEval> partials(num_threads);
  std::vector<obs::MetricsRegistry> shards(
      options_.metrics != nullptr ? num_threads : 0);
  std::vector<std::thread> workers;
  workers.reserve(num_threads);
  const size_t chunk = (n + num_threads - 1) / num_threads;
  for (uint32_t t = 0; t < num_threads; ++t) {
    workers.emplace_back([&, t]() {
      const size_t begin = static_cast<size_t>(t) * chunk;
      const size_t end = std::min(n, begin + chunk);
      partials[t] = EvaluateRange(workload, begin, end,
                                  shards.empty() ? nullptr : &shards[t]);
    });
  }
  for (std::thread& w : workers) w.join();

  WorkloadEval total;
  total.method_name = method_->name();
  total.workload_name = workload.name;
  for (const WorkloadEval& part : partials) MergeInto(&total, part);
  for (const obs::MetricsRegistry& shard : shards) {
    options_.metrics->Merge(shard);
  }
  return total;
}

Histogram DeviationHistogram(const DeclusteringMethod& method,
                             const Workload& workload, uint32_t num_buckets,
                             const EvalOptions& options) {
  Histogram histogram(num_buckets);
  Evaluator evaluator(method, options);
  std::vector<uint64_t> scratch;
  for (const RangeQuery& q : workload.queries) {
    histogram.Add(evaluator.EvaluateQuery(q, scratch).AdditiveDeviation());
  }
  return histogram;
}

}  // namespace griddecl
