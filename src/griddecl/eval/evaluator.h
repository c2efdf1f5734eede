#ifndef GRIDDECL_EVAL_EVALUATOR_H_
#define GRIDDECL_EVAL_EVALUATOR_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "griddecl/common/stats.h"
#include "griddecl/eval/disk_map.h"
#include "griddecl/methods/method.h"
#include "griddecl/obs/metrics.h"
#include "griddecl/query/workload.h"

/// \file
/// Workload-level evaluation: averages the paper's response-time metric over
/// a set of queries and reports the aggregates every experiment plots —
/// mean response time, mean optimal, deviation from optimality (additive
/// and multiplicative), and the fraction of queries answered optimally.
///
/// The engine is batched: an `Evaluator` materializes its method into a
/// `DiskMap` once at construction (see eval/disk_map.h) and then answers
/// every query from the dense table with a reusable count buffer — no
/// virtual dispatch and no allocation per query. `EvalOptions` controls the
/// map (it can be disabled, or capped by memory) and the worker-thread
/// count for `EvaluateWorkload`.

namespace griddecl {

/// Evaluation of one query.
struct QueryEval {
  uint64_t num_buckets = 0;
  uint64_t response = 0;
  uint64_t optimal = 0;

  /// response - optimal (the paper's "deviation from optimality").
  uint64_t AdditiveDeviation() const { return response - optimal; }
  /// response / optimal; 1.0 means optimal. Defined as 1 for empty queries.
  double Ratio() const {
    return optimal == 0 ? 1.0
                        : static_cast<double>(response) /
                              static_cast<double>(optimal);
  }
};

/// Aggregates over a workload.
struct WorkloadEval {
  std::string method_name;
  std::string workload_name;
  uint64_t num_queries = 0;
  uint64_t num_optimal = 0;
  RunningStat response;
  RunningStat optimal;
  RunningStat ratio;
  RunningStat additive_deviation;

  double MeanResponse() const { return response.mean(); }
  double MeanOptimal() const { return optimal.mean(); }
  double MaxResponse() const { return response.max(); }
  /// Mean of per-query response/optimal ratios.
  double MeanRatio() const { return ratio.mean(); }
  /// Mean additive deviation (response - optimal).
  double MeanDeviation() const { return additive_deviation.mean(); }
  double MaxDeviation() const { return additive_deviation.max(); }
  /// Fraction of queries on which the method was optimal.
  double FractionOptimal() const {
    return num_queries == 0
               ? 1.0
               : static_cast<double>(num_optimal) /
                     static_cast<double>(num_queries);
  }

  /// Half-width of the normal-approximation 95% confidence interval on the
  /// mean response time: 1.96 * stddev / sqrt(n). For exhaustive placement
  /// averaging the mean is exact — no sampling error — but the value is
  /// still reported: it then describes placement-to-placement spread of
  /// the response time, not uncertainty in the mean.
  double ResponseCi95HalfWidth() const;
};

/// The most disks an `Evaluator` is meant to tally. Every query fills a
/// per-disk count vector of M uint64_t (`DiskMap::CountsForRect`,
/// `PerDiskCounts`), so the cost of one query grows with M whatever the
/// query's size: at this cap a query clears 8 MiB, and at M = 2^32 - 1 the
/// tally alone would need 32 GiB. Front ends refuse larger M up front.
inline constexpr uint32_t kMaxEvaluatorDisks = uint32_t{1} << 20;

/// Evaluation-engine knobs.
struct EvalOptions {
  /// Materialize the method into a dense `DiskMap` at construction and
  /// answer queries from it. Disable to force the virtual `DiskOf` path
  /// (reference semantics for tests and baselines; both paths produce
  /// identical results).
  bool use_disk_map = true;
  /// Skip materialization when the table would exceed this many bytes;
  /// evaluation then falls back to the virtual path. 256 MiB default.
  uint64_t max_disk_map_bytes = 256ull << 20;
  /// Worker threads for `EvaluateWorkload`: 1 = serial (default),
  /// 0 = std::thread::hardware_concurrency, n = exactly n. Workloads too
  /// small to amortize thread spawn run serially regardless.
  uint32_t num_threads = 1;
  /// Optional observability sink (non-owning; must outlive the evaluator).
  /// `EvaluateWorkload` records `eval.queries`, `eval.buckets_scanned`,
  /// `eval.fastpath_queries` / `eval.generic_queries` (analytic-stride
  /// DiskMap vs. everything else), the `eval.response_time` histogram
  /// (bucket units), and the `eval.workload_ms` wall-clock timer. Parallel
  /// runs shard per worker and merge in slice order, so counter totals are
  /// thread-count independent. Null (the default) compiles the
  /// instrumented path down to no-ops; primary results are bit-identical
  /// either way.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Evaluates one method over queries/workloads. Construction materializes
/// the method's `DiskMap` (unless disabled or over the memory cap); the
/// evaluator is immutable afterwards and safe to share across threads for
/// concurrent reads. Build one per method and reuse it for the whole run.
class Evaluator {
 public:
  /// `method` must outlive the evaluator.
  explicit Evaluator(const DeclusteringMethod& method,
                     EvalOptions options = {});

  /// \deprecated Pointer form retained for source compatibility; forwards
  /// to the reference constructor with default options.
  [[deprecated("construct from a reference with EvalOptions")]]  //
  explicit Evaluator(const DeclusteringMethod* method);

  const DeclusteringMethod& method() const { return *method_; }
  const EvalOptions& options() const { return options_; }
  /// The materialized map, or nullptr when disabled / over the cap.
  const DiskMap* disk_map() const {
    return disk_map_ ? &*disk_map_ : nullptr;
  }

  /// Evaluates one query; `scratch` is a reusable per-disk count buffer
  /// (resized to M internally), making repeated calls allocation-free.
  QueryEval EvaluateQuery(const RangeQuery& query,
                          std::vector<uint64_t>& scratch) const;

  /// Convenience form with a private scratch buffer; allocates per call.
  QueryEval EvaluateQuery(const RangeQuery& query) const;

  /// Aggregates over the workload, using `options().num_threads` workers.
  /// The integer counters (num_queries, num_optimal, stat counts, min/max)
  /// are identical for every thread count; floating-point means/variances
  /// can differ from the serial pass only by summation-order rounding.
  WorkloadEval EvaluateWorkload(const Workload& workload) const;

 private:
  /// Serial aggregation of queries [begin, end); per-query metrics land in
  /// `sink` (null = none), which workers point at private shards.
  WorkloadEval EvaluateRange(const Workload& workload, size_t begin,
                             size_t end, obs::MetricsRegistry* sink) const;

  const DeclusteringMethod* method_;
  EvalOptions options_;
  std::optional<DiskMap> disk_map_;
};

/// Distribution of per-query additive deviation (response - optimal) over
/// the workload: histogram buckets 0..num_buckets-1 plus overflow. The
/// paper reports means; the histogram shows the tail (e.g. "what fraction
/// of queries were answered optimally or one unit off").
Histogram DeviationHistogram(const DeclusteringMethod& method,
                             const Workload& workload, uint32_t num_buckets,
                             const EvalOptions& options = {});

}  // namespace griddecl

#endif  // GRIDDECL_EVAL_EVALUATOR_H_
