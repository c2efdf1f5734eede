#ifndef GRIDDECL_GRIDDECL_H_
#define GRIDDECL_GRIDDECL_H_

/// \file
/// Umbrella header for the griddecl library: grid-based multi-attribute
/// record declustering, after Himatsingka & Srivastava (ICDE 1994).
///
/// Quick start:
///
///     #include "griddecl/griddecl.h"
///     using namespace griddecl;
///
///     auto grid = GridSpec::Square(2, 32).value();      // 32x32 buckets
///     auto hcam = CreateMethod("hcam", grid, 16).value();
///     auto rect = BucketRect::Create({0, 0}, {3, 3}).value();
///     auto query = RangeQuery::Create(grid, rect).value();
///     uint64_t rt  = ResponseTime(*hcam, query);         // paper's metric
///     uint64_t opt = OptimalResponseTime(query.NumBuckets(), 16);
///
/// Workload evaluation goes through `Evaluator`, which materializes the
/// method into a dense `DiskMap` once and answers every query from it
/// (`EvalOptions` controls the map and the worker-thread count):
///
///     Evaluator eval(*hcam);                 // builds the DiskMap once
///     Workload w = ...;                      // e.g. QueryGenerator output
///     WorkloadEval agg = eval.EvaluateWorkload(w);
///     double mean_rt = agg.MeanResponse();
///
///     EvalOptions opts;
///     opts.num_threads = 0;                  // all hardware threads
///     WorkloadEval par = Evaluator(*hcam, opts).EvaluateWorkload(w);

#include "griddecl/coding/gf2.h"
#include "griddecl/coding/parity_check.h"
#include "griddecl/common/bit_util.h"
#include "griddecl/common/crc32c.h"
#include "griddecl/common/flags.h"
#include "griddecl/common/math_util.h"
#include "griddecl/common/random.h"
#include "griddecl/common/stats.h"
#include "griddecl/common/status.h"
#include "griddecl/common/table.h"
#include "griddecl/curve/hilbert.h"
#include "griddecl/curve/morton.h"
#include "griddecl/eval/advisor.h"
#include "griddecl/eval/analytic.h"
#include "griddecl/eval/disk_map.h"
#include "griddecl/eval/evaluator.h"
#include "griddecl/eval/experiment.h"
#include "griddecl/eval/metrics.h"
#include "griddecl/eval/replica_router.h"
#include "griddecl/eval/reproduction.h"
#include "griddecl/grid/bucket.h"
#include "griddecl/grid/grid_spec.h"
#include "griddecl/grid/partitioner.h"
#include "griddecl/grid/rect.h"
#include "griddecl/gridfile/catalog.h"
#include "griddecl/gridfile/declustered_file.h"
#include "griddecl/gridfile/grid_file.h"
#include "griddecl/gridfile/manifest.h"
#include "griddecl/gridfile/scrub.h"
#include "griddecl/gridfile/storage.h"
#include "griddecl/gridfile/storage_env.h"
#include "griddecl/methods/dm.h"
#include "griddecl/methods/ecc.h"
#include "griddecl/methods/fx.h"
#include "griddecl/methods/hcam.h"
#include "griddecl/methods/lattice.h"
#include "griddecl/methods/method.h"
#include "griddecl/methods/registry.h"
#include "griddecl/methods/replicated.h"
#include "griddecl/methods/simple.h"
#include "griddecl/methods/table_method.h"
#include "griddecl/methods/workload_opt.h"
#include "griddecl/obs/metrics.h"
#include "griddecl/query/distributions.h"
#include "griddecl/query/generator.h"
#include "griddecl/query/query.h"
#include "griddecl/query/trace.h"
#include "griddecl/query/workload.h"
#include "griddecl/sim/availability.h"
#include "griddecl/sim/event_sim.h"
#include "griddecl/sim/faults.h"
#include "griddecl/sim/io_sim.h"
#include "griddecl/sim/throughput.h"
#include "griddecl/theory/kd_strict_optimality.h"
#include "griddecl/theory/partial_match_optimality.h"
#include "griddecl/theory/strict_optimality.h"
#include "griddecl/theory/worst_case.h"

#endif  // GRIDDECL_GRIDDECL_H_
