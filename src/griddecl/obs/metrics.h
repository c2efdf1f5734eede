#ifndef GRIDDECL_OBS_METRICS_H_
#define GRIDDECL_OBS_METRICS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

/// \file
/// Low-overhead runtime observability: counters, gauges, fixed-boundary
/// histograms, and RAII scoped timers behind an explicitly passed
/// `MetricsRegistry`.
///
/// Design rules (see DESIGN.md "Observability"):
///
///  * **No globals.** A registry is handed to a subsystem through its
///    options struct (`EvalOptions::metrics`, `ThroughputOptions::metrics`,
///    `ScrubOptions::metrics`, ...). Two concurrent runs with two registries
///    never share state.
///  * **Absent registry == true no-op.** Every instrumented call site holds
///    a metric pointer that is null when no registry was attached; the
///    null-safe helpers (`Inc`, `Observe`, `ScopedTimer`) then do nothing —
///    no allocation, no clock read, one predictable branch. Instrumented
///    hot paths are regression-tested to produce bit-identical primary
///    results with and without a registry.
///  * **Deterministic snapshots.** `ToJson` renders metrics in sorted key
///    order with fixed float formatting, so a deterministic workload yields
///    byte-identical JSON run over run. Wall-clock metrics are segregated
///    by naming convention — keys ending in `_ms` hold timing and are the
///    only nondeterministic values; `JsonOptions::include_timings = false`
///    drops them, which is what the byte-stability tests and the CI bench
///    artifacts rely on.
///  * **Sharded threading model.** Metric updates through `Counter*` /
///    `Histogram*` are not synchronized; parallel code gives each worker
///    its own shard registry and merges the shards in a deterministic
///    order afterwards (`MetricsRegistry::Merge`). Registry lookups
///    themselves are mutex-guarded, so resolving names is safe anywhere.
///
/// Key naming scheme: dot-separated lowercase path, subsystem first —
/// `eval.queries`, `sim.throughput.transient_retries`,
/// `storage.pool.hits`, `scrub.repairs.mirror`. Per-instance suffixes
/// (e.g. a disk index) append one more dotted component. Timing keys end
/// in `_ms`.

namespace griddecl::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void Inc(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }

  /// Back to zero. For publishers that re-export *absolute* totals into a
  /// scratch registry on every snapshot (Reset + Inc) rather than deltas —
  /// see QueryService::SnapshotMetrics.
  void Reset() { value_ = 0; }

 private:
  uint64_t value_ = 0;
};

/// Last-written point-in-time value (e.g. a table size in bytes).
class Gauge {
 public:
  void Set(double v) {
    value_ = v;
    has_value_ = true;
  }
  double value() const { return value_; }
  bool has_value() const { return has_value_; }

  /// Back to the unset state (drops the value from JSON snapshots).
  void Reset() {
    value_ = 0.0;
    has_value_ = false;
  }

 private:
  double value_ = 0.0;
  bool has_value_ = false;
};

/// Fixed-boundary histogram over doubles.
///
/// `bounds` are strictly increasing inclusive upper edges; an observation
/// lands in the first bucket whose bound is >= the value, or in the
/// overflow bucket past the last bound. Count, sum, min, and max are
/// tracked exactly, so percentile queries can answer from the buckets
/// while the extremes stay precise.
class Histogram {
 public:
  /// `bounds` must be non-empty and strictly increasing (checked).
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  const std::vector<double>& bounds() const { return bounds_; }
  /// Bucket `i` counts observations in (bounds[i-1], bounds[i]]; index
  /// bounds.size() is the overflow bucket.
  uint64_t bucket_count(size_t i) const { return counts_[i]; }

  /// Nearest-rank percentile from the buckets: the upper bound of the
  /// bucket holding the ceil(p/100 * count)-th smallest observation,
  /// clamped to the exact observed max (so p100 == max() and an
  /// all-overflow histogram still answers). p in [0, 100]; 0 when empty.
  double Percentile(double p) const;

  double p50() const { return Percentile(50); }
  double p95() const { return Percentile(95); }
  double p99() const { return Percentile(99); }

  /// Adds `other`'s observations; bounds must match (checked).
  void Merge(const Histogram& other);

  /// Drops every observation; bounds are kept.
  void Reset();

 private:
  std::vector<double> bounds_;
  std::vector<uint64_t> counts_;  // bounds_.size() + 1, last = overflow.
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Exponential bucket edges: start, start*factor, ... (n edges).
std::vector<double> ExponentialBounds(double start, double factor, size_t n);
/// Linear bucket edges: start, start+step, ... (n edges).
std::vector<double> LinearBounds(double start, double step, size_t n);
/// Default latency edges in milliseconds: 0.001 ms .. ~8.7 s, factor 2.
std::vector<double> DefaultLatencyBoundsMs();

/// Snapshot rendering knobs.
struct JsonOptions {
  /// Include metrics whose key ends in `_ms` (wall-clock timings — the
  /// only nondeterministic values a deterministic run records).
  bool include_timings = true;
  /// Leading indentation applied to every line (for embedding).
  std::string indent;
};

/// Owns metrics by name. Lookups create on first use and are
/// mutex-guarded; returned pointers are stable for the registry's
/// lifetime. Updates through those pointers are deliberately
/// unsynchronized — use one registry per thread and `Merge` (see file
/// comment).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create. Never null.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// Find-or-create; an existing histogram keeps its original bounds
  /// (callers agree on bounds by construction — names are namespaced).
  Histogram* GetHistogram(const std::string& name,
                          const std::vector<double>& bounds);

  /// Adds counters and histograms, overwrites gauges that `other` set;
  /// metrics absent here are created. Deterministic given a deterministic
  /// merge order.
  void Merge(const MetricsRegistry& other);

  /// Deterministic JSON object: {"counters": {...}, "gauges": {...},
  /// "histograms": {...}}, keys sorted, floats via "%.9g".
  std::string ToJson(const JsonOptions& options = {}) const;

  /// Number of distinct metrics of all kinds (for tests).
  size_t size() const;

 private:
  // Maps keep JSON key order sorted; unique_ptr keeps addresses stable
  // across rehash-free map growth.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  mutable std::mutex mu_;
};

// --- Null-safe instrumentation helpers ------------------------------------
//
// Call sites resolve metric pointers once (null when no registry) and use
// these helpers in the hot path; with a null pointer each is a single
// branch and nothing else.

inline Counter* GetCounter(MetricsRegistry* r, const std::string& name) {
  return r != nullptr ? r->GetCounter(name) : nullptr;
}
inline Gauge* GetGauge(MetricsRegistry* r, const std::string& name) {
  return r != nullptr ? r->GetGauge(name) : nullptr;
}
inline Histogram* GetHistogram(MetricsRegistry* r, const std::string& name,
                               const std::vector<double>& bounds) {
  return r != nullptr ? r->GetHistogram(name, bounds) : nullptr;
}
inline void Inc(Counter* c, uint64_t n = 1) {
  if (c != nullptr) c->Inc(n);
}
inline void Set(Gauge* g, double v) {
  if (g != nullptr) g->Set(v);
}
inline void Observe(Histogram* h, double v) {
  if (h != nullptr) h->Observe(v);
}

/// RAII wall-clock timer: records elapsed milliseconds into a histogram at
/// destruction. With a null sink the clock is never read — constructing
/// and destroying the timer is a true no-op.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* sink) : sink_(sink) {
    if (sink_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    if (sink_ != nullptr) {
      const auto end = std::chrono::steady_clock::now();
      sink_->Observe(
          std::chrono::duration<double, std::milli>(end - start_).count());
    }
  }

 private:
  Histogram* sink_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace griddecl::obs

#endif  // GRIDDECL_OBS_METRICS_H_
