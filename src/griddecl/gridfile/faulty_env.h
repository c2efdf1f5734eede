#ifndef GRIDDECL_GRIDFILE_FAULTY_ENV_H_
#define GRIDDECL_GRIDFILE_FAULTY_ENV_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "griddecl/gridfile/storage_env.h"

/// \file
/// Fault-injecting storage environment — the real-I/O twin of the simulator's
/// `FaultModel` (sim/faults.h). Where `FaultModel` charges virtual
/// milliseconds to a simulated timeline, `FaultyEnv` fails *actual* `ReadAt`
/// calls issued by the serving layer, so retry loops, circuit breakers and
/// degraded read paths are exercised against genuine control flow.
///
/// Determinism contract: whether a given (file, offset) read fails
/// transiently on its k-th attempt is a pure function of
/// (seed, file, offset, k) — the same SplitMix64-hash construction the
/// simulator uses — so a fault schedule replays identically run over run.
/// Attempt counters are per-(file, offset) and shared across threads; the
/// *outcome* of a query is schedule-determined even though the number of
/// retries a particular thread observes may depend on interleaving.
/// Permanent faults are explicit byte ranges (a dead disk is the union of
/// the ranges its pages occupy — see `DiskFaultSchedule` in serve/service.h).

namespace griddecl {

/// A byte range of one env file that is unreadable for the env's whole
/// life. A whole-node death is `Cluster::KillNode`, not a fault range.
struct FaultRange {
  std::string file;
  uint64_t offset = 0;
  uint64_t length = 0;
};

struct FaultyEnvOptions {
  /// Seed for the transient-fault hash; same seed => same schedule.
  uint64_t seed = 0;
  /// Probability that attempt k of a (file, offset) read fails, for
  /// k < max_transient_attempts. Must be in [0, 1].
  double transient_error_prob = 0.0;
  /// Attempts at or beyond this index never fail transiently, bounding the
  /// retries a persistent caller needs. Mirrors FaultSpec::max_retries.
  uint32_t max_transient_attempts = 3;
  /// Byte ranges that always fail (overlap test), e.g. a dead disk.
  std::vector<FaultRange> permanent;
  /// Real wall-clock delay injected into every ReadAt (0 = none). Keep 0 in
  /// determinism tests; use small values to widen race windows in soaks.
  double latency_ms = 0.0;
};

/// Decorates a target env with deterministic read faults.
///
/// Only `ReadAt` is fault-injected: it is the page-granular unit the query
/// service issues, and leaving `ReadFile` clean means bootstrap (manifest +
/// relation load) always succeeds, so tests separate "service starts" from
/// "service survives faults". All mutating calls pass through untouched.
///
/// Thread-safe: attempt counters are guarded by a mutex; everything else is
/// immutable after construction.
class FaultyEnv : public StorageEnv {
 public:
  /// `target` must outlive this env. Heap-allocated: the env owns mutexes
  /// and atomics, so it never moves once handed out.
  static Result<std::unique_ptr<FaultyEnv>> Create(StorageEnv* target,
                                                   FaultyEnvOptions opts);

  using StorageEnv::ReadAt;
  Result<std::string> ReadFile(const std::string& name) const override;
  Status ReadAt(const std::string& name, uint64_t offset,
                std::span<char> out) const override;
  Status WriteFile(const std::string& name, std::string_view data) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Remove(const std::string& name) override;
  bool Exists(const std::string& name) const override;
  Result<std::vector<std::string>> ListFiles() const override;

  /// True iff attempt `attempt` of a read at (file, offset) fails
  /// transiently — pure, exposed so tests can precompute the schedule.
  bool TransientFails(const std::string& file, uint64_t offset,
                      uint32_t attempt) const;

  /// True iff [offset, offset+length) overlaps any fault range of `file`.
  bool PermanentlyFaulted(const std::string& file, uint64_t offset,
                          uint64_t length) const;

  /// Additional real wall-clock delay on every ReadAt, on top of
  /// `latency_ms`, adjustable at runtime (negative values clamp to 0).
  /// Models transient device contention — the migrator raises it on every
  /// node while an unpaced bulk copy saturates the shared "device", and
  /// drops it back when the copy finishes or is paced under budget.
  void SetExtraLatencyMs(double ms) {
    extra_latency_ms_.store(ms < 0.0 ? 0.0 : ms);
  }
  double ExtraLatencyMs() const { return extra_latency_ms_.load(); }

  /// Observability for tests: total ReadAt calls / injected failures.
  uint64_t reads_issued() const { return reads_issued_.load(); }
  /// (file, offset) read sites holding a transient attempt counter. Stays
  /// 0 when transient_error_prob is 0; a file's sites go with `Remove`.
  size_t attempt_sites() const;
  uint64_t transient_faults_injected() const {
    return transient_faults_.load();
  }
  uint64_t permanent_faults_injected() const {
    return permanent_faults_.load();
  }

 private:
  FaultyEnv(StorageEnv* target, FaultyEnvOptions opts);

  StorageEnv* target_;
  FaultyEnvOptions opts_;

  mutable std::mutex mu_;
  /// Attempt counter per (file, offset) read site, shared across threads.
  mutable std::map<std::pair<std::string, uint64_t>, uint32_t> attempts_;

  mutable std::atomic<uint64_t> reads_issued_{0};
  mutable std::atomic<uint64_t> transient_faults_{0};
  mutable std::atomic<uint64_t> permanent_faults_{0};
  std::atomic<double> extra_latency_ms_{0.0};
};

}  // namespace griddecl

#endif  // GRIDDECL_GRIDFILE_FAULTY_ENV_H_
