#ifndef GRIDDECL_SERVE_SERVICE_H_
#define GRIDDECL_SERVE_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "griddecl/common/backoff.h"
#include "griddecl/common/status.h"
#include "griddecl/eval/disk_map.h"
#include "griddecl/gridfile/faulty_env.h"
#include "griddecl/gridfile/manifest.h"
#include "griddecl/gridfile/page_store.h"
#include "griddecl/gridfile/read_policy.h"
#include "griddecl/gridfile/storage.h"
#include "griddecl/gridfile/storage_env.h"
#include "griddecl/methods/replicated.h"
#include "griddecl/obs/metrics.h"
#include "griddecl/serve/circuit_breaker.h"
#include "griddecl/sim/faults.h"

/// \file
/// Resilient in-process query service over a manifest-committed catalog.
///
/// Everything below the evaluator in this repo either simulates I/O
/// (sim/) or reads whole files synchronously (gridfile/). This layer is
/// the missing production shape: a multi-threaded service that executes
/// range queries end to end — plan buckets with the declustering method's
/// `DiskMap`, read the pages that hold them through a `StorageEnv`, decode
/// and filter records — while staying up when the env misbehaves:
///
///  * **Bounded admission.** `Submit` enqueues up to `max_queue` requests;
///    beyond that it sheds with kResourceExhausted immediately. The service
///    never blocks a caller and never queues unboundedly. `ExecuteOnCaller`
///    runs a sub-query on the calling thread instead and queues nothing.
///  * **Deadlines.** A per-query deadline (or the service default) is
///    checked on dequeue, between per-disk read batches, and before every
///    retry sleep; an expired query fails with kDeadlineExceeded instead of
///    holding a worker.
///  * **Retries.** Transient (kUnavailable) page-read errors retry under
///    the shared seeded-jitter exponential backoff (common/backoff.h),
///    configured by `ServeOptions::read.retry` and executed below the
///    buffer pool by `PageStore`; any other error fails fast.
///  * **Buffer pool + columnar scan.** Every page read goes through a
///    shared `PageStore`: a scan-resistant pool caches decoded pages
///    (verified once at admission), per-page zone maps skip pages whose
///    min/max exclude the predicate and take single-bucket pages whose
///    min/max lie inside it whole, and the filter runs as a branch-free
///    loop over column vectors. Each (disk, copy) run of a query's pages
///    is one batched `PageStore::GetPages` read. `pool_pages = 0` turns
///    caching off.
///  * **Circuit breakers.** One breaker per (virtual) disk, fed one
///    outcome per (query, disk) batch. An open breaker removes its disk
///    from planning: mirrored relations re-route through
///    `DegradedPlan::ForReplicated` exactly as the simulator does, parity
///    relations reconstruct the disk's pages from stripe survivors, plain
///    relations fail those queries with kUnavailable. Half-open admits one
///    probe batch at a time. Breakers and mirror failover serve whole
///    queries only; sub-queries (`QueryRequest::disks` / `serve_copy`)
///    are strict.
///  * **Graceful drain.** `Shutdown` stops admission, lets workers finish
///    queued work until `drain_deadline_ms`, then fails what remains with
///    a well-formed status. In-flight queries, on workers or on
///    `ExecuteOnCaller` callers, observe the hard stop between batches.
///
/// ## The virtual-disk read model
///
/// A committed relation is ONE data file with records packed in id order —
/// there is no per-disk file to lose. The service therefore treats the
/// manifest's `num_disks` as *virtual fault domains*: every bucket belongs
/// to the disk its declustering method assigns, every page read is
/// attributed to the bucket's disk, and fault injection / breakers operate
/// on those domains. `DiskFaultSchedule` computes the byte ranges of a
/// relation's files that constitute one virtual disk, so a `FaultyEnv` can
/// "kill disk d" precisely; this is exact when the relation is
/// bucket-clustered (each page holds records of a single bucket — arrange
/// insertion order and page size accordingly in tests).
///
/// Record payloads returned by a query are always decoded from the page
/// bytes read through the env. The service holds no record. A catalog
/// generation is loaded once, by `LoadGeneration`: it checks each data
/// file against the size and CRC32C its manifest records, verifies its
/// pages, and builds one immutable `Relation` per relation — its header
/// (schema, partitioning), its declustering method and `DiskMap`, and the
/// bucket -> pages index read off the pages' zone maps (`BuildPageIndex`)
/// — so a query's matches genuinely travelled the storage path under
/// test. The load is immutable and shared: any number of services over
/// envs that hold the generation's files serve one load
/// (`Create(env, options, loaded)`), and `relations()` hands its
/// `Relation`s out. A cluster loads each generation once for all its node
/// services and its routing epoch; `Create(env, options)` is the
/// standalone load-then-serve.
///
/// ## Determinism contract
///
/// With a seeded `FaultyEnv`, fixed fault schedule, no deadlines, a queue
/// deep enough not to shed, and breakers pinned open once tripped
/// (`open_ms` huge), per-query *outcomes* (status + matched records) are a
/// pure function of the schedule — independent of thread count and
/// interleaving. Retry counts, pool hit counts and timings may vary (a
/// page another query already admitted serves from cache); the chaos soak
/// asserts outcomes only. Caching cannot flip an outcome: only pages that
/// verified clean are ever admitted, and permanently faulted pages are
/// never cached under their direct-read key.

namespace griddecl::serve {

using obs::MetricsRegistry;

struct ServeOptions {
  /// Worker threads executing queries.
  uint32_t num_threads = 4;
  /// Admission queue bound; a Submit past it sheds.
  uint32_t max_queue = 64;
  /// Deadline applied to requests that do not carry one; 0 = none.
  double default_deadline_ms = 0.0;
  /// Page-read policy: the retry schedule for transient errors (every
  /// read is CRC-verified regardless). `read.retry.max_attempts` counts
  /// the first try; keep it above a FaultyEnv's max_transient_attempts so
  /// injected transients always eventually succeed.
  ReadPolicy read = ServeReadPolicy();
  /// Buffer-pool capacity in pages, shared across relations and copies;
  /// 0 disables caching (every page read is physical).
  size_t pool_pages = 1024;
  BreakerOptions breaker;
  /// Budget Shutdown gives queued + in-flight work before hard-failing it.
  double drain_deadline_ms = 2000.0;
  /// Seed for retry jitter (decorrelates concurrent retriers).
  uint64_t seed = 0;
};

struct QueryRequest {
  std::string relation;
  /// Value-space predicate: lo[i] <= attr_i <= hi[i].
  std::vector<double> lo;
  std::vector<double> hi;
  /// Per-query deadline in ms from submission; <= 0 uses the service
  /// default.
  double deadline_ms = 0.0;
  /// Empty serves the whole query (the normal path). Non-empty restricts
  /// it to buckets whose PRIMARY disk is in this set — how a cluster
  /// coordinator carves one query into per-node sub-queries along disk
  /// ownership. Matches outside the set are silently not served, so the
  /// union of sub-queries over a disk partition equals the full query.
  ///
  /// A request with a `disks` filter or a nonzero `serve_copy` is a
  /// *sub-query*, and sub-queries are strict: they read exactly the
  /// (disk, copy) pairs they name, consult no per-disk breaker, and never
  /// fail over to another mirror copy — an unreadable page fails the
  /// sub-query with kUnavailable (parity reconstruction still applies).
  /// Moving a read to another copy is the coordinator's job.
  std::vector<uint32_t> disks;
  /// 0 reads primary placement. c > 0 (mirror relations only) serves every
  /// selected bucket from mirror copy c — its replica disk (primary + c)
  /// mod M — which is how a sub-query rerouted or hedged to a
  /// replica-holding node reads that node's own copy. Strict; see `disks`.
  uint32_t serve_copy = 0;
  /// 0 = unfenced. Nonzero requires this service to be serving exactly
  /// this catalog generation; a mismatch fails with kFailedPrecondition
  /// before any page is read. The cutover fence: a coordinator that moved
  /// to generation G+1 cannot accidentally read a node still on G.
  uint64_t expected_generation = 0;
};

/// The fields that make a request a sub-query, handed beside a borrowed
/// request instead of inside a copy of it: `QueryService::ExecuteOnCaller`
/// serves the request with these in place of its own `disks`,
/// `serve_copy` and `expected_generation` (see QueryRequest).
struct SubQuery {
  std::span<const uint32_t> disks;
  uint32_t serve_copy = 0;
  uint64_t expected_generation = 0;
};

/// Outcome of one query. `status` is always well-formed: kOk with the
/// sorted matching record ids, or an error with empty matches.
struct QueryResult {
  Status status;
  std::vector<RecordId> matches;
  uint64_t buckets_touched = 0;
  uint64_t pages_read = 0;
  /// Transient-read retries performed.
  uint64_t retries = 0;
  /// Buckets served by a non-primary mirror copy (plan-time reroute).
  uint64_t rerouted_buckets = 0;
  /// Page reads that failed over to a surviving mirror copy inline.
  uint64_t failover_reads = 0;
  /// Pages rebuilt from parity stripes.
  uint64_t reconstructed_pages = 0;
  /// Pages served straight from the buffer pool (no physical I/O).
  uint64_t pool_hits = 0;
  /// Pages whose zone maps excluded the predicate box, skipping the
  /// record filter entirely.
  uint64_t zone_map_skips = 0;
  /// Single-bucket pages whose zone maps lie inside the predicate box,
  /// taken whole without the record filter.
  uint64_t zone_map_accepts = 0;
  double queue_ms = 0.0;
  double total_ms = 0.0;
};

/// The counters QueryService::SnapshotMetrics publishes, without their
/// `serve.` prefix. SnapshotMetrics publishes from this list, so it is the
/// one place the names are defined.
inline constexpr const char* kServeCounterNames[] = {
    "admitted", "shed", "completed", "failed", "retries",
    "rerouted_buckets", "failover_reads", "reconstructed_pages", "pool_hits",
    "zone_map_skips", "generation_fenced", "breaker.opened",
    "breaker.half_opened", "breaker.closed", "breaker.reopened"};

/// One relation's read state at one catalog generation, immutable once
/// loaded: everything needed to plan and serve its queries, and the one
/// bucket -> disk map a cluster routes it by. No record is held: record
/// payloads served to clients come from page reads. `LoadGeneration` is
/// its only builder, once per generation; every service serving that load
/// shares it (`QueryService::relations`), and so does a cluster's routing
/// epoch.
struct Relation {
  std::string name;
  RelationRedundancy redundancy;
  /// Layout, schema and partitioner: what ResolveRange and the
  /// mixed-page gather need.
  GridFileHeader header;
  /// Owns the relation's one declustering method (`base()`). Copy r of
  /// a bucket lives on its replica r's disk; only mirror relations have
  /// more than copy 0 (chained declustering), so `num_replicas()` is the
  /// relation's copy count.
  std::unique_ptr<ReplicatedPlacement> placement;
  std::unique_ptr<DiskMap> disk_map;
  /// data file first, then mirror copies 1..copies-1.
  std::vector<std::string> copy_files;
  std::string parity_file;  ///< Empty unless kParity.
  /// Grid-linear bucket -> pages. A single-bucket page is only ever
  /// planned under that bucket's (disk, copy), so its matches need no
  /// per-record owner check; a mixed page's do.
  PageIndex index;
};

/// A service's relations by name, in name order.
using RelationMap = std::map<std::string, std::shared_ptr<const Relation>>;

/// One catalog generation, loaded once (`LoadGeneration`): its manifest
/// and its relations. Immutable, and shared by every service serving it.
struct LoadedGeneration {
  CatalogManifest manifest;
  RelationMap relations;
};

/// Loads generation `generation` of the catalog in `env`: reads its
/// manifest, and checks, verifies, indexes and derives each relation (see
/// file comment). 0 loads the committed generation, re-resolving CURRENT
/// when a concurrent commit moves it mid-load (`LoadAtCommittedGeneration`);
/// nonzero loads `MANIFEST-<generation>`, committed or merely staged — how
/// a cluster transition loads the staged layout it verifies.
Result<std::shared_ptr<const LoadedGeneration>> LoadGeneration(
    const StorageEnv& env, uint64_t generation);

/// Multi-threaded query service; see file comment. Thread-safe.
class QueryService {
 public:
  /// Serves `loaded` from `env`, which must hold the files it names, and
  /// starts `num_threads` workers; `env` must outlive the service. A
  /// shared load reads nothing here: the files' checks are the loader's
  /// (see file comment). Without one, Create first loads the committed
  /// generation from `env` (`LoadGeneration(*env, 0)`), the standalone
  /// path. Fails when an option is out of domain or the load fails.
  static Result<std::unique_ptr<QueryService>> Create(
      const StorageEnv* env, ServeOptions options,
      std::shared_ptr<const LoadedGeneration> loaded = nullptr);

  /// Drains and joins (with the configured drain deadline).
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Admits a query. kResourceExhausted when the queue is full (shed),
  /// kUnavailable once shutdown began. The future is fulfilled exactly
  /// once, always with a well-formed QueryResult.
  Result<std::future<QueryResult>> Submit(QueryRequest request);

  /// Submit + wait: the synchronous convenience path.
  QueryResult Execute(QueryRequest request);

  /// Runs `request` as the sub-query `sub` on the calling thread, with no
  /// queue, worker or promise: how a cluster coordinator serves a node
  /// whose reads cannot wait. `request` is borrowed and `sub` replaces its
  /// `disks`, `serve_copy` and `expected_generation`, so nothing is
  /// copied; the answer is allocated once, at its exact size.
  ///  * Admission: refused with kUnavailable once Shutdown began, like
  ///    Submit. It never sheds: `num_threads` and `max_queue` bound only
  ///    the queued path.
  ///  * Drain: the call counts as in flight, so Shutdown waits for it, and
  ///    a hard stop fails it between disk batches like a worker's query.
  ///  * Accounting: it counts as admitted, and its outcome goes into the
  ///    service totals through the step a worker's query takes.
  ///  * Strictness: the same as any sub-query (see QueryRequest::disks).
  /// The deadline (the request's, else the default) runs from the call.
  Result<QueryResult> ExecuteOnCaller(const QueryRequest& request,
                                      const SubQuery& sub);

  /// Graceful drain: stop admitting, finish queued + in-flight work, hard
  /// -fail the rest once `drain_deadline_ms` expires. Idempotent. Returns
  /// Ok when everything drained in time, kDeadlineExceeded otherwise.
  Status Shutdown();

  /// Publishes absolute totals since start into `out` (fresh names are
  /// created, existing ones Reset first, so repeated snapshots do not
  /// double-count). Keys: the counter `serve.<name>` for each
  /// kServeCounterNames entry (serve.admitted, serve.retries,
  /// serve.breaker.opened, ...), serve.queue.max_depth (gauge),
  /// serve.latency_ms (histogram) — plus the storage layer's pool counters
  /// (storage.pool.hits / .misses / .admissions / .evictions / .promotions
  /// and the .resident / .capacity gauges), so one snapshot carries the
  /// whole read path.
  void SnapshotMetrics(MetricsRegistry* out) const;

  /// Current state of disk `d`'s breaker (diagnostics / tests).
  BreakerState BreakerStateOf(uint32_t disk) const;
  /// Summed transition counters across all disk breakers.
  BreakerCounters BreakerTotals() const;

  uint32_t num_disks() const { return num_disks_; }
  /// Catalog generation this service serves (fences compare against it).
  uint64_t generation() const { return loaded_->manifest.generation; }
  /// In name order.
  std::vector<std::string> RelationNames() const;
  /// The relations of the load this service serves, shared.
  const RelationMap& relations() const { return loaded_->relations; }

 private:
  struct Pending {
    QueryRequest request;
    std::promise<QueryResult> promise;
    /// Absolute deadline on `MonotonicNowMs`; +inf when none.
    double deadline_ms = 0.0;
    double submitted_ms = 0.0;
  };

  /// Admitted requests in FIFO order: a vector read from `head`, so a
  /// steady stream of requests reuses its storage where a deque would
  /// allocate a block every few requests.
  struct PendingQueue {
    std::vector<Pending> items;
    size_t head = 0;

    size_t size() const { return items.size() - head; }
    bool empty() const { return size() == 0; }
    void Push(Pending p);
    Pending Pop();
  };

  /// One worker's planning and scan buffers (service.cc), reused across
  /// its queries, so a warmed worker plans and scans without allocating.
  /// They keep the capacity of the largest query the worker has served.
  struct Scratch;

  QueryService(const StorageEnv* env, ServeOptions options,
               std::shared_ptr<const LoadedGeneration> loaded);

  void WorkerLoop(uint32_t worker_id);
  /// Serves `request` with `sub` in place of its sub-query fields, on the
  /// calling thread; the one query path of workers and ExecuteOnCaller.
  /// Times are on `MonotonicNowMs`, `deadline_ms` absolute (+inf: none).
  QueryResult RunQuery(const QueryRequest& request, const SubQuery& sub,
                       double submitted_ms, double deadline_ms,
                       Scratch* scratch);
  /// Absolute deadline of `request` submitted at `now`: its own budget,
  /// else the service default, else +inf.
  double DeadlineOf(const QueryRequest& request, double now) const;
  /// Folds one finished query into the service totals: the one
  /// post-query accounting step of the queued and the on-caller path.
  void Account(const QueryResult& result);
  /// Ends one in-flight query, waking Shutdown once nothing is left.
  void EndInFlight();

  /// The degraded path of one page whose direct read failed with
  /// `direct_status` or was skipped: mirror failover to the other copies
  /// when `mirror_failover`, parity reconstruction, or else
  /// `direct_status` itself. Accounting goes into `result`.
  Result<PinnedPage> ReadPageDegraded(const Relation& rel,
                                      uint32_t assigned_copy, uint64_t page,
                                      const InterruptFn& interrupt,
                                      bool mirror_failover,
                                      Status direct_status,
                                      QueryResult* result);
  /// One copy file's page through the PageStore (pool lookup, retries,
  /// verify-at-admission); verification failure reads as kUnavailable so
  /// degraded paths engage.
  Result<PinnedPage> ReadPagePinned(const Relation& rel, uint32_t copy,
                                    uint64_t page,
                                    const InterruptFn& interrupt,
                                    QueryResult* result);
  /// Rebuilds `page` by XORing its stripe siblings and the parity page.
  /// The rebuilt page is deliberately NOT admitted to the pool under the
  /// data file's key: a later direct read must touch the disk again, so
  /// breakers keep observing the real fault.
  Result<PinnedPage> ReconstructPage(const Relation& rel, uint64_t page,
                                     const InterruptFn& interrupt,
                                     QueryResult* result);
  /// Interrupt hook handed to PageStore: hard stop and the query's
  /// deadline abort reads and backoff sleeps with serve's own statuses.
  /// Built once per query and shared by all of its reads.
  InterruptFn MakeInterrupt(double deadline_ms) const;

  const StorageEnv* env_;
  ServeOptions options_;
  std::unique_ptr<PageStore> store_;
  std::shared_ptr<const LoadedGeneration> loaded_;
  uint32_t num_disks_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  PendingQueue queue_;
  bool draining_ = false;
  std::atomic<bool> hard_stop_{false};
  /// Queries a worker or an ExecuteOnCaller caller is running.
  uint32_t in_flight_ = 0;
  std::condition_variable drained_cv_;
  uint64_t queue_max_depth_ = 0;
  bool shutdown_done_ = false;
  Status shutdown_status_;
  /// Serializes Shutdown callers (taken before queue_mu_).
  std::mutex shutdown_mu_;

  /// One breaker per virtual disk.
  BreakerSet breakers_;

  /// Totals guarded by metrics_mu_ (workers update per query, not per
  /// page, so contention is negligible).
  mutable std::mutex metrics_mu_;
  uint64_t admitted_ = 0;
  uint64_t shed_ = 0;
  uint64_t completed_ = 0;
  uint64_t failed_ = 0;
  uint64_t retries_ = 0;
  uint64_t rerouted_buckets_ = 0;
  uint64_t failover_reads_ = 0;
  uint64_t reconstructed_pages_ = 0;
  uint64_t pool_hits_ = 0;
  uint64_t zone_map_skips_ = 0;
  uint64_t generation_fenced_ = 0;
  obs::Histogram latency_ms_;

  std::vector<std::thread> workers_;
};

/// Byte ranges of `relation`'s committed files that make up virtual disk
/// `disk` — feed them to `FaultyEnvOptions::permanent` to fail that disk.
/// Data-file pages of buckets whose primary is `disk`, plus (mirror
/// relations) mirror-copy-r pages of buckets whose replica r lands on
/// `disk`. Requires a bucket-clustered layout: kUnsupported when any
/// non-empty page mixes records of buckets on different disks.
Result<std::vector<FaultRange>> DiskFaultSchedule(const StorageEnv& env,
                                                  const std::string& relation,
                                                  uint32_t disk);

}  // namespace griddecl::serve

#endif  // GRIDDECL_SERVE_SERVICE_H_
