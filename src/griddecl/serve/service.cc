#include "griddecl/serve/service.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <limits>
#include <span>
#include <tuple>
#include <utility>

#include "griddecl/common/bytes.h"
#include "griddecl/methods/registry.h"

namespace griddecl::serve {

// Page verification and decode live in gridfile/storage.h now
// (VerifyPageBytes / DecodePageBytes), invoked once at pool admission by
// the PageStore every read below goes through.

namespace {

constexpr double kNoDeadline = std::numeric_limits<double>::infinity();

/// Pages per batched read. A batch stays pinned until the query has
/// scanned it, so the cap bounds the frames one query keeps alive after
/// the pool evicted them: unbounded, a whole-relation scan through a small
/// pool would pin a whole disk's run at once.
constexpr size_t kMaxPagesPerFetch = 64;

/// The (disk, copy) a query plan serves one bucket from.
struct Owner {
  static constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();
  uint32_t disk = kNone;
  uint32_t copy = 0;
};

constexpr uint64_t kOutsideRect = std::numeric_limits<uint64_t>::max();

/// One touched bucket and the (disk, copy) the plan serves it from.
struct Assign {
  uint64_t addr = 0;
  uint32_t disk = 0;
  uint32_t copy = 0;
  bool reconstruct = false;
};

/// One entry of the flat read plan.
struct PageRead {
  uint32_t disk = 0;
  uint32_t copy = 0;
  uint64_t page = 0;
  bool reconstruct = false;
};

/// The matches one page read appended, as a range of the scan's ids.
struct Run {
  size_t begin = 0;
  size_t end = 0;
};

/// Row-major offset of `c` inside `rect` (last dimension fastest), or
/// kOutsideRect.
uint64_t RectOffset(const BucketRect& rect, const BucketCoords& c) {
  uint64_t offset = 0;
  for (uint32_t d = 0; d < rect.num_dims(); ++d) {
    if (c[d] < rect.lo()[d] || c[d] > rect.hi()[d]) return kOutsideRect;
    offset = offset * rect.Extent(d) + (c[d] - rect.lo()[d]);
  }
  return offset;
}

}  // namespace

struct QueryService::Scratch {
  std::vector<bool> allowed;
  std::vector<bool> touched;
  std::vector<bool> refused;
  std::vector<Assign> assignment;
  std::vector<PageRead> reads;
  /// Counting-sort bounds of `reads` by disk.
  std::vector<size_t> disk_end;
  std::vector<uint64_t> pages;
  std::vector<PinnedPage> fetched;
  std::vector<Owner> owners;
  std::vector<double> values;
  std::vector<uint8_t> match_mask;
  /// Matching ids in scan order, one ascending run per page read.
  std::vector<RecordId> ids;
  std::vector<Run> runs;
};

void QueryService::PendingQueue::Push(Pending p) {
  if (items.size() == items.capacity() && head > 0) {
    // Full storage with consumed entries in front: slide the live ones
    // down instead of growing.
    items.erase(items.begin(), items.begin() + static_cast<ptrdiff_t>(head));
    head = 0;
  }
  items.push_back(std::move(p));
}

QueryService::Pending QueryService::PendingQueue::Pop() {
  Pending p = std::move(items[head++]);
  if (head == items.size()) {
    items.clear();
    head = 0;
  }
  return p;
}

QueryService::QueryService(const StorageEnv* env, ServeOptions options,
                           uint32_t num_disks)
    : env_(env),
      options_(options),
      num_disks_(num_disks),
      breakers_(num_disks, options.breaker),
      latency_ms_(obs::DefaultLatencyBoundsMs()) {
  PageStore::Options store_options;
  store_options.pool_pages = options_.pool_pages;
  store_options.seed = options_.seed;
  store_ = std::make_unique<PageStore>(env_, store_options);
}

Result<std::unique_ptr<QueryService>> QueryService::Create(
    const StorageEnv* env, ServeOptions options) {
  if (env == nullptr) {
    return Status::InvalidArgument("QueryService needs a storage env");
  }
  if (options.num_threads < 1 || options.num_threads > 256) {
    return Status::InvalidArgument("num_threads must be in [1, 256]");
  }
  if (options.max_queue < 1) {
    return Status::InvalidArgument("max_queue must be >= 1");
  }
  if (!(options.default_deadline_ms >= 0.0)) {
    return Status::InvalidArgument("default_deadline_ms must be >= 0");
  }
  if (!(options.drain_deadline_ms >= 0.0)) {
    return Status::InvalidArgument("drain_deadline_ms must be >= 0");
  }
  {
    Status st = ValidateBackoffPolicy(options.read.retry);
    if (!st.ok()) return st;
    st = ValidateBreakerOptions(options.breaker);
    if (!st.ok()) return st;
  }
  std::unique_ptr<QueryService> service;
  const auto load = [&](const CatalogManifest& m) -> Status {
    service.reset(new QueryService(env, options, m.num_disks));
    service->generation_ = m.generation;
    for (size_t i = 0; i < m.relations.size(); ++i) {
      Result<Relation> rel = LoadRelation(*env, m, i);
      if (!rel.ok()) return rel.status();
      std::string name = rel.value().name;
      const auto emplaced = service->relations_.emplace(
          std::move(name), std::move(rel).value());
      // Every copy shares the primary's layout (mirrors are byte-identical);
      // registering them lets the PageStore serve any copy from the pool.
      const Relation& r = emplaced.first->second;
      for (const std::string& file : r.copy_files) {
        service->store_->RegisterFile(file, r.header.layout);
      }
    }
    return Status::Ok();
  };
  // A pinned generation loads once; the committed one is re-resolved when
  // a concurrent commit moves CURRENT mid-load.
  Status loaded = Status::Ok();
  if (options.generation != 0) {
    Result<CatalogManifest> manifest = ReadManifest(*env, options.generation);
    if (!manifest.ok()) return manifest.status();
    loaded = load(manifest.value());
  } else {
    loaded = LoadAtCommittedGeneration(*env, load);
  }
  if (!loaded.ok()) return loaded;
  QueryService* self = service.get();
  for (uint32_t t = 0; t < options.num_threads; ++t) {
    service->workers_.emplace_back([self, t] { self->WorkerLoop(t); });
  }
  return service;
}

QueryService::~QueryService() { (void)Shutdown(); }

Result<QueryService::Relation> QueryService::LoadRelation(
    const StorageEnv& env, const CatalogManifest& manifest, size_t index) {
  const ManifestRelation& mr = manifest.relations[index];
  const std::string data_name = manifest.DataFileName(index);
  Result<std::string> bytes = env.ReadFile(data_name);
  if (!bytes.ok()) return bytes.status();
  Result<GridFileHeader> header = ParseGridFileHeader(bytes.value());
  if (!header.ok()) return header.status();
  Result<PageIndex> pages = BuildPageIndex(bytes.value(), header.value());
  if (!pages.ok()) return pages.status();
  Result<std::unique_ptr<DeclusteringMethod>> method =
      CreateMethod(mr.method, header.value().partitioner.grid(),
                   manifest.num_disks);
  if (!method.ok()) return method.status();
  const uint32_t copies =
      mr.redundancy.policy == RelationRedundancy::Policy::kMirror
          ? mr.redundancy.copies
          : 1;
  // The mirror copies realize chained declustering: copy r of a bucket is
  // served from replica r's disk, (primary + r) mod M.
  Result<ReplicatedPlacement> placement = ReplicatedPlacement::Create(
      std::move(method).value(), copies, /*offset=*/1);
  if (!placement.ok()) return placement.status();
  auto owned =
      std::make_unique<ReplicatedPlacement>(std::move(placement).value());
  auto disk_map = std::make_unique<DiskMap>(DiskMap::Build(owned->base()));
  std::vector<std::string> copy_files = {data_name};
  for (uint32_t c = 1; c < copies; ++c) {
    copy_files.push_back(manifest.MirrorFileName(index, c));
  }
  return Relation{
      .name = mr.name,
      .redundancy = mr.redundancy,
      .header = std::move(header).value(),
      .placement = std::move(owned),
      .disk_map = std::move(disk_map),
      .copy_files = std::move(copy_files),
      .parity_file =
          mr.redundancy.policy == RelationRedundancy::Policy::kParity
              ? manifest.ParityFileName(index)
              : std::string(),
      .index = std::move(pages).value()};
}

Result<std::future<QueryResult>> QueryService::Submit(QueryRequest request) {
  Pending p;
  p.request = std::move(request);
  const double now = MonotonicNowMs();
  p.submitted_ms = now;
  const double budget = p.request.deadline_ms > 0.0
                            ? p.request.deadline_ms
                            : options_.default_deadline_ms;
  p.deadline_ms = budget > 0.0 ? now + budget : kNoDeadline;
  std::future<QueryResult> future = p.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (draining_) {
      return Status::Unavailable("service is shutting down");
    }
    if (queue_.size() >= options_.max_queue) {
      std::lock_guard<std::mutex> m(metrics_mu_);
      shed_++;
      return Status::ResourceExhausted(
          "admission queue full (" + std::to_string(options_.max_queue) +
          " queued); request shed");
    }
    queue_.Push(std::move(p));
    queue_max_depth_ =
        std::max<uint64_t>(queue_max_depth_, queue_.size());
  }
  {
    std::lock_guard<std::mutex> m(metrics_mu_);
    admitted_++;
  }
  queue_cv_.notify_one();
  return future;
}

QueryResult QueryService::Execute(QueryRequest request) {
  Result<std::future<QueryResult>> future = Submit(std::move(request));
  if (!future.ok()) {
    QueryResult r;
    r.status = future.status();
    return r;
  }
  return future.value().get();
}

void QueryService::WorkerLoop(uint32_t /*worker_id*/) {
  Scratch scratch;
  for (;;) {
    std::unique_lock<std::mutex> lock(queue_mu_);
    queue_cv_.wait(lock, [&] { return !queue_.empty() || draining_; });
    if (queue_.empty()) return;  // draining_ and nothing left to do.
    // Moved out, never default-constructed: an empty Pending would
    // allocate a promise only to discard it.
    Pending p = queue_.Pop();
    if (hard_stop_.load()) {
      lock.unlock();
      QueryResult r;
      r.status = Status::Unavailable(
          "shed at shutdown: drain deadline exceeded");
      {
        std::lock_guard<std::mutex> m(metrics_mu_);
        failed_++;
      }
      p.promise.set_value(std::move(r));
      drained_cv_.notify_all();
      continue;
    }
    in_flight_++;
    lock.unlock();
    QueryResult result = RunQuery(p, &scratch);
    {
      std::lock_guard<std::mutex> m(metrics_mu_);
      if (result.status.ok()) {
        completed_++;
      } else {
        failed_++;
      }
      retries_ += result.retries;
      rerouted_buckets_ += result.rerouted_buckets;
      failover_reads_ += result.failover_reads;
      reconstructed_pages_ += result.reconstructed_pages;
      pool_hits_ += result.pool_hits;
      zone_map_skips_ += result.zone_map_skips;
      latency_ms_.Observe(result.total_ms);
    }
    p.promise.set_value(std::move(result));
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      in_flight_--;
      if (queue_.empty() && in_flight_ == 0) drained_cv_.notify_all();
    }
  }
}

QueryResult QueryService::RunQuery(const Pending& p, Scratch* scratch) {
  QueryResult result;
  const double started = MonotonicNowMs();
  result.queue_ms = started - p.submitted_ms;
  const auto finish = [&](Status st) -> QueryResult {
    result.status = std::move(st);
    if (!result.status.ok()) result.matches.clear();
    result.total_ms = MonotonicNowMs() - p.submitted_ms;
    scratch->fetched.clear();  // Unpin the last batch now, not next query.
    return std::move(result);
  };

  if (p.deadline_ms != kNoDeadline && started > p.deadline_ms) {
    return finish(Status::DeadlineExceeded("deadline expired while queued"));
  }
  // The cutover fence: a fenced request must land on the generation its
  // coordinator planned against, before any page is read.
  if (p.request.expected_generation != 0 &&
      p.request.expected_generation != generation_) {
    {
      std::lock_guard<std::mutex> m(metrics_mu_);
      generation_fenced_++;
    }
    return finish(Status::FailedPrecondition(
        "generation fence: request expects catalog generation " +
        std::to_string(p.request.expected_generation) +
        " but this service serves " + std::to_string(generation_)));
  }
  const auto it = relations_.find(p.request.relation);
  if (it == relations_.end()) {
    return finish(
        Status::NotFound("no relation named '" + p.request.relation + "'"));
  }
  const Relation& rel = it->second;
  Result<RangeQuery> resolved =
      ResolveRange(rel.header.partitioner, p.request.lo, p.request.hi);
  if (!resolved.ok()) return finish(resolved.status());
  const RangeQuery& query = resolved.value();
  result.buckets_touched = query.NumBuckets();
  const GridSpec& grid = rel.header.partitioner.grid();
  const RelationRedundancy::Policy policy = rel.redundancy.policy;

  // A sub-query (a disk-ownership filter and/or a pinned mirror copy) is
  // what a cluster coordinator sends. It is strict: it reads exactly the
  // (disk, copy) pairs it names, consults no breaker and never fails over
  // to another mirror copy — moving a read to another copy is the
  // coordinator's decision.
  const bool filtered = !p.request.disks.empty();
  const uint32_t pinned_copy = p.request.serve_copy;
  const bool sub_query = filtered || pinned_copy > 0;
  std::vector<bool>& allowed = scratch->allowed;
  if (filtered) {
    allowed.assign(num_disks_, false);
    for (uint32_t d : p.request.disks) {
      if (d >= num_disks_) {
        return finish(Status::InvalidArgument(
            "request disk " + std::to_string(d) + " out of range [0, " +
            std::to_string(num_disks_) + ")"));
      }
      allowed[d] = true;
    }
  }
  if (pinned_copy > 0) {
    if (policy != RelationRedundancy::Policy::kMirror ||
        pinned_copy >= rel.copy_files.size()) {
      return finish(Status::InvalidArgument(
          "serve_copy " + std::to_string(pinned_copy) +
          " needs a mirror relation with more copies"));
    }
  }

  // --- Plan: assign every touched bucket a (disk, copy) --------------------
  // The mask routed around is "breakers that would refuse right now",
  // probed without consuming half-open slots; actual admission happens per
  // batch below.
  std::vector<bool>& touched = scratch->touched;
  touched.assign(num_disks_, false);
  rel.disk_map->ForEachRowSpan(query.rect(), [&](uint64_t begin,
                                                 uint64_t length) {
    for (uint64_t j = 0; j < length; ++j) {
      touched[rel.disk_map->DiskAt(begin + j)] = true;
    }
  });
  std::vector<bool>& refused = scratch->refused;
  refused.assign(num_disks_, false);
  const bool any_refused =
      !sub_query && breakers_.WouldRefuse(touched, &refused);

  std::vector<Assign>& assignment = scratch->assignment;
  assignment.clear();

  if (any_refused && policy == RelationRedundancy::Policy::kMirror) {
    // Plan-time reroute through the same machinery the simulator uses.
    Result<DegradedPlan> plan =
        DegradedPlan::ForReplicated(*rel.placement, refused);
    if (!plan.ok()) return finish(plan.status());
    Result<DegradedPlan::QueryPlan> expanded =
        plan.value().ExpandQuery(query);
    if (!expanded.ok()) return finish(expanded.status());
    const DegradedPlan::QueryPlan& qp = expanded.value();
    if (qp.unavailable_buckets > 0) {
      return finish(Status::Unavailable(
          std::to_string(qp.unavailable_buckets) +
          " buckets have no live replica"));
    }
    result.rerouted_buckets = qp.rerouted_buckets;
    for (uint32_t d = 0; d < num_disks_; ++d) {
      for (uint64_t addr : qp.per_disk[d]) {
        const std::vector<uint32_t> disks =
            rel.placement->DisksOf(grid.Delinearize(addr));
        uint32_t copy = 0;
        while (copy < disks.size() && disks[copy] != d) ++copy;
        if (copy == disks.size()) {
          return finish(Status::Internal(
              "replica plan assigned a bucket to a non-replica disk"));
        }
        assignment.push_back({addr, d, copy, false});
      }
    }
  } else {
    // Primary (or pinned-copy) placement, one bucket at a time. A refused
    // disk's buckets reconstruct from parity when the relation has it, or
    // fail the query (a refused mirror disk took the branch above).
    uint64_t dead_buckets = 0;
    rel.disk_map->ForEachRowSpan(query.rect(), [&](uint64_t begin,
                                                   uint64_t length) {
      for (uint64_t j = 0; j < length; ++j) {
        const uint64_t addr = begin + j;
        const uint32_t primary = rel.disk_map->DiskAt(addr);
        if (filtered && !allowed[primary]) continue;
        Assign a{addr, primary, 0, false};
        if (pinned_copy > 0) {
          a.copy = pinned_copy;
          a.disk = rel.placement->DisksOf(grid.Delinearize(addr))[pinned_copy];
        }
        if (refused[a.disk]) {
          if (policy == RelationRedundancy::Policy::kParity) {
            a.reconstruct = true;
          } else {
            dead_buckets++;
          }
        }
        assignment.push_back(a);
      }
    });
    if (dead_buckets > 0) {
      return finish(Status::Unavailable(
          std::to_string(dead_buckets) +
          " buckets on tripped disks and the relation has no redundancy"));
    }
    if (sub_query) result.buckets_touched = assignment.size();
  }

  // --- Flat read plan: one entry per (disk, copy, page) --------------------
  // Sorted by (disk, copy, page): per-disk batches (the breaker unit) in
  // ascending disk order, each read in (copy, page) order. A page shared by
  // two buckets of one (disk, copy) is read once. A counting sort places
  // the reads by disk, keeping plan order within a disk; that order is
  // usually (copy, page) order already, so a disk's reads are sorted only
  // when they are not.
  std::vector<PageRead>& reads = scratch->reads;
  std::vector<size_t>& disk_end = scratch->disk_end;
  disk_end.assign(num_disks_ + 1, 0);
  for (const Assign& a : assignment) {
    disk_end[a.disk + 1] += rel.index.PagesOf(a.addr).size();
  }
  for (uint32_t d = 0; d < num_disks_; ++d) disk_end[d + 1] += disk_end[d];
  reads.resize(disk_end[num_disks_]);
  bool any_mixed = false;
  for (const Assign& a : assignment) {
    for (uint64_t page : rel.index.PagesOf(a.addr)) {
      reads[disk_end[a.disk]++] = {a.disk, a.copy, page, a.reconstruct};
      any_mixed =
          any_mixed || rel.index.page_bucket[page] == PageIndex::kMixedPage;
    }
  }
  const auto by_copy_page = [](const PageRead& a, const PageRead& b) {
    return std::tie(a.copy, a.page) < std::tie(b.copy, b.page);
  };
  for (uint32_t d = 0; d < num_disks_; ++d) {
    // disk_end[d] is now where disk d's reads end.
    const auto begin = reads.begin() + static_cast<ptrdiff_t>(
                                           d == 0 ? 0 : disk_end[d - 1]);
    const auto end = reads.begin() + static_cast<ptrdiff_t>(disk_end[d]);
    if (!std::is_sorted(begin, end, by_copy_page)) {
      std::sort(begin, end, by_copy_page);
    }
  }
  const auto key = [](const PageRead& r) {
    return std::tie(r.disk, r.copy, r.page);
  };
  size_t planned = 0;
  for (const PageRead& r : reads) {
    if (planned > 0 && key(reads[planned - 1]) == key(r)) {
      reads[planned - 1].reconstruct = reads[planned - 1].reconstruct ||
                                       r.reconstruct;
    } else {
      reads[planned++] = r;
    }
  }
  reads.resize(planned);

  // --- Owner table: only mixed pages resolve each record's owner ----------
  // Indexed by a bucket's row-major offset inside the query rectangle;
  // buckets the plan does not serve (disk-filtered) have no owner.
  const BucketRect& rect = query.rect();
  std::vector<Owner>& owners = scratch->owners;
  if (any_mixed) {
    owners.assign(static_cast<size_t>(rect.Volume()), Owner{});
    for (const Assign& a : assignment) {
      owners[static_cast<size_t>(
          RectOffset(rect, grid.Delinearize(a.addr)))] = {a.disk, a.copy};
    }
  }

  const InterruptFn interrupt = MakeInterrupt(p.deadline_ms);
  const std::vector<double>& lo = p.request.lo;
  const std::vector<double>& hi = p.request.hi;
  const uint32_t num_attrs = rel.header.layout.num_attrs;
  const uint32_t capacity = rel.header.layout.page_capacity;
  std::vector<double>& values = scratch->values;
  values.resize(num_attrs);
  std::vector<uint8_t>& match_mask = scratch->match_mask;
  // Each page read appends one ascending run of ids to `ids`.
  std::vector<RecordId>& ids = scratch->ids;
  ids.clear();
  std::vector<Run>& runs = scratch->runs;
  runs.clear();

  // Appends the matches of one page read under (disk, copy).
  const auto scan = [&](const PageRead& read, const DecodedPage& decoded) {
    // Zone-map skip: min/max prove no record intersects the predicate
    // box, so the whole page needs no filtering.
    if (!decoded.MayMatch(lo, hi)) {
      result.zone_map_skips++;
      return;
    }
    const uint32_t in_page = decoded.num_records;
    const RecordId first_id = read.page * capacity;
    const size_t run_begin = ids.size();
    const bool mixed =
        rel.index.page_bucket[read.page] == PageIndex::kMixedPage;
    if (!mixed && decoded.Within(lo, hi)) {
      // Zone-map accept: min/max prove every record lies inside the box.
      result.zone_map_accepts++;
      for (uint32_t slot = 0; slot < in_page; ++slot) {
        ids.push_back(first_id + slot);
      }
    } else {
      // Branch-free columnar filter: AND per-attribute range masks over
      // the column vectors.
      match_mask.assign(in_page, 1);
      for (uint32_t a = 0; a < num_attrs; ++a) {
        const double lo_a = lo[a];
        const double hi_a = hi[a];
        const double* col = decoded.column(a);
        uint8_t* mask = match_mask.data();
        for (uint32_t slot = 0; slot < in_page; ++slot) {
          mask[slot] &=
              static_cast<uint8_t>(col[slot] >= lo_a && col[slot] <= hi_a);
        }
      }
      for (uint32_t slot = 0; slot < in_page; ++slot) {
        if (!match_mask[slot]) continue;
        if (mixed) {
          // Accept only records whose bucket this (disk, copy) serves.
          for (uint32_t a = 0; a < num_attrs; ++a) {
            values[a] = decoded.column(a)[slot];
          }
          const uint64_t offset =
              RectOffset(rect, rel.header.partitioner.BucketOf(values));
          if (offset == kOutsideRect) continue;
          const Owner& owner = owners[static_cast<size_t>(offset)];
          if (owner.disk != read.disk || owner.copy != read.copy) continue;
        }
        ids.push_back(first_id + slot);
      }
    }
    if (ids.size() > run_begin) runs.push_back({run_begin, ids.size()});
  };

  // --- Execute, disk by disk ----------------------------------------------
  // Each disk batch splits into runs of one (copy, reconstruct); a direct
  // run is read in batched PageStore reads of up to kMaxPagesPerFetch
  // pages. A page that fails moves, alone, to the degraded path before the
  // run reads on.
  std::vector<uint64_t>& pages = scratch->pages;
  pages.resize(reads.size());
  for (size_t i = 0; i < reads.size(); ++i) pages[i] = reads[i].page;
  std::vector<PinnedPage>& fetched = scratch->fetched;
  for (size_t batch = 0; batch < reads.size();) {
    const uint32_t disk = reads[batch].disk;
    size_t batch_end = batch;
    while (batch_end < reads.size() && reads[batch_end].disk == disk) {
      ++batch_end;
    }
    if (hard_stop_.load()) {
      return finish(Status::Unavailable("service shutting down"));
    }
    if (p.deadline_ms != kNoDeadline && MonotonicNowMs() > p.deadline_ms) {
      return finish(
          Status::DeadlineExceeded("deadline expired between disk batches"));
    }
    // Admission: false either because the plan already routed around this
    // disk, or because its breaker tripped (or lost the probe race) since
    // planning — then every page goes straight to the degraded path. A
    // sub-query's batch bypasses the breaker and feeds it nothing.
    const bool admitted = sub_query || breakers_.Admit(disk);
    const auto fail = [&](Status st) {
      if (!sub_query && admitted) breakers_.Record(disk, false);
      return finish(std::move(st));
    };
    bool direct_ok = true;
    for (size_t i = batch; i < batch_end;) {
      const uint32_t copy = reads[i].copy;
      const bool reconstruct = reads[i].reconstruct;
      size_t run_end = i + 1;
      while (run_end < batch_end && reads[run_end].copy == copy &&
             reads[run_end].reconstruct == reconstruct) {
        ++run_end;
      }
      while (i < run_end) {
        Status direct;
        if (!admitted || reconstruct) {
          direct =
              Status::Unavailable("disk routed around; direct read skipped");
        } else {
          fetched.clear();
          PageReadStats stats;
          direct = store_->GetPages(
              rel.copy_files[copy],
              std::span<const uint64_t>(pages).subspan(
                  i, std::min(run_end - i, kMaxPagesPerFetch)),
              options_.read, &fetched, &stats, interrupt);
          result.retries += stats.retries;
          result.pages_read += fetched.size();
          result.pool_hits += stats.cache_hit;
          for (const PinnedPage& page : fetched) {
            scan(reads[i++], page.decoded());
          }
          if (direct.ok()) continue;
          direct_ok = false;
          if (direct.code() != StatusCode::kUnavailable) {
            return fail(std::move(direct));  // Deadline / malformed request.
          }
        }
        Result<PinnedPage> pinned = ReadPageDegraded(
            rel, copy, reads[i].page, interrupt,
            /*mirror_failover=*/!sub_query, std::move(direct), &result);
        if (!pinned.ok()) return fail(pinned.status());
        scan(reads[i++], pinned.value().decoded());
      }
    }
    if (!sub_query && admitted) breakers_.Record(disk, direct_ok);
    batch = batch_end;
  }

  // --- Ordered gather ------------------------------------------------------
  // Distinct pages hold disjoint id ranges, so ordering the runs by first id
  // and concatenating sorts the answer. Runs overlap only when one mixed
  // page was read under two (disk, copy) keys; then sort the ids instead.
  // The answer is allocated once, at its exact size.
  std::sort(runs.begin(), runs.end(), [&](const Run& a, const Run& b) {
    return ids[a.begin] < ids[b.begin];
  });
  bool overlap = false;
  for (size_t k = 1; k < runs.size(); ++k) {
    overlap = overlap || ids[runs[k].begin] <= ids[runs[k - 1].end - 1];
  }
  std::vector<RecordId>& matches = result.matches;
  matches.reserve(ids.size());
  if (overlap) {
    matches.assign(ids.begin(), ids.end());
    std::sort(matches.begin(), matches.end());
  } else {
    for (const Run& run : runs) {
      matches.insert(matches.end(), ids.begin() + run.begin,
                     ids.begin() + run.end);
    }
  }
  return finish(Status::Ok());
}

InterruptFn QueryService::MakeInterrupt(double deadline_ms) const {
  return [this, deadline_ms]() -> Status {
    if (hard_stop_.load()) {
      return Status::Unavailable("service shutting down");
    }
    if (deadline_ms != kNoDeadline && MonotonicNowMs() > deadline_ms) {
      return Status::DeadlineExceeded("deadline expired before read");
    }
    return Status::Ok();
  };
}

Result<PinnedPage> QueryService::ReadPageDegraded(
    const Relation& rel, uint32_t assigned_copy, uint64_t page,
    const InterruptFn& interrupt, bool mirror_failover, Status direct_status,
    QueryResult* result) {
  if (rel.redundancy.policy == RelationRedundancy::Policy::kMirror &&
      mirror_failover) {
    for (uint32_t copy = 0; copy < rel.copy_files.size(); ++copy) {
      if (copy == assigned_copy) continue;
      Result<PinnedPage> alt =
          ReadPagePinned(rel, copy, page, interrupt, result);
      if (alt.ok()) {
        result->failover_reads++;
        return alt;
      }
      if (alt.status().code() != StatusCode::kUnavailable) {
        return alt.status();
      }
    }
    return Status::Unavailable("page " + std::to_string(page) +
                               " unreadable on every mirror copy");
  }
  if (rel.redundancy.policy == RelationRedundancy::Policy::kParity) {
    return ReconstructPage(rel, page, interrupt, result);
  }
  return direct_status;
}

Result<PinnedPage> QueryService::ReadPagePinned(const Relation& rel,
                                                uint32_t copy,
                                                uint64_t page,
                                                const InterruptFn& interrupt,
                                                QueryResult* result) {
  PageReadStats stats;
  Result<PinnedPage> pinned =
      store_->GetPage(rel.copy_files[copy], page, options_.read, &stats,
                      interrupt);
  result->retries += stats.retries;
  if (pinned.ok()) {
    result->pages_read++;
    result->pool_hits += stats.cache_hit;
  }
  return pinned;
}

Result<PinnedPage> QueryService::ReconstructPage(const Relation& rel,
                                                 uint64_t page,
                                                 const InterruptFn& interrupt,
                                                 QueryResult* result) {
  if (rel.parity_file.empty()) {
    return Status::Unavailable("page " + std::to_string(page) +
                               " unreadable and relation has no parity");
  }
  const FileLayout& layout = rel.header.layout;
  const uint32_t group = rel.redundancy.group_pages;
  const uint64_t stripe = page / group;
  const uint64_t first = stripe * group;
  const uint64_t last =
      std::min<uint64_t>(first + group, layout.num_pages);
  const auto degrade = [&](const Status& st) -> Status {
    if (st.code() == StatusCode::kDeadlineExceeded) return st;
    return Status::Unavailable("reconstruction of page " +
                               std::to_string(page) +
                               " failed: " + st.message());
  };
  // The rebuilt page goes in a frame of no pool, which it starts filled
  // with the parity page. Parity pages carry no grid-file layout of their
  // own: raw uncached read with the same retry/interrupt machinery.
  BlankFrame frame = BlankFrame::Unpooled();
  const std::span<char> rebuilt = frame.Resize(layout.page_size_bytes);
  PageReadStats parity_stats;
  Status parity =
      store_->ReadRaw(rel.parity_file, stripe * layout.page_size_bytes,
                      rebuilt, options_.read, &parity_stats, interrupt);
  result->retries += parity_stats.retries;
  if (!parity.ok()) return degrade(parity);
  result->pages_read++;
  for (uint64_t sibling = first; sibling < last; ++sibling) {
    if (sibling == page) continue;
    // Stripe siblings are ordinary data pages: pooled reads, so repeated
    // reconstructions of a stripe fetch each survivor once.
    Result<PinnedPage> bytes =
        ReadPagePinned(rel, 0, sibling, interrupt, result);
    if (!bytes.ok()) return degrade(bytes.status());
    XorBytes(rebuilt.data(), bytes.value().raw().data(), rebuilt.size());
  }
  // Self-check, decode, and pin — without admitting under the data file's
  // key (see header: breakers must keep observing the real fault). The
  // verify doubles as the reconstruction's integrity proof.
  Status verify = VerifyPageBytes(frame.raw(), layout, page);
  if (!verify.ok()) return degrade(verify);
  Result<DecodedPage> decoded = DecodePageBytes(frame.raw(), layout, page);
  if (!decoded.ok()) return degrade(decoded.status());
  frame.set_decoded(std::move(decoded).value());
  result->reconstructed_pages++;
  return std::move(frame).Seal();
}

Status QueryService::Shutdown() {
  std::lock_guard<std::mutex> serialize(shutdown_mu_);
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    if (shutdown_done_) return shutdown_status_;
    draining_ = true;
    queue_cv_.notify_all();
    const bool drained = drained_cv_.wait_for(
        lock,
        std::chrono::duration<double, std::milli>(options_.drain_deadline_ms),
        [&] { return queue_.empty() && in_flight_ == 0; });
    if (drained) {
      shutdown_status_ = Status::Ok();
    } else {
      hard_stop_.store(true);
      queue_cv_.notify_all();
      drained_cv_.wait(lock,
                       [&] { return queue_.empty() && in_flight_ == 0; });
      shutdown_status_ = Status::DeadlineExceeded(
          "drain deadline exceeded; remaining work was failed");
    }
    shutdown_done_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  return shutdown_status_;
}

void QueryService::SnapshotMetrics(MetricsRegistry* out) const {
  if (out == nullptr) return;
  const auto set_counter = [out](const std::string& name, uint64_t v) {
    obs::Counter* c = out->GetCounter(name);
    c->Reset();
    c->Inc(v);
  };
  uint64_t max_depth = 0;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    max_depth = queue_max_depth_;
  }
  const BreakerCounters totals = BreakerTotals();
  {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    // Same order as kServeCounterNames.
    const uint64_t values[] = {
        admitted_, shed_, completed_, failed_, retries_, rerouted_buckets_,
        failover_reads_, reconstructed_pages_, pool_hits_, zone_map_skips_,
        generation_fenced_, totals.opened, totals.half_opened, totals.closed,
        totals.reopened};
    static_assert(std::size(values) == std::size(kServeCounterNames));
    for (size_t i = 0; i < std::size(values); ++i) {
      set_counter(std::string("serve.") + kServeCounterNames[i], values[i]);
    }
    obs::Histogram* h =
        out->GetHistogram("serve.latency_ms", latency_ms_.bounds());
    h->Reset();
    h->Merge(latency_ms_);
  }
  out->GetGauge("serve.queue.max_depth")
      ->Set(static_cast<double>(max_depth));
  // Storage-layer pool counters ride along in the same snapshot, so a
  // `declctl serve --metrics-json` dump shows the whole read path.
  store_->PublishMetrics(out);
}

BreakerState QueryService::BreakerStateOf(uint32_t disk) const {
  return breakers_.StateOf(disk);
}

BreakerCounters QueryService::BreakerTotals() const {
  return breakers_.Totals();
}

std::vector<std::string> QueryService::RelationNames() const {
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, rel] : relations_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

Result<std::vector<FaultRange>> DiskFaultSchedule(const StorageEnv& env,
                                                  const std::string& relation,
                                                  uint32_t disk) {
  Result<CatalogManifest> manifest = ReadCurrentManifest(env);
  if (!manifest.ok()) return manifest.status();
  const CatalogManifest& m = manifest.value();
  size_t index = m.relations.size();
  for (size_t i = 0; i < m.relations.size(); ++i) {
    if (m.relations[i].name == relation) {
      index = i;
      break;
    }
  }
  if (index == m.relations.size()) {
    return Status::NotFound("no relation named '" + relation + "'");
  }
  if (disk >= m.num_disks) {
    return Status::InvalidArgument("disk index out of range");
  }
  Result<QueryService::Relation> loaded =
      QueryService::LoadRelation(env, m, index);
  if (!loaded.ok()) return loaded.status();
  const QueryService::Relation& rel = loaded.value();
  const FileLayout& l = rel.header.layout;

  // A page's disk is its buckets' primary disk — require the layout to be
  // bucket-clustered so that is well-defined. `page_any_bucket` keeps one
  // of the page's buckets for the mirror placement.
  constexpr uint32_t kNoDisk = std::numeric_limits<uint32_t>::max();
  constexpr uint32_t kManyDisks = kNoDisk - 1;
  std::vector<uint32_t> page_disk(static_cast<size_t>(l.num_pages), kNoDisk);
  std::vector<uint64_t> page_any_bucket(static_cast<size_t>(l.num_pages));
  const uint64_t num_buckets = rel.index.bucket_begin.size() - 1;
  for (uint64_t bucket = 0; bucket < num_buckets; ++bucket) {
    const uint32_t primary = rel.disk_map->DiskAt(bucket);
    for (uint64_t page : rel.index.PagesOf(bucket)) {
      uint32_t& d = page_disk[static_cast<size_t>(page)];
      d = d == kNoDisk || d == primary ? primary : kManyDisks;
      page_any_bucket[static_cast<size_t>(page)] = bucket;
    }
  }

  const GridSpec& grid = rel.header.partitioner.grid();
  std::vector<FaultRange> ranges;
  for (uint64_t page = 0; page < l.num_pages; ++page) {
    const uint32_t primary = page_disk[static_cast<size_t>(page)];
    if (primary == kManyDisks) {
      return Status::Unsupported(
          "page " + std::to_string(page) +
          " mixes buckets of different disks; DiskFaultSchedule needs a "
          "bucket-clustered layout (insert bucket by bucket, pick a page "
          "size whose capacity divides the per-bucket record count)");
    }
    if (primary == disk) {
      ranges.push_back(
          {rel.copy_files[0], l.PageOffset(page), l.page_size_bytes});
    }
    const std::vector<uint32_t> disks = rel.placement->DisksOf(
        grid.Delinearize(page_any_bucket[static_cast<size_t>(page)]));
    for (uint32_t copy = 1; copy < disks.size(); ++copy) {
      if (disks[copy] == disk) {
        ranges.push_back(
            {rel.copy_files[copy], l.PageOffset(page), l.page_size_bytes});
      }
    }
  }
  return ranges;
}

}  // namespace griddecl::serve
