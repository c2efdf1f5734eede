#ifndef GRIDDECL_GRIDFILE_PAGE_STORE_H_
#define GRIDDECL_GRIDFILE_PAGE_STORE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "griddecl/common/status.h"
#include "griddecl/gridfile/buffer_pool.h"
#include "griddecl/gridfile/read_policy.h"
#include "griddecl/gridfile/storage.h"
#include "griddecl/gridfile/storage_env.h"
#include "griddecl/obs/metrics.h"

/// \file
/// The one page-read path. `GetPages(file, pages, ReadPolicy, out)`
/// fetches a run of a file's pages through the scan-resistant
/// `BufferPool`, retries transient env errors under seeded-jitter backoff,
/// CRC-verifies **once at admission**, and hands back `PinnedPage`s whose
/// decoded pages are shared by every later reader of the same page.
/// `GetPage` is the one-page call of the same path.
///
/// A batch resolves the file once: `RegisterFile` gives each file an
/// integer id with an immutable layout, and the pool keys frames on
/// (id, page), so a hit hashes two integers. Consecutive hits share one
/// hold of the pool lock; a miss lets go of it, reads, verifies, decodes
/// and admits the page before the next page is looked up, so the pool
/// sees exactly the lookups and admissions of the same pages read one
/// `GetPage` at a time. Misses stay one `ReadAt` per page: FaultyEnv keys
/// transient faults on (file, offset).
///
/// A miss takes a free frame from the pool, `ReadAt`s the page straight
/// into the frame's bytes, verifies them and decodes them in place (the
/// page's `DecodedPage` reads its zone maps and columns from the frame),
/// then admits the frame. With the pool full, the free frame and the slot
/// are the ones an earlier admission evicted, so a miss allocates nothing;
/// a failed read or a lost admission race returns the frame to the free
/// list. A store without a pool reads each page into a frame of its own,
/// freed by its last pin. A range scan asks the zone maps first:
/// `MayMatch` false skips the page, `Within` true takes every record
/// without filtering.
///
/// Serve and scrub both read here, and every read is strict: a page that
/// fails verification reads as kUnavailable, so serve's mirror failover /
/// parity rebuild engage and scrub's census counts it as damage. A batch
/// stops at the first page that fails, so its caller can repair that page
/// before reading on. Cached pages skip I/O, verification and decode
/// entirely; scrub builds its store with `pool_pages = 0`, so every census
/// probe touches the real bytes.
///
/// Interruption (shutdown hard-stop, query deadlines) is injected as a
/// callable checked before every page and every read attempt and between
/// backoff sleep slices, so the owner keeps its exact error wording
/// without PageStore knowing about deadlines.

namespace griddecl {

/// Per-call accounting, for callers that charge reads to a query.
struct PageReadStats {
  /// Successful physical reads issued to the env (0 on a pool hit).
  uint64_t physical_reads = 0;
  /// Transient-error retries performed.
  uint64_t retries = 0;
  /// Pages served straight from the pool (0 or 1 for one GetPage).
  uint64_t cache_hit = 0;
};

/// Caller-supplied interruption check: non-Ok aborts the read (and any
/// backoff sleep) with exactly that status. It may run under the pool
/// lock, so it must not call back into the store.
using InterruptFn = std::function<Status()>;

class PageStore {
 public:
  struct Options {
    /// Buffer-pool capacity in pages; 0 disables caching entirely
    /// (every GetPage is a physical read).
    size_t pool_pages = 1024;
    /// Seed for retry-backoff jitter (decorrelates concurrent retriers).
    uint64_t seed = 0;
  };

  /// `env` must outlive the store.
  PageStore(const StorageEnv* env, const Options& options);

  PageStore(const PageStore&) = delete;
  PageStore& operator=(const PageStore&) = delete;

  /// Declares `file`'s layout under a fresh file id so GetPages can turn
  /// page numbers into byte ranges. Re-registering replaces the layout and
  /// drops the file's cached pages.
  void RegisterFile(const std::string& file, const FileLayout& layout);

  /// Fetches `pages` of `file` in order, appending one pinned page per
  /// page served to `*out`. Pool hit: the cached frame, no I/O, no
  /// re-verification. Miss: reads the page with retries on kUnavailable
  /// (per `policy.retry`), verifies, decodes, and admits the frame to the
  /// pool when the store has one. Stops at the first page that fails and
  /// returns its status, so the failed page is the first one not appended:
  /// kNotFound for an unregistered file, kInvalidArgument out of range,
  /// the interrupt's status, or kUnavailable ("page N of 'file': why") for
  /// a page that fails verification, which is never pooled.
  Status GetPages(const std::string& file, std::span<const uint64_t> pages,
                  const ReadPolicy& policy, std::vector<PinnedPage>* out,
                  PageReadStats* stats = nullptr,
                  const InterruptFn& interrupt = {});

  /// GetPages of the one page `page`, without the vector.
  Result<PinnedPage> GetPage(const std::string& file, uint64_t page,
                             const ReadPolicy& policy,
                             PageReadStats* stats = nullptr,
                             const InterruptFn& interrupt = {});

  /// Uncached raw read of `out.size()` bytes at `offset` into `out`, with
  /// the same retry/interrupt machinery (parity pages, which have no
  /// grid-file layout of their own).
  Status ReadRaw(const std::string& file, uint64_t offset,
                 std::span<char> out, const ReadPolicy& policy,
                 PageReadStats* stats = nullptr,
                 const InterruptFn& interrupt = {});

  /// Drops `file`'s cached pages (after scrub rewrote it).
  void Invalidate(const std::string& file);

  /// Pool counters (zeros when the pool is disabled).
  BufferPool::Stats PoolStats() const;

  /// Publishes absolute totals into `out` (Reset + Inc, so repeated
  /// snapshots do not double-count): storage.pool.hits / .misses /
  /// .admissions / .evictions / .promotions counters plus
  /// storage.pool.resident and storage.pool.capacity gauges.
  void PublishMetrics(obs::MetricsRegistry* out) const;

 private:
  Status ReadWithRetries(const std::string& file, uint64_t offset,
                         std::span<char> out, const ReadPolicy& policy,
                         PageReadStats* stats,
                         const InterruptFn& interrupt) const;
  /// The one fetch loop of GetPages and GetPage: hands each page served
  /// to `emit(PinnedPage)`, so the one-page call needs no vector.
  template <typename Emit>
  Status FetchPages(const std::string& file, std::span<const uint64_t> pages,
                    const ReadPolicy& policy, PageReadStats* stats,
                    const InterruptFn& interrupt, Emit emit);
  /// Reads page `page` into `frame`, verifies it and decodes it in place.
  Status FillFrame(const std::string& file, uint64_t page,
                   const FileLayout& layout, const ReadPolicy& policy,
                   PageReadStats* stats, const InterruptFn& interrupt,
                   BlankFrame* frame) const;

  const StorageEnv* env_;
  const Options options_;
  std::unique_ptr<BufferPool> pool_;  ///< Null when pool_pages == 0.

  mutable std::mutex files_mu_;
  /// Current id of each registered file name.
  std::unordered_map<std::string, BufferPool::FileId> file_ids_;
  /// Layout of each id ever assigned, indexed by id. Append-only and never
  /// modified, so a reader holds a pointer into it without the lock.
  std::deque<FileLayout> layouts_;
};

}  // namespace griddecl

#endif  // GRIDDECL_GRIDFILE_PAGE_STORE_H_
