#ifndef GRIDDECL_GRIDFILE_BUFFER_POOL_H_
#define GRIDDECL_GRIDFILE_BUFFER_POOL_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "griddecl/gridfile/storage.h"

/// \file
/// Bounded, scan-resistant page cache keyed by (file id, page). File ids
/// are the small integers `PageStore::RegisterFile` assigns, so a lookup
/// hashes two integers and never a file name.
///
/// Admission/eviction is segmented (2Q/SLRU-flavored):
///
///  * A page enters a small **probation** FIFO (a quarter of capacity).
///    Pages touched exactly once — a sequential scan — march through
///    probation and fall out the far end without ever displacing the
///    working set.
///  * A probation hit **promotes** the page to the **protected** segment
///    (the remaining three quarters), which evicts by second-chance
///    CLOCK: a hit sets the frame's reference bit; the eviction hand
///    clears set bits and recycles the frame to the tail, evicting the
///    first frame found cold.
///
/// Both segments are `std::list`s of keys beside one hash table of
/// entries, and no eviction frees a node another admission would allocate
/// again at once: an admission into a full probation FIFO takes over the
/// evicted front's hash node (`extract`, rekey, `insert`) and list node
/// (`splice` to the tail), and promotion and the CLOCK hand move list nodes
/// with `splice`. Nodes are allocated as the pool grows; none is reserved
/// up front.
///
/// Pin safety is structural, not counted: frames are immutable
/// `shared_ptr<const Frame>` payloads. Eviction merely drops the pool's
/// reference — any outstanding pin keeps the decoded page alive, so
/// pin/unpin/evict need no coordination beyond the pool's single mutex
/// and readers never observe a frame mid-mutation.
///
/// A batched read looks pages up through a `Hold`, which keeps that mutex
/// across a run of consecutive hits and lets go of it before any I/O.

namespace griddecl {

class BufferPool {
 public:
  /// A registered file's integer name (see PageStore::RegisterFile).
  using FileId = uint32_t;

  /// One cached page: its raw bytes plus the decoded columnar view, which
  /// for an aligned page reads its columns and zone maps straight out
  /// of `raw` (see DecodePageBytes). Immutable after construction.
  struct Frame {
    std::string raw;
    DecodedPage decoded;
  };
  using FramePtr = std::shared_ptr<const Frame>;

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t admissions = 0;
    uint64_t evictions = 0;
    uint64_t promotions = 0;
    /// Frames currently resident (gauge, not a counter).
    uint64_t resident = 0;
  };

  /// Lookups under one hold of the pool mutex: the first Lookup takes it,
  /// later ones reuse it until Release (or destruction). Counts exactly as
  /// the same sequence of `BufferPool::Lookup` calls.
  class Hold {
   public:
    explicit Hold(BufferPool* pool)
        : pool_(pool), lock_(pool->mu_, std::defer_lock) {}

    FramePtr Lookup(FileId file, uint64_t page);
    /// Lets go of the mutex (before a miss does its I/O).
    void Release() {
      if (lock_.owns_lock()) lock_.unlock();
    }

   private:
    BufferPool* pool_;
    std::unique_lock<std::mutex> lock_;
  };

  /// `capacity_pages` must be >= 1; the probation segment gets
  /// max(1, capacity/4) frames and the protected segment the rest, so at
  /// most `capacity_pages` frames are ever resident. A one-page pool has no
  /// protected segment: a hit leaves its page in probation.
  explicit BufferPool(size_t capacity_pages);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Returns the cached frame (counting a hit and updating recency
  /// state) or null (counting a miss).
  FramePtr Lookup(FileId file, uint64_t page) {
    return Hold(this).Lookup(file, page);
  }

  /// Inserts `frame` as (file, page), evicting if full. If the key is
  /// already resident (two readers raced on the same miss) the incumbent
  /// wins and is returned; the caller's copy is dropped. Never fails.
  FramePtr Admit(FileId file, uint64_t page, FramePtr frame);

  /// Drops every resident frame of `file` (after a repair rewrites it).
  /// Outstanding pins stay valid; they just reference pre-repair bytes.
  void Invalidate(FileId file);

  Stats GetStats() const;
  size_t capacity() const { return capacity_; }

 private:
  struct Key {
    FileId file = 0;
    uint64_t page = 0;
    bool operator==(const Key&) const = default;
  };
  /// Consecutive pages of a file hash to consecutive values, so a run of
  /// lookups walks neighbouring buckets (the table's prime bucket count
  /// spreads them).
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return std::hash<uint64_t>()((uint64_t{k.file} << 40) ^ k.page);
    }
  };
  struct Entry {
    FramePtr frame;
    bool in_protected = false;
    bool referenced = false;
    std::list<Key>::iterator pos;
  };

  FramePtr LookupLocked(const Key& key);
  void EvictProtectedLocked();

  const size_t capacity_;
  const size_t probation_capacity_;
  const size_t protected_capacity_;

  mutable std::mutex mu_;
  std::unordered_map<Key, Entry, KeyHash> frames_;
  /// Front = oldest. Probation evicts strictly front-first (FIFO);
  /// protected scans front-first giving referenced frames a second
  /// chance at the tail.
  std::list<Key> probation_;
  std::list<Key> protected_;
  Stats stats_;
};

}  // namespace griddecl

#endif  // GRIDDECL_GRIDFILE_BUFFER_POOL_H_
