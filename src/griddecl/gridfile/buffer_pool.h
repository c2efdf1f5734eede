#ifndef GRIDDECL_GRIDFILE_BUFFER_POOL_H_
#define GRIDDECL_GRIDFILE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

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
/// The pool owns its frames. Each resident page has a slot; the probation
/// FIFO and the protected CLOCK are doubly linked lists threaded through
/// the slots by index, and an open-addressing table maps (file id, page)
/// to a slot. Slots, table and frames grow with residency (the table
/// doubles, a frame is allocated when no free one is left); nothing is
/// sized to `capacity` up front. Once the pool is full, a miss reuses the
/// frame an earlier admission evicted and the evicted page's slot, so the
/// steady-state miss allocates nothing.
///
/// Pins are counted. A frame's count is its `PinnedPage`s plus one for the
/// pool while the frame is resident. Eviction drops the pool's reference;
/// the frame joins the free list when its count reaches zero, whether that
/// happens at eviction or at the last unpin. A frame is only written while
/// it is a `BlankFrame` — taken from the free list, seen by no one else —
/// so a pinned page's bytes and decoded columns never change under it,
/// and eviction needs no coordination with readers beyond the pool's
/// mutex and the atomic count.
///
/// A batched read looks pages up through a `Hold`, which keeps that mutex
/// across a run of consecutive hits and lets go of it before any I/O.

namespace griddecl {

class BufferPool;

/// One page's bytes and its decoded columnar view, which reads its
/// columns and zone maps in place from those bytes (see DecodePageBytes).
/// Frames belong to a pool, or to the `PinnedPage`s of an unpooled page.
class PageFrame {
 public:
  PageFrame() = default;
  PageFrame(const PageFrame&) = delete;
  PageFrame& operator=(const PageFrame&) = delete;

  std::string_view raw() const {
    return {reinterpret_cast<const char*>(bytes_.get()), size_};
  }
  const DecodedPage& decoded() const { return decoded_; }

 private:
  friend class BufferPool;
  friend class BlankFrame;
  friend class PinnedPage;

  /// Whole doubles, so the bytes are 8-byte aligned and decode in place.
  std::unique_ptr<double[]> bytes_;
  size_t size_ = 0;      ///< Bytes of the current page.
  size_t capacity_ = 0;  ///< Bytes allocated.
  DecodedPage decoded_;
  /// Pins, plus one held by the pool while the frame is resident.
  std::atomic<uint32_t> refs_{0};
  /// The owning pool; null for an unpooled frame, deleted by its last pin.
  BufferPool* pool_ = nullptr;
};

/// A verified, decoded page held alive by the caller. Copyable; the frame
/// is immutable while any pin references it, and eviction never
/// invalidates a pin. Pins must not outlive the pool of their frame.
class PinnedPage {
 public:
  PinnedPage() = default;
  PinnedPage(const PinnedPage& other) : frame_(other.frame_) {
    if (frame_ != nullptr) {
      frame_->refs_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  PinnedPage(PinnedPage&& other) noexcept
      : frame_(std::exchange(other.frame_, nullptr)) {}
  PinnedPage& operator=(PinnedPage other) noexcept {
    std::swap(frame_, other.frame_);
    return *this;
  }
  ~PinnedPage() {
    if (frame_ != nullptr) Unpin();
  }

  bool valid() const { return frame_ != nullptr; }
  /// Columnar view: zone maps and columns.
  const DecodedPage& decoded() const { return frame_->decoded(); }
  /// The page's bytes exactly as fetched (parity XOR).
  std::string_view raw() const { return frame_->raw(); }

 private:
  friend class BufferPool;
  friend class BlankFrame;

  /// Adopts one reference already counted on `frame`.
  explicit PinnedPage(PageFrame* frame) : frame_(frame) {}
  /// Drops the (non-null) frame's reference.
  void Unpin();

  PageFrame* frame_ = nullptr;
};

/// A frame taken for filling: writable, and seen by no one else until
/// `BufferPool::Admit` publishes it or `Seal` pins it unpooled. Dropping
/// it returns the frame to its pool's free list.
class BlankFrame {
 public:
  BlankFrame() = default;
  BlankFrame(BlankFrame&&) = default;
  BlankFrame& operator=(BlankFrame&&) = default;
  /// A frame of no pool, freed with its last pin (a page a caller chose
  /// not to cache, or any page of a store without a pool).
  static BlankFrame Unpooled();

  bool valid() const { return pin_.valid(); }
  /// Sizes the frame for an `n`-byte page and returns its bytes to fill;
  /// reuses the frame's buffer when it is large enough.
  std::span<char> Resize(size_t n);
  std::string_view raw() const { return pin_.raw(); }
  /// Sets the decoded view, which must read the frame's own bytes.
  void set_decoded(DecodedPage decoded) {
    pin_.frame_->decoded_ = std::move(decoded);
  }
  /// Pins the filled frame without admitting it to any pool.
  PinnedPage Seal() && { return std::move(pin_); }

 private:
  friend class BufferPool;

  explicit BlankFrame(PageFrame* frame) : pin_(frame) {}

  /// The one reference to the frame.
  PinnedPage pin_;
};

class BufferPool {
 public:
  /// A registered file's integer name (see PageStore::RegisterFile).
  using FileId = uint32_t;

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t admissions = 0;
    uint64_t evictions = 0;
    uint64_t promotions = 0;
    /// Frames currently resident (gauge, not a counter).
    uint64_t resident = 0;
  };

  /// Pool calls under one hold of the pool mutex: the first call takes
  /// it, later ones reuse it until Release (or destruction). Counts
  /// exactly as the same sequence of `BufferPool` calls.
  class Hold {
   public:
    explicit Hold(BufferPool* pool)
        : pool_(pool), lock_(pool->mu_, std::defer_lock) {}

    PinnedPage Lookup(FileId file, uint64_t page);
    BlankFrame TakeFrame();
    PinnedPage Admit(FileId file, uint64_t page, BlankFrame frame);
    /// Lets go of the mutex (before a miss does its I/O).
    void Release() {
      if (lock_.owns_lock()) lock_.unlock();
    }

   private:
    void Lock() {
      if (!lock_.owns_lock()) lock_.lock();
    }

    BufferPool* pool_;
    std::unique_lock<std::mutex> lock_;
  };

  /// `capacity_pages` must be >= 1; the probation segment gets
  /// max(1, capacity/4) frames and the protected segment the rest, so at
  /// most `capacity_pages` frames are ever resident. A one-page pool has no
  /// protected segment: a hit leaves its page in probation.
  explicit BufferPool(size_t capacity_pages);
  /// Frees every frame; no pin may still reference one.
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Returns the cached page pinned (counting a hit and updating recency
  /// state), or an invalid pin (counting a miss).
  PinnedPage Lookup(FileId file, uint64_t page) {
    return Hold(this).Lookup(file, page);
  }

  /// A frame to read a missed page into: a free one, else a new one.
  BlankFrame TakeFrame() { return Hold(this).TakeFrame(); }

  /// Publishes `frame` as (file, page), evicting if full, and returns it
  /// pinned. If the key is already resident (two readers raced on the
  /// same miss) the incumbent wins and is returned; `frame` goes back to
  /// the free list. `frame` must come from this pool's TakeFrame. An
  /// invalid `frame` admits nothing and returns an invalid pin.
  PinnedPage Admit(FileId file, uint64_t page, BlankFrame frame) {
    return Hold(this).Admit(file, page, std::move(frame));
  }

  /// Drops every resident frame of `file` (after a repair rewrites it).
  /// Outstanding pins stay valid; they just reference pre-repair bytes.
  void Invalidate(FileId file);

  Stats GetStats() const;
  size_t capacity() const { return capacity_; }
  /// Frames allocated so far: resident, free, and evicted but pinned.
  size_t frames_allocated() const;

 private:
  friend class PinnedPage;

  static constexpr uint32_t kNil = UINT32_MAX;

  struct Key {
    FileId file = 0;
    uint64_t page = 0;
    bool operator==(const Key&) const = default;
  };
  /// One resident page: its frame and its links in its segment's list.
  struct Slot {
    Key key;
    PageFrame* frame = nullptr;
    uint32_t prev = kNil;
    uint32_t next = kNil;
    bool in_protected = false;
    bool referenced = false;
  };
  /// A doubly linked list of slots; head = oldest.
  struct List {
    uint32_t head = kNil;
    uint32_t tail = kNil;
    size_t size = 0;
  };
  /// An open-addressing (linear probing) table entry; `slot == kNil` is
  /// empty. The key lives here so a probe touches no slot.
  struct IndexEntry {
    uint64_t page = 0;
    FileId file = 0;
    uint32_t slot = kNil;
  };

  PinnedPage LookupLocked(const Key& key);
  BlankFrame TakeFrameLocked();
  PinnedPage AdmitLocked(const Key& key, BlankFrame frame);
  void EvictProtectedLocked();
  /// Unindexes slot `s`, drops the pool's reference to its frame and
  /// unlinks it; the slot itself is left to the caller.
  void EvictSlotLocked(uint32_t s, List* list);
  /// Returns a frame to the free list: the last unpin of an evicted
  /// frame calls it.
  void Recycle(PageFrame* frame);

  // Slot lists.
  void PushBack(List* list, uint32_t s);
  void Unlink(List* list, uint32_t s);

  // The index.
  size_t HomeOf(const Key& key) const;
  /// Position of `key` in index_, or kNil.
  uint32_t Find(const Key& key) const;
  void Insert(const Key& key, uint32_t slot);
  void Erase(const Key& key);

  const size_t capacity_;
  const size_t probation_capacity_;
  const size_t protected_capacity_;

  mutable std::mutex mu_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  std::vector<IndexEntry> index_;  ///< Power-of-two size, at most half full.
  uint32_t index_shift_ = 64;      ///< 64 - log2(index_.size()).
  size_t resident_ = 0;
  List probation_;  ///< Evicts strictly head-first (FIFO).
  /// Scans head-first, giving referenced frames a second chance at the
  /// tail.
  List protected_;
  std::vector<std::unique_ptr<PageFrame>> frames_;  ///< Every frame owned.
  std::vector<PageFrame*> free_frames_;
  Stats stats_;
};

}  // namespace griddecl

#endif  // GRIDDECL_GRIDFILE_BUFFER_POOL_H_
