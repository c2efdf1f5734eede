#include "griddecl/gridfile/buffer_pool.h"

#include <algorithm>
#include <bit>

#include "griddecl/common/check.h"

namespace griddecl {

// --- PinnedPage / BlankFrame ----------------------------------------------

void PinnedPage::Unpin() {
  PageFrame* frame = std::exchange(frame_, nullptr);
  if (frame->refs_.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  // The last reference: a pooled frame is evicted by now (residency holds
  // a reference), so it goes back to its pool's free list.
  if (frame->pool_ != nullptr) {
    frame->pool_->Recycle(frame);
  } else {
    delete frame;
  }
}

BlankFrame BlankFrame::Unpooled() {
  auto* frame = new PageFrame();
  frame->refs_.store(1, std::memory_order_relaxed);
  return BlankFrame(frame);
}

std::span<char> BlankFrame::Resize(size_t n) {
  PageFrame* frame = pin_.frame_;
  if (n > frame->capacity_) {
    const size_t words = (n + sizeof(double) - 1) / sizeof(double);
    frame->bytes_ = std::make_unique_for_overwrite<double[]>(words);
    frame->capacity_ = words * sizeof(double);
  }
  frame->size_ = n;
  frame->decoded_ = DecodedPage();
  return {reinterpret_cast<char*>(frame->bytes_.get()), n};
}

// --- BufferPool -----------------------------------------------------------

BufferPool::BufferPool(size_t capacity_pages)
    : capacity_(std::max<size_t>(1, capacity_pages)),
      probation_capacity_(std::max<size_t>(1, capacity_ / 4)),
      protected_capacity_(capacity_ - probation_capacity_) {}

BufferPool::~BufferPool() {
  // Each resident frame holds the pool's one reference; any other is a
  // pin about to dangle.
  uint64_t refs = 0;
  for (const std::unique_ptr<PageFrame>& frame : frames_) {
    refs += frame->refs_.load(std::memory_order_acquire);
  }
  GRIDDECL_CHECK_MSG(refs == resident_, "a pin outlived its buffer pool\n");
}

PinnedPage BufferPool::Hold::Lookup(FileId file, uint64_t page) {
  Lock();
  return pool_->LookupLocked(Key{file, page});
}

BlankFrame BufferPool::Hold::TakeFrame() {
  Lock();
  return pool_->TakeFrameLocked();
}

PinnedPage BufferPool::Hold::Admit(FileId file, uint64_t page,
                                   BlankFrame frame) {
  if (!frame.valid()) return PinnedPage();
  Lock();
  return pool_->AdmitLocked(Key{file, page}, std::move(frame));
}

PinnedPage BufferPool::LookupLocked(const Key& key) {
  const uint32_t pos = Find(key);
  if (pos == kNil) {
    ++stats_.misses;
    return PinnedPage();
  }
  ++stats_.hits;
  const uint32_t s = index_[pos].slot;
  Slot& slot = slots_[s];
  if (slot.in_protected) {
    slot.referenced = true;
  } else if (protected_capacity_ > 0) {
    // Second touch: promote out of probation into the protected segment.
    if (protected_.size >= protected_capacity_) EvictProtectedLocked();
    Unlink(&probation_, s);
    PushBack(&protected_, s);
    slots_[s].in_protected = true;
    slots_[s].referenced = false;
    ++stats_.promotions;
  }
  PageFrame* frame = slots_[s].frame;
  frame->refs_.fetch_add(1, std::memory_order_relaxed);
  return PinnedPage(frame);
}

BlankFrame BufferPool::TakeFrameLocked() {
  PageFrame* frame = nullptr;
  if (!free_frames_.empty()) {
    frame = free_frames_.back();
    free_frames_.pop_back();
  } else {
    frames_.push_back(std::make_unique<PageFrame>());
    frame = frames_.back().get();
    frame->pool_ = this;
  }
  frame->refs_.store(1, std::memory_order_relaxed);
  return BlankFrame(frame);
}

PinnedPage BufferPool::AdmitLocked(const Key& key, BlankFrame frame) {
  PinnedPage pin = std::move(frame.pin_);
  GRIDDECL_CHECK(pin.frame_->pool_ == this);
  const uint32_t found = Find(key);
  if (found != kNil) {
    // Raced; the incumbent wins and the offered frame is free again.
    PageFrame* offered = std::exchange(pin.frame_, nullptr);
    offered->refs_.store(0, std::memory_order_relaxed);
    free_frames_.push_back(offered);
    PageFrame* incumbent = slots_[index_[found].slot].frame;
    incumbent->refs_.fetch_add(1, std::memory_order_relaxed);
    return PinnedPage(incumbent);
  }
  uint32_t s = kNil;
  if (probation_.size < probation_capacity_) {
    if (!free_slots_.empty()) {
      s = free_slots_.back();
      free_slots_.pop_back();
    } else {
      s = static_cast<uint32_t>(slots_.size());
      slots_.emplace_back();
    }
  } else {
    // Evict the probation head and reuse its slot for the new page.
    s = probation_.head;
    EvictSlotLocked(s, &probation_);
    ++stats_.evictions;
  }
  slots_[s].key = key;
  slots_[s].frame = pin.frame_;
  slots_[s].in_protected = false;
  slots_[s].referenced = false;
  PushBack(&probation_, s);
  Insert(key, s);
  pin.frame_->refs_.fetch_add(1, std::memory_order_relaxed);  // Residency.
  ++stats_.admissions;
  return pin;
}

void BufferPool::EvictProtectedLocked() {
  // Second-chance CLOCK: recycle referenced frames to the tail (clearing
  // the bit), evict the first cold frame. Bounded: after one full lap
  // every bit is clear, so the loop terminates.
  while (protected_.head != kNil) {
    const uint32_t s = protected_.head;
    if (slots_[s].referenced) {
      slots_[s].referenced = false;
      Unlink(&protected_, s);
      PushBack(&protected_, s);
      continue;
    }
    EvictSlotLocked(s, &protected_);
    free_slots_.push_back(s);
    ++stats_.evictions;
    return;
  }
}

void BufferPool::EvictSlotLocked(uint32_t s, List* list) {
  Slot& slot = slots_[s];
  Erase(slot.key);
  Unlink(list, s);
  PageFrame* frame = std::exchange(slot.frame, nullptr);
  if (frame->refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    free_frames_.push_back(frame);
  }
}

void BufferPool::Recycle(PageFrame* frame) {
  std::lock_guard<std::mutex> lock(mu_);
  free_frames_.push_back(frame);
}

void BufferPool::Invalidate(FileId file) {
  std::lock_guard<std::mutex> lock(mu_);
  for (List* list : {&probation_, &protected_}) {
    for (uint32_t s = list->head; s != kNil;) {
      const uint32_t next = slots_[s].next;
      if (slots_[s].key.file == file) {
        EvictSlotLocked(s, list);
        free_slots_.push_back(s);
        ++stats_.evictions;
      }
      s = next;
    }
  }
}

BufferPool::Stats BufferPool::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats = stats_;
  stats.resident = resident_;
  return stats;
}

size_t BufferPool::frames_allocated() const {
  std::lock_guard<std::mutex> lock(mu_);
  return frames_.size();
}

// --- Slot lists -----------------------------------------------------------

void BufferPool::PushBack(List* list, uint32_t s) {
  slots_[s].prev = list->tail;
  slots_[s].next = kNil;
  if (list->tail != kNil) {
    slots_[list->tail].next = s;
  } else {
    list->head = s;
  }
  list->tail = s;
  ++list->size;
}

void BufferPool::Unlink(List* list, uint32_t s) {
  Slot& slot = slots_[s];
  (slot.prev != kNil ? slots_[slot.prev].next : list->head) = slot.next;
  (slot.next != kNil ? slots_[slot.next].prev : list->tail) = slot.prev;
  slot.prev = slot.next = kNil;
  --list->size;
}

// --- The index ------------------------------------------------------------

size_t BufferPool::HomeOf(const Key& key) const {
  // Fibonacci hashing: the top bits of the product spread consecutive
  // pages of a file across the table.
  const uint64_t h =
      ((uint64_t{key.file} << 40) ^ key.page) * 0x9E3779B97F4A7C15ull;
  return static_cast<size_t>(h >> index_shift_);
}

uint32_t BufferPool::Find(const Key& key) const {
  if (resident_ == 0) return kNil;
  const size_t mask = index_.size() - 1;
  for (size_t i = HomeOf(key);; i = (i + 1) & mask) {
    const IndexEntry& e = index_[i];
    if (e.slot == kNil) return kNil;
    if (e.page == key.page && e.file == key.file) {
      return static_cast<uint32_t>(i);
    }
  }
}

void BufferPool::Insert(const Key& key, uint32_t slot) {
  if (2 * (resident_ + 1) > index_.size()) {
    // Grow to keep the table at most half full; rehash every entry.
    std::vector<IndexEntry> old = std::move(index_);
    const size_t size = std::max<size_t>(16, 2 * old.size());
    index_.assign(size, IndexEntry{});
    index_shift_ = static_cast<uint32_t>(64 - std::countr_zero(size));
    resident_ = 0;
    for (const IndexEntry& e : old) {
      if (e.slot != kNil) Insert(Key{e.file, e.page}, e.slot);
    }
  }
  const size_t mask = index_.size() - 1;
  size_t i = HomeOf(key);
  while (index_[i].slot != kNil) i = (i + 1) & mask;
  index_[i] = IndexEntry{key.page, key.file, slot};
  ++resident_;
}

void BufferPool::Erase(const Key& key) {
  // Backward-shift deletion: later entries of the probe run move into the
  // hole when their home position allows, so no tombstones accumulate.
  const size_t mask = index_.size() - 1;
  size_t hole = Find(key);
  GRIDDECL_CHECK(hole != kNil);
  for (size_t j = (hole + 1) & mask; index_[j].slot != kNil;
       j = (j + 1) & mask) {
    const size_t home = HomeOf(Key{index_[j].file, index_[j].page});
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole] = IndexEntry{};
  --resident_;
}

}  // namespace griddecl
