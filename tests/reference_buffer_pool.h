#ifndef GRIDDECL_TESTS_REFERENCE_BUFFER_POOL_H_
#define GRIDDECL_TESTS_REFERENCE_BUFFER_POOL_H_

#include <algorithm>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>

#include "griddecl/gridfile/buffer_pool.h"

/// \file
/// The reference model of `BufferPool`'s admission and eviction: the
/// straightforward 2Q/SLRU pool over one `std::unordered_map` of entries and
/// two `std::list`s of keys, with frames as `shared_ptr`s. The production
/// pool must make exactly its decisions and count exactly its `Stats`;
/// buffer_pool_test.cc drives both with the same operation sequences.
/// Single-threaded: it models decisions, not pins.

namespace griddecl::testing {

class ReferenceBufferPool {
 public:
  using FileId = BufferPool::FileId;
  /// A frame's identity: the tag of the admission that brought it in.
  struct Frame {
    uint64_t tag = 0;
  };
  using FramePtr = std::shared_ptr<const Frame>;

  explicit ReferenceBufferPool(size_t capacity_pages)
      : capacity_(std::max<size_t>(1, capacity_pages)),
        probation_capacity_(std::max<size_t>(1, capacity_ / 4)),
        protected_capacity_(capacity_ - probation_capacity_) {}

  /// The cached frame (a hit, updating recency state) or null (a miss).
  FramePtr Lookup(FileId file, uint64_t page) {
    auto it = frames_.find(Key{file, page});
    if (it == frames_.end()) {
      ++stats_.misses;
      return nullptr;
    }
    ++stats_.hits;
    Entry& entry = it->second;
    if (entry.in_protected) {
      entry.referenced = true;
    } else if (protected_capacity_ > 0) {
      // Second touch: promote out of probation into the protected segment.
      if (protected_.size() >= protected_capacity_) EvictProtected();
      protected_.splice(protected_.end(), probation_, entry.pos);
      entry.in_protected = true;
      entry.referenced = false;
      ++stats_.promotions;
    }
    return entry.frame;
  }

  /// Inserts `frame` as (file, page), evicting the probation head when
  /// probation is full; an already resident key keeps its incumbent.
  FramePtr Admit(FileId file, uint64_t page, FramePtr frame) {
    const Key key{file, page};
    auto it = frames_.find(key);
    if (it != frames_.end()) return it->second.frame;
    if (probation_.size() >= probation_capacity_) {
      frames_.erase(probation_.front());
      probation_.pop_front();
      ++stats_.evictions;
    }
    probation_.push_back(key);
    frames_.emplace(key, Entry{frame, false, false,
                               std::prev(probation_.end())});
    ++stats_.admissions;
    return frame;
  }

  void Invalidate(FileId file) {
    for (std::list<Key>* list : {&probation_, &protected_}) {
      for (auto it = list->begin(); it != list->end();) {
        if (it->file == file) {
          frames_.erase(*it);
          it = list->erase(it);
          ++stats_.evictions;
        } else {
          ++it;
        }
      }
    }
  }

  BufferPool::Stats GetStats() const {
    BufferPool::Stats stats = stats_;
    stats.resident = frames_.size();
    return stats;
  }

 private:
  struct Key {
    FileId file = 0;
    uint64_t page = 0;
    bool operator==(const Key&) const = default;
  };
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

  /// Second-chance CLOCK over the protected list.
  void EvictProtected() {
    while (!protected_.empty()) {
      Entry& entry = frames_.at(protected_.front());
      if (entry.referenced) {
        entry.referenced = false;
        protected_.splice(protected_.end(), protected_, protected_.begin());
        continue;
      }
      frames_.erase(protected_.front());
      protected_.pop_front();
      ++stats_.evictions;
      return;
    }
  }

  const size_t capacity_;
  const size_t probation_capacity_;
  const size_t protected_capacity_;
  std::unordered_map<Key, Entry, KeyHash> frames_;
  /// Front = oldest.
  std::list<Key> probation_;
  std::list<Key> protected_;
  BufferPool::Stats stats_;
};

}  // namespace griddecl::testing

#endif  // GRIDDECL_TESTS_REFERENCE_BUFFER_POOL_H_
