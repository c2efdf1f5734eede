#include "griddecl/gridfile/buffer_pool.h"

#include <algorithm>

namespace griddecl {

BufferPool::BufferPool(size_t capacity_pages)
    : capacity_(std::max<size_t>(1, capacity_pages)),
      probation_capacity_(std::max<size_t>(1, capacity_ / 4)),
      protected_capacity_(capacity_ - probation_capacity_) {}

BufferPool::FramePtr BufferPool::Hold::Lookup(FileId file, uint64_t page) {
  if (!lock_.owns_lock()) lock_.lock();
  return pool_->LookupLocked(Key{file, page});
}

BufferPool::FramePtr BufferPool::LookupLocked(const Key& key) {
  auto it = frames_.find(key);
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
    if (protected_.size() >= protected_capacity_) EvictProtectedLocked();
    protected_.splice(protected_.end(), probation_, entry.pos);
    entry.in_protected = true;
    entry.referenced = false;
    ++stats_.promotions;
  }
  return entry.frame;
}

BufferPool::FramePtr BufferPool::Admit(FileId file, uint64_t page,
                                       FramePtr frame) {
  if (frame == nullptr) return nullptr;
  const Key key{file, page};
  std::lock_guard<std::mutex> lock(mu_);
  auto it = frames_.find(key);
  if (it != frames_.end()) return it->second.frame;  // Raced; incumbent wins.
  if (probation_.size() < probation_capacity_) {
    probation_.push_back(key);
    frames_.emplace(key, Entry{frame, false, false,
                               std::prev(probation_.end())});
  } else {
    // Evict the probation front and reuse its hash node and list node for
    // the new page: a steady-state admission allocates neither.
    auto node = frames_.extract(probation_.front());
    probation_.splice(probation_.end(), probation_, probation_.begin());
    probation_.back() = key;
    node.key() = key;
    node.mapped() = Entry{frame, false, false, std::prev(probation_.end())};
    frames_.insert(std::move(node));
    ++stats_.evictions;
  }
  ++stats_.admissions;
  return frame;
}

void BufferPool::EvictProtectedLocked() {
  // Second-chance CLOCK: recycle referenced frames to the tail (clearing
  // the bit), evict the first cold frame. Bounded: after one full lap
  // every bit is clear, so the loop terminates.
  while (!protected_.empty()) {
    auto it = frames_.find(protected_.front());
    if (it != frames_.end() && it->second.referenced) {
      it->second.referenced = false;
      protected_.splice(protected_.end(), protected_, protected_.begin());
      continue;
    }
    if (it != frames_.end()) frames_.erase(it);
    protected_.pop_front();
    ++stats_.evictions;
    return;
  }
}

void BufferPool::Invalidate(FileId file) {
  std::lock_guard<std::mutex> lock(mu_);
  auto sweep = [&](std::list<Key>& list) {
    for (auto it = list.begin(); it != list.end();) {
      if (it->file == file) {
        frames_.erase(*it);
        it = list.erase(it);
        ++stats_.evictions;
      } else {
        ++it;
      }
    }
  };
  sweep(probation_);
  sweep(protected_);
}

BufferPool::Stats BufferPool::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats = stats_;
  stats.resident = frames_.size();
  return stats;
}

}  // namespace griddecl
