#include "griddecl/gridfile/page_store.h"

#include <optional>
#include <utility>

#include "griddecl/common/backoff.h"
#include "griddecl/common/hash.h"

namespace griddecl {

PageStore::PageStore(const StorageEnv* env, const Options& options)
    : env_(env), options_(options) {
  if (options_.pool_pages > 0) {
    pool_ = std::make_unique<BufferPool>(options_.pool_pages);
  }
}

void PageStore::RegisterFile(const std::string& file,
                             const FileLayout& layout) {
  std::optional<BufferPool::FileId> replaced;
  {
    std::lock_guard<std::mutex> lock(files_mu_);
    const auto id = static_cast<BufferPool::FileId>(layouts_.size());
    layouts_.push_back(layout);
    auto [it, inserted] = file_ids_.try_emplace(file, id);
    if (!inserted) replaced = std::exchange(it->second, id);
  }
  if (pool_ != nullptr && replaced) pool_->Invalidate(*replaced);
}

Status PageStore::ReadWithRetries(const std::string& file, uint64_t offset,
                                  std::span<char> out,
                                  const ReadPolicy& policy,
                                  PageReadStats* stats,
                                  const InterruptFn& interrupt) const {
  // The jitter token hashes the file name, so it is computed only once a
  // read actually backs off; a read that succeeds first time pays nothing.
  uint64_t token = 0;
  for (uint32_t attempt = 0;; ++attempt) {
    if (interrupt) {
      Status st = interrupt();
      if (!st.ok()) return st;
    }
    Status read = env_->ReadAt(file, offset, out);
    if (read.ok()) {
      if (stats != nullptr) stats->physical_reads++;
      return read;
    }
    if (read.code() != StatusCode::kUnavailable) {
      return read;  // Only transient unavailability retries.
    }
    if (attempt + 1 >= policy.retry.max_attempts) return read;
    if (stats != nullptr) stats->retries++;
    if (attempt == 0) {
      token = Mix64(HashString(Mix64(0x5e7e5e7eull), file) ^ offset);
    }
    // Cut short once `interrupt` fires; the next attempt surfaces it.
    SleepInterruptible(
        BackoffDelayMs(policy.retry, options_.seed, token, attempt),
        [&interrupt] { return interrupt && !interrupt().ok(); });
  }
}

Status PageStore::FillFrame(const std::string& file, uint64_t page,
                            const FileLayout& layout,
                            const ReadPolicy& policy, PageReadStats* stats,
                            const InterruptFn& interrupt,
                            BlankFrame* frame) const {
  Status read = ReadWithRetries(file, layout.PageOffset(page),
                                frame->Resize(layout.page_size_bytes),
                                policy, stats, interrupt);
  if (!read.ok()) return read;
  // Corruption reads as unavailability: degraded paths repair it. The
  // page is never pooled, so the damage is re-observed on every read.
  const auto unavailable = [&](const Status& damage) {
    return Status::Unavailable("page " + std::to_string(page) + " of '" +
                               file + "': " + damage.message());
  };
  Status verify = VerifyPageBytes(frame->raw(), layout, page);
  if (!verify.ok()) return unavailable(verify);
  // The frame's bytes are 8-byte aligned, so the page decodes in place.
  Result<DecodedPage> decoded = DecodePageBytes(frame->raw(), layout, page);
  if (!decoded.ok()) return unavailable(decoded.status());
  frame->set_decoded(std::move(decoded).value());
  return Status::Ok();
}

template <typename Emit>
Status PageStore::FetchPages(const std::string& file,
                             std::span<const uint64_t> pages,
                             const ReadPolicy& policy, PageReadStats* stats,
                             const InterruptFn& interrupt, Emit emit) {
  BufferPool::FileId id = 0;
  const FileLayout* layout = nullptr;
  {
    std::lock_guard<std::mutex> lock(files_mu_);
    auto it = file_ids_.find(file);
    if (it == file_ids_.end()) {
      return Status::NotFound("no layout registered for '" + file + "'");
    }
    id = it->second;
    layout = &layouts_[id];
  }
  std::optional<BufferPool::Hold> hold;
  if (pool_ != nullptr) hold.emplace(pool_.get());
  for (const uint64_t page : pages) {
    if (interrupt) {
      Status st = interrupt();
      if (!st.ok()) return st;
    }
    if (page >= layout->num_pages) {
      return Status::InvalidArgument("page index out of range");
    }
    BlankFrame frame;
    if (hold) {
      PinnedPage hit = hold->Lookup(id, page);
      if (hit.valid()) {
        if (stats != nullptr) stats->cache_hit++;
        emit(std::move(hit));
        continue;
      }
      frame = hold->TakeFrame();
      hold->Release();  // The miss reads, verifies and decodes unlocked.
    } else {
      frame = BlankFrame::Unpooled();
    }
    // A failed fill drops `frame` unlocked, back to the free list.
    Status filled =
        FillFrame(file, page, *layout, policy, stats, interrupt, &frame);
    if (!filled.ok()) return filled;
    // The admission keeps the hold, so the next lookup reuses it.
    emit(hold ? hold->Admit(id, page, std::move(frame))
              : std::move(frame).Seal());
  }
  return Status::Ok();
}

Status PageStore::GetPages(const std::string& file,
                           std::span<const uint64_t> pages,
                           const ReadPolicy& policy,
                           std::vector<PinnedPage>* out,
                           PageReadStats* stats,
                           const InterruptFn& interrupt) {
  return FetchPages(
      file, pages, policy, stats, interrupt,
      [out](PinnedPage page) { out->push_back(std::move(page)); });
}

Result<PinnedPage> PageStore::GetPage(const std::string& file,
                                      uint64_t page,
                                      const ReadPolicy& policy,
                                      PageReadStats* stats,
                                      const InterruptFn& interrupt) {
  PinnedPage pinned;
  Status st = FetchPages(file, {&page, 1}, policy, stats, interrupt,
                         [&pinned](PinnedPage p) { pinned = std::move(p); });
  if (!st.ok()) return st;
  return pinned;
}

Status PageStore::ReadRaw(const std::string& file, uint64_t offset,
                          std::span<char> out, const ReadPolicy& policy,
                          PageReadStats* stats,
                          const InterruptFn& interrupt) {
  return ReadWithRetries(file, offset, out, policy, stats, interrupt);
}

void PageStore::Invalidate(const std::string& file) {
  if (pool_ == nullptr) return;
  BufferPool::FileId id = 0;
  {
    std::lock_guard<std::mutex> lock(files_mu_);
    auto it = file_ids_.find(file);
    if (it == file_ids_.end()) return;
    id = it->second;
  }
  pool_->Invalidate(id);
}

BufferPool::Stats PageStore::PoolStats() const {
  return pool_ != nullptr ? pool_->GetStats() : BufferPool::Stats{};
}

void PageStore::PublishMetrics(obs::MetricsRegistry* out) const {
  if (out == nullptr) return;
  const BufferPool::Stats stats = PoolStats();
  const auto set_counter = [out](const char* name, uint64_t v) {
    obs::Counter* c = out->GetCounter(name);
    c->Reset();
    c->Inc(v);
  };
  set_counter("storage.pool.hits", stats.hits);
  set_counter("storage.pool.misses", stats.misses);
  set_counter("storage.pool.admissions", stats.admissions);
  set_counter("storage.pool.evictions", stats.evictions);
  set_counter("storage.pool.promotions", stats.promotions);
  out->GetGauge("storage.pool.resident")
      ->Set(static_cast<double>(stats.resident));
  out->GetGauge("storage.pool.capacity")
      ->Set(static_cast<double>(pool_ != nullptr ? pool_->capacity() : 0));
}

}  // namespace griddecl
