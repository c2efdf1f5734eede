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

Result<std::string> PageStore::ReadWithRetries(
    const std::string& file, uint64_t offset, uint64_t length,
    const ReadPolicy& policy, PageReadStats* stats,
    const InterruptFn& interrupt) const {
  // The jitter token hashes the file name, so it is computed only once a
  // read actually backs off; a read that succeeds first time pays nothing.
  uint64_t token = 0;
  for (uint32_t attempt = 0;; ++attempt) {
    if (interrupt) {
      Status st = interrupt();
      if (!st.ok()) return st;
    }
    Result<std::string> bytes = env_->ReadAt(file, offset, length);
    if (bytes.ok()) {
      if (stats != nullptr) stats->physical_reads++;
      return bytes;
    }
    if (bytes.status().code() != StatusCode::kUnavailable) {
      return bytes.status();  // Only transient unavailability retries.
    }
    if (attempt + 1 >= policy.retry.max_attempts) return bytes.status();
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

Result<PinnedPage> PageStore::BuildPinned(const std::string& file,
                                          BufferPool::FileId id,
                                          uint64_t page,
                                          const FileLayout& layout,
                                          std::string page_bytes) {
  // Corruption reads as unavailability: degraded paths repair it. The
  // page is never pooled, so the damage is re-observed on every read.
  const auto unavailable = [&](const Status& damage) {
    return Status::Unavailable("page " + std::to_string(page) + " of '" +
                               file + "': " + damage.message());
  };
  Status verify = VerifyPageBytes(page_bytes, layout, page);
  if (!verify.ok()) return unavailable(verify);
  // The bytes move into the frame first: the page then decodes in place
  // over the frame's own copy, which lives exactly as long as the decode.
  auto frame = std::make_shared<BufferPool::Frame>();
  frame->raw = std::move(page_bytes);
  Result<DecodedPage> decoded = DecodePageBytes(frame->raw, layout, page);
  if (!decoded.ok()) return unavailable(decoded.status());
  frame->decoded = std::move(decoded).value();
  BufferPool::FramePtr resident = std::move(frame);
  if (pool_ != nullptr) resident = pool_->Admit(id, page, std::move(resident));
  return PinnedPage(std::move(resident));
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
    if (hold) {
      if (BufferPool::FramePtr hit = hold->Lookup(id, page)) {
        if (stats != nullptr) stats->cache_hit++;
        emit(PinnedPage(std::move(hit)));
        continue;
      }
      hold->Release();  // The miss reads, verifies and decodes unlocked.
    }
    Result<std::string> bytes =
        ReadWithRetries(file, layout->PageOffset(page),
                        layout->page_size_bytes, policy, stats, interrupt);
    if (!bytes.ok()) return bytes.status();
    Result<PinnedPage> pinned =
        BuildPinned(file, id, page, *layout, std::move(bytes).value());
    if (!pinned.ok()) return pinned.status();
    emit(std::move(pinned).value());
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

Result<std::string> PageStore::ReadRaw(const std::string& file,
                                       uint64_t offset, uint64_t length,
                                       const ReadPolicy& policy,
                                       PageReadStats* stats,
                                       const InterruptFn& interrupt) {
  return ReadWithRetries(file, offset, length, policy, stats, interrupt);
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
