#include "griddecl/gridfile/faulty_env.h"

#include <chrono>
#include <limits>
#include <thread>
#include <utility>

#include "griddecl/common/hash.h"

namespace griddecl {

FaultyEnv::FaultyEnv(StorageEnv* target, FaultyEnvOptions opts)
    : target_(target), opts_(std::move(opts)) {}

Result<std::unique_ptr<FaultyEnv>> FaultyEnv::Create(StorageEnv* target,
                                                     FaultyEnvOptions opts) {
  if (target == nullptr) {
    return Status::InvalidArgument("FaultyEnv needs a target env");
  }
  if (!(opts.transient_error_prob >= 0.0) ||
      !(opts.transient_error_prob <= 1.0)) {
    return Status::InvalidArgument("transient_error_prob must be in [0, 1]");
  }
  if (!(opts.latency_ms >= 0.0)) {
    return Status::InvalidArgument("latency_ms must be >= 0");
  }
  for (const FaultRange& r : opts.permanent) {
    if (r.length == 0) {
      return Status::InvalidArgument("permanent fault ranges must be "
                                     "non-empty");
    }
  }
  return std::unique_ptr<FaultyEnv>(new FaultyEnv(target, std::move(opts)));
}

bool FaultyEnv::TransientFails(const std::string& file, uint64_t offset,
                               uint32_t attempt) const {
  if (opts_.transient_error_prob <= 0.0) return false;
  if (attempt >= opts_.max_transient_attempts) return false;
  uint64_t h = Mix64(opts_.seed ^ 0x7ea7f001ull);
  h = HashString(h, file);
  h = Mix64(h ^ offset);
  h = Mix64(h ^ attempt);
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < opts_.transient_error_prob;
}

bool FaultyEnv::PermanentlyFaulted(const std::string& file, uint64_t offset,
                                   uint64_t length) const {
  for (const FaultRange& r : opts_.permanent) {
    if (r.file != file) continue;
    const uint64_t r_end = (r.length > UINT64_MAX - r.offset)
                               ? UINT64_MAX
                               : r.offset + r.length;
    const uint64_t end =
        (length > UINT64_MAX - offset) ? UINT64_MAX : offset + length;
    if (offset < r_end && r.offset < end) {
      return true;
    }
  }
  return false;
}

Status FaultyEnv::ReadAt(const std::string& name, uint64_t offset,
                         std::span<char> out) const {
  const uint64_t length = out.size();
  reads_issued_.fetch_add(1);
  const double delay_ms = opts_.latency_ms + extra_latency_ms_.load();
  if (delay_ms > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(delay_ms));
  }
  if (PermanentlyFaulted(name, offset, length)) {
    permanent_faults_.fetch_add(1);
    return Status::Unavailable("injected permanent fault reading '" + name +
                               "' at " + std::to_string(offset));
  }
  // Without transient faults no attempt can fail, so skip the per-site
  // bookkeeping: every generation's fresh file names would grow it forever.
  if (opts_.transient_error_prob <= 0.0) {
    return target_->ReadAt(name, offset, out);
  }
  uint32_t attempt;
  {
    std::lock_guard<std::mutex> lock(mu_);
    attempt = attempts_[{name, offset}]++;
  }
  if (TransientFails(name, offset, attempt)) {
    transient_faults_.fetch_add(1);
    return Status::Unavailable("injected transient fault reading '" + name +
                               "' at " + std::to_string(offset) +
                               " (attempt " + std::to_string(attempt) + ")");
  }
  return target_->ReadAt(name, offset, out);
}

Result<std::string> FaultyEnv::ReadFile(const std::string& name) const {
  return target_->ReadFile(name);
}

Status FaultyEnv::WriteFile(const std::string& name, std::string_view data) {
  return target_->WriteFile(name, data);
}

Status FaultyEnv::Rename(const std::string& from, const std::string& to) {
  return target_->Rename(from, to);
}

Status FaultyEnv::Remove(const std::string& name) {
  {
    // A removed file's read sites are gone: a file later written under the
    // same name starts its transient schedule from attempt 0.
    std::lock_guard<std::mutex> lock(mu_);
    attempts_.erase(
        attempts_.lower_bound({name, 0}),
        attempts_.upper_bound({name, std::numeric_limits<uint64_t>::max()}));
  }
  return target_->Remove(name);
}

size_t FaultyEnv::attempt_sites() const {
  std::lock_guard<std::mutex> lock(mu_);
  return attempts_.size();
}

bool FaultyEnv::Exists(const std::string& name) const {
  return target_->Exists(name);
}

Result<std::vector<std::string>> FaultyEnv::ListFiles() const {
  return target_->ListFiles();
}

}  // namespace griddecl
