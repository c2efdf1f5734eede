#include "griddecl/gridfile/storage_env.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <mutex>
#include <system_error>

#include "griddecl/common/hash.h"

namespace griddecl {

namespace {

namespace fs = std::filesystem;

Status InvalidName(const std::string& name) {
  return Status::InvalidArgument("invalid env file name '" + name + "'");
}

}  // namespace

bool IsValidEnvFileName(std::string_view name) {
  if (name.empty() || name.size() > 255) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) return false;
  }
  // "." and ".." are directory names, not files.
  return name != "." && name != "..";
}

// --- StorageEnv defaults --------------------------------------------------

Result<std::string> StorageEnv::ReadAt(const std::string& name,
                                       uint64_t offset,
                                       uint64_t length) const {
  Result<std::string> data = ReadFile(name);
  if (!data.ok()) return data.status();
  if (offset > data.value().size() ||
      length > data.value().size() - offset) {
    return Status::InvalidArgument(
        "read of [" + std::to_string(offset) + ", " +
        std::to_string(offset + length) + ") past end of '" + name + "' (" +
        std::to_string(data.value().size()) + " bytes)");
  }
  return data.value().substr(static_cast<size_t>(offset),
                             static_cast<size_t>(length));
}

// --- MemEnv ---------------------------------------------------------------

MemEnv::MemEnv(const MemEnv& other) {
  std::shared_lock lock(other.mu_);
  files_ = other.files_;
}

MemEnv& MemEnv::operator=(const MemEnv& other) {
  if (this == &other) return *this;
  std::map<std::string, std::string> copy;
  {
    std::shared_lock lock(other.mu_);
    copy = other.files_;
  }
  std::unique_lock lock(mu_);
  files_ = std::move(copy);
  return *this;
}

Result<std::string> MemEnv::ReadFile(const std::string& name) const {
  std::shared_lock lock(mu_);
  const auto it = files_.find(name);
  if (it == files_.end()) {
    return Status::NotFound("no file named '" + name + "'");
  }
  return it->second;
}

Result<std::string> MemEnv::ReadAt(const std::string& name, uint64_t offset,
                                   uint64_t length) const {
  std::shared_lock lock(mu_);
  const auto it = files_.find(name);
  if (it == files_.end()) {
    return Status::NotFound("no file named '" + name + "'");
  }
  const std::string& data = it->second;
  if (offset > data.size() || length > data.size() - offset) {
    return Status::InvalidArgument(
        "read of [" + std::to_string(offset) + ", " +
        std::to_string(offset + length) + ") past end of '" + name + "' (" +
        std::to_string(data.size()) + " bytes)");
  }
  return data.substr(static_cast<size_t>(offset),
                     static_cast<size_t>(length));
}

Status MemEnv::WriteFile(const std::string& name, std::string_view data) {
  if (!IsValidEnvFileName(name)) return InvalidName(name);
  std::unique_lock lock(mu_);
  files_[name] = std::string(data);
  return Status::Ok();
}

Status MemEnv::Rename(const std::string& from, const std::string& to) {
  if (!IsValidEnvFileName(to)) return InvalidName(to);
  std::unique_lock lock(mu_);
  const auto it = files_.find(from);
  if (it == files_.end()) {
    return Status::NotFound("no file named '" + from + "'");
  }
  files_[to] = std::move(it->second);
  files_.erase(it);
  return Status::Ok();
}

Status MemEnv::Remove(const std::string& name) {
  std::unique_lock lock(mu_);
  if (files_.erase(name) == 0) {
    return Status::NotFound("no file named '" + name + "'");
  }
  return Status::Ok();
}

bool MemEnv::Exists(const std::string& name) const {
  std::shared_lock lock(mu_);
  return files_.count(name) > 0;
}

Result<std::vector<std::string>> MemEnv::ListFiles() const {
  std::shared_lock lock(mu_);
  std::vector<std::string> names;
  names.reserve(files_.size());
  for (const auto& [name, data] : files_) names.push_back(name);
  return names;  // std::map iteration is already sorted.
}

Status MemEnv::CorruptByte(const std::string& name, uint64_t offset,
                           uint8_t xor_mask) {
  std::unique_lock lock(mu_);
  const auto it = files_.find(name);
  if (it == files_.end()) {
    return Status::NotFound("no file named '" + name + "'");
  }
  if (offset >= it->second.size()) {
    return Status::InvalidArgument("corruption offset past end of file");
  }
  it->second[offset] = static_cast<char>(
      static_cast<uint8_t>(it->second[offset]) ^ xor_mask);
  return Status::Ok();
}

Status MemEnv::TruncateFile(const std::string& name, uint64_t new_size) {
  std::unique_lock lock(mu_);
  const auto it = files_.find(name);
  if (it == files_.end()) {
    return Status::NotFound("no file named '" + name + "'");
  }
  if (new_size > it->second.size()) {
    return Status::InvalidArgument("truncate cannot grow a file");
  }
  it->second.resize(new_size);
  return Status::Ok();
}

// --- DiskEnv --------------------------------------------------------------

Result<DiskEnv> DiskEnv::Create(const std::string& root) {
  std::error_code ec;
  const fs::path path(root);
  if (fs::exists(path, ec)) {
    if (!fs::is_directory(path, ec)) {
      return Status::InvalidArgument("'" + root + "' is not a directory");
    }
  } else {
    fs::create_directories(path, ec);
    if (ec) {
      return Status::Internal("cannot create directory '" + root +
                              "': " + ec.message());
    }
  }
  return DiskEnv(root);
}

Result<std::string> DiskEnv::PathOf(const std::string& name) const {
  if (!IsValidEnvFileName(name)) return InvalidName(name);
  return (fs::path(root_) / name).string();
}

Result<std::string> DiskEnv::ReadFile(const std::string& name) const {
  Result<std::string> path = PathOf(name);
  if (!path.ok()) return path.status();
  std::ifstream in(path.value(), std::ios::binary);
  if (!in.good()) {
    return Status::NotFound("no file named '" + name + "'");
  }
  std::string data(std::istreambuf_iterator<char>(in), {});
  if (in.bad()) return Status::Internal("read failed for '" + name + "'");
  return data;
}

Result<std::string> DiskEnv::ReadAt(const std::string& name, uint64_t offset,
                                    uint64_t length) const {
  Result<std::string> path = PathOf(name);
  if (!path.ok()) return path.status();
  std::ifstream in(path.value(), std::ios::binary);
  if (!in.good()) {
    return Status::NotFound("no file named '" + name + "'");
  }
  in.seekg(0, std::ios::end);
  const uint64_t size = static_cast<uint64_t>(in.tellg());
  if (offset > size || length > size - offset) {
    return Status::InvalidArgument(
        "read of [" + std::to_string(offset) + ", " +
        std::to_string(offset + length) + ") past end of '" + name + "' (" +
        std::to_string(size) + " bytes)");
  }
  in.seekg(static_cast<std::streamoff>(offset));
  std::string data(static_cast<size_t>(length), '\0');
  in.read(data.data(), static_cast<std::streamsize>(length));
  if (!in.good() && !in.eof()) {
    return Status::Internal("read failed for '" + name + "'");
  }
  if (static_cast<uint64_t>(in.gcount()) != length) {
    return Status::Internal("short read for '" + name + "'");
  }
  return data;
}

Status DiskEnv::WriteFile(const std::string& name, std::string_view data) {
  Result<std::string> path = PathOf(name);
  if (!path.ok()) return path.status();
  std::ofstream out(path.value(), std::ios::binary | std::ios::trunc);
  if (!out.good()) {
    return Status::Internal("cannot open '" + name + "' for writing");
  }
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.flush();
  if (!out.good()) return Status::Internal("write failed for '" + name + "'");
  return Status::Ok();
}

Status DiskEnv::Rename(const std::string& from, const std::string& to) {
  Result<std::string> from_path = PathOf(from);
  if (!from_path.ok()) return from_path.status();
  Result<std::string> to_path = PathOf(to);
  if (!to_path.ok()) return to_path.status();
  std::error_code ec;
  fs::rename(from_path.value(), to_path.value(), ec);
  if (ec) {
    return Status::Internal("rename '" + from + "' -> '" + to +
                            "' failed: " + ec.message());
  }
  return Status::Ok();
}

Status DiskEnv::Remove(const std::string& name) {
  Result<std::string> path = PathOf(name);
  if (!path.ok()) return path.status();
  std::error_code ec;
  if (!fs::remove(path.value(), ec)) {
    if (ec) {
      return Status::Internal("remove '" + name + "' failed: " +
                              ec.message());
    }
    return Status::NotFound("no file named '" + name + "'");
  }
  return Status::Ok();
}

bool DiskEnv::Exists(const std::string& name) const {
  Result<std::string> path = PathOf(name);
  if (!path.ok()) return false;
  std::error_code ec;
  return fs::is_regular_file(path.value(), ec);
}

Result<std::vector<std::string>> DiskEnv::ListFiles() const {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(root_, ec)) {
    if (entry.is_regular_file(ec)) {
      names.push_back(entry.path().filename().string());
    }
  }
  if (ec) return Status::Internal("cannot list '" + root_ + "'");
  std::sort(names.begin(), names.end());
  return names;
}

// --- CrashEnv -------------------------------------------------------------

CrashEnv::CrashEnv(StorageEnv* target, uint64_t crash_at_op, uint64_t seed)
    : target_(target), crash_at_op_(crash_at_op), seed_(seed) {
  GRIDDECL_CHECK(target != nullptr);
}

Result<std::string> CrashEnv::ReadFile(const std::string& name) const {
  return target_->ReadFile(name);
}

bool CrashEnv::OpSurvives() {
  const uint64_t op = ops_issued_++;
  if (op >= crash_at_op_) crashed_ = true;
  return !crashed_;
}

Status CrashEnv::WriteFile(const std::string& name, std::string_view data) {
  const uint64_t op = ops_issued_;
  if (OpSurvives()) return target_->WriteFile(name, data);
  if (op == crash_at_op_) {
    // The crashing write leaves a deterministic torn prefix, possibly with
    // a flipped bit — the classic partially-persisted sector.
    const uint64_t h = Mix64(seed_ ^ Mix64(op + 1));
    const size_t torn_len = data.size() == 0 ? 0 : h % (data.size() + 1);
    std::string torn(data.substr(0, torn_len));
    if (torn_len > 0 && (h >> 32) % 4 == 0) {  // Flip a bit 25% of the time.
      const uint64_t h2 = Mix64(h);
      torn[h2 % torn_len] ^= static_cast<char>(1u << ((h2 >> 8) % 8));
    }
    (void)target_->WriteFile(name, torn);
  }
  return Status::Internal("injected crash");
}

Status CrashEnv::Rename(const std::string& from, const std::string& to) {
  // Rename is atomic: at the crash point it simply does not happen.
  if (OpSurvives()) return target_->Rename(from, to);
  return Status::Internal("injected crash");
}

Status CrashEnv::Remove(const std::string& name) {
  if (OpSurvives()) return target_->Remove(name);
  return Status::Internal("injected crash");
}

bool CrashEnv::Exists(const std::string& name) const {
  return target_->Exists(name);
}

Result<std::vector<std::string>> CrashEnv::ListFiles() const {
  return target_->ListFiles();
}

}  // namespace griddecl
