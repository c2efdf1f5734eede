#ifndef GRIDDECL_GRIDFILE_STORAGE_ENV_H_
#define GRIDDECL_GRIDFILE_STORAGE_ENV_H_

#include <cstdint>
#include <map>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "griddecl/common/status.h"

/// \file
/// Storage environment seam: the flat namespace of files the catalog
/// manifest and the scrub subsystem operate on.
///
/// Why a seam instead of direct filesystem calls: the durability claims of
/// this repo (crash-consistent manifest commits, scrub-and-repair) are only
/// worth anything if they are *tested* against every interesting failure —
/// a write torn at an arbitrary byte, a crash between any two operations, a
/// flipped bit at any offset. Following the FoundationDB tradition, all of
/// that is injected deterministically through this interface (`CrashEnv`),
/// while production code runs the same logic against a real directory
/// (`DiskEnv`) and tests use memory (`MemEnv`).
///
/// File names are flat (no directories) and restricted to
/// `[A-Za-z0-9._-]+`, which keeps `DiskEnv` confined to its root.

namespace griddecl {

/// True iff `name` is a well-formed env file name.
bool IsValidEnvFileName(std::string_view name);

/// Abstract flat-file storage. Implementations must make `Rename` atomic:
/// after a crash the target holds either its old or its new content, never
/// a mix — the property manifest commits are built on.
class StorageEnv {
 public:
  virtual ~StorageEnv() = default;

  /// Full contents of `name`; kNotFound when absent.
  virtual Result<std::string> ReadFile(const std::string& name) const = 0;

  /// Fills `out` with the `out.size()` bytes of `name` starting at
  /// `offset` — the page-granular read unit the serving layer issues, and
  /// the one read every env implements. The caller owns the buffer, so a
  /// page read lands straight in a buffer-pool frame and allocates
  /// nothing. kNotFound when the file is absent; kInvalidArgument when the
  /// range extends past the end (a well-formed reader never asks, so a
  /// short read is a bug, not a partial result). `DiskEnv` implements it
  /// with `pread`, and `FaultyEnv` (faulty_env.h) makes it the
  /// fault-injection point. `out` is unspecified after a failed read.
  virtual Status ReadAt(const std::string& name, uint64_t offset,
                        std::span<char> out) const = 0;

  /// The same read into a new string of `length` bytes.
  Result<std::string> ReadAt(const std::string& name, uint64_t offset,
                             uint64_t length) const;

  /// Creates or replaces `name`. NOT atomic under crashes (a torn prefix
  /// may remain); writers that need atomicity write a temp name and
  /// `Rename` over the target.
  virtual Status WriteFile(const std::string& name,
                           std::string_view data) = 0;

  /// Atomically renames `from` onto `to` (replacing `to` if it exists).
  virtual Status Rename(const std::string& from, const std::string& to) = 0;

  /// Removes `name`; kNotFound when absent.
  virtual Status Remove(const std::string& name) = 0;

  virtual bool Exists(const std::string& name) const = 0;

  /// All file names, sorted.
  virtual Result<std::vector<std::string>> ListFiles() const = 0;
};

/// In-memory environment; copyable, so tests can snapshot a state and
/// replay different fault schedules against it. Thread-safe (reader/writer
/// lock): a cluster node's service reads pages out of its env while the
/// migrator concurrently writes staged files into it.
class MemEnv : public StorageEnv {
 public:
  MemEnv() = default;
  MemEnv(const MemEnv& other);
  MemEnv& operator=(const MemEnv& other);

  using StorageEnv::ReadAt;
  Result<std::string> ReadFile(const std::string& name) const override;
  /// One memcpy under the shared lock: MemEnv backs the page-serving
  /// benchmarks, where the read must cost no more than the copy.
  Status ReadAt(const std::string& name, uint64_t offset,
                std::span<char> out) const override;
  Status WriteFile(const std::string& name, std::string_view data) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Remove(const std::string& name) override;
  bool Exists(const std::string& name) const override;
  Result<std::vector<std::string>> ListFiles() const override;

  /// Test hooks: deterministic media corruption.
  Status CorruptByte(const std::string& name, uint64_t offset,
                     uint8_t xor_mask);
  Status TruncateFile(const std::string& name, uint64_t new_size);

 private:
  /// Guards files_. shared_lock on the read paths keeps the concurrent
  /// page-serving benchmarks cheap; copies take the source's lock.
  mutable std::shared_mutex mu_;
  std::map<std::string, std::string> files_;
};

/// Real-filesystem environment rooted at a directory (created if absent by
/// `Create`). All names resolve strictly inside the root.
class DiskEnv : public StorageEnv {
 public:
  /// Validated factory: creates `root` (and parents) when missing, fails
  /// if `root` exists and is not a directory.
  static Result<DiskEnv> Create(const std::string& root);

  using StorageEnv::ReadAt;
  Result<std::string> ReadFile(const std::string& name) const override;
  /// One `pread` of the file's bytes.
  Status ReadAt(const std::string& name, uint64_t offset,
                std::span<char> out) const override;
  Status WriteFile(const std::string& name, std::string_view data) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Remove(const std::string& name) override;
  bool Exists(const std::string& name) const override;
  Result<std::vector<std::string>> ListFiles() const override;

  const std::string& root() const { return root_; }

 private:
  explicit DiskEnv(std::string root) : root_(std::move(root)) {}
  Result<std::string> PathOf(const std::string& name) const;

  std::string root_;
};

/// Deterministic crash injection: wraps a target env and kills it at a
/// chosen mutating operation. Mutating operations (WriteFile, Rename,
/// Remove) are numbered 0, 1, 2, ... in issue order:
///
///  * ops before `crash_at_op` pass through untouched;
///  * the op at `crash_at_op` "crashes mid-flight": a WriteFile leaves a
///    torn prefix of the data — length and an optional flipped bit chosen
///    by a pure hash of (seed, op index) — while Rename/Remove simply do
///    not happen (rename is atomic: old or new, never torn);
///  * every later mutating op fails without effect (the process is dead).
///
/// Reads always pass through: recovery code inspects the wreckage through
/// the underlying env after the "reboot".
class CrashEnv : public StorageEnv {
 public:
  /// `target` must outlive this env. `crash_at_op` of UINT64_MAX never
  /// crashes (used to count the ops of a schedule first).
  CrashEnv(StorageEnv* target, uint64_t crash_at_op, uint64_t seed);

  using StorageEnv::ReadAt;
  Result<std::string> ReadFile(const std::string& name) const override;
  Status ReadAt(const std::string& name, uint64_t offset,
                std::span<char> out) const override;
  Status WriteFile(const std::string& name, std::string_view data) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Remove(const std::string& name) override;
  bool Exists(const std::string& name) const override;
  Result<std::vector<std::string>> ListFiles() const override;

  /// Mutating ops issued so far (crashed or not) — sizes a crash sweep.
  uint64_t ops_issued() const { return ops_issued_; }
  bool crashed() const { return crashed_; }

 private:
  /// Returns true when the current op survives; advances the op counter.
  bool OpSurvives();

  StorageEnv* target_;
  uint64_t crash_at_op_;
  uint64_t seed_;
  uint64_t ops_issued_ = 0;
  bool crashed_ = false;
};

}  // namespace griddecl

#endif  // GRIDDECL_GRIDFILE_STORAGE_ENV_H_
