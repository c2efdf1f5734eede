#ifndef GRIDDECL_GRIDFILE_DECLUSTERED_FILE_H_
#define GRIDDECL_GRIDFILE_DECLUSTERED_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "griddecl/gridfile/grid_file.h"
#include "griddecl/methods/method.h"
#include "griddecl/sim/io_sim.h"

/// \file
/// End-to-end binding: a grid file whose buckets are declustered over M
/// simulated disks. This is what a parallel database's storage layer looks
/// like in the paper's architecture — records come in, land in buckets,
/// buckets live on disks chosen by the declustering method; a range query
/// fans out to the disks in parallel.

namespace griddecl {

/// Result of executing one record-level range query.
struct QueryExecution {
  /// Ids of records actually matching the predicate.
  std::vector<RecordId> matches;
  /// Buckets the query had to fetch, |Q|.
  uint64_t buckets_touched = 0;
  /// The paper's metric: max buckets fetched from one disk.
  uint64_t response_units = 0;
  /// ceil(|Q| / M) — the best any declustering could have done.
  uint64_t optimal_units = 0;
  /// Timed simulation of the same fetches.
  SimResult io;
};

/// A grid file declustered over simulated disks.
class DeclusteredFile {
 public:
  /// Binds `file` to a declustering method created by `method_name` (see
  /// methods/registry.h) over `num_disks` disks with default timing.
  static Result<DeclusteredFile> Create(GridFile file,
                                        const std::string& method_name,
                                        uint32_t num_disks);

  const GridFile& file() const { return file_; }
  const DeclusteringMethod& method() const { return *method_; }
  /// Registry name the method was created from (see methods/registry.h) —
  /// what the catalog manifest persists so a reload can rebuild the exact
  /// same allocation. Distinct from method().name(), the display name.
  const std::string& method_name() const { return method_name_; }
  uint32_t num_disks() const { return method_->num_disks(); }

  /// Disk holding a record's bucket.
  uint32_t DiskOfRecord(RecordId id) const;

  /// Executes `lo[i] <= attr_i <= hi[i]`: exact matches plus the bucket-level
  /// and timed cost of the parallel fetch.
  Result<QueryExecution> ExecuteRange(const std::vector<double>& lo,
                                      const std::vector<double>& hi) const;

  /// Number of records stored on each disk (size num_disks()): the data
  /// balance the declustering achieves on the actual data distribution.
  std::vector<uint64_t> RecordsPerDisk() const;

 private:
  DeclusteredFile(GridFile file, std::unique_ptr<DeclusteringMethod> method,
                  std::string method_name)
      : file_(std::move(file)),
        method_(std::move(method)),
        method_name_(std::move(method_name)),
        sim_(method_->num_disks(), DiskParams{}) {}

  GridFile file_;
  std::unique_ptr<DeclusteringMethod> method_;
  std::string method_name_;
  ParallelIoSimulator sim_;
};

}  // namespace griddecl

#endif  // GRIDDECL_GRIDFILE_DECLUSTERED_FILE_H_
