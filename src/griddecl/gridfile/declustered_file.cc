#include "griddecl/gridfile/declustered_file.h"

#include "griddecl/eval/metrics.h"
#include "griddecl/methods/registry.h"

namespace griddecl {

Result<DeclusteredFile> DeclusteredFile::Create(GridFile file,
                                                const std::string& method_name,
                                                uint32_t num_disks) {
  Result<std::unique_ptr<DeclusteringMethod>> method =
      CreateMethod(method_name, file.grid(), num_disks);
  if (!method.ok()) return method.status();
  return DeclusteredFile(std::move(file), std::move(method).value(),
                         method_name);
}

uint32_t DeclusteredFile::DiskOfRecord(RecordId id) const {
  return method_->DiskOf(file_.BucketOfRecord(id));
}

Result<QueryExecution> DeclusteredFile::ExecuteRange(
    const std::vector<double>& lo, const std::vector<double>& hi) const {
  Result<RangeQuery> query = file_.ResolveRange(lo, hi);
  if (!query.ok()) return query.status();
  Result<std::vector<RecordId>> matches = file_.RangeSearch(lo, hi);
  if (!matches.ok()) return matches.status();

  QueryExecution exec;
  exec.matches = std::move(matches).value();
  exec.buckets_touched = query.value().NumBuckets();
  exec.response_units = ResponseTime(*method_, query.value());
  exec.optimal_units =
      OptimalResponseTime(exec.buckets_touched, method_->num_disks());
  exec.io = sim_.RunQuery(*method_, query.value());
  return exec;
}

std::vector<uint64_t> DeclusteredFile::RecordsPerDisk() const {
  std::vector<uint64_t> counts(method_->num_disks(), 0);
  for (RecordId id = 0; id < file_.num_records(); ++id) {
    ++counts[DiskOfRecord(id)];
  }
  return counts;
}

}  // namespace griddecl
