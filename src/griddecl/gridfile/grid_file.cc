#include "griddecl/gridfile/grid_file.h"

#include <cmath>
#include <set>

namespace griddecl {

Result<Schema> Schema::Create(std::vector<AttributeDef> attributes) {
  if (attributes.empty() || attributes.size() > kMaxDims) {
    return Status::InvalidArgument("schema needs 1.." +
                                   std::to_string(kMaxDims) + " attributes");
  }
  std::set<std::string> names;
  for (const AttributeDef& a : attributes) {
    if (a.name.empty()) {
      return Status::InvalidArgument("attribute names must be non-empty");
    }
    if (!names.insert(a.name).second) {
      return Status::InvalidArgument("duplicate attribute name '" + a.name +
                                     "'");
    }
    if (!(a.lo < a.hi)) {
      return Status::InvalidArgument("attribute '" + a.name +
                                     "' needs lo < hi");
    }
  }
  return Schema(std::move(attributes));
}

int Schema::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (attributes_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

Result<GridFile> GridFile::Create(Schema schema,
                                  const std::vector<uint32_t>& partitions) {
  if (partitions.size() != schema.num_attributes()) {
    return Status::InvalidArgument(
        "need one partition count per attribute: got " +
        std::to_string(partitions.size()) + " for " +
        std::to_string(schema.num_attributes()) + " attributes");
  }
  std::vector<DomainPartition> parts;
  parts.reserve(partitions.size());
  for (uint32_t i = 0; i < partitions.size(); ++i) {
    const AttributeDef& a = schema.attribute(i);
    Result<DomainPartition> p =
        DomainPartition::Uniform(a.lo, a.hi, partitions[i]);
    if (!p.ok()) return p.status();
    parts.push_back(std::move(p).value());
  }
  Result<SpacePartitioner> sp = SpacePartitioner::Create(std::move(parts));
  if (!sp.ok()) return sp.status();
  return GridFile(std::move(schema), std::move(sp).value());
}

Result<GridFile> GridFile::CreateWithPartitioner(Schema schema,
                                                 SpacePartitioner partitioner) {
  if (partitioner.num_dims() != schema.num_attributes()) {
    return Status::InvalidArgument(
        "partitioner has " + std::to_string(partitioner.num_dims()) +
        " dimensions for " + std::to_string(schema.num_attributes()) +
        " attributes");
  }
  return GridFile(std::move(schema), std::move(partitioner));
}

Result<RecordId> GridFile::Insert(Record record) {
  if (record.size() != schema_.num_attributes()) {
    return Status::InvalidArgument(
        "record has " + std::to_string(record.size()) + " values, schema has " +
        std::to_string(schema_.num_attributes()) + " attributes");
  }
  for (uint32_t i = 0; i < record.size(); ++i) {
    if (std::isnan(record[i])) {
      return Status::InvalidArgument("record value on attribute " +
                                     std::to_string(i) + " is NaN");
    }
  }
  const RecordId id = records_.size();
  const BucketCoords bucket = partitioner_.BucketOf(record);
  buckets_[static_cast<size_t>(grid().Linearize(bucket))].push_back(id);
  records_.push_back(std::move(record));
  return id;
}

const Record& GridFile::record(RecordId id) const {
  GRIDDECL_CHECK(id < records_.size());
  return records_[static_cast<size_t>(id)];
}

BucketCoords GridFile::BucketOfRecord(RecordId id) const {
  return partitioner_.BucketOf(record(id));
}

const std::vector<RecordId>& GridFile::BucketContents(
    const BucketCoords& c) const {
  return buckets_[static_cast<size_t>(grid().Linearize(c))];
}

Result<RangeQuery> ResolveRange(const SpacePartitioner& partitioner,
                                const std::vector<double>& lo,
                                const std::vector<double>& hi) {
  if (lo.size() != partitioner.num_dims() ||
      hi.size() != partitioner.num_dims()) {
    return Status::InvalidArgument("range bounds must match the schema");
  }
  for (uint32_t i = 0; i < lo.size(); ++i) {
    if (!(lo[i] <= hi[i])) {
      return Status::InvalidArgument("range has lo > hi on attribute " +
                                     std::to_string(i));
    }
  }
  return RangeQuery::Create(partitioner.grid(), partitioner.RectOf(lo, hi));
}

Result<std::vector<RecordId>> GridFile::RangeSearch(
    const std::vector<double>& lo, const std::vector<double>& hi) const {
  Result<RangeQuery> query = ResolveRange(lo, hi);
  if (!query.ok()) return query.status();
  std::vector<RecordId> hits;
  query.value().rect().ForEachBucket([&](const BucketCoords& c) {
    for (RecordId id : BucketContents(c)) {
      const Record& r = records_[static_cast<size_t>(id)];
      bool match = true;
      for (uint32_t i = 0; i < r.size() && match; ++i) {
        match = lo[i] <= r[i] && r[i] <= hi[i];
      }
      if (match) hits.push_back(id);
    }
  });
  return hits;
}

}  // namespace griddecl
