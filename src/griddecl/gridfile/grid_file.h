#ifndef GRIDDECL_GRIDFILE_GRID_FILE_H_
#define GRIDDECL_GRIDFILE_GRID_FILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "griddecl/common/status.h"
#include "griddecl/grid/partitioner.h"
#include "griddecl/query/query.h"

/// \file
/// A record-level Cartesian-product file (grid-file style, Nievergelt et
/// al., TODS 1984): the storage substrate the declustering methods sit on.
/// Records are k-attribute tuples of doubles; the space partitioner maps
/// each record to a bucket; buckets hold record ids. This is the layer that
/// turns "range predicate on attribute values" into "rectangle of buckets",
/// which is all the paper's cost model sees.

namespace griddecl {

/// One attribute's metadata.
struct AttributeDef {
  std::string name;
  /// Domain [lo, hi); records outside clamp into the boundary buckets.
  double lo = 0.0;
  double hi = 1.0;
};

/// Relation schema: the declustered attributes.
class Schema {
 public:
  /// Validated factory: 1..kMaxDims attributes, each with lo < hi and a
  /// non-empty unique name.
  static Result<Schema> Create(std::vector<AttributeDef> attributes);

  uint32_t num_attributes() const {
    return static_cast<uint32_t>(attributes_.size());
  }
  const AttributeDef& attribute(uint32_t i) const {
    GRIDDECL_CHECK(i < attributes_.size());
    return attributes_[i];
  }

  /// Index of the attribute named `name`; -1 when absent.
  int IndexOf(const std::string& name) const;

 private:
  explicit Schema(std::vector<AttributeDef> attributes)
      : attributes_(std::move(attributes)) {}
  std::vector<AttributeDef> attributes_;
};

/// A record is one value per schema attribute.
using Record = std::vector<double>;
using RecordId = uint64_t;

/// The rectangle of buckets the value-space range predicate
/// lo[i] <= attr_i <= hi[i] touches under `partitioner`, as a RangeQuery
/// (the declustering cost model's input).
Result<RangeQuery> ResolveRange(const SpacePartitioner& partitioner,
                                const std::vector<double>& lo,
                                const std::vector<double>& hi);

/// In-memory Cartesian-product file with a static grid directory.
class GridFile {
 public:
  /// Creates a file over `schema` with `partitions[i]` intervals on
  /// attribute i (uniform partitioning of each domain).
  static Result<GridFile> Create(Schema schema,
                                 const std::vector<uint32_t>& partitions);

  /// Creates a file with explicit (possibly non-uniform) partitioning. The
  /// partitioner must have one dimension per schema attribute.
  static Result<GridFile> CreateWithPartitioner(Schema schema,
                                                SpacePartitioner partitioner);

  const Schema& schema() const { return schema_; }
  const GridSpec& grid() const { return partitioner_.grid(); }
  const SpacePartitioner& partitioner() const { return partitioner_; }

  uint64_t num_records() const { return records_.size(); }

  /// Inserts a record; values outside the declared domains are accepted and
  /// clamp into boundary buckets (grid-file convention). Returns its id;
  /// kInvalidArgument for a NaN value, which no bucket holds.
  Result<RecordId> Insert(Record record);

  const Record& record(RecordId id) const;

  /// Bucket the record with `id` lives in.
  BucketCoords BucketOfRecord(RecordId id) const;

  /// Record ids stored in bucket `c`.
  const std::vector<RecordId>& BucketContents(const BucketCoords& c) const;

  /// The rectangle of buckets a value-space range predicate touches.
  Result<RangeQuery> ResolveRange(const std::vector<double>& lo,
                                  const std::vector<double>& hi) const {
    return griddecl::ResolveRange(partitioner_, lo, hi);
  }

  /// Exact record-level range search: ids of records with
  /// lo[i] <= value[i] <= hi[i] for all i. Scans only the touched buckets.
  Result<std::vector<RecordId>> RangeSearch(const std::vector<double>& lo,
                                            const std::vector<double>& hi)
      const;

 private:
  GridFile(Schema schema, SpacePartitioner partitioner)
      : schema_(std::move(schema)),
        partitioner_(std::move(partitioner)),
        buckets_(static_cast<size_t>(partitioner_.grid().num_buckets())) {}

  Schema schema_;
  SpacePartitioner partitioner_;
  std::vector<Record> records_;
  /// Bucket -> record ids, indexed by the grid's row-major linearization.
  std::vector<std::vector<RecordId>> buckets_;
};

}  // namespace griddecl

#endif  // GRIDDECL_GRIDFILE_GRID_FILE_H_
