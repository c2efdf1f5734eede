#ifndef GRIDDECL_GRIDFILE_STORAGE_H_
#define GRIDDECL_GRIDFILE_STORAGE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "griddecl/common/status.h"
#include "griddecl/gridfile/grid_file.h"

/// \file
/// Binary, paged, versioned persistence for `GridFile`.
///
/// A declustered relation outlives the process that loaded it; this module
/// writes a grid file (schema, learned partition boundaries, records) to a
/// byte stream, and reads it back the one way a server does: the header
/// (`ParseGridFileHeader`), the bucket -> pages index (`BuildPageIndex`),
/// then single pages (`VerifyPageBytes`, `DecodePageBytes`; `PageStore`
/// drives both). Records are packed in id order into fixed-size pages —
/// the same unit the I/O simulator charges for.
///
/// One format, little-endian and self-verifying. Every load is strict: a
/// header, page or footer that fails its CRC or its structural checks
/// rejects the whole file. The header's version word is 3; any other
/// version is rejected.
///
///   header: [magic "GDCL"] [u32 version=3] [u32 page_size] [u32 num_attrs]
///           per attribute: [u32 name_len][name bytes][u32 num_boundaries]
///                          [f64 boundaries...]
///           [u64 num_records]
///           [u32 header_crc] — CRC32C of every preceding header byte.
///   pages:  each page is exactly page_size bytes, column-major:
///           [u32 record_count][u32 page_crc]
///           zone maps, one per attribute: [f64 min][f64 max] — exactly
///           the attribute's min and max over the page's records
///           column segments, one per attribute: capacity f64 slots
///           (first record_count hold that attribute's values in id
///           order, rest zero), then zero padding.
///           page_crc is the CRC32C of the whole page with the crc field
///           itself zeroed, so a page verifies in isolation. Segments sit
///           at a fixed stride — attribute a's values start at byte
///           8 + 16*num_attrs + a*capacity*8 — so a scan reads each
///           attribute as a contiguous vector and the per-page min/max
///           lets range predicates skip whole pages without touching the
///           columns. Every field after the header is a whole f64 at a
///           multiple of 8 bytes, so a page read to an aligned buffer is
///           scanned in place (see DecodedPage).
///   footer: [magic "GDFT"][u64 num_records][u64 num_pages]
///           [u32 file_crc]   — CRC32C of every byte before the footer
///           [u32 footer_crc] — CRC32C of the footer bytes before it
///
/// The writer always packs pages full: page i holds exactly
/// min(capacity, num_records - i * capacity) records, so the byte layout
/// is a pure function of (schema, boundaries, num_records, page_size) and
/// the loader rejects partial pages and trailing garbage outright.
/// Records appear in id order, so a record's id is its page slot and
/// (boundaries being identical) its bucket is the one it was written to.

namespace griddecl {

/// Default page size; also the `DiskParams::bucket_kb` unit's sibling.
inline constexpr uint32_t kDefaultPageSizeBytes = 4096;

/// Page header: [u32 record_count][u32 page_crc].
inline constexpr uint32_t kPageHeaderBytes = 8;

/// Per-attribute zone-map bytes in a page: [f64 min][f64 max].
inline constexpr uint32_t kZoneMapBytesPerAttr = 16;

/// Size of the footer: magic + num_records + num_pages + 2 CRCs.
inline constexpr uint64_t kFooterBytes = 4 + 8 + 8 + 4 + 4;

/// Upper bound on page_size accepted by the parsers (defense against
/// adversarial headers demanding absurd allocations).
inline constexpr uint32_t kMaxPageSizeBytes = 1u << 26;

/// Records that fit in one page: the page size minus the page header and
/// the zone-map block, divided by the record width. 0 when the page
/// cannot hold a single record.
uint32_t PageCapacityFor(uint32_t page_size_bytes, uint32_t num_attrs);

struct SaveOptions {
  uint32_t page_size_bytes = kDefaultPageSizeBytes;
};

/// Serializes `file` to bytes. `page_size_bytes` must fit the page header
/// plus at least one record.
Result<std::string> SerializeGridFile(const GridFile& file,
                                      const SaveOptions& options = {});

// --- Format introspection (scrub / fsck support) --------------------------

/// Byte-level layout of a serialized grid file, recovered from the header
/// region alone — valid even when pages or footer are damaged.
struct FileLayout {
  uint32_t page_size_bytes = 0;
  uint32_t num_attrs = 0;
  uint64_t num_records = 0;
  /// Records per page.
  uint32_t page_capacity = 0;
  uint64_t num_pages = 0;
  /// Byte offset of page 0 (== size of the header region).
  uint64_t header_bytes = 0;
  /// Byte offset of the footer.
  uint64_t footer_offset = 0;
  /// Exact size a pristine file has.
  uint64_t expected_file_size = 0;

  uint64_t PageOffset(uint64_t page) const {
    return header_bytes + page * page_size_bytes;
  }
  /// Record count the writer put in `page` (full pages, remainder last).
  uint32_t PageRecords(uint64_t page) const;
};

/// The layout of `ParseGridFileHeader(bytes)`. Page and footer bytes are
/// not touched, so a layout can be recovered from a file with damaged
/// pages.
Result<FileLayout> ParseFileLayout(std::string_view bytes);

/// A grid file's header: its byte layout plus the schema and partitioner it
/// records — everything a server needs to resolve a range predicate to
/// buckets, with no page read.
struct GridFileHeader {
  FileLayout layout;
  Schema schema;
  SpacePartitioner partitioner;
};

/// Parses and validates the header region of `bytes` (structure, bounds,
/// the header CRC, the schema and the partitioner it describes). Page and
/// footer bytes are not touched.
Result<GridFileHeader> ParseGridFileHeader(std::string_view bytes);

/// Where each bucket's records sit in a data file: the bucket -> pages map
/// a server plans page reads from, built without rebuilding any record.
struct PageIndex {
  static constexpr uint64_t kMixedPage = ~uint64_t{0};

  /// Compressed sparse rows over the grid-linear buckets: bucket b's
  /// pages are `pages[bucket_begin[b] .. bucket_begin[b + 1])`, ascending
  /// and distinct. `bucket_begin` has num_buckets + 1 entries.
  std::vector<uint64_t> bucket_begin;
  std::vector<uint64_t> pages;
  /// Page -> the one grid-linear bucket all its records belong to, or
  /// kMixedPage.
  std::vector<uint64_t> page_bucket;

  std::span<const uint64_t> PagesOf(uint64_t bucket) const {
    return std::span<const uint64_t>(pages).subspan(
        bucket_begin[bucket], bucket_begin[bucket + 1] - bucket_begin[bucket]);
  }
};

/// Verifies every byte of `bytes` — exact size, each page's record count
/// and CRC, no NaN value or bound in a page, each zone map exactly its
/// page's min/max, the footer and the whole-file CRC; kInvalidArgument
/// otherwise, never a crash — and indexes its pages under `header` (parsed
/// from the same bytes). A page whose zone-map box lies in one grid cell
/// belongs to that bucket alone: cells are intervals in each dimension, so
/// the test is exact. Only the other (mixed) pages are decoded and their
/// records bucketed.
Result<PageIndex> BuildPageIndex(std::string_view bytes,
                                 const GridFileHeader& header);

/// Verifies page `page` of `bytes` under `layout`: page in bounds, record
/// count exactly what the writer lays out, CRC match.
Status VerifyFilePage(std::string_view bytes, const FileLayout& layout,
                      uint64_t page);

/// Verifies one page given only that page's bytes (the unit a resilient
/// reader fetches with `ReadAt`): exact page size, record count, CRC
/// match. The single verify path shared by load, scrub and serve.
Status VerifyPageBytes(std::string_view page_bytes, const FileLayout& layout,
                       uint64_t page);

/// Verifies the footer of `bytes` (structure and CRCs).
Status VerifyFileFooter(std::string_view bytes, const FileLayout& layout);

/// Serializes the footer for a file whose pre-footer bytes are
/// `body` (used by scrub to recompute a damaged footer bit-identically).
std::string BuildFileFooter(const FileLayout& layout, std::string_view body);

// --- Page decode (the unit the serve scan consumes) -----------------------

/// One page decoded to columnar form: per-attribute zone maps (min, max)
/// and one contiguous column per attribute.
///
/// A page whose bytes sit at an 8-byte-aligned address is read in place:
/// the zone maps are the stored ones, and each column is the page's own
/// segment at `page_capacity` stride, so decoding copies no value and
/// allocates nothing. Such a page borrows its bytes, which must outlive it
/// and every copy of it; `PageStore` decodes the bytes its frame owns.
/// Bytes at an unaligned address (a page inside a whole-file buffer) are
/// copied to an aligned buffer of the page's own (one allocation) and read
/// the same way. Copies and moves stay valid either way, because only the
/// borrowed bytes are held by pointer.
class DecodedPage {
 public:
  uint32_t num_records = 0;
  uint32_t num_attrs = 0;

  /// Attribute `a`'s values, `num_records` of them in slot order.
  const double* column(uint32_t a) const {
    return base() + kZoneBegin + 2 * uint64_t{num_attrs} +
           uint64_t{a} * column_stride_;
  }
  /// Attribute `a`'s minimum / maximum over the page's records.
  double zone_min(uint32_t a) const {
    return base()[kZoneBegin + 2 * uint64_t{a}];
  }
  double zone_max(uint32_t a) const {
    return base()[kZoneBegin + 2 * uint64_t{a} + 1];
  }

  /// False when the zone maps prove no record can fall inside the closed
  /// box [lo, hi] — the page-skip test of a range scan.
  bool MayMatch(const std::vector<double>& lo,
                const std::vector<double>& hi) const;
  /// True when the zone maps prove every record lies inside the closed
  /// box [lo, hi], so a range scan takes the whole page unfiltered — the
  /// mirror image of MayMatch.
  bool Within(const std::vector<double>& lo,
              const std::vector<double>& hi) const;

 private:
  friend Result<DecodedPage> DecodePageBytes(std::string_view page_bytes,
                                             const FileLayout& layout,
                                             uint64_t page);

  /// Doubles before the zone maps: the page header.
  static constexpr uint64_t kZoneBegin = kPageHeaderBytes / sizeof(double);

  const double* base() const {
    return in_place_ != nullptr ? in_place_ : values_.data();
  }

  /// The page's bytes read as doubles, when decoded in place; else null
  /// and the page reads its copy in `values_`.
  const double* in_place_ = nullptr;
  /// Doubles from one column's first slot to the next's: the capacity.
  uint32_t column_stride_ = 0;
  std::vector<double> values_;
};

/// Decodes one page from its bytes (exactly `layout.page_size_bytes`).
/// Purely structural — callers verify first if they want CRC protection.
/// An aligned page decodes in place and borrows `page_bytes` (see
/// DecodedPage).
Result<DecodedPage> DecodePageBytes(std::string_view page_bytes,
                                    const FileLayout& layout, uint64_t page);

}  // namespace griddecl

#endif  // GRIDDECL_GRIDFILE_STORAGE_H_
