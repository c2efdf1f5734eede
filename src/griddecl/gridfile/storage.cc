#include "griddecl/gridfile/storage.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "griddecl/common/bytes.h"
#include "griddecl/common/crc32c.h"

namespace griddecl {

namespace {

constexpr char kMagic[4] = {'G', 'D', 'C', 'L'};
constexpr char kFooterMagic[4] = {'G', 'D', 'F', 'T'};
constexpr uint32_t kMaxAttrNameLen = 4096;
constexpr uint32_t kMaxBoundaries = uint32_t{1} << 24;
/// The header's version word: the column-major page format.
constexpr uint32_t kFormatVersion = 3;

double LoadF64(const char* p) {
  double v = 0.0;
  std::memcpy(&v, p, 8);
  return v;
}

/// Reads a verified page's per-attribute [min, max] into `zone_min` /
/// `zone_max`. Rejects a page holding a NaN value or bound (no grid cell
/// holds NaN) and a page whose stored [min, max] is not exactly its
/// column's min and max, since the page index, the zone-map skip and the
/// accept all trust the zone maps. The one content check the page index
/// adds to the page CRC.
Status ScanPage(std::string_view page_bytes, const FileLayout& layout,
                uint64_t page, double* zone_min, double* zone_max) {
  const uint32_t k = layout.num_attrs;
  const uint32_t n = layout.PageRecords(page);
  const char* zones = page_bytes.data() + kPageHeaderBytes;
  const char* segments = zones + uint64_t{k} * kZoneMapBytesPerAttr;
  bool nan = false;
  bool mismatch = false;
  for (uint32_t a = 0; a < k; ++a) {
    zone_min[a] = LoadF64(zones + uint64_t{a} * kZoneMapBytesPerAttr);
    zone_max[a] = LoadF64(zones + uint64_t{a} * kZoneMapBytesPerAttr + 8);
    nan |= std::isnan(zone_min[a]) || std::isnan(zone_max[a]);
    // The writer's own fold, so a pristine page matches bit for bit.
    const char* column = segments + uint64_t{a} * layout.page_capacity * 8;
    double lo = LoadF64(column);
    double hi = lo;
    for (uint32_t r = 0; r < n; ++r) {
      const double v = LoadF64(column + uint64_t{r} * 8);
      nan |= std::isnan(v);
      lo = v < lo ? v : lo;
      hi = v > hi ? v : hi;
    }
    mismatch |= lo != zone_min[a] || hi != zone_max[a];
  }
  if (nan) {
    return Status::InvalidArgument("NaN value in page " +
                                   std::to_string(page));
  }
  if (mismatch) {
    return Status::InvalidArgument("zone map disagrees with page " +
                                   std::to_string(page));
  }
  return Status::Ok();
}

}  // namespace

Result<GridFileHeader> ParseGridFileHeader(std::string_view bytes) {
  ByteReader r(bytes);
  char magic[4];
  if (!r.ReadBytes(magic, 4) || std::memcmp(magic, kMagic, 4) != 0) {
    return Status::InvalidArgument("bad magic: not a griddecl file");
  }
  FileLayout layout;
  std::vector<AttributeDef> attrs;
  std::vector<DomainPartition> parts;
  uint32_t version = 0;
  uint32_t k = 0;
  if (!r.ReadU32(&version) ||
      !r.ReadU32(&layout.page_size_bytes) || !r.ReadU32(&k)) {
    return Status::InvalidArgument("truncated header");
  }
  if (version != kFormatVersion) {
    return Status::InvalidArgument("unsupported version " +
                                   std::to_string(version));
  }
  if (k < 1 || k > kMaxDims) {
    return Status::InvalidArgument("attribute count out of range");
  }
  layout.num_attrs = k;
  if (layout.page_size_bytes > kMaxPageSizeBytes) {
    return Status::InvalidArgument("page size out of range");
  }
  layout.page_capacity = PageCapacityFor(layout.page_size_bytes, k);
  if (layout.page_capacity == 0) {
    return Status::InvalidArgument("page size inconsistent with schema");
  }

  for (uint32_t i = 0; i < k; ++i) {
    uint32_t name_len = 0;
    if (!r.ReadU32(&name_len) || name_len == 0 ||
        name_len > kMaxAttrNameLen) {
      return Status::InvalidArgument("bad attribute name length");
    }
    std::string name;
    if (!r.ReadString(&name, name_len)) {
      return Status::InvalidArgument("truncated attribute name");
    }
    uint32_t num_boundaries = 0;
    if (!r.ReadU32(&num_boundaries) || num_boundaries < 2 ||
        num_boundaries > kMaxBoundaries) {
      return Status::InvalidArgument("bad boundary count");
    }
    if (r.remaining() < uint64_t{num_boundaries} * 8) {
      return Status::InvalidArgument("truncated boundaries");
    }
    std::vector<double> boundaries(num_boundaries);
    for (double& v : boundaries) r.ReadF64(&v);
    attrs.push_back({std::move(name), boundaries.front(), boundaries.back()});
    Result<DomainPartition> p =
        DomainPartition::FromBoundaries(std::move(boundaries));
    if (!p.ok()) return p.status();
    parts.push_back(std::move(p).value());
  }
  if (!r.ReadU64(&layout.num_records)) {
    return Status::InvalidArgument("truncated record count");
  }
  const size_t crc_end = r.pos();
  uint32_t stored_crc = 0;
  if (!r.ReadU32(&stored_crc)) {
    return Status::InvalidArgument("truncated header checksum");
  }
  if (stored_crc != Crc32c(bytes.substr(0, crc_end))) {
    return Status::InvalidArgument("header checksum mismatch");
  }
  layout.header_bytes = r.pos();

  const uint64_t n = layout.num_records;
  layout.num_pages = n == 0 ? 0 : (n - 1) / layout.page_capacity + 1;
  if (layout.num_pages > (std::numeric_limits<uint64_t>::max() -
                          layout.header_bytes - kFooterBytes) /
                             layout.page_size_bytes) {
    return Status::InvalidArgument("record count implies impossible size");
  }
  layout.footer_offset =
      layout.header_bytes + layout.num_pages * layout.page_size_bytes;
  layout.expected_file_size = layout.footer_offset + kFooterBytes;

  Result<Schema> schema = Schema::Create(std::move(attrs));
  if (!schema.ok()) return schema.status();
  Result<SpacePartitioner> sp = SpacePartitioner::Create(std::move(parts));
  if (!sp.ok()) return sp.status();
  return GridFileHeader{layout, std::move(schema).value(),
                        std::move(sp).value()};
}

uint32_t FileLayout::PageRecords(uint64_t page) const {
  if (page >= num_pages) return 0;
  if (page + 1 < num_pages) return page_capacity;
  return static_cast<uint32_t>(num_records - page * page_capacity);
}

Result<FileLayout> ParseFileLayout(std::string_view bytes) {
  Result<GridFileHeader> h = ParseGridFileHeader(bytes);
  if (!h.ok()) return h.status();
  return h.value().layout;
}

uint32_t PageCapacityFor(uint32_t page_size_bytes, uint32_t num_attrs) {
  if (num_attrs == 0) return 0;
  const uint64_t overhead =
      kPageHeaderBytes + uint64_t{kZoneMapBytesPerAttr} * num_attrs;
  if (page_size_bytes <= overhead) return 0;
  return static_cast<uint32_t>((page_size_bytes - overhead) /
                               (uint64_t{8} * num_attrs));
}

Status VerifyPageBytes(std::string_view page_bytes, const FileLayout& layout,
                       uint64_t page) {
  if (page >= layout.num_pages) {
    return Status::InvalidArgument("page index out of range");
  }
  if (page_bytes.size() != layout.page_size_bytes) {
    return Status::Internal("short page read");
  }
  uint32_t record_count = 0;
  std::memcpy(&record_count, page_bytes.data(), 4);
  if (record_count != layout.PageRecords(page)) {
    return Status::InvalidArgument("bad page record count");
  }
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, page_bytes.data() + 4, 4);
  // CRC of the page with the crc field itself zeroed.
  const char zeros[4] = {0, 0, 0, 0};
  uint32_t crc = Crc32c(page_bytes.data(), 4);
  crc = Crc32c(zeros, 4, crc);
  crc = Crc32c(page_bytes.data() + 8, layout.page_size_bytes - 8, crc);
  if (stored_crc != crc) {
    return Status::InvalidArgument("page checksum mismatch");
  }
  return Status::Ok();
}

Status VerifyFilePage(std::string_view bytes, const FileLayout& layout,
                      uint64_t page) {
  if (page >= layout.num_pages) {
    return Status::InvalidArgument("page index out of range");
  }
  const uint64_t off = layout.PageOffset(page);
  if (off + layout.page_size_bytes > bytes.size()) {
    return Status::InvalidArgument("page truncated");
  }
  return VerifyPageBytes(bytes.substr(off, layout.page_size_bytes), layout,
                         page);
}

bool DecodedPage::MayMatch(const std::vector<double>& lo,
                           const std::vector<double>& hi) const {
  if (num_records == 0) return false;
  for (uint32_t a = 0; a < num_attrs && a < lo.size() && a < hi.size();
       ++a) {
    if (zone_max(a) < lo[a] || zone_min(a) > hi[a]) return false;
  }
  return true;
}

bool DecodedPage::Within(const std::vector<double>& lo,
                         const std::vector<double>& hi) const {
  if (num_records == 0 || lo.size() != num_attrs ||
      hi.size() != num_attrs) {
    return false;
  }
  for (uint32_t a = 0; a < num_attrs; ++a) {
    if (!(zone_min(a) >= lo[a] && zone_max(a) <= hi[a])) return false;
  }
  return true;
}

Result<DecodedPage> DecodePageBytes(std::string_view page_bytes,
                                    const FileLayout& layout,
                                    uint64_t page) {
  if (page >= layout.num_pages) {
    return Status::InvalidArgument("page index out of range");
  }
  if (page_bytes.size() != layout.page_size_bytes) {
    return Status::Internal("short page read");
  }
  DecodedPage out;
  out.num_records = layout.PageRecords(page);
  out.num_attrs = layout.num_attrs;
  out.column_stride_ = layout.page_capacity;
  // Header, zone maps and segments are all whole doubles, so aligned bytes
  // are read in place. The bytes were written through char (a read or a
  // memcpy), which aliases any type, and no one writes them after decode.
  static_assert(kPageHeaderBytes % sizeof(double) == 0 &&
                kZoneMapBytesPerAttr == 2 * sizeof(double));
  if (reinterpret_cast<uintptr_t>(page_bytes.data()) % alignof(double) ==
      0) {
    out.in_place_ = reinterpret_cast<const double*>(page_bytes.data());
    return out;
  }
  out.values_.resize((page_bytes.size() + sizeof(double) - 1) /
                     sizeof(double));
  std::memcpy(out.values_.data(), page_bytes.data(), page_bytes.size());
  return out;
}

Status VerifyFileFooter(std::string_view bytes, const FileLayout& layout) {
  const uint64_t off = layout.footer_offset;
  if (off + kFooterBytes > bytes.size()) {
    return Status::InvalidArgument("footer truncated");
  }
  if (std::memcmp(bytes.data() + off, kFooterMagic, 4) != 0) {
    return Status::InvalidArgument("bad footer magic");
  }
  uint64_t n = 0;
  uint64_t pages = 0;
  std::memcpy(&n, bytes.data() + off + 4, 8);
  std::memcpy(&pages, bytes.data() + off + 12, 8);
  if (n != layout.num_records || pages != layout.num_pages) {
    return Status::InvalidArgument("footer disagrees with header");
  }
  uint32_t file_crc = 0;
  uint32_t footer_crc = 0;
  std::memcpy(&file_crc, bytes.data() + off + 20, 4);
  std::memcpy(&footer_crc, bytes.data() + off + 24, 4);
  if (footer_crc != Crc32c(bytes.substr(off, kFooterBytes - 4))) {
    return Status::InvalidArgument("footer checksum mismatch");
  }
  if (file_crc != Crc32c(bytes.substr(0, off))) {
    return Status::InvalidArgument("whole-file checksum mismatch");
  }
  return Status::Ok();
}

std::string BuildFileFooter(const FileLayout& layout, std::string_view body) {
  std::string footer;
  footer.reserve(kFooterBytes);
  footer.append(kFooterMagic, 4);
  AppendU64(&footer, layout.num_records);
  AppendU64(&footer, layout.num_pages);
  AppendU32(&footer, Crc32c(body));
  AppendU32(&footer, Crc32c(footer));
  return footer;
}

Result<std::string> SerializeGridFile(const GridFile& file,
                                      const SaveOptions& options) {
  const uint32_t page_size = options.page_size_bytes;
  if (page_size > kMaxPageSizeBytes) {
    return Status::InvalidArgument("page size out of range");
  }
  const uint32_t k = file.schema().num_attributes();
  const uint32_t capacity = PageCapacityFor(page_size, k);
  if (capacity == 0) {
    return Status::InvalidArgument(
        "page size too small for one record of this schema");
  }

  std::string out;
  out.append(kMagic, 4);
  AppendU32(&out, kFormatVersion);
  AppendU32(&out, page_size);
  AppendU32(&out, k);
  for (uint32_t i = 0; i < k; ++i) {
    const AttributeDef& a = file.schema().attribute(i);
    AppendU32(&out, static_cast<uint32_t>(a.name.size()));
    out.append(a.name);
    const std::vector<double>& b =
        file.partitioner().dim(i).raw_boundaries();
    AppendU32(&out, static_cast<uint32_t>(b.size()));
    for (double v : b) AppendF64(&out, v);
  }
  AppendU64(&out, file.num_records());
  AppendU32(&out, Crc32c(out));

  // Pages: records in id order, `capacity` per page, zero-padded. The
  // writer always packs pages full so the layout is deterministic.
  const uint64_t n = file.num_records();
  for (uint64_t first = 0; first < n; first += capacity) {
    const uint32_t in_page =
        static_cast<uint32_t>(std::min<uint64_t>(capacity, n - first));
    const size_t page_start = out.size();
    AppendU32(&out, in_page);
    AppendU32(&out, 0);  // CRC patched below.
    // Zone maps, then column segments at capacity stride.
    for (uint32_t a = 0; a < k; ++a) {
      double lo = file.record(first)[a];
      double hi = lo;
      for (uint32_t r = 1; r < in_page; ++r) {
        const double v = file.record(first + r)[a];
        if (v < lo) lo = v;
        if (v > hi) hi = v;
      }
      AppendF64(&out, lo);
      AppendF64(&out, hi);
    }
    for (uint32_t a = 0; a < k; ++a) {
      const size_t segment_start = out.size();
      for (uint32_t r = 0; r < in_page; ++r) {
        AppendF64(&out, file.record(first + r)[a]);
      }
      out.resize(segment_start + uint64_t{capacity} * 8, '\0');
    }
    out.resize(page_start + page_size, '\0');
    PatchU32(&out, page_start + 4,
             Crc32c(std::string_view(out).substr(page_start, page_size)));
  }

  FileLayout layout;
  layout.num_records = n;
  layout.num_pages = n == 0 ? 0 : (n - 1) / capacity + 1;
  out += BuildFileFooter(layout, out);
  return out;
}

Result<PageIndex> BuildPageIndex(std::string_view bytes,
                                 const GridFileHeader& header) {
  const FileLayout& layout = header.layout;
  if (bytes.size() != layout.expected_file_size) {
    return Status::InvalidArgument(bytes.size() < layout.expected_file_size
                                       ? "truncated file"
                                       : "trailing garbage after final page");
  }
  const SpacePartitioner& sp = header.partitioner;
  const GridSpec& grid = sp.grid();
  const uint32_t k = layout.num_attrs;

  PageIndex index;
  index.page_bucket.assign(static_cast<size_t>(layout.num_pages),
                           PageIndex::kMixedPage);
  // (bucket, page) in page order: one per single-bucket page, one per
  // distinct bucket of a mixed page.
  std::vector<std::pair<uint64_t, uint64_t>> entries;
  entries.reserve(static_cast<size_t>(layout.num_pages));
  std::vector<uint64_t> mixed;
  double zone_min[kMaxDims];
  double zone_max[kMaxDims];
  for (uint64_t page = 0; page < layout.num_pages; ++page) {
    const std::string_view page_bytes =
        bytes.substr(layout.PageOffset(page), layout.page_size_bytes);
    Status st = VerifyPageBytes(page_bytes, layout, page);
    if (!st.ok()) return st;
    st = ScanPage(page_bytes, layout, page, zone_min, zone_max);
    if (!st.ok()) return st;
    BucketCoords lo(k);
    BucketCoords hi(k);
    for (uint32_t a = 0; a < k; ++a) {
      lo[a] = sp.dim(a).IndexOf(zone_min[a]);
      hi[a] = sp.dim(a).IndexOf(zone_max[a]);
    }
    if (lo == hi) {
      const uint64_t bucket = grid.Linearize(lo);
      index.page_bucket[static_cast<size_t>(page)] = bucket;
      entries.emplace_back(bucket, page);
      continue;
    }
    Result<DecodedPage> decoded = DecodePageBytes(page_bytes, layout, page);
    if (!decoded.ok()) return decoded.status();
    const DecodedPage& d = decoded.value();
    mixed.clear();
    for (uint32_t r = 0; r < d.num_records; ++r) {
      BucketCoords c(k);
      for (uint32_t a = 0; a < k; ++a) c[a] = sp.dim(a).IndexOf(d.column(a)[r]);
      mixed.push_back(grid.Linearize(c));
    }
    std::sort(mixed.begin(), mixed.end());
    mixed.erase(std::unique(mixed.begin(), mixed.end()), mixed.end());
    for (uint64_t bucket : mixed) entries.emplace_back(bucket, page);
  }
  const Status footer = VerifyFileFooter(bytes, layout);
  if (!footer.ok()) return footer;

  // Counting sort by bucket; entries arrive in page order, so each
  // bucket's pages come out ascending.
  const size_t num_buckets = static_cast<size_t>(grid.num_buckets());
  index.bucket_begin.assign(num_buckets + 1, 0);
  for (const auto& [bucket, page] : entries) {
    index.bucket_begin[static_cast<size_t>(bucket) + 1]++;
  }
  for (size_t b = 0; b < num_buckets; ++b) {
    index.bucket_begin[b + 1] += index.bucket_begin[b];
  }
  std::vector<uint64_t> next(index.bucket_begin.begin(),
                             index.bucket_begin.end() - 1);
  index.pages.resize(entries.size());
  for (const auto& [bucket, page] : entries) {
    index.pages[static_cast<size_t>(next[static_cast<size_t>(bucket)]++)] =
        page;
  }
  return index;
}

}  // namespace griddecl
