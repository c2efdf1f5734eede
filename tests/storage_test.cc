#include "griddecl/gridfile/storage.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "griddecl/common/bytes.h"
#include "griddecl/common/crc32c.h"
#include "griddecl/common/random.h"
#include "griddecl/grid/partitioner.h"
#include "grid_file_oracle.h"
#include "page_reseal.h"

namespace griddecl {
namespace {

GridFile MakeFile(int num_records, uint64_t seed) {
  Schema schema =
      Schema::Create({{"x", 0.0, 1.0}, {"y", -5.0, 5.0}}).value();
  GridFile f = GridFile::Create(std::move(schema), {8, 8}).value();
  Rng rng(seed);
  for (int i = 0; i < num_records; ++i) {
    EXPECT_TRUE(
        f.Insert({rng.NextDouble(), rng.NextDouble() * 10 - 5}).ok());
  }
  return f;
}

std::string Serialize(const GridFile& file,
                      uint32_t page_size = kDefaultPageSizeBytes) {
  SaveOptions options;
  options.page_size_bytes = page_size;
  return SerializeGridFile(file, options).value();
}

/// Whether a server's load of `bytes` — the header, then the page index —
/// accepts the file.
bool IndexLoads(const std::string& bytes) {
  const Result<GridFileHeader> header = ParseGridFileHeader(bytes);
  return header.ok() && BuildPageIndex(bytes, header.value()).ok();
}

TEST(StorageTest, RoundTripPreservesEverything) {
  const GridFile original = MakeFile(500, 1);
  const GridFile loaded = OracleDecodeGridFile(Serialize(original)).value();

  EXPECT_EQ(loaded.num_records(), original.num_records());
  EXPECT_EQ(loaded.grid(), original.grid());
  EXPECT_EQ(loaded.schema().attribute(0).name, "x");
  EXPECT_EQ(loaded.schema().attribute(1).name, "y");
  for (RecordId id = 0; id < original.num_records(); ++id) {
    EXPECT_EQ(loaded.record(id), original.record(id));
    EXPECT_EQ(loaded.BucketOfRecord(id), original.BucketOfRecord(id));
  }
}

TEST(StorageTest, RoundTripEmptyFile) {
  const GridFile original = MakeFile(0, 2);
  const GridFile loaded = OracleDecodeGridFile(Serialize(original)).value();
  EXPECT_EQ(loaded.num_records(), 0u);
  EXPECT_EQ(loaded.grid(), original.grid());
}

TEST(StorageTest, RoundTripAdaptiveBoundaries) {
  // Non-uniform boundaries, refined where skewed data clusters, survive
  // the trip.
  Schema schema = Schema::Create({{"x", 0.0, 1.0}, {"y", 0.0, 1.0}}).value();
  std::vector<DomainPartition> parts;
  parts.push_back(
      DomainPartition::FromBoundaries({0.0, 0.02, 0.05, 0.1, 0.5, 1.0})
          .value());
  parts.push_back(
      DomainPartition::FromBoundaries({0.0, 0.03, 0.1, 0.4, 1.0}).value());
  GridFile original =
      GridFile::CreateWithPartitioner(
          std::move(schema), SpacePartitioner::Create(std::move(parts)).value())
          .value();
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const double s = rng.NextBool(0.8) ? 0.1 : 1.0;
    ASSERT_TRUE(
        original.Insert({rng.NextDouble() * s, rng.NextDouble() * s}).ok());
  }
  const GridFile loaded = OracleDecodeGridFile(Serialize(original)).value();
  EXPECT_EQ(loaded.grid(), original.grid());
  for (uint32_t dim = 0; dim < 2; ++dim) {
    EXPECT_EQ(loaded.partitioner().dim(dim).raw_boundaries(),
              original.partitioner().dim(dim).raw_boundaries());
  }
  ASSERT_EQ(loaded.num_records(), original.num_records());
  for (RecordId id = 0; id < original.num_records(); ++id) {
    EXPECT_EQ(loaded.BucketOfRecord(id), original.BucketOfRecord(id));
  }
}

TEST(StorageTest, SmallPagesStillWork) {
  const GridFile original = MakeFile(100, 4);
  // Page fits exactly one 2-attribute record: 8 (header) + 2*16 (zone
  // maps) + 16 (record) -> 56.
  const GridFile loaded = OracleDecodeGridFile(Serialize(original, 56)).value();
  EXPECT_EQ(loaded.num_records(), 100u);
  EXPECT_EQ(loaded.record(99), original.record(99));
}

TEST(StorageTest, PageCapacityForMath) {
  // (page - 8 - 16k) / 8k: the page header and 16 bytes of zone map per
  // attribute come first. Too-small pages report capacity 0.
  EXPECT_EQ(PageCapacityFor(136, 2), 6u);
  EXPECT_EQ(PageCapacityFor(168, 2), 8u);
  EXPECT_EQ(PageCapacityFor(56, 2), 1u);
  EXPECT_EQ(PageCapacityFor(84, 1), 7u);
  EXPECT_EQ(PageCapacityFor(40, 2), 0u);
  EXPECT_EQ(PageCapacityFor(4096, 0), 0u);
}

TEST(StorageTest, PageSizeTooSmallRejected) {
  const GridFile original = MakeFile(10, 5);
  for (uint32_t page : {16u, 0u}) {
    SaveOptions options;
    options.page_size_bytes = page;
    EXPECT_FALSE(SerializeGridFile(original, options).ok()) << page;
  }
}

TEST(StorageTest, RejectsCorruptInputsWithoutCrashing) {
  const GridFile original = MakeFile(50, 6);
  const std::string bytes = Serialize(original);

  // Bad magic.
  {
    std::string copy = bytes;
    copy[0] = 'X';
    EXPECT_FALSE(OracleDecodeGridFile(copy).ok());
    EXPECT_FALSE(IndexLoads(copy));
  }
  // Truncations at many prefixes: must error, never crash.
  for (size_t len : {0ul, 3ul, 8ul, 17ul, 40ul, bytes.size() / 2,
                     bytes.size() - 1}) {
    const std::string prefix = bytes.substr(0, len);
    EXPECT_FALSE(OracleDecodeGridFile(prefix).ok()) << "len=" << len;
    EXPECT_FALSE(IndexLoads(prefix)) << "len=" << len;
  }
  // Corrupt version.
  {
    std::string copy = bytes;
    copy[4] = static_cast<char>(0x7F);
    EXPECT_FALSE(OracleDecodeGridFile(copy).ok());
    EXPECT_FALSE(IndexLoads(copy));
  }
}

TEST(StorageTest, RejectsVersion1Files) {
  // Minimal files of the retired versions: magic, version, page size, one
  // attribute with its boundaries and zero records. Version 1 had no
  // header CRC, no pages and no footer. Version 2 (row-major pages) had
  // the header CRC and footer the current format keeps, so with no
  // records its file differs from a current one only in the version word
  // and the CRCs. Only version 3 loads.
  for (uint32_t version : {1u, 2u}) {
    std::string bytes = "GDCL";
    AppendU32(&bytes, version);
    AppendU32(&bytes, 4096);  // page size
    AppendU32(&bytes, 1);     // attributes
    AppendU32(&bytes, 1);     // name length
    bytes += "x";
    AppendU32(&bytes, 2);  // boundaries
    AppendF64(&bytes, 0.0);
    AppendF64(&bytes, 1.0);
    AppendU64(&bytes, 0);  // records
    if (version == 2) {
      AppendU32(&bytes, Crc32c(bytes));
      bytes += BuildFileFooter(FileLayout{}, bytes);
    }
    const std::string expected =
        "unsupported version " + std::to_string(version);
    const Result<GridFile> loaded = OracleDecodeGridFile(bytes);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().message(), expected);
    EXPECT_EQ(ParseGridFileHeader(bytes).status().message(), expected);
  }
}

TEST(StorageTest, RoundTripLargePageSizes) {
  const GridFile original = MakeFile(300, 7);
  for (uint32_t page : {64u, 1024u, 1u << 20}) {
    const GridFile loaded = OracleDecodeGridFile(Serialize(original, page)).value();
    EXPECT_EQ(loaded.num_records(), 300u) << page;
  }
}

TEST(StorageTest, DetectsEverySingleBitFlip) {
  // Flip one bit at a stride of offsets across the whole file: the
  // checksums must reject every single one, in the oracle and in the page
  // index a server loads.
  const GridFile original = MakeFile(60, 10);
  const std::string bytes = Serialize(original, 160);
  for (size_t pos = 0; pos < bytes.size(); pos += 7) {
    std::string copy = bytes;
    copy[pos] = static_cast<char>(copy[pos] ^ 0x10);
    EXPECT_FALSE(OracleDecodeGridFile(copy).ok()) << "offset " << pos;
    EXPECT_FALSE(IndexLoads(copy)) << "offset " << pos;
  }
}

TEST(StorageTest, V3RoundTripPreservesRecords) {
  const GridFile original = MakeFile(120, 21);
  const std::string bytes = Serialize(original, 168);
  const GridFile loaded = OracleDecodeGridFile(bytes).value();
  ASSERT_EQ(loaded.num_records(), original.num_records());
  for (RecordId id = 0; id < original.num_records(); ++id) {
    EXPECT_EQ(loaded.record(id), original.record(id));
    EXPECT_EQ(loaded.BucketOfRecord(id), original.BucketOfRecord(id));
  }
}

TEST(StorageTest, V3DecodedPageExposesColumnsAndZoneMaps) {
  const GridFile original = MakeFile(40, 22);
  // Capacity (168 - 8 - 32) / 16 = 8 -> 5 pages.
  const std::string bytes = Serialize(original, 168);
  const FileLayout layout = ParseFileLayout(bytes).value();
  ASSERT_EQ(layout.page_capacity, 8u);
  ASSERT_EQ(layout.num_pages, 5u);
  for (uint64_t p = 0; p < layout.num_pages; ++p) {
    const std::string_view page_bytes =
        std::string_view(bytes).substr(layout.PageOffset(p),
                                       layout.page_size_bytes);
    const DecodedPage page =
        DecodePageBytes(page_bytes, layout, p).value();
    ASSERT_EQ(page.num_records, layout.PageRecords(p));
    ASSERT_EQ(page.num_attrs, 2u);
    for (uint32_t a = 0; a < 2; ++a) {
      double lo = page.column(a)[0];
      double hi = lo;
      for (uint32_t r = 0; r < page.num_records; ++r) {
        const RecordId id = p * layout.page_capacity + r;
        EXPECT_EQ(page.column(a)[r], original.record(id)[a]);
        lo = std::min(lo, page.column(a)[r]);
        hi = std::max(hi, page.column(a)[r]);
      }
      // Stored zone maps are exactly the per-page column min/max.
      EXPECT_EQ(page.zone_min(a), lo);
      EXPECT_EQ(page.zone_max(a), hi);
    }
    // MayMatch: a box covering the zone maps intersects; a disjoint box
    // (above every x) cannot.
    EXPECT_TRUE(page.MayMatch({page.zone_min(0), page.zone_min(1)},
                              {page.zone_max(0), page.zone_max(1)}));
    EXPECT_FALSE(page.MayMatch({page.zone_max(0) + 1.0, -5.0},
                               {page.zone_max(0) + 2.0, 5.0}));
  }
}

TEST(StorageTest, InPlaceAndCopiedDecodesAgree) {
  // One relation in 168-byte pages, 8 records per page. Each page decodes
  // at an aligned address (read in place) and at an odd one (copied);
  // both give the same zone maps and columns, and so do their copies.
  const GridFile original = MakeFile(60, 24);
  const std::string v3 = Serialize(original, 168);
  const FileLayout l3 = ParseFileLayout(v3).value();
  ASSERT_EQ(l3.page_capacity, 8u);
  // Backed by doubles, so `aligned` is 8-byte aligned and `odd` is not.
  std::vector<double> aligned_storage(l3.page_size_bytes / 8);
  std::vector<double> odd_storage(l3.page_size_bytes / 8 + 1);
  char* aligned = reinterpret_cast<char*>(aligned_storage.data());
  char* odd = reinterpret_cast<char*>(odd_storage.data()) + 3;
  for (uint64_t p = 0; p < l3.num_pages; ++p) {
    std::memcpy(aligned, v3.data() + l3.PageOffset(p), l3.page_size_bytes);
    const DecodedPage in_place =
        DecodePageBytes({aligned, l3.page_size_bytes}, l3, p).value();
    // Read in place: column 0 is the page's first segment.
    EXPECT_EQ(reinterpret_cast<const char*>(in_place.column(0)),
              aligned + kPageHeaderBytes + 2 * kZoneMapBytesPerAttr);
    std::memcpy(odd, aligned, l3.page_size_bytes);
    DecodedPage copied =
        DecodePageBytes({odd, l3.page_size_bytes}, l3, p).value();
    // A copy of an owning page stays valid after the original is gone.
    const DecodedPage copy_of_copied = [&] {
      DecodedPage moved = std::move(copied);
      return DecodedPage(moved);
    }();
    const DecodedPage copy_of_in_place = in_place;
    for (const DecodedPage* d :
         {&in_place, &copy_of_copied, &copy_of_in_place}) {
      ASSERT_EQ(d->num_records, l3.PageRecords(p));
      ASSERT_EQ(d->num_attrs, 2u);
      for (uint32_t a = 0; a < 2; ++a) {
        double lo = original.record(p * 8)[a];
        double hi = lo;
        for (uint32_t r = 0; r < d->num_records; ++r) {
          const double v = original.record(p * 8 + r)[a];
          EXPECT_EQ(d->column(a)[r], v) << "page " << p << " slot " << r;
          lo = std::min(lo, v);
          hi = std::max(hi, v);
        }
        EXPECT_EQ(d->zone_min(a), lo) << "page " << p;
        EXPECT_EQ(d->zone_max(a), hi) << "page " << p;
      }
    }
  }
}

TEST(StorageTest, WithinIsTheClosedBoxMirrorOfMayMatch) {
  // Within holds exactly when the zone maps sit inside the closed box:
  // the page's own zone-map box qualifies, one ulp less on any edge does
  // not.
  Schema schema =
      Schema::Create({{"x", 0.0, 1.0}, {"y", 0.0, 1.0}}).value();
  GridFile f = GridFile::Create(std::move(schema), {2, 2}).value();
  ASSERT_TRUE(f.Insert({0.25, 0.5}).ok());
  ASSERT_TRUE(f.Insert({0.75, 0.125}).ok());
  const std::string bytes = Serialize(f, 168);  // Capacity 8.
  const FileLayout layout = ParseFileLayout(bytes).value();
  const DecodedPage p =
      DecodePageBytes(std::string_view(bytes).substr(
                          layout.PageOffset(0), layout.page_size_bytes),
                      layout, 0)
          .value();
  EXPECT_TRUE(p.Within({0.0, 0.0}, {1.0, 1.0}));
  const std::vector<double> lo = {0.25, 0.125};
  const std::vector<double> hi = {0.75, 0.5};
  EXPECT_TRUE(p.Within(lo, hi));
  for (size_t a = 0; a < 2; ++a) {
    std::vector<double> tight_lo = lo;
    tight_lo[a] = std::nextafter(lo[a], 1.0);
    EXPECT_FALSE(p.Within(tight_lo, hi)) << "lo edge " << a;
    std::vector<double> tight_hi = hi;
    tight_hi[a] = std::nextafter(hi[a], 0.0);
    EXPECT_FALSE(p.Within(lo, tight_hi)) << "hi edge " << a;
  }
}

TEST(StorageTest, HardenedPageValidation) {
  const GridFile original = MakeFile(40, 13);
  // The record-count check runs before the page CRC, so each lie below is
  // caught by the structural check on its own, not by the checksum. The
  // page index and the oracle give the same reason.
  const std::string bytes = Serialize(original, 88);
  const FileLayout layout = ParseFileLayout(bytes).value();
  const GridFileHeader header = ParseGridFileHeader(bytes).value();
  const auto reason = [&](const std::string& copy) {
    const std::string message =
        BuildPageIndex(copy, header).status().message();
    EXPECT_EQ(OracleDecodeGridFile(copy).status().message(), message);
    return message;
  };

  // A page claiming more records than its writer-assigned count must be
  // rejected, even where it would still fit the page physically.
  {
    std::string copy = bytes;
    const uint32_t lie = layout.PageRecords(0) - 1;
    std::memcpy(copy.data() + layout.PageOffset(0), &lie, 4);
    EXPECT_EQ(reason(copy), "bad page record count");
  }
  {
    std::string copy = bytes;
    const uint32_t lie = 1000000;  // Way past physical capacity.
    std::memcpy(copy.data() + layout.PageOffset(0), &lie, 4);
    EXPECT_EQ(reason(copy), "bad page record count");
  }
  // Trailing garbage after the final page is rejected.
  EXPECT_EQ(reason(bytes + std::string(13, '\0')),
            "trailing garbage after final page");
  // A partial (truncated) final page is rejected.
  EXPECT_EQ(reason(bytes.substr(0, bytes.size() - 1)), "truncated file");
}

TEST(StorageTest, FooterIntrospection) {
  const GridFile original = MakeFile(30, 14);
  const std::string bytes = Serialize(original, 128);
  const FileLayout layout = ParseFileLayout(bytes).value();
  EXPECT_EQ(layout.expected_file_size, bytes.size());
  for (uint64_t p = 0; p < layout.num_pages; ++p) {
    EXPECT_TRUE(VerifyFilePage(bytes, layout, p).ok());
  }
  EXPECT_TRUE(VerifyFileFooter(bytes, layout).ok());
  // The footer is a pure function of the body.
  EXPECT_EQ(BuildFileFooter(layout,
                            std::string_view(bytes).substr(
                                0, layout.footer_offset)),
            bytes.substr(layout.footer_offset));
  // A flipped footer byte is caught.
  std::string copy = bytes;
  copy[layout.footer_offset + 5] ^= 0x01;
  EXPECT_FALSE(VerifyFileFooter(copy, layout).ok());
}

TEST(StorageTest, SerializationIsDeterministic) {
  const GridFile a = MakeFile(77, 15);
  const GridFile b = MakeFile(77, 15);
  EXPECT_EQ(Serialize(a, 256), Serialize(b, 256));
}

TEST(StorageTest, SerializedBytesArePinned) {
  // A fixed relation's data file, byte for byte: its size and CRC32C in
  // 168-byte pages (8 records each, the last page partial) and in one
  // default 4 KiB page. A change to the writer or the page layout shows
  // up here first.
  const GridFile f = MakeFile(45, 61);
  const std::string paged = Serialize(f, 168);
  EXPECT_EQ(paged.size(), 1226u);
  EXPECT_EQ(Crc32c(paged), 0x8b108ea8u);
  const std::string single = Serialize(f);
  EXPECT_EQ(single.size(), 4314u);
  EXPECT_EQ(Crc32c(single), 0x04866cedu);
}

TEST(StorageTest, RejectsResealedNaNPages) {
  // A NaN patched into a page whose CRC and footer are then recomputed
  // passes every checksum. No grid cell holds NaN, so the page index and
  // the oracle both reject the page with kInvalidArgument instead of
  // bucketing the value past the grid.
  const GridFile original = MakeFile(40, 31);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto expect_rejected = [](const std::string& bytes,
                                  const char* what) {
    const Result<GridFile> parsed = OracleDecodeGridFile(bytes);
    ASSERT_FALSE(parsed.ok()) << what;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << what;
    const GridFileHeader header = ParseGridFileHeader(bytes).value();
    const Result<PageIndex> index = BuildPageIndex(bytes, header);
    ASSERT_FALSE(index.ok()) << what;
    EXPECT_EQ(index.status().code(), StatusCode::kInvalidArgument) << what;
  };
  const std::string bytes = Serialize(original, 168);
  const FileLayout layout = ParseFileLayout(bytes).value();
  // The last record's last attribute on page 1.
  const uint64_t page = 1;
  const uint32_t last = layout.PageRecords(page) - 1;
  const uint64_t value_off = layout.PageOffset(page) + kPageHeaderBytes +
                             2 * kZoneMapBytesPerAttr +
                             (uint64_t{layout.page_capacity} + last) * 8;
  std::string copy = bytes;
  std::memcpy(copy.data() + value_off, &nan, 8);
  ResealPage(&copy, layout, page);
  expect_rejected(copy, "value");
  // A page's stored zone map (attribute 0's max) set to NaN.
  copy = bytes;
  std::memcpy(copy.data() + layout.PageOffset(0) + kPageHeaderBytes + 8,
              &nan, 8);
  ResealPage(&copy, layout, 0);
  expect_rejected(copy, "zone map");
}

TEST(StorageTest, RejectsResealedZoneMapThatDisagreesWithItsPage) {
  // Four records in one page (capacity (104 - 40) / 16 = 4) of a 2x2
  // grid, x = 0.1 ... 0.4. A zone map narrowed below its page's true
  // x-max would make a range scan accept the page whole and serve a
  // record outside the range; one widened past the true x-min would
  // misplace the page in the index. With the page CRC and footer
  // recomputed, only a zone-map check can catch either, and the page
  // index and the oracle must both reject.
  Schema schema = Schema::Create({{"x", 0.0, 1.0}, {"y", 0.0, 1.0}}).value();
  GridFile f = GridFile::Create(std::move(schema), {2, 2}).value();
  for (double x : {0.1, 0.2, 0.3, 0.4}) ASSERT_TRUE(f.Insert({x, 0.2}).ok());
  const std::string bytes = Serialize(f, 104);
  const FileLayout layout = ParseFileLayout(bytes).value();
  ASSERT_EQ(layout.num_pages, 1u);
  ASSERT_TRUE(OracleDecodeGridFile(bytes).ok());
  const uint64_t x_min_off = layout.PageOffset(0) + kPageHeaderBytes;
  for (const auto& [offset, value] :
       {std::pair<uint64_t, double>{x_min_off + 8, 0.25},
        std::pair<uint64_t, double>{x_min_off, 0.05}}) {
    SCOPED_TRACE(value);
    std::string copy = bytes;
    std::memcpy(copy.data() + offset, &value, 8);
    ResealPage(&copy, layout, 0);
    const Result<GridFile> parsed = OracleDecodeGridFile(copy);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(parsed.status().message(), "zone map disagrees with page 0");
    const Result<PageIndex> index =
        BuildPageIndex(copy, ParseGridFileHeader(copy).value());
    ASSERT_FALSE(index.ok());
    EXPECT_EQ(index.status().code(), StatusCode::kInvalidArgument);
  }
}

/// The bucket -> pages index the old serve load derived by walking every
/// record of the parsed file: the reference BuildPageIndex must equal.
struct WalkedIndex {
  std::vector<std::vector<uint64_t>> bucket_pages;
  std::vector<uint64_t> page_bucket;
};

WalkedIndex WalkRecords(const GridFile& file, uint32_t capacity) {
  const GridSpec& grid = file.grid();
  WalkedIndex w;
  w.bucket_pages.assign(static_cast<size_t>(grid.num_buckets()), {});
  w.page_bucket.assign(
      static_cast<size_t>((file.num_records() + capacity - 1) / capacity),
      PageIndex::kMixedPage);
  for (RecordId id = 0; id < file.num_records(); ++id) {
    const uint64_t bucket = grid.Linearize(file.BucketOfRecord(id));
    const uint64_t page = id / capacity;
    std::vector<uint64_t>& pages = w.bucket_pages[bucket];
    if (pages.empty() || pages.back() != page) pages.push_back(page);
    uint64_t& owner = w.page_bucket[page];
    if (id % capacity == 0) {
      owner = bucket;
    } else if (owner != bucket) {
      owner = PageIndex::kMixedPage;
    }
  }
  return w;
}

void ExpectIndexMatchesRecordWalk(const GridFile& file, uint32_t page_size) {
  SCOPED_TRACE("page_size " + std::to_string(page_size));
  const std::string bytes = Serialize(file, page_size);
  const GridFileHeader header = ParseGridFileHeader(bytes).value();
  const PageIndex index = BuildPageIndex(bytes, header).value();
  const WalkedIndex walked = WalkRecords(OracleDecodeGridFile(bytes).value(),
                                         header.layout.page_capacity);
  EXPECT_EQ(index.page_bucket, walked.page_bucket);
  ASSERT_EQ(index.bucket_begin.size(), walked.bucket_pages.size() + 1);
  for (uint64_t b = 0; b < walked.bucket_pages.size(); ++b) {
    const std::span<const uint64_t> pages = index.PagesOf(b);
    EXPECT_EQ(std::vector<uint64_t>(pages.begin(), pages.end()),
              walked.bucket_pages[b])
        << "bucket " << b;
  }
}

TEST(PageIndexTest, MatchesTheRecordWalk) {
  // Non-uniform boundaries and values outside the domain (which clamp
  // into the boundary cells) on both axes.
  std::vector<DomainPartition> parts;
  parts.push_back(
      DomainPartition::FromBoundaries({0.0, 0.1, 0.15, 0.5, 0.9, 1.0})
          .value());
  parts.push_back(DomainPartition::Uniform(-5.0, 5.0, 6).value());
  const SpacePartitioner sp = SpacePartitioner::Create(parts).value();
  const auto make = [&] {
    return GridFile::CreateWithPartitioner(
               Schema::Create({{"x", 0.0, 1.0}, {"y", -5.0, 5.0}}).value(),
               sp)
        .value();
  };
  Rng rng(41);
  const auto value_in = [&](double lo, double hi) {
    return lo + (hi - lo) * rng.NextDouble();
  };
  // Arrival order: uniform records, including out-of-domain ones.
  GridFile arrival = make();
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(
        arrival.Insert({value_in(-0.2, 1.2), value_in(-6.0, 6.0)}).ok());
  }
  // Bucket-clustered: 5 records per bucket, inserted bucket by bucket.
  GridFile clustered = make();
  const GridSpec& grid = clustered.grid();
  for (uint64_t b = 0; b < grid.num_buckets(); ++b) {
    const BucketCoords c = grid.Delinearize(b);
    const std::vector<double>& xb = sp.dim(0).raw_boundaries();
    const std::vector<double>& yb = sp.dim(1).raw_boundaries();
    for (int r = 0; r < 5; ++r) {
      ASSERT_TRUE(clustered
                      .Insert({value_in(xb[c[0]], xb[c[0] + 1]),
                               value_in(yb[c[1]], yb[c[1] + 1])})
                      .ok());
    }
  }
  // Capacities, (page - 40) / 16: 1, 5 (one bucket per page), 3, 7 and 9
  // (buckets straddle pages), 253.
  for (uint32_t page_size : {56u, 120u, 88u, 152u, 184u, 4096u}) {
    ExpectIndexMatchesRecordWalk(arrival, page_size);
    ExpectIndexMatchesRecordWalk(clustered, page_size);
  }
}

TEST(PageIndexTest, ThreeAttributesAndEmptyFile) {
  Schema schema = Schema::Create(
                      {{"a", 0.0, 1.0}, {"b", 0.0, 1.0}, {"c", 0.0, 1.0}})
                      .value();
  GridFile f = GridFile::Create(std::move(schema), {3, 4, 2}).value();
  const std::string empty = Serialize(f, 256);
  const PageIndex none =
      BuildPageIndex(empty, ParseGridFileHeader(empty).value()).value();
  EXPECT_TRUE(none.pages.empty());
  EXPECT_TRUE(none.page_bucket.empty());
  EXPECT_EQ(none.bucket_begin, std::vector<uint64_t>(3 * 4 * 2 + 1, 0));
  Rng rng(43);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        f.Insert({rng.NextDouble(), rng.NextDouble(), rng.NextDouble()}).ok());
  }
  for (uint32_t page_size : {80u, 104u, 200u, 232u, 1024u}) {
    ExpectIndexMatchesRecordWalk(f, page_size);
  }
}

TEST(PageIndexTest, RejectsWhatParseGridFileRejects) {
  // The oracle decoder's structural checks, in its order: header, size,
  // each page's record count and CRC, footer.
  const GridFile original = MakeFile(40, 13);
  const std::string bytes = Serialize(original, 88);
  const GridFileHeader header = ParseGridFileHeader(bytes).value();
  const auto reason = [&](const std::string& copy) {
    const Result<PageIndex> index = BuildPageIndex(copy, header);
    EXPECT_EQ(index.ok(), OracleDecodeGridFile(copy).ok());
    return index.status().message();
  };
  EXPECT_EQ(reason(bytes + "x"), "trailing garbage after final page");
  EXPECT_EQ(reason(bytes.substr(0, bytes.size() - 1)), "truncated file");
  std::string copy = bytes;
  copy[header.layout.PageOffset(2) + 20] ^= 0x04;
  EXPECT_EQ(reason(copy), "page checksum mismatch");
  copy = bytes;
  copy[header.layout.footer_offset + 2] ^= 0x04;
  EXPECT_EQ(reason(copy), "bad footer magic");
}

}  // namespace
}  // namespace griddecl
