#include <cstring>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "griddecl/common/random.h"
#include "griddecl/gridfile/storage.h"
#include "griddecl/methods/registry.h"
#include "griddecl/methods/table_method.h"
#include "griddecl/query/generator.h"
#include "griddecl/query/trace.h"
#include "grid_file_oracle.h"
#include "page_reseal.h"

namespace griddecl {
namespace {

/// Deterministic mutation fuzzing of the three persistence formats: every
/// parser must either reject mutated input with a Status or parse it into
/// a fully valid object — never crash, never return out-of-contract data.

std::string MutateBytes(const std::string& input, Rng* rng) {
  std::string out = input;
  const int kind = static_cast<int>(rng->NextBelow(3));
  if (out.empty()) return out;
  switch (kind) {
    case 0: {  // Flip a byte.
      const size_t pos = static_cast<size_t>(rng->NextBelow(out.size()));
      out[pos] = static_cast<char>(rng->NextBelow(256));
      break;
    }
    case 1: {  // Truncate.
      out.resize(static_cast<size_t>(rng->NextBelow(out.size())));
      break;
    }
    default: {  // Duplicate a chunk.
      const size_t pos = static_cast<size_t>(rng->NextBelow(out.size()));
      out.insert(pos, out.substr(pos, 16));
      break;
    }
  }
  return out;
}

/// The serve load (`ParseGridFileHeader` + `BuildPageIndex`) accepts
/// exactly the files the test oracle (`OracleDecodeGridFile`) accepts; an
/// accepted index names only real buckets and pages.
void ExpectIndexAcceptsExactlyWhenParsed(const std::string& bytes,
                                         bool parsed) {
  const Result<GridFileHeader> header = ParseGridFileHeader(bytes);
  if (!header.ok()) {
    EXPECT_FALSE(parsed) << header.status().ToString();
    return;
  }
  const Result<PageIndex> index = BuildPageIndex(bytes, header.value());
  ASSERT_EQ(index.ok(), parsed) << index.status().ToString();
  if (!index.ok()) return;
  const uint64_t num_buckets = header.value().partitioner.grid().num_buckets();
  const uint64_t num_pages = header.value().layout.num_pages;
  ASSERT_EQ(index.value().bucket_begin.size(), num_buckets + 1);
  EXPECT_EQ(index.value().page_bucket.size(), num_pages);
  for (uint64_t page : index.value().pages) EXPECT_LT(page, num_pages);
  for (uint64_t b : index.value().page_bucket) {
    EXPECT_TRUE(b == PageIndex::kMixedPage || b < num_buckets);
  }
}

TEST(FormatFuzzTest, AllocationParserNeverCrashes) {
  const GridSpec grid = GridSpec::Create({8, 8}).value();
  const auto method = CreateMethod("hcam", grid, 4).value();
  std::stringstream canonical;
  ASSERT_TRUE(SerializeAllocation(*method, canonical).ok());
  const std::string bytes = canonical.str();

  Rng rng(1);
  int parsed_ok = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::stringstream in(MutateBytes(bytes, &rng));
    const auto result = DeserializeAllocation(in);
    if (result.ok()) {
      ++parsed_ok;
      // If it parses, the object must be internally consistent.
      const auto& m = *result.value();
      m.grid().ForEachBucket([&](const BucketCoords& c) {
        EXPECT_LT(m.DiskOf(c), m.num_disks());
      });
    }
  }
  // Most mutations must be rejected (sanity that the parser validates).
  EXPECT_LT(parsed_ok, 200);
}

TEST(FormatFuzzTest, TraceParserNeverCrashes) {
  const GridSpec grid = GridSpec::Create({16, 16}).value();
  QueryGenerator gen(grid);
  Rng wl_rng(2);
  const Workload w =
      gen.SampledPlacements({3, 3}, 20, &wl_rng, "fuzz").value();
  std::stringstream canonical;
  ASSERT_TRUE(SerializeWorkload(grid, w, canonical).ok());
  const std::string bytes = canonical.str();

  Rng rng(3);
  for (int trial = 0; trial < 400; ++trial) {
    std::stringstream in(MutateBytes(bytes, &rng));
    const auto result = DeserializeWorkload(in);
    if (result.ok()) {
      for (const RangeQuery& q : result.value().workload.queries) {
        EXPECT_TRUE(q.rect().WithinGrid(result.value().grid));
      }
    }
  }
}

TEST(FormatFuzzTest, GridFileLoaderNeverCrashes) {
  Schema schema = Schema::Create({{"x", 0.0, 1.0}, {"y", 0.0, 1.0}}).value();
  GridFile file = GridFile::Create(std::move(schema), {4, 4}).value();
  Rng data_rng(4);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(file.Insert({data_rng.NextDouble(), data_rng.NextDouble()})
                    .ok());
  }
  SaveOptions options;
  options.page_size_bytes = 64;
  const std::string bytes = SerializeGridFile(file, options).value();

  Rng rng(5);
  for (int trial = 0; trial < 400; ++trial) {
    const std::string mutant = MutateBytes(bytes, &rng);
    const auto result = OracleDecodeGridFile(mutant);
    ExpectIndexAcceptsExactlyWhenParsed(mutant, result.ok());
    if (result.ok()) {
      // Internally consistent: every record lands in a real bucket.
      const GridFile& f = result.value();
      for (RecordId id = 0; id < f.num_records(); ++id) {
        EXPECT_TRUE(f.grid().Contains(f.BucketOfRecord(id)));
      }
    }
  }
}

std::string SerializeSmallGridFile() {
  Schema schema = Schema::Create({{"x", 0.0, 1.0}, {"y", 0.0, 1.0}}).value();
  GridFile file = GridFile::Create(std::move(schema), {4, 4}).value();
  Rng rng(7);
  for (int i = 0; i < 25; ++i) {
    EXPECT_TRUE(file.Insert({rng.NextDouble(), rng.NextDouble()}).ok());
  }
  SaveOptions options;
  options.page_size_bytes = 64;
  return SerializeGridFile(file, options).value();
}

TEST(FormatFuzzTest, SystematicHeaderByteSweep) {
  // Every single-byte mutation over the entire header region, several
  // XOR masks: no crash, no sanitizer report, and (the header carries a
  // CRC) every mutation rejected outright.
  const std::string bytes = SerializeSmallGridFile();
  const FileLayout layout = ParseFileLayout(bytes).value();
  for (size_t pos = 0; pos < layout.header_bytes; ++pos) {
    for (uint8_t mask : {0x01, 0x80, 0xFF}) {
      std::string copy = bytes;
      copy[pos] = static_cast<char>(copy[pos] ^ mask);
      EXPECT_FALSE(OracleDecodeGridFile(copy).ok())
          << "header mutation accepted at byte " << pos;
      EXPECT_FALSE(ParseGridFileHeader(copy).ok())
          << "header mutation accepted at byte " << pos;
    }
  }
}

TEST(FormatFuzzTest, TruncationAtEveryByteBoundary) {
  // A load of any proper prefix must fail cleanly (the only valid size is
  // the exact one).
  const std::string bytes = SerializeSmallGridFile();
  for (size_t len = 0; len < bytes.size(); ++len) {
    ExpectIndexAcceptsExactlyWhenParsed(bytes.substr(0, len), false);
    EXPECT_FALSE(OracleDecodeGridFile(bytes.substr(0, len)).ok()) << "len=" << len;
  }
}

TEST(FormatFuzzTest, PageIndexAgreesWithParserOnResealedMutants) {
  // Page mutations whose CRC and footer are recomputed reach past the
  // checksums into the loaders' content checks: random bytes, and
  // NaN / infinity written over a value or zone-map slot. The index
  // builder must accept exactly when the oracle does, and never crash.
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                             -std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()};
  Rng rng(8);
  int accepted = 0;
  int rejected = 0;
  const std::string bytes = SerializeSmallGridFile();
  const FileLayout layout = ParseFileLayout(bytes).value();
  for (int trial = 0; trial < 600; ++trial) {
    std::string copy = bytes;
    const uint64_t page = rng.NextBelow(layout.num_pages);
    // Past the record count and CRC: the count has its own check.
    const uint64_t body = layout.PageOffset(page) + 8;
    const uint64_t slots = (layout.page_size_bytes - 8) / 8;
    if (rng.NextBelow(2) == 0) {
      const size_t pos = static_cast<size_t>(
          body + rng.NextBelow(layout.page_size_bytes - 8));
      copy[pos] = static_cast<char>(rng.NextBelow(256));
    } else {
      const double v = specials[rng.NextBelow(std::size(specials))];
      std::memcpy(copy.data() + body + 8 * rng.NextBelow(slots), &v, 8);
    }
    ResealPage(&copy, layout, page);
    const bool parsed = OracleDecodeGridFile(copy).ok();
    ExpectIndexAcceptsExactlyWhenParsed(copy, parsed);
    (parsed ? accepted : rejected)++;
  }
  // Both outcomes are exercised.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST(FormatFuzzTest, RoundTripSurvivesParseableMutants) {
  // Any allocation accepted by the parser must itself round trip.
  const GridSpec grid = GridSpec::Create({4, 4}).value();
  const auto method = CreateMethod("dm", grid, 3).value();
  std::stringstream canonical;
  ASSERT_TRUE(SerializeAllocation(*method, canonical).ok());
  const std::string bytes = canonical.str();
  Rng rng(6);
  for (int trial = 0; trial < 200; ++trial) {
    std::stringstream in(MutateBytes(bytes, &rng));
    const auto first = DeserializeAllocation(in);
    if (!first.ok()) continue;
    std::stringstream again;
    ASSERT_TRUE(SerializeAllocation(*first.value(), again).ok());
    const auto second = DeserializeAllocation(again);
    ASSERT_TRUE(second.ok());
    first.value()->grid().ForEachBucket([&](const BucketCoords& c) {
      EXPECT_EQ(first.value()->DiskOf(c), second.value()->DiskOf(c));
    });
  }
}

}  // namespace
}  // namespace griddecl
