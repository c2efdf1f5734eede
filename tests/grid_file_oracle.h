#ifndef GRIDDECL_TESTS_GRID_FILE_ORACLE_H_
#define GRIDDECL_TESTS_GRID_FILE_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <string>
#include <string_view>
#include <utility>

#include "griddecl/gridfile/grid_file.h"
#include "griddecl/gridfile/storage.h"

namespace griddecl {

/// Test oracle: decodes a stored relation back into a `GridFile`, record by
/// record, in id order. A server never does this — it reads a stored
/// relation through its header, `BuildPageIndex` and single pages — so the
/// oracle is what round-trip tests hold the writer to, and what
/// `BuildPageIndex`'s verdict on a damaged file is checked against.
///
/// It shares the header parse and the CRC checks with the library, but
/// makes its own content checks over each decoded page: no NaN value or
/// zone-map bound, and each zone map exactly its column's min and max. So
/// "the page index accepts exactly what the oracle accepts" compares two
/// implementations of those checks, not one. It fails with
/// kInvalidArgument, in the page index's order and with its messages.
inline Result<GridFile> OracleDecodeGridFile(std::string_view bytes) {
  Result<GridFileHeader> header = ParseGridFileHeader(bytes);
  if (!header.ok()) return header.status();
  const FileLayout layout = header.value().layout;
  if (bytes.size() != layout.expected_file_size) {
    return Status::InvalidArgument(bytes.size() < layout.expected_file_size
                                       ? "truncated file"
                                       : "trailing garbage after final page");
  }
  Result<GridFile> file =
      GridFile::CreateWithPartitioner(std::move(header.value().schema),
                                      std::move(header.value().partitioner));
  if (!file.ok()) return file.status();

  const uint32_t k = layout.num_attrs;
  for (uint64_t page = 0; page < layout.num_pages; ++page) {
    const std::string_view page_bytes =
        bytes.substr(layout.PageOffset(page), layout.page_size_bytes);
    const Status verified = VerifyPageBytes(page_bytes, layout, page);
    if (!verified.ok()) return verified;
    Result<DecodedPage> decoded = DecodePageBytes(page_bytes, layout, page);
    if (!decoded.ok()) return decoded.status();
    const DecodedPage& d = decoded.value();
    bool nan = false;
    bool mismatch = false;
    for (uint32_t a = 0; a < k; ++a) {
      const double* column = d.column(a);
      double lo = column[0];
      double hi = column[0];
      for (uint32_t r = 0; r < d.num_records; ++r) {
        nan |= std::isnan(column[r]);
        lo = std::min(lo, column[r]);
        hi = std::max(hi, column[r]);
      }
      nan |= std::isnan(d.zone_min(a)) || std::isnan(d.zone_max(a));
      mismatch |= lo != d.zone_min(a) || hi != d.zone_max(a);
    }
    if (nan) {
      return Status::InvalidArgument("NaN value in page " +
                                     std::to_string(page));
    }
    if (mismatch) {
      return Status::InvalidArgument("zone map disagrees with page " +
                                     std::to_string(page));
    }
    for (uint32_t r = 0; r < d.num_records; ++r) {
      Record record(k);
      for (uint32_t a = 0; a < k; ++a) record[a] = d.column(a)[r];
      const Result<RecordId> id = file.value().Insert(std::move(record));
      if (!id.ok()) return id.status();
    }
  }

  const Status footer = VerifyFileFooter(bytes, layout);
  if (!footer.ok()) return footer;
  return file;
}

}  // namespace griddecl

#endif  // GRIDDECL_TESTS_GRID_FILE_ORACLE_H_
