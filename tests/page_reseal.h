#ifndef GRIDDECL_TESTS_PAGE_RESEAL_H_
#define GRIDDECL_TESTS_PAGE_RESEAL_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "griddecl/common/crc32c.h"
#include "griddecl/gridfile/storage.h"

namespace griddecl {

/// Recomputes page `page`'s CRC and the footer of `bytes` after a test
/// patched that page, so the damage passes every checksum and only the
/// loaders' content checks can catch it.
inline void ResealPage(std::string* bytes, const FileLayout& layout,
                       uint64_t page) {
  const uint64_t off = layout.PageOffset(page);
  std::memset(bytes->data() + off + 4, 0, 4);
  const uint32_t crc =
      Crc32c(std::string_view(*bytes).substr(off, layout.page_size_bytes));
  std::memcpy(bytes->data() + off + 4, &crc, 4);
  const std::string footer = BuildFileFooter(
      layout, std::string_view(*bytes).substr(0, layout.footer_offset));
  bytes->replace(layout.footer_offset, footer.size(), footer);
}

}  // namespace griddecl

#endif  // GRIDDECL_TESTS_PAGE_RESEAL_H_
