#include "griddecl/common/crc32c.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace griddecl {
namespace {

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 test vectors for CRC32C (Castagnoli).
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0x00000000u);
  EXPECT_EQ(Crc32c(std::string(32, '\0')), 0x8A9136AAu);
  EXPECT_EQ(Crc32c(std::string(32, '\xff')), 0x62A8AB43u);
}

TEST(Crc32cTest, ChainingMatchesOneShot) {
  const std::string data =
      "the quick brown fox jumps over the lazy dog 0123456789";
  const uint32_t one_shot = Crc32c(data);
  for (size_t split = 0; split <= data.size(); ++split) {
    const uint32_t first = Crc32c(data.substr(0, split));
    EXPECT_EQ(Crc32c(data.substr(split), first), one_shot) << split;
  }
}

TEST(Crc32cTest, EveryBitFlipChangesTheSum) {
  const std::string data = "declustering";
  const uint32_t base = Crc32c(data);
  for (size_t i = 0; i < data.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string copy = data;
      copy[i] = static_cast<char>(copy[i] ^ (1 << bit));
      EXPECT_NE(Crc32c(copy), base) << "byte " << i << " bit " << bit;
    }
  }
}

TEST(Crc32cTest, AllLengthsAgreeWithBitwiseReference) {
  // Cross-check the slice-by-8 implementation against a plain bitwise
  // CRC32C over every length 0..64 (exercises all tail paths).
  auto bitwise = [](const std::string& s) {
    uint32_t crc = 0xFFFFFFFFu;
    for (char c : s) {
      crc ^= static_cast<uint8_t>(c);
      for (int k = 0; k < 8; ++k) {
        crc = (crc >> 1) ^ (0x82F63B78u & (~(crc & 1) + 1));
      }
    }
    return ~crc;
  };
  std::string data;
  for (size_t len = 0; len <= 64; ++len) {
    EXPECT_EQ(Crc32c(data), bitwise(data)) << len;
    data.push_back(static_cast<char>(len * 37 + 11));
  }
}

TEST(Crc32cTest, DispatchedKernelMatchesPortable) {
  // Crc32c runs the CPU's CRC32C instruction where it has one; it must
  // agree with the portable slice-by-8 kernel on every length (all tail
  // paths), every start alignment, and chained at any split point.
  std::vector<unsigned char> buffer(300 + 8);
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (unsigned char& b : buffer) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<unsigned char>(x);
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    const unsigned char* data = buffer.data() + offset;
    for (size_t len = 0; len <= 300; ++len) {
      const uint32_t portable = Crc32cPortable(data, len);
      ASSERT_EQ(Crc32c(data, len), portable)
          << "offset " << offset << " length " << len;
      // Chained at every split point, with a seed carried from the first
      // chunk into the second.
      for (size_t split = 0; split <= len; ++split) {
        const uint32_t head = Crc32c(data, split, 0x1234u);
        ASSERT_EQ(head, Crc32cPortable(data, split, 0x1234u));
        ASSERT_EQ(Crc32c(data + split, len - split, head),
                  Crc32cPortable(data + split, len - split, head))
            << "offset " << offset << " length " << len << " split "
            << split;
        ASSERT_EQ(Crc32c(data + split, len - split, Crc32c(data, split)),
                  portable)
            << "offset " << offset << " length " << len << " split "
            << split;
      }
    }
  }
}

}  // namespace
}  // namespace griddecl
