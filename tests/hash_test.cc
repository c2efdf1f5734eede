#include "griddecl/common/hash.h"

#include <gtest/gtest.h>

namespace griddecl {
namespace {

// Fault schedules, backoff jitter, crash-env tears and placements are all
// keyed on these outputs; a change here silently re-seeds every one.
TEST(HashTest, Mix64IsTheSplitMix64Finalizer) {
  // The first two SplitMix64 outputs of the all-zero generator state.
  EXPECT_EQ(Mix64(0), 0xe220a8397b1dcdafull);
  EXPECT_EQ(Mix64(0x9e3779b97f4a7c15ull), 0x6e789e6aa1b965f4ull);
  EXPECT_EQ(Mix64(1), 0x910a2dec89025cc1ull);
}

TEST(HashTest, HashStringFoldsOneMix64PerByte) {
  EXPECT_EQ(HashString(0, ""), 0u);
  EXPECT_EQ(HashString(7, "ab"), Mix64(Mix64(7 ^ 'a') ^ 'b'));
  EXPECT_EQ(HashString(0, "rel-000001-0.gd"), 0xa7b6416e8f47da08ull);
}

}  // namespace
}  // namespace griddecl
