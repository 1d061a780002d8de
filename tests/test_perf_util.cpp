// Unit tests for the hot-path memory-layout substrate: the page-mapped
// PageVector.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/util/page_alloc.hpp"

namespace mbsp {
namespace {

TEST(PageVector, GrowsAcrossTheMappingThresholdKeepingContents) {
  PageVector<std::int64_t> vec;
  const std::size_t count = 4 * kPageAllocMinBytes / sizeof(std::int64_t);
  for (std::size_t i = 0; i < count; ++i) {
    vec.push_back(static_cast<std::int64_t>(i) * 7);
  }
  for (std::size_t i = 0; i < count; ++i) {
    ASSERT_EQ(vec[i], static_cast<std::int64_t>(i) * 7);
  }
  // A block of at least the threshold is mapped: page-aligned and zeroed.
  PageVector<char> big(kPageAllocMinBytes);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(big.data()) % 4096, 0u);
  vec.assign(3, -1);
  vec.shrink_to_fit();
  EXPECT_EQ(vec, (PageVector<std::int64_t>{-1, -1, -1}));
}

}  // namespace
}  // namespace mbsp
