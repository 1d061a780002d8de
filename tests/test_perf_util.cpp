// Unit tests for the hot-path memory-layout substrate: the page-mapped
// PageVector and the open-addressing FlatMap (epoch clears, growth,
// iteration).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/util/flat_map.hpp"
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

TEST(FlatMap, InsertFindClear) {
  FlatMap<int, int> map;
  for (int i = 0; i < 100; ++i) map.get_or_insert(i * 7, 0) = i;
  EXPECT_EQ(map.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    const int* v = map.find(i * 7);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, i);
  }
  EXPECT_EQ(map.find(3), nullptr);
  map.clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.find(0), nullptr);
  EXPECT_EQ(map.find(7), nullptr);
}

TEST(FlatMap, GetOrInsertKeepsFirstValue) {
  FlatMap<long, double> map;
  map.get_or_insert(42, 1.5);
  map.get_or_insert(42, 9.9) += 1.0;
  const double* v = map.find(42);
  ASSERT_NE(v, nullptr);
  EXPECT_DOUBLE_EQ(*v, 2.5);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMap, SurvivesManyClears) {
  FlatMap<int, int> map;
  for (int round = 0; round < 1000; ++round) {
    for (int i = 0; i < 20; ++i) map.get_or_insert(i + round, round);
    EXPECT_EQ(map.size(), 20u);
    map.clear();
  }
  EXPECT_TRUE(map.empty());
}

TEST(FlatMap, ForEachVisitsAllOnceInInsertionOrder) {
  FlatMap<int, int> map;
  std::vector<int> inserted;
  for (int i = 0; i < 200; ++i) {
    const int key = (i * 37) % 1000;
    if (map.find(key) == nullptr) inserted.push_back(key);
    map.get_or_insert(key, i);
  }
  std::vector<int> visited;
  map.for_each([&](int key, int) { visited.push_back(key); });
  EXPECT_EQ(visited, inserted);
}

TEST(FlatMap, GrowthKeepsEntries) {
  FlatMap<int, long> map;
  for (int i = 0; i < 5000; ++i) map.get_or_insert(i, i * 2L);
  EXPECT_EQ(map.size(), 5000u);
  for (int i = 0; i < 5000; ++i) {
    const long* v = map.find(i);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, i * 2L);
  }
}

}  // namespace
}  // namespace mbsp
