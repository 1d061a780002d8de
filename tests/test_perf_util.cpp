// Unit tests for the hot-path memory-layout substrate: the bump arena
// (reuse/reset semantics, no stale-data leakage across resets), the
// page-mapped PageVector and the open-addressing FlatMap (epoch clears,
// growth, iteration).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <numeric>
#include <set>
#include <vector>

#include "src/util/arena.hpp"
#include "src/util/flat_map.hpp"
#include "src/util/page_alloc.hpp"

namespace mbsp {
namespace {

TEST(Arena, AllocationsAreDisjointAndWritable) {
  Arena arena(256);
  std::vector<int*> ptrs;
  for (int i = 0; i < 100; ++i) {
    int* p = arena.allocate_array<int>(7);
    for (int j = 0; j < 7; ++j) p[j] = i * 100 + j;
    ptrs.push_back(p);
  }
  for (int i = 0; i < 100; ++i) {
    for (int j = 0; j < 7; ++j) EXPECT_EQ(ptrs[i][j], i * 100 + j);
  }
}

TEST(Arena, ResetReusesMemoryWithoutGrowth) {
  Arena arena(1 << 12);
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 50; ++i) {
      double* p = arena.allocate_array<double>(8);
      p[0] = round + i;
    }
    arena.reset();
  }
  const std::size_t cap_after_warmup = arena.capacity_bytes();
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 50; ++i) arena.allocate_array<double>(8);
    arena.reset();
  }
  // Steady state: reset recycles the same chunks, no further growth.
  EXPECT_EQ(arena.capacity_bytes(), cap_after_warmup);
}

TEST(Arena, NoStaleDataDependenceAcrossResets) {
  // Writing distinct values each round and never reading across resets
  // must give identical results whether memory is recycled (bump mode)
  // or fresh-and-poisoned every time (paranoid mode).
  auto run = [](bool paranoid) {
    Arena arena(512);
    arena.set_paranoid(paranoid);
    long checksum = 0;
    for (int round = 0; round < 20; ++round) {
      ArenaVector<int> vec(&arena);
      for (int i = 0; i < 37 + round; ++i) vec.push_back(round * 1000 + i);
      for (std::size_t i = 0; i < vec.size(); ++i) checksum += vec[i];
      arena.reset();
    }
    return checksum;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(Arena, AlignmentRespected) {
  Arena arena(64);
  for (std::size_t align : {std::size_t{8}, std::size_t{16}, std::size_t{32}}) {
    for (int i = 0; i < 10; ++i) {
      void* p = arena.allocate(24, align);
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u);
    }
  }
}

TEST(ArenaVector, GrowPreservesContents) {
  Arena arena;
  ArenaVector<long> vec(&arena);
  for (long i = 0; i < 1000; ++i) vec.push_back(i * 3);
  ASSERT_EQ(vec.size(), 1000u);
  for (long i = 0; i < 1000; ++i) EXPECT_EQ(vec[static_cast<std::size_t>(i)], i * 3);
}

TEST(ArenaVector, AppendBulk) {
  Arena arena;
  ArenaVector<int> vec(&arena);
  std::vector<int> src(100);
  std::iota(src.begin(), src.end(), 5);
  vec.push_back(-1);
  vec.append(src.data(), src.size());
  ASSERT_EQ(vec.size(), 101u);
  EXPECT_EQ(vec[0], -1);
  EXPECT_EQ(vec[1], 5);
  EXPECT_EQ(vec[100], 104);
}

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

TEST(Arena, LargeChunksRoundTrip) {
  Arena arena;
  auto* p = arena.allocate_array<double>(kPageAllocMinBytes);
  for (std::size_t i = 0; i < kPageAllocMinBytes; i += 4096) {
    p[i] = static_cast<double>(i);
  }
  EXPECT_EQ(p[4096], 4096.0);
  EXPECT_GE(arena.capacity_bytes(), kPageAllocMinBytes * sizeof(double));
  arena.release();
  EXPECT_EQ(arena.capacity_bytes(), 0u);
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
