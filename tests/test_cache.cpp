// Tests for eviction policies and the weighted cache simulator.
#include <gtest/gtest.h>

#include "src/util/rng.hpp"
#include "tests/support/cache_sim.hpp"
#include "tests/support/eviction_policy.hpp"

namespace mbsp {
namespace {

TEST(Clairvoyant, PicksFarthestNextUse) {
  ClairvoyantPolicy policy;
  std::vector<VictimInfo> candidates{{0, 5, 0}, {1, 9, 0}, {2, 7, 0}};
  EXPECT_EQ(policy.choose_victim(candidates), 1);
}

TEST(Clairvoyant, DeadValueWins) {
  ClairvoyantPolicy policy;
  std::vector<VictimInfo> candidates{{0, 5, 0}, {1, kNoNextUse, 0}};
  EXPECT_EQ(policy.choose_victim(candidates), 1);
}

TEST(Lru, PicksLeastRecentlyActive) {
  LruPolicy policy;
  std::vector<VictimInfo> candidates{{0, 5, 10}, {1, 5, 3}, {2, 5, 7}};
  EXPECT_EQ(policy.choose_victim(candidates), 1);
}

TEST(Lru, DeadValuesFirst) {
  LruPolicy policy;
  std::vector<VictimInfo> candidates{{0, 5, 1}, {1, kNoNextUse, 99}};
  EXPECT_EQ(policy.choose_victim(candidates), 1);
}

TEST(PolicyFactory, MakesBothKinds) {
  EXPECT_EQ(make_policy(PolicyKind::kClairvoyant)->name(), "clairvoyant");
  EXPECT_EQ(make_policy(PolicyKind::kLru)->name(), "lru");
}

TEST(CacheSim, HitsAndMisses) {
  const std::vector<int> trace{0, 1, 0, 1, 2, 0};
  const std::vector<double> weight{1, 1, 1};
  ClairvoyantPolicy policy;
  const auto res = simulate_cache(trace, weight, 2, policy);
  // 0 miss, 1 miss, 0 hit, 1 hit, 2 miss (evict 1: next use never),
  // 0 hit (clairvoyant keeps 0, whose next use is sooner).
  EXPECT_EQ(res.misses, 3u);
  EXPECT_EQ(res.hits, 3u);
}

TEST(CacheSim, LruClassicPattern) {
  // Cyclic pattern of 3 items through a 2-slot LRU thrashes. Our LRU
  // additionally auto-evicts dead values first (as the paper's
  // implementation does), which saves exactly the final access: after the
  // last use of item 0 it is dropped, so the last access of 2 hits.
  const std::vector<int> trace{0, 1, 2, 0, 1, 2};
  const std::vector<double> weight{1, 1, 1};
  LruPolicy policy;
  const auto res = simulate_cache(trace, weight, 2, policy);
  EXPECT_EQ(res.misses, 5u);
}

TEST(CacheSim, ClairvoyantBeatsLruOnCycle) {
  const std::vector<int> trace{0, 1, 2, 0, 1, 2, 0, 1, 2};
  const std::vector<double> weight{1, 1, 1};
  ClairvoyantPolicy cv;
  LruPolicy lru;
  EXPECT_LT(simulate_cache(trace, weight, 2, cv).misses,
            simulate_cache(trace, weight, 2, lru).misses);
}

TEST(CacheSim, WeightedEviction) {
  // Item 2 weighs 2: inserting it into a capacity-2 cache evicts both.
  const std::vector<int> trace{0, 1, 2, 0};
  const std::vector<double> weight{1, 1, 2};
  ClairvoyantPolicy policy;
  const auto res = simulate_cache(trace, weight, 2, policy);
  EXPECT_EQ(res.misses, 4u);
  EXPECT_DOUBLE_EQ(res.loaded_weight, 5.0);
}

// Property: clairvoyant is optimal for unit weights — compare against LRU
// and FIFO-like behaviour on random traces.
TEST(CacheSim, BeladyNeverWorseThanLruRandomTraces) {
  Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<int> trace;
    const int items = 4 + static_cast<int>(rng.index(5));
    for (int i = 0; i < 60; ++i) {
      trace.push_back(static_cast<int>(rng.index(items)));
    }
    const std::vector<double> weight(items, 1.0);
    const std::size_t capacity = 2 + rng.index(3);
    ClairvoyantPolicy cv;
    LruPolicy lru;
    EXPECT_LE(simulate_cache(trace, weight, capacity, cv).misses,
              simulate_cache(trace, weight, capacity, lru).misses)
        << "trial " << trial;
  }
}

TEST(CacheSim, MinMissesOracleMatches) {
  const std::vector<int> trace{0, 1, 2, 0, 1, 2};
  EXPECT_EQ(min_misses_unit_weights(trace, 2), 4u);
  EXPECT_EQ(min_misses_unit_weights(trace, 3), 3u);
}

}  // namespace
}  // namespace mbsp
