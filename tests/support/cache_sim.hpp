#pragma once
// Stand-alone weighted cache simulator over an access trace. Used to unit
// test the eviction policies in isolation (miss counts, Bélády optimality
// on uniform weights) independently of the scheduling machinery.

#include <vector>

#include "tests/support/eviction_policy.hpp"

namespace mbsp {

struct CacheSimResult {
  std::size_t hits = 0;
  std::size_t misses = 0;
  double loaded_weight = 0;  ///< total weight brought in on misses
};

/// Simulates accesses `trace[i]` (item ids) against a cache of capacity
/// `capacity` with per-item weights `weight`. On a miss the item is
/// inserted, evicting policy-chosen victims while over capacity.
CacheSimResult simulate_cache(const std::vector<int>& trace,
                              const std::vector<double>& weight,
                              double capacity, const EvictionPolicy& policy);

/// Minimum possible miss count for unit weights and integer capacity
/// (Bélády's algorithm, used as the test oracle).
std::size_t min_misses_unit_weights(const std::vector<int>& trace,
                                    std::size_t capacity);

}  // namespace mbsp
