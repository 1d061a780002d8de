#include "tests/support/cache_sim.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>

namespace mbsp {

CacheSimResult simulate_cache(const std::vector<int>& trace,
                              const std::vector<double>& weight,
                              double capacity, const EvictionPolicy& policy) {
  CacheSimResult result;
  // next_use_at[i] = position of the next access of trace[i] after i.
  std::vector<std::int64_t> next_use_at(trace.size());
  {
    std::map<int, std::int64_t> upcoming;
    for (std::int64_t i = static_cast<std::int64_t>(trace.size()) - 1; i >= 0;
         --i) {
      const auto it = upcoming.find(trace[i]);
      next_use_at[i] = it == upcoming.end() ? kNoNextUse : it->second;
      upcoming[trace[i]] = i;
    }
  }
  std::set<int> cache;
  std::map<int, std::int64_t> next_use, last_active;
  double used = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const int item = trace[i];
    last_active[item] = static_cast<std::int64_t>(i);
    next_use[item] = next_use_at[i];
    if (cache.count(item)) {
      ++result.hits;
      continue;
    }
    ++result.misses;
    result.loaded_weight += weight[item];
    while (used + weight[item] > capacity && !cache.empty()) {
      std::vector<VictimInfo> candidates;
      candidates.reserve(cache.size());
      for (int in_cache : cache) {
        candidates.push_back(
            {in_cache, next_use[in_cache], last_active[in_cache]});
      }
      const NodeId victim = policy.choose_victim(candidates);
      cache.erase(static_cast<int>(victim));
      used -= weight[victim];
    }
    assert(used + weight[item] <= capacity + 1e-9 && "item larger than cache");
    cache.insert(item);
    used += weight[item];
  }
  return result;
}

std::size_t min_misses_unit_weights(const std::vector<int>& trace,
                                    std::size_t capacity) {
  // Bélády is optimal for unit weights; reuse the simulator.
  int max_item = 0;
  for (int item : trace) max_item = std::max(max_item, item);
  const std::vector<double> weights(static_cast<std::size_t>(max_item) + 1,
                                    1.0);
  const ClairvoyantPolicy policy;
  return simulate_cache(trace, weights, static_cast<double>(capacity), policy)
      .misses;
}

}  // namespace mbsp
