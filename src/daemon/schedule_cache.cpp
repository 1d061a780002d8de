#include "src/daemon/schedule_cache.hpp"

#include <limits>
#include <utility>

#include "src/graph/dag_io.hpp"
#include "src/runner/scheduler_spec.hpp"

namespace mbsp::daemon {

std::size_t ScheduleCacheKeyHash::operator()(
    const ScheduleCacheKey& key) const {
  std::uint64_t h = key.dag_hash;
  h = fnv1a_64(key.machine.data(), key.machine.size(), h ^ kFnvOffset);
  h = fnv1a_64(key.scheduler_spec.data(), key.scheduler_spec.size(), h);
  return static_cast<std::size_t>(h);
}

double effective_budget_ms(double budget_ms) {
  return budget_ms == 0 ? std::numeric_limits<double>::infinity() : budget_ms;
}

ScheduleCacheKey make_cache_key(std::uint64_t dag_hash, std::string machine,
                                const std::string& scheduler,
                                SchedulerOptions options) {
  options.budget_ms = SchedulerOptions{}.budget_ms;  // effort is no identity
  options.max_iterations = SchedulerOptions{}.max_iterations;
  return {dag_hash, std::move(machine),
          canonical_scheduler_spec(scheduler, options)};
}

ScheduleCacheKey make_cache_key(const MbspInstance& inst,
                                const std::string& scheduler,
                                const SchedulerOptions& options) {
  return make_cache_key(dag_canonical_hash(inst.dag), inst.arch.name,
                        scheduler, options);
}

ScheduleCache::ScheduleCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

CacheHit ScheduleCache::lookup(const ScheduleCacheKey& key, double budget_ms,
                               std::int64_t max_iterations,
                               ScheduleCacheEntry* out) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.lookups;
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return CacheHit::kMiss;
  }
  const ScheduleCacheEntry& entry = it->second->second;
  const bool within =
      effective_budget_ms(budget_ms) <=
          effective_budget_ms(entry.budget_ms) &&
      max_iterations <= entry.max_iterations;
  if (out != nullptr) *out = entry;
  if (within) {
    ++stats_.exact_hits;
    lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
    return CacheHit::kExact;
  }
  ++stats_.warm_hits;
  return CacheHit::kWarm;
}

void ScheduleCache::insert(const ScheduleCacheKey& key,
                           ScheduleCacheEntry entry) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.insertions;
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = std::move(entry);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, std::move(entry));
  index_.emplace(key, lru_.begin());
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

ScheduleCacheStats ScheduleCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t ScheduleCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

}  // namespace mbsp::daemon
