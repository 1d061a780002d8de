#include "src/daemon/schedule_cache.hpp"

#include <cstdio>
#include <limits>
#include <utility>

#include "src/graph/dag_io.hpp"

namespace mbsp::daemon {

namespace {

/// Shortest round-trip-safe rendering, so textually equal options always
/// fingerprint equally.
std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

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

std::string scheduler_cache_spec(const std::string& scheduler,
                                 const SchedulerOptions& options) {
  std::string spec = scheduler;
  spec += options.cost == CostModel::kSynchronous ? "|cost=sync"
                                                  : "|cost=async";
  spec += "|rec=" + std::to_string(options.allow_recompute ? 1 : 0);
  spec += "|seed=" + std::to_string(options.seed);
  spec += "|warm=" + std::to_string(static_cast<int>(options.warm_start));
  spec += "|s1=" + num(options.stage1_budget_ms);
  spec += "|cold=" + std::to_string(options.cold_start ? 1 : 0);
  spec += "|moves=" + std::to_string(options.move_mask);
  spec +=
      "|policy=" + std::to_string(static_cast<int>(options.completion_policy));
  spec += "|temp=" + num(options.initial_temperature_frac);
  spec += "|dc=" + std::to_string(options.divide_conquer_threshold);
  spec += "|part=" + std::to_string(options.max_part_size);
  spec += "|shards=" + std::to_string(options.shards);
  spec += "|cmp=" + std::to_string(options.compare_full_seed ? 1 : 0);
  spec += "|workers=" + std::to_string(options.workers);
  spec += "|epochs=" + std::to_string(options.epochs);
  spec += "|profile=" +
          std::to_string(static_cast<int>(options.portfolio_profile));
  return spec;
}

ScheduleCacheKey make_cache_key(const MbspInstance& inst,
                                const std::string& scheduler,
                                const SchedulerOptions& options) {
  return {dag_canonical_hash(inst.dag), inst.arch.name,
          scheduler_cache_spec(scheduler, options)};
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
