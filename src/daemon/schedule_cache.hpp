#pragma once
// Memoization of best-known schedules, keyed by the canonical identity of
// a scheduling scenario: (canonical DAG hash, canonical machine name,
// scheduler spec). The first two come for free from dag_canonical_hash
// (docs/FORMATS.md) and MachineRegistry canonicalization (docs/MACHINES.md);
// the scheduler spec is the canonical scheduler spec string
// (src/runner/scheduler_spec.hpp) without its effort keys (budget_ms,
// iters), which are the *effort* dimension. Every option that changes a
// plan has a key in that spec table, so the canonical form fingerprints
// it; options without a key never change an iteration-capped plan or
// are caller-owned pointers (warm_start_plan, repair_delta, node_mask)
// and no part of a request's identity:
//
//   * a request whose effort is within the cached entry's is an EXACT hit:
//     the cached plan is returned as-is, no solver runs. Because every
//     scheduler is deterministic given (instance, options), an equal-effort
//     hit is bitwise-identical to what a fresh solve would produce.
//   * a request with strictly more effort is a WARM hit: the caller
//     re-solves with the cached incumbent as warm start (never worse than
//     the incumbent, by the LNS contract; an iteration-capped warm hit is
//     also solved cold, and the cheaper plan kept) and re-inserts it.
//
// Entries are LRU-evicted beyond a fixed capacity; every transition is
// counted (ScheduleCacheStats) and surfaced over the daemon's stats
// request. The cache is self-contained and socket-free so its semantics
// are unit-testable without a daemon (tests/test_schedule_cache.cpp).

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>

#include "src/runner/scheduler.hpp"
#include "src/twostage/compute_plan.hpp"

namespace mbsp::daemon {

struct ScheduleCacheKey {
  std::uint64_t dag_hash = 0;   ///< dag_canonical_hash of the instance DAG
  std::string machine;          ///< canonical machine name (Machine::name)
  std::string scheduler_spec;   ///< canonical spec without effort keys

  bool operator==(const ScheduleCacheKey&) const = default;
};

struct ScheduleCacheKeyHash {
  std::size_t operator()(const ScheduleCacheKey& key) const;
};

/// One cached incumbent: the plan, its cost, and the effort that produced
/// it (the budget dimension excluded from the key).
struct ScheduleCacheEntry {
  ComputePlan plan;
  double cost = 0;
  double baseline_cost = 0;
  double io_volume = 0;         ///< replayed verbatim on exact hits
  std::uint32_t supersteps = 0;
  double budget_ms = 0;        ///< 0 means unlimited (no wall-clock cap)
  std::int64_t max_iterations = 0;
};

struct ScheduleCacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t exact_hits = 0;
  std::uint64_t warm_hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
};

enum class CacheHit { kMiss, kExact, kWarm };

/// The budget_ms = 0 convention means "no deadline": for effort
/// comparisons it is +infinity, not the smallest budget.
double effective_budget_ms(double budget_ms);

/// Cache key of an instance under a scheduler configuration: canonical
/// DAG hash + canonical machine name + canonical_scheduler_spec(scheduler,
/// options) with the effort fields at their defaults, so default options
/// key as the bare name. Two keys that compare equal at equal effort
/// produce bitwise-identical plans. The hash equals what `corpus hash`
/// prints for the same DAG.
ScheduleCacheKey make_cache_key(std::uint64_t dag_hash, std::string machine,
                                const std::string& scheduler,
                                SchedulerOptions options);
ScheduleCacheKey make_cache_key(const MbspInstance& inst,
                                const std::string& scheduler,
                                const SchedulerOptions& options);

class ScheduleCache {
 public:
  /// Capacity is an entry count (>= 1 enforced).
  explicit ScheduleCache(std::size_t capacity);

  /// Looks `key` up and classifies the hit against the requested effort:
  /// kExact when the request's effort is within the entry's (the entry is
  /// copied to *out and refreshed in LRU order), kWarm when the entry
  /// exists but the request asks for more effort (entry copied to *out as
  /// warm-start material), kMiss otherwise. Thread-safe.
  CacheHit lookup(const ScheduleCacheKey& key, double budget_ms,
                  std::int64_t max_iterations, ScheduleCacheEntry* out);

  /// Inserts or replaces the entry for `key` (front of the LRU order),
  /// evicting the least-recently-used entry beyond capacity.
  void insert(const ScheduleCacheKey& key, ScheduleCacheEntry entry);

  ScheduleCacheStats stats() const;
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

 private:
  using LruList = std::list<std::pair<ScheduleCacheKey, ScheduleCacheEntry>>;

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  LruList lru_;  // front = most recently used
  std::unordered_map<ScheduleCacheKey, LruList::iterator,
                     ScheduleCacheKeyHash>
      index_;
  ScheduleCacheStats stats_;
};

}  // namespace mbsp::daemon
