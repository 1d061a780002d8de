// Socket-free unit tests for the daemon's ScheduleCache: key
// canonicalization (the key's DAG hash is dag_canonical_hash, i.e. what
// `corpus hash` prints; the machine component is the registry-canonical
// name), the effort semantics of exact vs warm hits under the
// budget_ms = 0 == unlimited convention, LRU capacity accounting, and the
// stats counters surfaced over the daemon's stats request.
#include <gtest/gtest.h>

#include <cmath>

#include "src/daemon/protocol.hpp"
#include "src/daemon/schedule_cache.hpp"
#include "src/graph/dag_io.hpp"
#include "src/model/machine_registry.hpp"
#include "src/workload/workload_registry.hpp"

namespace mbsp::daemon {
namespace {

MbspInstance test_instance(const std::string& machine_spec = "uniform:P=4") {
  std::string error;
  auto dag = WorkloadRegistry::global().make_dag("fft:n=16", 7, &error);
  EXPECT_TRUE(dag) << error;
  auto machine = MachineRegistry::global().make_machine(
      machine_spec, min_memory_r0(*dag), &error);
  EXPECT_TRUE(machine) << error;
  return {std::move(*dag), std::move(*machine)};
}

ScheduleCacheEntry entry_with_effort(double budget_ms,
                                     std::int64_t max_iterations,
                                     double cost = 100) {
  ScheduleCacheEntry entry;
  entry.cost = cost;
  entry.budget_ms = budget_ms;
  entry.max_iterations = max_iterations;
  return entry;
}

TEST(ScheduleCacheKey, DagComponentIsTheCanonicalHash) {
  const MbspInstance inst = test_instance();
  const ScheduleCacheKey key = make_cache_key(inst, "lns", SchedulerOptions{});
  EXPECT_EQ(key.dag_hash, dag_canonical_hash(inst.dag));
}

TEST(ScheduleCacheKey, MachineComponentIsTheCanonicalName) {
  // "uniform:P=4" spells out the default P, so it canonicalizes to plain
  // "uniform": both spellings must produce the same key.
  const MbspInstance spelled = test_instance("uniform:P=4");
  const MbspInstance defaulted = test_instance("uniform");
  const SchedulerOptions options;
  EXPECT_EQ(make_cache_key(spelled, "lns", options),
            make_cache_key(defaulted, "lns", options));
  EXPECT_EQ(spelled.arch.name, make_cache_key(spelled, "lns", options).machine);
}

TEST(ScheduleCacheKey, SpecExcludesBudgetFields) {
  SchedulerOptions cheap;
  cheap.budget_ms = 10;
  cheap.max_iterations = 100;
  SchedulerOptions expensive;
  expensive.budget_ms = 0;
  expensive.max_iterations = 2'000'000;
  // Budget is the effort dimension, not part of the identity: the same
  // scenario at different effort must map to the same entry.
  EXPECT_EQ(scheduler_cache_spec("lns", cheap),
            scheduler_cache_spec("lns", expensive));
}

TEST(ScheduleCacheKey, SpecSeparatesPlanAffectingOptions) {
  const SchedulerOptions base;
  const std::string reference = scheduler_cache_spec("lns", base);

  EXPECT_NE(scheduler_cache_spec("lns-portfolio", base), reference);

  SchedulerOptions other = base;
  other.seed = base.seed + 1;
  EXPECT_NE(scheduler_cache_spec("lns", other), reference);

  other = base;
  other.cost = CostModel::kAsynchronous;
  EXPECT_NE(scheduler_cache_spec("lns", other), reference);

  other = base;
  other.move_mask = 1;
  EXPECT_NE(scheduler_cache_spec("lns", other), reference);

  other = base;
  other.cold_start = true;
  EXPECT_NE(scheduler_cache_spec("lns", other), reference);

  other = base;
  other.initial_temperature_frac = base.initial_temperature_frac * 2;
  EXPECT_NE(scheduler_cache_spec("lns", other), reference);
}

TEST(ScheduleCacheEffort, BudgetZeroMeansUnlimited) {
  EXPECT_TRUE(std::isinf(effective_budget_ms(0)));
  EXPECT_EQ(effective_budget_ms(250), 250);
  EXPECT_LT(effective_budget_ms(1e12), effective_budget_ms(0));
}

TEST(ScheduleCache, MissInsertThenHitClassification) {
  ScheduleCache cache(4);
  const ScheduleCacheKey key{1, "uniform", "lns|..."};
  ScheduleCacheEntry out;

  EXPECT_EQ(cache.lookup(key, 0, 1000, &out), CacheHit::kMiss);
  cache.insert(key, entry_with_effort(/*budget_ms=*/0, /*max_iterations=*/1000,
                                      /*cost=*/42));

  // Less or equal effort: exact. More iterations: warm. A finite budget is
  // always within an unlimited (budget 0) cached entry.
  EXPECT_EQ(cache.lookup(key, 0, 500, &out), CacheHit::kExact);
  EXPECT_EQ(out.cost, 42);
  EXPECT_EQ(cache.lookup(key, 0, 1000, &out), CacheHit::kExact);
  EXPECT_EQ(cache.lookup(key, 9999, 1000, &out), CacheHit::kExact);
  EXPECT_EQ(cache.lookup(key, 0, 2000, &out), CacheHit::kWarm);
  EXPECT_EQ(out.cost, 42) << "warm hits hand back the incumbent";

  // Cached under a finite budget: an unlimited request asks for more.
  const ScheduleCacheKey finite_key{2, "uniform", "lns|..."};
  cache.insert(finite_key, entry_with_effort(100, 1000));
  EXPECT_EQ(cache.lookup(finite_key, 50, 1000, &out), CacheHit::kExact);
  EXPECT_EQ(cache.lookup(finite_key, 0, 1000, &out), CacheHit::kWarm);
  EXPECT_EQ(cache.lookup(finite_key, 200, 1000, &out), CacheHit::kWarm);
}

TEST(ScheduleCache, LruEvictionOrderAndRefresh) {
  ScheduleCache cache(2);
  const ScheduleCacheKey a{1, "m", "s"}, b{2, "m", "s"}, c{3, "m", "s"};
  ScheduleCacheEntry out;

  cache.insert(a, entry_with_effort(0, 100, 1));
  cache.insert(b, entry_with_effort(0, 100, 2));
  EXPECT_EQ(cache.size(), 2u);

  // Touch `a`, making `b` the LRU entry; inserting `c` must evict `b`.
  EXPECT_EQ(cache.lookup(a, 0, 100, &out), CacheHit::kExact);
  cache.insert(c, entry_with_effort(0, 100, 3));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.lookup(b, 0, 100, &out), CacheHit::kMiss);
  EXPECT_EQ(cache.lookup(a, 0, 100, &out), CacheHit::kExact);
  EXPECT_EQ(cache.lookup(c, 0, 100, &out), CacheHit::kExact);

  const ScheduleCacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.evictions, 1u);
}

TEST(ScheduleCache, ReinsertReplacesWithoutEviction) {
  ScheduleCache cache(2);
  const ScheduleCacheKey key{1, "m", "s"};
  ScheduleCacheEntry out;

  cache.insert(key, entry_with_effort(0, 100, 1));
  cache.insert(key, entry_with_effort(0, 200, 2));  // warm re-insert path
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.lookup(key, 0, 150, &out), CacheHit::kExact)
      << "the replacement carries the enlarged effort";
  EXPECT_EQ(out.cost, 2);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(ScheduleCache, StatsCountEveryTransition) {
  ScheduleCache cache(1);
  const ScheduleCacheKey a{1, "m", "s"}, b{2, "m", "s"};
  ScheduleCacheEntry out;

  EXPECT_EQ(cache.lookup(a, 0, 100, &out), CacheHit::kMiss);
  cache.insert(a, entry_with_effort(0, 100));
  EXPECT_EQ(cache.lookup(a, 0, 100, &out), CacheHit::kExact);
  EXPECT_EQ(cache.lookup(a, 0, 200, &out), CacheHit::kWarm);
  cache.insert(b, entry_with_effort(0, 100));  // evicts a (capacity 1)
  EXPECT_EQ(cache.lookup(a, 0, 100, &out), CacheHit::kMiss);

  const ScheduleCacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, 4u);
  EXPECT_EQ(stats.exact_hits, 1u);
  EXPECT_EQ(stats.warm_hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.insertions, 2u);
  EXPECT_EQ(stats.evictions, 1u);
}

TEST(ScheduleCache, ZeroCapacityIsClampedToOne) {
  ScheduleCache cache(0);
  EXPECT_EQ(cache.capacity(), 1u);
  cache.insert({1, "m", "s"}, entry_with_effort(0, 100));
  EXPECT_EQ(cache.size(), 1u);
}

}  // namespace
}  // namespace mbsp::daemon
