#pragma once
// Central registry of every MbspScheduler. The global registry comes
// pre-populated with all algorithms in the repo:
//
//   bspg+clairvoyant     main two-stage baseline (BSPg + clairvoyant)
//   bspg+lru             BSPg + LRU (policy-ablation variant)
//   cilk+lru             practical two-stage baseline
//   ilp-bsp+clairvoyant  strong two-stage baseline (refined stage 1)
//   dfs+clairvoyant      P = 1 pebbling two-stage baseline
//   lns                  holistic LNS improving a (configurable) warm start
//   lns-portfolio        K-worker parallel portfolio LNS with deterministic
//                        incumbent exchange at epoch barriers
//   holistic             registry dispatch: the lns solve up to
//                        divide_conquer_threshold nodes, the
//                        divide-conquer solve (budget / 8) above it
//   divide-conquer       divide-and-conquer, always: shard_schedule on
//                        recursive ILP parts, divide_conquer_options()
//   exact-pebbler        exact P = 1 red-blue pebbling (small DAGs)
//   ilp                  full ILP + branch-and-bound (tiny DAGs)
//   repair               online repair: patch a pre-delta incumbent onto
//                        the mutated instance + locality-masked polish
//
// Adding a scheduler is one `add(...)` call (see README.md); everything
// driving the registry — benches, suite_runner, BatchRunner — picks the
// newcomer up by name with no further changes.

#include <memory>
#include <string>
#include <vector>

#include "src/runner/scheduler.hpp"

namespace mbsp {

class SchedulerRegistry {
 public:
  /// Empty registry (tests); `global()` is the pre-populated one.
  SchedulerRegistry() = default;

  /// The process-wide registry with every built-in scheduler registered.
  /// Register custom schedulers before starting batch runs; lookups are
  /// not synchronized against concurrent registration.
  static SchedulerRegistry& global();

  /// Registers `scheduler` under its name(); replaces any previous holder
  /// of that name.
  void add(std::unique_ptr<MbspScheduler> scheduler);

  /// Whether a scheduler of that exact name is registered (read-only,
  /// thread-safe after registration).
  bool contains(const std::string& name) const;

  /// Looks a scheduler up by name; nullptr when absent. The returned
  /// scheduler is stateless: run() is const, thread-safe, and
  /// deterministic given (instance, options) under iteration-capped
  /// budgets — except "divide-conquer", and "holistic" above its
  /// threshold: their recursive bipartition stops its branch-and-bound
  /// on a wall-clock limit (BipartitionOptions::ilp_budget_ms).
  const MbspScheduler* find(const std::string& name) const;

  /// Like find(), but throws std::out_of_range naming the missing
  /// scheduler (the CLI-facing lookup).
  const MbspScheduler& at(const std::string& name) const;

  /// All registered names, sorted (a deterministic listing regardless of
  /// registration order).
  std::vector<std::string> names() const;

  std::size_t size() const { return schedulers_.size(); }

 private:
  std::vector<std::unique_ptr<MbspScheduler>> schedulers_;
};

/// Registers the built-in schedulers listed above into `registry` (what
/// `global()` does on first use; exposed for registry-local tests).
void register_builtin_schedulers(SchedulerRegistry& registry);

/// The trivial cold-start plan: every non-source node on processor 0 in one
/// superstep, topological order (the LNS ablation's cold start). Pure
/// function of the instance.
ComputePlan trivial_plan(const MbspInstance& inst);

}  // namespace mbsp
