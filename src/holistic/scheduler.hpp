#pragma once
// Top-level holistic MBSP scheduler facade: warm-starts from the two-stage
// baseline and improves it with the LNS (small DAGs) or the
// divide-and-conquer pipeline (large DAGs), mirroring how the paper
// deploys the full ILP on the tiny dataset and the divide-and-conquer ILP
// on the small dataset.

#include "src/holistic/lns.hpp"
#include "src/twostage/two_stage.hpp"

namespace mbsp {

struct HolisticOptions {
  double budget_ms = 2000;  ///< total optimization budget
  CostModel cost = CostModel::kSynchronous;
  bool allow_recompute = true;
  std::uint64_t seed = 42;
  /// LNS iteration cap; with budget_ms = 0 this makes runs reproducible
  /// independent of wall-clock speed (see SchedulerOptions).
  long max_iterations = 2'000'000;
  /// DAGs larger than this use divide-and-conquer (the paper's full ILP
  /// "is not viable anymore" past the tiny dataset).
  int divide_conquer_threshold = 120;
  int max_part_size = 60;
  BaselineKind warm_start = BaselineKind::kGreedyClairvoyant;
};

struct HolisticOutcome {
  MbspSchedule schedule;
  ComputePlan plan;
  double cost = 0;
  double baseline_cost = 0;  ///< cost of the two-stage warm start
  bool used_divide_conquer = false;
};

/// Schedules from scratch (baseline + improvement).
HolisticOutcome holistic_schedule(const MbspInstance& inst,
                                  const HolisticOptions& options = {});

/// Improves a caller-provided initial plan (e.g. a different baseline).
HolisticOutcome holistic_improve(const MbspInstance& inst,
                                 const ComputePlan& initial,
                                 const HolisticOptions& options = {});

/// Cost of a schedule under the option's cost model.
double schedule_cost(const MbspInstance& inst, const MbspSchedule& sched,
                     CostModel cost);

}  // namespace mbsp
