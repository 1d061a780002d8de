#include "src/holistic/scheduler.hpp"

#include "src/holistic/partition.hpp"
#include "src/holistic/shard.hpp"
#include "src/model/cost.hpp"

namespace mbsp {

double schedule_cost(const MbspInstance& inst, const MbspSchedule& sched,
                     CostModel cost) {
  return cost == CostModel::kSynchronous ? sync_cost(inst, sched)
                                         : async_cost(inst, sched);
}

namespace {

LnsOptions to_lns(const HolisticOptions& options, double budget_ms) {
  LnsOptions lns;
  lns.budget_ms = budget_ms;
  lns.cost = options.cost;
  lns.allow_recompute = options.allow_recompute;
  lns.seed = options.seed;
  lns.max_iterations = options.max_iterations;
  return lns;
}

}  // namespace

HolisticOutcome holistic_improve(const MbspInstance& inst,
                                 const ComputePlan& initial,
                                 const HolisticOptions& options) {
  HolisticOutcome out;
  {
    MbspSchedule warm;
    out.baseline_cost =
        evaluate_plan(inst, initial, to_lns(options, 0), &warm);
  }
  const LnsResult res =
      improve_plan(inst, initial, to_lns(options, options.budget_ms));
  out.schedule = res.schedule;
  out.plan = res.plan;
  out.cost = res.cost;
  return out;
}

HolisticOutcome holistic_schedule(const MbspInstance& inst,
                                  const HolisticOptions& options) {
  const TwoStageResult baseline = run_baseline(inst, options.warm_start);
  const double baseline_cost =
      schedule_cost(inst, baseline.mbsp, options.cost);

  if (inst.dag.num_nodes() <= options.divide_conquer_threshold) {
    HolisticOutcome out = holistic_improve(inst, baseline.plan, options);
    out.baseline_cost = baseline_cost;
    return out;
  }

  ShardResult res = shard_schedule(
      inst, recursive_acyclic_partition(inst.dag, options.max_part_size),
      divide_conquer_options(to_lns(options, options.budget_ms / 8)));
  HolisticOutcome out;
  out.baseline_cost = baseline_cost;
  out.used_divide_conquer = true;
  out.schedule = std::move(res.schedule);
  out.plan = std::move(res.plan);
  out.cost = res.cost;
  return out;
}

}  // namespace mbsp
