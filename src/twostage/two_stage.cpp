#include "src/twostage/two_stage.hpp"

#include <cassert>
#include <stdexcept>

#include "src/bsp/cilk_scheduler.hpp"
#include "src/bsp/dfs_scheduler.hpp"
#include "src/bsp/greedy_scheduler.hpp"
#include "src/bsp/refined_scheduler.hpp"
#include "src/twostage/memory_completion.hpp"

namespace mbsp {

namespace {

/// Stage 1: the BSP schedule and its plan, both validated.
TwoStageResult stage_one(const MbspInstance& inst, BspScheduler& stage1) {
  TwoStageResult out;
  out.bsp = stage1.schedule(inst.dag, inst.arch);
  const BspValidation bsp_ok =
      validate_bsp(inst.dag, inst.arch.num_processors, out.bsp);
  if (!bsp_ok) {
    throw std::logic_error("stage-1 scheduler produced an invalid BSP "
                           "schedule: " + bsp_ok.error);
  }
  out.plan = plan_from_bsp(inst.dag, out.bsp, inst.arch.num_processors);
  const PlanValidation plan_ok = validate_plan(inst.dag, out.plan);
  if (!plan_ok) {
    throw std::logic_error("BSP-derived compute plan invalid: " +
                           plan_ok.error);
  }
  return out;
}

/// The stage-1 scheduler of a named baseline.
std::unique_ptr<BspScheduler> make_stage1(BaselineKind kind,
                                          double stage1_budget_ms) {
  switch (kind) {
    case BaselineKind::kGreedyClairvoyant:
      return std::make_unique<GreedyBspScheduler>();
    case BaselineKind::kCilkLru:
      return std::make_unique<CilkScheduler>();
    case BaselineKind::kRefinedClairvoyant: {
      RefinedBspScheduler::Params params;
      params.budget_ms = stage1_budget_ms;
      return std::make_unique<RefinedBspScheduler>(params);
    }
    case BaselineKind::kDfsClairvoyant:
      return std::make_unique<DfsScheduler>();
  }
  throw std::logic_error("unknown baseline kind");
}

/// The eviction policy of a named baseline's stage 2.
PolicyKind baseline_policy(BaselineKind kind) {
  return kind == BaselineKind::kCilkLru ? PolicyKind::kLru
                                        : PolicyKind::kClairvoyant;
}

}  // namespace

TwoStageResult two_stage_schedule(const MbspInstance& inst,
                                  BspScheduler& stage1, PolicyKind stage2) {
  TwoStageResult out = stage_one(inst, stage1);
  out.mbsp = complete_memory(inst, out.plan, stage2);
  return out;
}

TwoStageResult run_baseline(const MbspInstance& inst, BaselineKind kind,
                            double stage1_budget_ms) {
  return two_stage_schedule(inst, *make_stage1(kind, stage1_budget_ms),
                            baseline_policy(kind));
}

ComputePlan baseline_plan(const MbspInstance& inst, BaselineKind kind,
                          double stage1_budget_ms) {
  return stage_one(inst, *make_stage1(kind, stage1_budget_ms)).plan;
}

std::string baseline_name(BaselineKind kind) {
  switch (kind) {
    case BaselineKind::kGreedyClairvoyant: return "bspg+clairvoyant";
    case BaselineKind::kCilkLru: return "cilk+lru";
    case BaselineKind::kRefinedClairvoyant: return "ilp-bsp+clairvoyant";
    case BaselineKind::kDfsClairvoyant: return "dfs+clairvoyant";
  }
  return "?";
}

}  // namespace mbsp
