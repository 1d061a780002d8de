#pragma once
// The two-stage baseline of Section 4: a memory-oblivious BSP scheduler
// (stage 1) followed by memory completion under an eviction policy
// (stage 2). The paper's main baseline is GreedyBspScheduler + clairvoyant;
// the "practical" baseline is CilkScheduler + LRU; the strong baseline is
// RefinedBspScheduler + clairvoyant.

#include <memory>
#include <string>

#include "src/bsp/bsp_schedule.hpp"
#include "src/cache/policy.hpp"
#include "src/model/schedule.hpp"
#include "src/twostage/compute_plan.hpp"

namespace mbsp {

struct TwoStageResult {
  BspSchedule bsp;      ///< stage-1 schedule
  ComputePlan plan;     ///< plan derived from it
  MbspSchedule mbsp;    ///< completed MBSP schedule
};

/// Runs both stages. The BSP schedule is validated in between; the
/// resulting MBSP schedule is valid by construction (tests re-check).
TwoStageResult two_stage_schedule(const MbspInstance& inst,
                                  BspScheduler& stage1, PolicyKind stage2);

/// Convenience for the paper's three named baselines.
enum class BaselineKind {
  kGreedyClairvoyant,  ///< main baseline: BSPg + clairvoyant
  kCilkLru,            ///< practical baseline: Cilk + LRU
  kRefinedClairvoyant, ///< strong baseline: "ILP-BSP" + clairvoyant
  kDfsClairvoyant,     ///< P=1 pebbling baseline: DFS + clairvoyant
};

TwoStageResult run_baseline(const MbspInstance& inst, BaselineKind kind,
                            double stage1_budget_ms = 300);

/// Stage 1 of run_baseline only: the same validated plan, not completed.
/// For callers that complete it under another policy, or never.
ComputePlan baseline_plan(const MbspInstance& inst, BaselineKind kind,
                          double stage1_budget_ms = 300);

std::string baseline_name(BaselineKind kind);

}  // namespace mbsp
