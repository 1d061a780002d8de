#pragma once
// Shared test assertion: the library's memory completion against the
// reference completer of tests/support/, op for op and cost for cost.
#include <gtest/gtest.h>

#include <string>

#include "src/holistic/incremental_eval.hpp"
#include "src/holistic/lns.hpp"
#include "src/twostage/memory_completion.hpp"
#include "tests/support/reference_completion.hpp"
#include "tests/support/reference_lns.hpp"

namespace mbsp {

/// The library's completion against the reference completer on one plan,
/// both policies and both cost models: the same schedule and the same
/// cost, bitwise, from complete_memory, from evaluate_plan and from an
/// IncrementalEvaluator attached to the plan as given. Returns the
/// attaching evaluators' summed planner counters.
inline IncrementalEvaluator::PlannerCounters expect_matches_reference(
    const MbspInstance& inst, const ComputePlan& plan,
    const std::string& label) {
  IncrementalEvaluator::PlannerCounters total;
  for (PolicyKind policy : {PolicyKind::kClairvoyant, PolicyKind::kLru}) {
    const MbspSchedule reference =
        complete_memory(inst, plan, *make_policy(policy));
    EXPECT_TRUE(complete_memory(inst, plan, policy) == reference) << label;
    for (CostModel cost : {CostModel::kSynchronous, CostModel::kAsynchronous}) {
      LnsOptions options;
      options.completion_policy = policy;
      options.cost = cost;
      const std::string config = label + " policy " +
                                 std::to_string(static_cast<int>(policy)) +
                                 " cost " +
                                 std::to_string(static_cast<int>(cost));
      const double expected = reference_evaluate_plan(inst, plan, options);
      MbspSchedule sched;
      EXPECT_EQ(evaluate_plan(inst, plan, options, &sched), expected) << config;
      EXPECT_TRUE(sched == reference) << config;
      CompletionLog log;
      IncrementalEvaluator eval(inst, options);
      EXPECT_EQ(eval.attach(plan, &log), expected) << config << " (attach)";
      EXPECT_TRUE(log.to_schedule() == reference) << config << " (attach)";
      total.segments += eval.planner_counters().segments;
      total.tries += eval.planner_counters().tries;
      total.resumed_tries += eval.planner_counters().resumed_tries;
    }
  }
  return total;
}

}  // namespace mbsp
