// Tests for the holistic LNS scheduler: never worsens the warm start,
// always yields valid schedules, exploits the structures the paper's
// theory predicts (zipper gadget), and is deterministic per seed.
#include <gtest/gtest.h>

#include "src/bsp/greedy_scheduler.hpp"
#include "src/graph/gadgets.hpp"
#include "src/graph/generators.hpp"
#include "src/holistic/lns.hpp"
#include "src/model/cost.hpp"
#include "src/model/validate.hpp"
#include "src/runner/scheduler_registry.hpp"
#include "src/twostage/two_stage.hpp"

namespace mbsp {
namespace {

MbspInstance tiny_instance(int index, int P = 4, double r_factor = 3,
                           double g = 1, double L = 10) {
  auto dataset = tiny_dataset(2025);
  ComputeDag dag = std::move(dataset[index]);
  const double r0 = min_memory_r0(dag);
  return {std::move(dag), Architecture::make(P, r_factor * r0, g, L)};
}

TEST(Lns, NeverWorseThanWarmStart) {
  for (int index : {1, 3, 9}) {
    const MbspInstance inst = tiny_instance(index);
    const TwoStageResult base =
        run_baseline(inst, BaselineKind::kGreedyClairvoyant);
    LnsOptions options;
    options.budget_ms = 300;
    const LnsResult res = improve_plan(inst, base.plan, options);
    EXPECT_LE(res.cost, res.initial_cost + 1e-9) << inst.name();
    const auto valid = validate(inst, res.schedule);
    EXPECT_TRUE(valid.ok) << inst.name() << ": " << valid.error;
  }
}

TEST(Lns, ImprovesSpmvNoticeably) {
  // The paper's largest wins are on SpMV-like instances; even a short
  // budget should find a strictly better schedule.
  const MbspInstance inst = tiny_instance(3);  // spmv_N6
  const TwoStageResult base =
      run_baseline(inst, BaselineKind::kGreedyClairvoyant);
  LnsOptions options;
  options.budget_ms = 1500;
  const LnsResult res = improve_plan(inst, base.plan, options);
  EXPECT_LT(res.cost, res.initial_cost) << "no improvement on spmv_N6";
}

TEST(Lns, DeterministicPerSeed) {
  const MbspInstance inst = tiny_instance(5);
  const TwoStageResult base =
      run_baseline(inst, BaselineKind::kGreedyClairvoyant);
  LnsOptions options;
  options.budget_ms = 0;  // no deadline: run a fixed iteration count
  options.max_iterations = 3000;
  const LnsResult a = improve_plan(inst, base.plan, options);
  const LnsResult b = improve_plan(inst, base.plan, options);
  EXPECT_DOUBLE_EQ(a.cost, b.cost);
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(Lns, AsyncObjectiveSupported) {
  const MbspInstance inst = tiny_instance(4, 4, 3, 1, 0);
  const TwoStageResult base =
      run_baseline(inst, BaselineKind::kGreedyClairvoyant);
  LnsOptions options;
  options.budget_ms = 300;
  options.cost = CostModel::kAsynchronous;
  const LnsResult res = improve_plan(inst, base.plan, options);
  EXPECT_LE(res.cost, res.initial_cost + 1e-9);
  const auto valid = validate(inst, res.schedule);
  EXPECT_TRUE(valid.ok) << valid.error;
  EXPECT_NEAR(async_cost(inst, res.schedule), res.cost, 1e-9);
}

TEST(Lns, NoRecomputeRestrictionHolds) {
  const MbspInstance inst = tiny_instance(10);
  const TwoStageResult base =
      run_baseline(inst, BaselineKind::kGreedyClairvoyant);
  LnsOptions options;
  options.budget_ms = 300;
  options.allow_recompute = false;
  const LnsResult res = improve_plan(inst, base.plan, options);
  for (NodeId v = 0; v < inst.dag.num_nodes(); ++v) {
    if (!inst.dag.is_source(v)) {
      EXPECT_LE(res.plan.seq[0].size() + res.plan.seq[1].size() +
                    res.plan.seq[2].size() + res.plan.seq[3].size(),
                res.plan.total_computes());
    }
  }
  std::size_t non_source = 0;
  for (NodeId v = 0; v < inst.dag.num_nodes(); ++v) {
    non_source += !inst.dag.is_source(v);
  }
  EXPECT_EQ(res.plan.total_computes(), non_source);
}

TEST(Lns, ZipperGadgetLargeGain) {
  // Theorem 4.1: the two-stage result on the zipper costs ~d*m*g in I/O;
  // the holistic optimum only ~(2m + d)*g. The LNS must close a large part
  // of that gap from the baseline warm start.
  const ZipperGadget z = zipper_gadget(6, 10);
  ComputeDag dag = z.dag;
  const MbspInstance inst{std::move(dag),
                          Architecture::make(2, z.d + 2, 1, 0)};
  const TwoStageResult base =
      run_baseline(inst, BaselineKind::kGreedyClairvoyant);
  const double base_cost = sync_cost(inst, base.mbsp);
  LnsOptions options;
  options.budget_ms = 3000;
  options.seed = 5;
  const LnsResult res = improve_plan(inst, base.plan, options);
  EXPECT_LT(res.cost, base_cost) << "LNS failed to improve the zipper";
  const auto valid = validate(inst, res.schedule);
  EXPECT_TRUE(valid.ok) << valid.error;
}

TEST(HolisticFacade, SmallInstanceUsesLns) {
  const MbspInstance inst = tiny_instance(2);
  SchedulerOptions options;
  options.budget_ms = 200;
  const ScheduleResult out =
      SchedulerRegistry::global().at("holistic").run(inst, options);
  EXPECT_FALSE(out.num_parts > 1);
  EXPECT_LE(out.cost, out.baseline_cost + 1e-9);
  const auto valid = validate(inst, out.schedule);
  EXPECT_TRUE(valid.ok) << valid.error;
}

TEST(HolisticFacade, HonoursEveryLnsField) {
  // move_mask = 0 leaves the LNS nothing to propose, so the result is the
  // warm start (spmv_N6: 125). A holistic that dropped move_mask on its
  // way to the LNS still improved it to 123.
  const MbspInstance inst = tiny_instance(3);
  SchedulerOptions options;
  options.move_mask = 0;
  options.budget_ms = 0;
  options.max_iterations = 1500;
  const ScheduleResult out =
      SchedulerRegistry::global().at("holistic").run(inst, options);
  EXPECT_EQ(out.cost, out.baseline_cost);
}

TEST(HolisticFacade, BelowThresholdIsTheLnsEntry) {
  // Oracle: under the divide-and-conquer threshold "holistic" is the "lns"
  // solve, bit for bit, on every tiny instance and both cost models.
  const SchedulerRegistry& registry = SchedulerRegistry::global();
  const int num_instances = static_cast<int>(tiny_dataset(2025).size());
  for (const CostModel cost :
       {CostModel::kSynchronous, CostModel::kAsynchronous}) {
    for (int index = 0; index < num_instances; ++index) {
      const MbspInstance inst = tiny_instance(index);
      SchedulerOptions options;
      options.budget_ms = 0;
      options.max_iterations = 1500;
      options.cost = cost;
      ASSERT_LE(inst.dag.num_nodes(), options.divide_conquer_threshold);
      const ScheduleResult lns = registry.at("lns").run(inst, options);
      const ScheduleResult holistic =
          registry.at("holistic").run(inst, options);
      EXPECT_TRUE(holistic.plan.seq == lns.plan.seq) << inst.name();
      EXPECT_EQ(holistic.cost, lns.cost) << inst.name();
      EXPECT_EQ(holistic.baseline_cost, lns.baseline_cost) << inst.name();
    }
  }
}

TEST(Lns, MoveMaskRestrictsSearch) {
  const MbspInstance inst = tiny_instance(3);
  const TwoStageResult base =
      run_baseline(inst, BaselineKind::kGreedyClairvoyant);
  LnsOptions options;
  options.budget_ms = 0;
  options.max_iterations = 2000;
  options.move_mask = 0;  // nothing enabled: search must be a no-op
  const LnsResult none = improve_plan(inst, base.plan, options);
  EXPECT_EQ(none.iterations, 0);
  EXPECT_DOUBLE_EQ(none.cost, none.initial_cost);
  options.move_mask = kMergeSupersteps | kSplitSuperstep;
  const LnsResult some = improve_plan(inst, base.plan, options);
  EXPECT_LE(some.cost, some.initial_cost + 1e-9);
  // Superstep-structure moves alone never change the processor of a node.
  for (int p = 0; p < inst.arch.num_processors; ++p) {
    ASSERT_EQ(some.plan.seq[p].size(), base.plan.seq[p].size());
    for (std::size_t i = 0; i < some.plan.seq[p].size(); ++i) {
      EXPECT_EQ(some.plan.seq[p][i].node, base.plan.seq[p][i].node);
    }
  }
}

TEST(LnsSearch, IsImprovePlanWithoutTheCompletion) {
  // improve_plan is search_plan plus one completion: the same plan, cost
  // and counters, and the search's tracked cost is evaluate_plan's,
  // bitwise. A gappy warm start runs the reference loop.
  const MbspInstance inst = tiny_instance(3);
  const ComputePlan dense =
      baseline_plan(inst, BaselineKind::kGreedyClairvoyant);
  ComputePlan gappy = dense;
  for (auto& seq : gappy.seq) {
    for (PlannedCompute& pc : seq) pc.superstep *= 2;
  }
  ASSERT_TRUE(validate_plan(inst.dag, gappy).ok);
  ASSERT_FALSE(has_dense_supersteps(gappy));
  struct Config {
    CostModel cost;
    PolicyKind policy;
    unsigned move_mask;
    const ComputePlan* warm;
  };
  const Config configs[] = {
      {CostModel::kSynchronous, PolicyKind::kClairvoyant, kAllMoves, &dense},
      {CostModel::kSynchronous, PolicyKind::kLru, kAllMoves, &dense},
      {CostModel::kAsynchronous, PolicyKind::kClairvoyant, kAllMoves, &dense},
      {CostModel::kAsynchronous, PolicyKind::kLru, kAllMoves, &dense},
      {CostModel::kSynchronous, PolicyKind::kClairvoyant, 0, &dense},
      {CostModel::kSynchronous, PolicyKind::kClairvoyant, kAllMoves, &gappy},
      {CostModel::kAsynchronous, PolicyKind::kLru, kAllMoves, &gappy},
  };
  for (const Config& c : configs) {
    LnsOptions options;
    options.budget_ms = 0;
    options.max_iterations = 800;
    options.cost = c.cost;
    options.completion_policy = c.policy;
    options.move_mask = c.move_mask;
    const std::string label =
        std::string(c.cost == CostModel::kSynchronous ? "sync" : "async") +
        (c.policy == PolicyKind::kLru ? " lru" : " clairvoyant") +
        " mask=" + std::to_string(c.move_mask) +
        (c.warm == &gappy ? " gappy" : " dense");
    const LnsSearchResult search = search_plan(inst, *c.warm, options);
    const LnsResult full = improve_plan(inst, *c.warm, options);
    EXPECT_TRUE(search.plan.seq == full.plan.seq) << label;
    EXPECT_EQ(search.cost, full.cost) << label;
    EXPECT_EQ(search.initial_cost, full.initial_cost) << label;
    EXPECT_EQ(search.iterations, full.iterations) << label;
    EXPECT_EQ(search.accepted, full.accepted) << label;
    EXPECT_EQ(search.proposed_by_class, full.proposed_by_class) << label;
    EXPECT_EQ(search.accepted_by_class, full.accepted_by_class) << label;
    EXPECT_EQ(search.cost, evaluate_plan(inst, search.plan, options)) << label;
    EXPECT_EQ(search.initial_cost, evaluate_plan(inst, *c.warm, options))
        << label;
    const double schedule_cost = c.cost == CostModel::kSynchronous
                                     ? sync_cost(inst, full.schedule)
                                     : async_cost(inst, full.schedule);
    EXPECT_EQ(full.cost, schedule_cost) << label;
    if (c.move_mask == 0) {
      EXPECT_EQ(search.iterations, 0) << label;
      EXPECT_EQ(search.cost, search.initial_cost) << label;
    }
  }
}

TEST(EvaluatePlan, MatchesScheduleCost) {
  const MbspInstance inst = tiny_instance(0);
  const TwoStageResult base =
      run_baseline(inst, BaselineKind::kGreedyClairvoyant);
  LnsOptions options;
  MbspSchedule sched;
  const double cost = evaluate_plan(inst, base.plan, options, &sched);
  EXPECT_DOUBLE_EQ(cost, sync_cost(inst, sched));
}

}  // namespace
}  // namespace mbsp
