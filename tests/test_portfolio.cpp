// Tests for the parallel portfolio LNS: the workers=1/epochs=1 identity
// with improve_plan (bitwise), reproducibility across runs and pool
// thread counts, epoch-exchange monotonicity (never worse than the warm
// start or any worker's solo run at the same per-worker budget), the
// differential check against improve_plan_reference, and the
// lns-portfolio registry entry.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/graph/generators.hpp"
#include "src/holistic/lns.hpp"
#include "src/holistic/portfolio.hpp"
#include "src/model/validate.hpp"
#include "src/runner/batch_runner.hpp"
#include "src/runner/scheduler_registry.hpp"
#include "src/twostage/two_stage.hpp"
#include "src/workload/workload_registry.hpp"
#include "tests/support/reference_lns.hpp"

namespace mbsp {
namespace {

MbspInstance tiny_instance(int index, int P = 4, double r_factor = 3) {
  auto dataset = tiny_dataset(2025);
  ComputeDag dag = std::move(dataset[index]);
  const double r0 = min_memory_r0(dag);
  return {std::move(dag), Architecture::make(P, r_factor * r0, 1, 10)};
}

MbspInstance workload_instance(const std::string& spec, int P = 4) {
  std::string error;
  auto inst =
      WorkloadRegistry::global().make_instance(spec, 2025, P, 3.0, 1, 10,
                                               &error);
  EXPECT_TRUE(inst.has_value()) << spec << ": " << error;
  return std::move(*inst);
}

/// Reproducible base options: no deadline, fixed iteration budget.
PortfolioOptions reproducible_options(long iterations, int workers,
                                      int epochs) {
  PortfolioOptions options;
  options.lns.budget_ms = 0;
  options.lns.max_iterations = iterations;
  options.workers = workers;
  options.epochs = epochs;
  return options;
}

TEST(Portfolio, SingleWorkerSingleEpochIsBitwiseImprovePlan) {
  for (int index : {1, 3, 5}) {
    const MbspInstance inst = tiny_instance(index);
    const ComputePlan initial =
        run_baseline(inst, BaselineKind::kGreedyClairvoyant).plan;
    const PortfolioOptions options = reproducible_options(3000, 1, 1);
    const LnsResult solo = improve_plan(inst, initial, options.lns);
    const PortfolioResult port = PortfolioLns(options).improve(inst, initial);
    EXPECT_EQ(port.plan.seq, solo.plan.seq) << inst.name();
    EXPECT_EQ(port.cost, solo.cost) << inst.name();
    EXPECT_EQ(port.initial_cost, solo.initial_cost);
    EXPECT_EQ(port.iterations, solo.iterations);
    EXPECT_EQ(port.accepted, solo.accepted);
    EXPECT_EQ(port.proposed_by_class, solo.proposed_by_class);
    EXPECT_EQ(port.accepted_by_class, solo.accepted_by_class);
  }
}

TEST(Portfolio, SingleWorkerMatchesReferenceOracle) {
  // improve_plan is bitwise-equal to improve_plan_reference (PR 3), so the
  // degenerate portfolio must chain through to the historical oracle too.
  const MbspInstance inst = tiny_instance(3);
  const ComputePlan initial =
      run_baseline(inst, BaselineKind::kGreedyClairvoyant).plan;
  const PortfolioOptions options = reproducible_options(2000, 1, 1);
  const LnsResult oracle = improve_plan_reference(inst, initial, options.lns);
  const PortfolioResult port = PortfolioLns(options).improve(inst, initial);
  EXPECT_EQ(port.plan.seq, oracle.plan.seq);
  EXPECT_EQ(port.cost, oracle.cost);
  EXPECT_EQ(port.iterations, oracle.iterations);
}

TEST(Portfolio, DeterministicModeReproducibleAcrossRunsAndThreadCounts) {
  const MbspInstance inst = tiny_instance(5);
  const ComputePlan initial =
      run_baseline(inst, BaselineKind::kGreedyClairvoyant).plan;
  PortfolioOptions options = reproducible_options(1200, 4, 3);

  options.threads = 4;
  const PortfolioResult a = PortfolioLns(options).improve(inst, initial);
  const PortfolioResult b = PortfolioLns(options).improve(inst, initial);
  options.threads = 1;  // serialized epochs: same barriers, same result
  const PortfolioResult c = PortfolioLns(options).improve(inst, initial);
  options.threads = 7;  // more threads than workers
  const PortfolioResult d = PortfolioLns(options).improve(inst, initial);

  for (const PortfolioResult* other : {&b, &c, &d}) {
    EXPECT_EQ(a.plan.seq, other->plan.seq);
    EXPECT_EQ(a.cost, other->cost);
    EXPECT_EQ(a.iterations, other->iterations);
    EXPECT_EQ(a.accepted, other->accepted);
    EXPECT_EQ(a.best_worker, other->best_worker);
    EXPECT_EQ(a.best_epoch, other->best_epoch);
    EXPECT_EQ(a.worker_costs, other->worker_costs);
  }
}

TEST(Portfolio, NeverWorseThanWarmStartAndSchedulesStayValid) {
  for (const char* spec : {"stencil2d:nx=6,ny=6,steps=2", "fft:n=16",
                           "lu:blocks=3"}) {
    const MbspInstance inst = workload_instance(spec);
    const ComputePlan initial =
        run_baseline(inst, BaselineKind::kGreedyClairvoyant).plan;
    const PortfolioOptions options = reproducible_options(1500, 3, 3);
    const PortfolioResult res = PortfolioLns(options).improve(inst, initial);
    // The epoch-0 slices price the warm start: bitwise evaluate_plan's.
    EXPECT_EQ(res.initial_cost, evaluate_plan(inst, initial, options.lns))
        << spec;
    EXPECT_LE(res.cost, res.initial_cost) << spec;
    const auto valid = validate(inst, res.schedule);
    EXPECT_TRUE(valid.ok) << spec << ": " << valid.error;
    ASSERT_EQ(res.worker_costs.size(), 3u);
    for (double wc : res.worker_costs) {
      EXPECT_LE(wc, res.initial_cost) << spec;
      EXPECT_LE(res.cost, wc) << spec;  // incumbent = min over workers
    }
  }
}

TEST(Portfolio, SingleEpochNeverWorseThanAnyWorkersSoloRun) {
  // With epochs = 1 each worker's slice IS a solo improve_plan run at the
  // same per-worker budget (worker 0 on the base seed), so the exchanged
  // incumbent must match the best of the solo runs exactly.
  const MbspInstance inst = tiny_instance(3);
  const ComputePlan initial =
      run_baseline(inst, BaselineKind::kGreedyClairvoyant).plan;
  const PortfolioOptions options = reproducible_options(2500, 3, 1);
  const PortfolioResult port = PortfolioLns(options).improve(inst, initial);
  double best_solo = port.initial_cost;
  for (int w = 0; w < options.workers; ++w) {
    const LnsOptions solo_options = portfolio_worker_options(options, w, 0);
    const LnsResult solo = improve_plan(inst, initial, solo_options);
    EXPECT_LE(port.cost, solo.cost) << "worker " << w;
    best_solo = std::min(best_solo, solo.cost);
  }
  EXPECT_EQ(port.cost, best_solo);
}

TEST(Portfolio, EpochExchangeMonotonicity) {
  // Chained epochs only ever continue from a plan at least as good as the
  // previous one, so every intermediate worker cost and the incumbent are
  // non-increasing; spot-check the end state against a 1-epoch run of the
  // same per-worker budget (exchange must not lose the best incumbent).
  const MbspInstance inst = workload_instance("wavefront:nx=8,ny=8");
  const ComputePlan initial =
      run_baseline(inst, BaselineKind::kGreedyClairvoyant).plan;
  const PortfolioOptions chained = reproducible_options(2400, 3, 4);
  const PortfolioResult res = PortfolioLns(chained).improve(inst, initial);
  EXPECT_LE(res.cost, res.initial_cost);
  for (double wc : res.worker_costs) EXPECT_LE(res.cost, wc);
  EXPECT_EQ(res.cost,
            *std::min_element(res.worker_costs.begin(),
                              res.worker_costs.end()));
}

TEST(Portfolio, WorkerSeedsAreDistinctAndWorkerZeroKeepsBase) {
  EXPECT_EQ(portfolio_worker_seed(42, 0), 42u);
  EXPECT_NE(portfolio_worker_seed(42, 1), 42u);
  EXPECT_NE(portfolio_worker_seed(42, 1), portfolio_worker_seed(42, 2));
  // Worker/epoch derivations must not collide: worker w at epoch 0 vs
  // worker 0 at epoch w draw from differently-salted SplitMix streams.
  PortfolioOptions options = reproducible_options(100, 4, 4);
  const LnsOptions w1e0 = portfolio_worker_options(options, 1, 0);
  const LnsOptions w0e1 = portfolio_worker_options(options, 0, 1);
  EXPECT_NE(w1e0.seed, w0e1.seed);
}

TEST(Portfolio, EpochSlicesPartitionTheIterationBudget) {
  const PortfolioOptions options = reproducible_options(1001, 2, 4);
  long total = 0;
  for (int e = 0; e < options.epochs; ++e) {
    total += portfolio_worker_options(options, 0, e).max_iterations;
  }
  EXPECT_EQ(total, 1001);
  // And the portfolio actually spends worker x budget iterations when no
  // deadline cuts it short.
  const MbspInstance inst = tiny_instance(1);
  const ComputePlan initial =
      run_baseline(inst, BaselineKind::kGreedyClairvoyant).plan;
  const PortfolioResult res = PortfolioLns(options).improve(inst, initial);
  EXPECT_EQ(res.iterations, 2 * 1001);
}

TEST(Portfolio, DiverseProfileKeepsWorkerZeroOnBaseOptions) {
  PortfolioOptions options = reproducible_options(1000, 4, 1);
  options.profile = PortfolioProfile::kDiverse;
  const LnsOptions w0 = portfolio_worker_options(options, 0, 0);
  EXPECT_EQ(w0.seed, options.lns.seed);
  EXPECT_EQ(w0.move_mask, options.lns.move_mask);
  EXPECT_DOUBLE_EQ(w0.initial_temperature_frac,
                   options.lns.initial_temperature_frac);
  // Workers 1..3 differ from base in temperature or move mask.
  for (int w : {1, 2, 3}) {
    const LnsOptions o = portfolio_worker_options(options, w, 0);
    EXPECT_TRUE(o.initial_temperature_frac !=
                    options.lns.initial_temperature_frac ||
                o.move_mask != options.lns.move_mask)
        << "worker " << w << " is not diversified";
  }
}

TEST(PortfolioRegistry, LnsPortfolioIsRegisteredAndDeterministic) {
  const SchedulerRegistry& registry = SchedulerRegistry::global();
  ASSERT_NE(registry.find("lns-portfolio"), nullptr);
  const MbspInstance inst = tiny_instance(3);
  SchedulerOptions options;
  options.budget_ms = 0;
  options.max_iterations = 1200;
  options.workers = 3;
  options.epochs = 2;
  const ScheduleResult a = registry.at("lns-portfolio").run(inst, options);
  const ScheduleResult b = registry.at("lns-portfolio").run(inst, options);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_LE(a.cost, a.baseline_cost);
  const auto valid = validate(inst, a.schedule);
  EXPECT_TRUE(valid.ok) << valid.error;
  ASSERT_EQ(a.lns_proposed.size(), static_cast<std::size_t>(kNumMoveClasses));
  long proposed = 0;
  for (long p : a.lns_proposed) proposed += p;
  EXPECT_EQ(proposed, 3 * 1200);
}

}  // namespace
}  // namespace mbsp
