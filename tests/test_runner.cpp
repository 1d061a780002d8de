// Tests for the runner layer: the scheduler registry (completeness,
// lookup, replacement), validity of every registered scheduler's output on
// a small instance grid, and the batch runner (cell ordering, unsupported
// cells, and bitwise-identical result tables with 1 vs N threads).
#include <gtest/gtest.h>

#include <memory>

#include "src/graph/generators.hpp"
#include "src/model/validate.hpp"
#include "src/runner/batch_runner.hpp"
#include "src/runner/scheduler_registry.hpp"

namespace mbsp {
namespace {

/// Small grid instances: quick enough for exhaustive scheduler coverage.
MbspInstance grid_instance(int P, double r_factor, std::string name) {
  Rng rng(17);
  ComputeDag dag = random_layered_dag(14, 4, rng);
  dag.set_name(std::move(name));
  const double r0 = min_memory_r0(dag);
  return {std::move(dag), Architecture::make(P, r_factor * r0, 1, 5)};
}

SchedulerOptions fast_options() {
  SchedulerOptions options;
  options.budget_ms = 60;
  return options;
}

TEST(Registry, ListsAllBuiltinSchedulers) {
  const std::vector<std::string> names = SchedulerRegistry::global().names();
  for (const char* expected :
       {"bspg+clairvoyant", "bspg+lru", "cilk+lru", "ilp-bsp+clairvoyant",
        "dfs+clairvoyant", "lns", "lns-portfolio", "holistic",
        "divide-conquer", "sharded", "exact-pebbler", "ilp", "repair"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected << " missing from registry";
  }
  EXPECT_EQ(names.size(), 13u);
}

TEST(Registry, FindAndAt) {
  const SchedulerRegistry& registry = SchedulerRegistry::global();
  EXPECT_NE(registry.find("holistic"), nullptr);
  EXPECT_EQ(registry.find("no-such-scheduler"), nullptr);
  EXPECT_EQ(registry.at("lns").name(), "lns");
  EXPECT_THROW(registry.at("no-such-scheduler"), std::out_of_range);
}

TEST(Registry, AddReplacesSameName) {
  class Dummy final : public MbspScheduler {
   public:
    explicit Dummy(int tag) : tag_(tag) {}
    std::string name() const override { return "dummy"; }
    ScheduleResult run(const MbspInstance&,
                       const SchedulerOptions&) const override {
      ScheduleResult result;
      result.cost = tag_;
      return result;
    }

   private:
    int tag_;
  };
  SchedulerRegistry registry;
  registry.add(std::make_unique<Dummy>(1));
  registry.add(std::make_unique<Dummy>(2));
  EXPECT_EQ(registry.size(), 1u);
  const MbspInstance inst = grid_instance(1, 3.0, "g");
  EXPECT_DOUBLE_EQ(registry.at("dummy").run(inst, {}).cost, 2.0);
}

TEST(Registry, EverySchedulerProducesValidSchedules) {
  // P = 1 so the exact pebbler participates; a multiprocessor point too.
  const std::vector<MbspInstance> grid = [] {
    std::vector<MbspInstance> instances;
    instances.push_back(grid_instance(1, 2.0, "p1_tight"));
    instances.push_back(grid_instance(2, 3.0, "p2_roomy"));
    return instances;
  }();
  const SchedulerOptions options = fast_options();
  for (const std::string& name : SchedulerRegistry::global().names()) {
    const MbspScheduler& scheduler = SchedulerRegistry::global().at(name);
    for (const MbspInstance& inst : grid) {
      if (!scheduler.supports(inst)) continue;
      const ScheduleResult result = scheduler.run(inst, options);
      EXPECT_EQ(result.scheduler, name);
      const ValidationResult valid = validate(inst, result.schedule);
      EXPECT_TRUE(valid.ok)
          << name << " on " << inst.name() << ": " << valid.error;
      EXPECT_GT(result.cost, 0) << name;
      EXPECT_GT(result.baseline_cost, 0) << name;
      EXPECT_GT(result.supersteps, 0) << name;
      EXPECT_GE(result.io_volume, 0) << name;
    }
  }
}

TEST(Registry, ImprovingSchedulersNeverLoseToWarmStart) {
  const MbspInstance inst = grid_instance(2, 3.0, "improve");
  const SchedulerOptions options = fast_options();
  for (const char* name : {"lns", "holistic", "ilp"}) {
    const ScheduleResult result =
        SchedulerRegistry::global().at(name).run(inst, options);
    EXPECT_LE(result.cost, result.baseline_cost + 1e-9) << name;
  }
}

TEST(BatchRunner, GridOrderIsInstanceMajor) {
  std::vector<MbspInstance> instances;
  instances.push_back(grid_instance(2, 3.0, "a"));
  instances.push_back(grid_instance(2, 3.0, "b"));
  BatchOptions batch;
  batch.scheduler = fast_options();
  const std::vector<BatchCell> cells = BatchRunner(batch).run_grid(
      instances, {"bspg+clairvoyant", "cilk+lru"});
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells[0].instance, "a");
  EXPECT_EQ(cells[0].scheduler, "bspg+clairvoyant");
  EXPECT_EQ(cells[1].instance, "a");
  EXPECT_EQ(cells[1].scheduler, "cilk+lru");
  EXPECT_EQ(cells[2].instance, "b");
  for (const BatchCell& cell : cells) EXPECT_TRUE(cell.ok) << cell.error;
  EXPECT_EQ(find_cell(cells, "b", "cilk+lru"), &cells[3]);
  EXPECT_EQ(find_cell(cells, "c", "cilk+lru"), nullptr);
}

TEST(BatchRunner, UnsupportedCellsAreSkippedNotFatal) {
  std::vector<MbspInstance> instances;
  instances.push_back(grid_instance(2, 3.0, "p2"));  // pebbler needs P = 1
  BatchOptions batch;
  batch.scheduler = fast_options();
  const std::vector<BatchCell> cells =
      BatchRunner(batch).run_grid(instances, {"exact-pebbler",
                                              "bspg+clairvoyant"});
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_FALSE(cells[0].ok);
  EXPECT_EQ(cells[0].error, "unsupported instance");
  EXPECT_TRUE(cells[1].ok);
  // The table renders the failed cell without dying.
  EXPECT_NE(batch_table(cells).to_csv().find("unsupported"),
            std::string::npos);
}

TEST(BatchRunner, UnknownSchedulerThrowsBeforeRunning) {
  std::vector<MbspInstance> instances;
  instances.push_back(grid_instance(1, 3.0, "x"));
  BatchRunner runner;
  EXPECT_THROW(runner.run_grid(instances, {"no-such-scheduler"}),
               std::out_of_range);
}

TEST(BatchRunner, DeterministicAcrossThreadCounts) {
  // The acceptance bar of the runner layer: N-thread batch tables are
  // bitwise identical to the 1-thread run (solvers stay single-threaded
  // and seeded; cells are indexed, not raced).
  std::vector<MbspInstance> instances;
  instances.push_back(grid_instance(1, 2.0, "d1"));
  instances.push_back(grid_instance(2, 3.0, "d2"));
  instances.push_back(grid_instance(4, 3.0, "d3"));
  const std::vector<std::string> schedulers{
      "bspg+clairvoyant", "cilk+lru", "lns", "holistic", "exact-pebbler"};

  const auto run_with_threads = [&](std::size_t threads) {
    BatchOptions batch;
    batch.threads = threads;
    // No wall-clock deadline + a finite LNS iteration cap: the anytime
    // search becomes machine-speed independent, so thread count can't
    // change any cell.
    batch.scheduler.budget_ms = 0;
    batch.scheduler.max_iterations = 4000;
    return BatchRunner(batch).run_grid(instances, schedulers);
  };
  const std::vector<BatchCell> serial = run_with_threads(1);
  const std::vector<BatchCell> parallel = run_with_threads(8);

  ASSERT_EQ(serial.size(), parallel.size());
  EXPECT_EQ(batch_table(serial).to_csv(), batch_table(parallel).to_csv());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].ok, parallel[i].ok);
    EXPECT_EQ(serial[i].result.cost, parallel[i].result.cost) << i;
    EXPECT_EQ(serial[i].result.io_volume, parallel[i].result.io_volume) << i;
    EXPECT_EQ(serial[i].result.supersteps, parallel[i].result.supersteps);
  }
}

TEST(TrivialPlan, CoversAllNonSourcesOnProcessorZero) {
  const MbspInstance inst = grid_instance(2, 3.0, "trivial");
  const ComputePlan plan = trivial_plan(inst);
  ASSERT_EQ(plan.num_procs, 2);
  EXPECT_TRUE(plan.seq[1].empty());
  EXPECT_TRUE(validate_plan(inst.dag, plan).ok);
}

}  // namespace
}  // namespace mbsp
