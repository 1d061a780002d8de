// Tests for divide-and-conquer on larger DAGs: shard_schedule on the
// recursive acyclic partition, with divide_conquer_options().
#include <gtest/gtest.h>

#include "src/graph/generators.hpp"
#include "src/holistic/partition.hpp"
#include "src/holistic/shard.hpp"
#include "src/model/cost.hpp"
#include "src/model/validate.hpp"
#include "src/runner/scheduler_registry.hpp"

namespace mbsp {
namespace {

ShardResult divide_conquer(const MbspInstance& inst, double budget_ms) {
  LnsOptions per_part;
  per_part.budget_ms = budget_ms;
  return shard_schedule(inst, recursive_acyclic_partition(inst.dag, 60),
                        divide_conquer_options(per_part));
}

TEST(DivideConquer, ValidOnSmallDatasetInstance) {
  auto dataset = small_dataset(2025);
  ComputeDag dag = std::move(dataset[2]);  // spmv_N25
  const double r0 = min_memory_r0(dag);
  const MbspInstance inst{std::move(dag),
                          Architecture::make(4, 5 * r0, 1, 10)};
  const ShardResult res = divide_conquer(inst, 100);
  EXPECT_GT(res.num_shards, 1u);
  const auto valid = validate(inst, res.schedule);
  EXPECT_TRUE(valid.ok) << valid.error;
  EXPECT_DOUBLE_EQ(res.cost, sync_cost(inst, res.schedule));
  // Every non-source node computed at least once.
  for (NodeId v = 0; v < inst.dag.num_nodes(); ++v) {
    if (!inst.dag.is_source(v)) {
      EXPECT_GE(res.schedule.compute_count(v), 1u) << "node " << v;
    }
  }
}

TEST(DivideConquer, WorksOnCoarseGrainedInstance) {
  auto dataset = small_dataset(2025);
  ComputeDag dag = std::move(dataset[0]);  // simple_pagerank
  const double r0 = min_memory_r0(dag);
  const MbspInstance inst{std::move(dag),
                          Architecture::make(4, 5 * r0, 1, 10)};
  const ShardResult res = divide_conquer(inst, 100);
  const auto valid = validate(inst, res.schedule);
  EXPECT_TRUE(valid.ok) << valid.error;
}

TEST(DivideConquer, FacadeRoutesLargeInstances) {
  auto dataset = small_dataset(2025);
  ComputeDag dag = std::move(dataset[4]);  // CG_N5_K4
  const double r0 = min_memory_r0(dag);
  const MbspInstance inst{std::move(dag),
                          Architecture::make(4, 5 * r0, 1, 10)};
  SchedulerOptions options;
  options.budget_ms = 600;
  const ScheduleResult out =
      SchedulerRegistry::global().at("holistic").run(inst, options);
  EXPECT_TRUE(out.num_parts > 1);
  const auto valid = validate(inst, out.schedule);
  EXPECT_TRUE(valid.ok) << valid.error;
  EXPECT_GT(out.baseline_cost, 0);
}

TEST(DivideConquer, SingleProcessorDegenerates) {
  auto dataset = small_dataset(2025);
  ComputeDag dag = std::move(dataset[3]);  // spmv_N35
  const double r0 = min_memory_r0(dag);
  const MbspInstance inst{std::move(dag), Architecture::make(1, 5 * r0, 1, 0)};
  const ShardResult res = divide_conquer(inst, 50);
  const auto valid = validate(inst, res.schedule);
  EXPECT_TRUE(valid.ok) << valid.error;
}

}  // namespace
}  // namespace mbsp
