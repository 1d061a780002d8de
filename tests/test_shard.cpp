// Tests for the hierarchical pipeline (src/holistic/shard.*,
// docs/SCALE.md): partition properties, validity and seed-dominance of the
// stitched schedule, bitwise thread-count independence, the masked-LNS
// contract the boundary polish relies on, the "sharded" registry adapter,
// golden pins of the sharded and divide-and-conquer configurations, and
// zero-work DAGs.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "src/bsp/greedy_scheduler.hpp"
#include "src/graph/dag_io.hpp"
#include "src/graph/generators.hpp"
#include "src/holistic/partition.hpp"
#include "src/holistic/shard.hpp"
#include "src/model/validate.hpp"
#include "src/runner/scheduler_registry.hpp"
#include "src/twostage/two_stage.hpp"
#include "src/workload/workload_registry.hpp"

namespace mbsp {
namespace {

MbspInstance workload_instance(const std::string& spec, int P,
                               double r_factor) {
  std::string error;
  auto inst = WorkloadRegistry::global().make_instance(spec, /*seed=*/11, P,
                                                       r_factor, 1, 5, &error);
  EXPECT_TRUE(inst.has_value()) << spec << ": " << error;
  return std::move(*inst);
}

ShardOptions deterministic_options(int shards) {
  ShardOptions options;
  options.num_shards = shards;
  options.lns.budget_ms = 0;  // iteration-capped: machine-speed independent
  options.lns.max_iterations = 3000;
  options.polish_budget_ms = 0;
  options.polish_max_iterations = 2000;
  return options;
}

/// FNV-1a over every (node, proc, superstep) of the plan, in plan order.
std::uint64_t plan_fingerprint(const ComputePlan& plan) {
  std::uint64_t hash = kFnvOffset;
  for (int p = 0; p < plan.num_procs; ++p) {
    for (const PlannedCompute& pc : plan.seq[static_cast<std::size_t>(p)]) {
      const std::int64_t fields[3] = {pc.node, p, pc.superstep};
      hash = fnv1a_64(fields, sizeof fields, hash);
    }
  }
  return hash;
}

void expect_same_plan(const ComputePlan& a, const ComputePlan& b) {
  ASSERT_EQ(a.num_procs, b.num_procs);
  for (int p = 0; p < a.num_procs; ++p) {
    const auto& sa = a.seq[static_cast<std::size_t>(p)];
    const auto& sb = b.seq[static_cast<std::size_t>(p)];
    ASSERT_EQ(sa.size(), sb.size()) << "proc " << p;
    for (std::size_t i = 0; i < sa.size(); ++i) {
      EXPECT_EQ(sa[i].node, sb[i].node);
      EXPECT_EQ(sa[i].superstep, sb[i].superstep);
    }
  }
}

/// The paper's Table 2 machine (P processors, r = 5 r0, g = 1, L = 10) on
/// small_dataset(2025)[index].
MbspInstance paper_instance(int index, int P) {
  ComputeDag dag = std::move(small_dataset(2025)[static_cast<std::size_t>(
      index)]);
  const double r0 = min_memory_r0(dag);
  return MbspInstance{std::move(dag), Architecture::make(P, 5 * r0, 1, 10)};
}

/// Divide-and-conquer on a greedy recursive partition (the default ILP
/// bipartition has a wall-clock budget, so its parts depend on machine
/// speed) with 200 iteration-capped LNS iterations per part.
ShardResult pinned_divide_conquer(const MbspInstance& inst, CostModel cost,
                                  int threads) {
  BipartitionOptions greedy;
  greedy.use_ilp = false;
  LnsOptions per_part;
  per_part.budget_ms = 0;
  per_part.max_iterations = 200;
  per_part.cost = cost;
  ShardOptions options = divide_conquer_options(per_part);
  options.num_threads = threads;
  return shard_schedule(inst, recursive_acyclic_partition(inst.dag, 60, greedy),
                        options);
}

TEST(ShardPartition, CoversAllNodesWithMonotoneParts) {
  Rng rng(7);
  const ComputeDag dag = random_layered_dag(120, 6, rng);
  for (int k : {1, 2, 5, 16}) {
    const auto parts = acyclic_kway_partition(dag, k);
    ASSERT_FALSE(parts.empty());
    EXPECT_LE(parts.size(), static_cast<std::size_t>(k));
    std::vector<int> part_of(static_cast<std::size_t>(dag.num_nodes()), -1);
    std::size_t covered = 0;
    for (std::size_t p = 0; p < parts.size(); ++p) {
      EXPECT_FALSE(parts[p].empty()) << "shard " << p;
      for (NodeId v : parts[p]) {
        ASSERT_EQ(part_of[static_cast<std::size_t>(v)], -1)
            << "node " << v << " in two shards";
        part_of[static_cast<std::size_t>(v)] = static_cast<int>(p);
        ++covered;
      }
    }
    EXPECT_EQ(covered, static_cast<std::size_t>(dag.num_nodes()));
    // Interval partition of a topological order: edges never point from a
    // later shard to an earlier one, so the quotient is acyclic.
    for (NodeId u = 0; u < dag.num_nodes(); ++u) {
      for (NodeId v : dag.children(u)) {
        EXPECT_LE(part_of[static_cast<std::size_t>(u)],
                  part_of[static_cast<std::size_t>(v)]);
      }
    }
  }
}

TEST(ShardPartition, OversizedKCollapsesToNodeCount) {
  Rng rng(9);
  const ComputeDag dag = random_layered_dag(10, 3, rng);
  const auto parts = acyclic_kway_partition(dag, 64);
  std::size_t covered = 0;
  for (const auto& part : parts) covered += part.size();
  EXPECT_EQ(covered, static_cast<std::size_t>(dag.num_nodes()));
  EXPECT_LE(parts.size(), static_cast<std::size_t>(dag.num_nodes()));
}

TEST(ShardSchedule, ValidatesAndNeverLosesToGreedySeed) {
  for (const char* spec :
       {"stencil2d:nx=6,ny=6,steps=4", "mapreduce:maps=8,reducers=4"}) {
    const MbspInstance inst = workload_instance(spec, 4, 3.0);
    const ShardOptions options = deterministic_options(4);
    const ShardResult result = shard_schedule(inst, options);
    EXPECT_EQ(result.num_shards, 4u);
    const ValidationResult valid = validate(inst, result.schedule);
    EXPECT_TRUE(valid.ok) << spec << ": " << valid.error;
    ASSERT_GT(result.seed_cost, 0) << spec;
    EXPECT_LE(result.cost, result.seed_cost + 1e-9) << spec;
    // The polish never regresses the stitched plan either.
    EXPECT_LE(result.cost, result.stitched_cost + 1e-9) << spec;
  }
}

TEST(ShardSchedule, PolishPricesTheStitchedPlan) {
  // With the polish on, stitched_cost comes from the polish's own pricing
  // of the stitched plan; it must equal the cost of the same pipeline
  // with the polish (and the seed compare) switched off.
  for (const char* spec :
       {"stencil2d:nx=6,ny=6,steps=4", "mapreduce:maps=8,reducers=4",
        "wavefront:nx=8,ny=8", "fft:n=32"}) {
    const MbspInstance inst = workload_instance(spec, 4, 3.0);
    ShardOptions options = deterministic_options(4);
    const ShardResult polished = shard_schedule(inst, options);
    ASSERT_GT(polished.boundary_nodes, 0u) << spec;
    options.polish_max_iterations = 0;
    options.compare_full_seed = false;
    const ShardResult unpolished = shard_schedule(inst, options);
    EXPECT_EQ(polished.stitched_cost, unpolished.cost) << spec;
    EXPECT_EQ(unpolished.stitched_cost, unpolished.cost) << spec;
  }
}

TEST(ShardSchedule, SingleShardDegeneratesGracefully) {
  const MbspInstance inst = workload_instance("wavefront:nx=6,ny=5", 2, 3.0);
  const ShardResult result = shard_schedule(inst, deterministic_options(1));
  EXPECT_EQ(result.num_shards, 1u);
  EXPECT_EQ(result.cut_edges, 0u);
  EXPECT_EQ(result.boundary_nodes, 0u);
  EXPECT_TRUE(validate(inst, result.schedule).ok);
}

TEST(ShardSchedule, BitwiseReproducibleAcrossThreadCounts) {
  const MbspInstance inst =
      workload_instance("stencil2d:nx=7,ny=5,steps=4", 4, 3.0);
  auto run = [&](int threads) {
    ShardOptions options = deterministic_options(5);
    options.num_threads = threads;
    return shard_schedule(inst, options);
  };
  const ShardResult serial = run(1);
  const ShardResult parallel = run(8);
  EXPECT_EQ(serial.cost, parallel.cost);  // bitwise, not approximate
  EXPECT_EQ(serial.stitched_cost, parallel.stitched_cost);
  EXPECT_EQ(serial.cut_edges, parallel.cut_edges);
  EXPECT_EQ(serial.boundary_nodes, parallel.boundary_nodes);
  expect_same_plan(serial.plan, parallel.plan);
}

TEST(ShardSchedule, ShardCountChangesSeedStream) {
  // Different shard counts are different (deterministic) searches; this
  // guards against the shard-indexed seeds collapsing to one stream.
  const MbspInstance inst =
      workload_instance("stencil2d:nx=7,ny=5,steps=4", 4, 3.0);
  const ShardResult a = shard_schedule(inst, deterministic_options(2));
  const ShardResult b = shard_schedule(inst, deterministic_options(5));
  EXPECT_TRUE(validate(inst, a.schedule).ok);
  EXPECT_TRUE(validate(inst, b.schedule).ok);
  EXPECT_NE(a.num_shards, b.num_shards);
}

TEST(MaskedLns, AllOnesMaskIsIdentityAndFrozenNodesKeepAssignments) {
  const MbspInstance inst = workload_instance("fft:n=8", 2, 3.0);
  const ComputePlan initial =
      plan_from_bsp(inst.dag,
                    GreedyBspScheduler().schedule(inst.dag, inst.arch),
                    inst.arch.num_processors);
  LnsOptions options;
  options.budget_ms = 0;
  options.max_iterations = 4000;

  const LnsResult unmasked = improve_plan(inst, initial, options);

  // An all-ones mask must not change a single draw.
  std::vector<char> all(static_cast<std::size_t>(inst.dag.num_nodes()), 1);
  LnsOptions masked_options = options;
  masked_options.node_mask = &all;
  const LnsResult all_masked = improve_plan(inst, initial, masked_options);
  EXPECT_EQ(all_masked.cost, unmasked.cost);
  EXPECT_EQ(all_masked.iterations, unmasked.iterations);
  EXPECT_EQ(all_masked.accepted, unmasked.accepted);

  // Freeze the first half of the nodes: their occurrence multisets (node,
  // proc) must survive the search untouched.
  std::vector<char> half(static_cast<std::size_t>(inst.dag.num_nodes()), 0);
  for (NodeId v = inst.dag.num_nodes() / 2; v < inst.dag.num_nodes(); ++v) {
    half[static_cast<std::size_t>(v)] = 1;
  }
  masked_options.node_mask = &half;
  const LnsResult half_masked = improve_plan(inst, initial, masked_options);
  EXPECT_TRUE(validate(inst, half_masked.schedule).ok);
  auto frozen_occurrences = [&](const ComputePlan& plan) {
    std::vector<std::pair<NodeId, int>> out;
    for (int p = 0; p < plan.num_procs; ++p) {
      for (const PlannedCompute& pc : plan.seq[static_cast<std::size_t>(p)]) {
        if (!half[static_cast<std::size_t>(pc.node)]) {
          out.emplace_back(pc.node, p);
        }
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(frozen_occurrences(half_masked.plan), frozen_occurrences(initial));
}

TEST(ShardedAdapter, RegisteredAndMapsResultFields) {
  const MbspInstance inst =
      workload_instance("stencil2d:nx=6,ny=4,steps=3", 2, 3.0);
  SchedulerOptions options;
  options.budget_ms = 0;
  options.max_iterations = 2000;
  options.shards = 3;
  const ScheduleResult result =
      SchedulerRegistry::global().at("sharded").run(inst, options);
  EXPECT_EQ(result.scheduler, "sharded");
  EXPECT_TRUE(validate(inst, result.schedule).ok);
  EXPECT_EQ(result.num_parts, 3u);
  EXPECT_GT(result.baseline_cost, 0);
  EXPECT_LE(result.cost, result.baseline_cost + 1e-9);
}

TEST(DivideConquerPin, MatchesHistoricalGoldens) {
  // Captured from the stand-alone divide-and-conquer implementation this
  // configuration replaced: the merge must not move a single plan.
  struct Golden {
    int index, P;
    CostModel cost;
    std::size_t parts;
    double expected_cost;
    std::uint64_t fingerprint;
  };
  const Golden goldens[] = {
      {0, 1, CostModel::kSynchronous, 7, 941, 0xf66d46e45de9ac8dull},
      {0, 1, CostModel::kAsynchronous, 7, 861, 0xf66d46e45de9ac8dull},
      {0, 4, CostModel::kSynchronous, 7, 886, 0x93a41d5510efc10cull},
      {0, 4, CostModel::kAsynchronous, 7, 586, 0xd8bd0e6c5597c017ull},
      {2, 1, CostModel::kSynchronous, 8, 1475, 0x9232d55dbfa2dd6aull},
      {2, 1, CostModel::kAsynchronous, 8, 1263, 0x841e8e71790d8417ull},
      {2, 4, CostModel::kSynchronous, 8, 537, 0x2f21171397617373ull},
      {2, 4, CostModel::kAsynchronous, 8, 362, 0xaeefa7bc6955b711ull},
  };
  for (const Golden& g : goldens) {
    const MbspInstance inst = paper_instance(g.index, g.P);
    const ShardResult res = pinned_divide_conquer(inst, g.cost, 1);
    const std::string label = inst.dag.name() + " P=" + std::to_string(g.P) +
                              (g.cost == CostModel::kSynchronous ? " sync"
                                                                 : " async");
    EXPECT_EQ(res.num_shards, g.parts) << label;
    EXPECT_EQ(res.cost, g.expected_cost) << label;  // bitwise
    EXPECT_EQ(plan_fingerprint(res.plan), g.fingerprint) << label;
    EXPECT_TRUE(validate(inst, res.schedule).ok) << label;
  }
}

TEST(DivideConquerPin, BitwiseReproducibleAcrossThreadCounts) {
  const MbspInstance inst = paper_instance(2, 4);
  const ShardResult serial =
      pinned_divide_conquer(inst, CostModel::kSynchronous, 1);
  const ShardResult parallel =
      pinned_divide_conquer(inst, CostModel::kSynchronous, 4);
  EXPECT_EQ(serial.cost, parallel.cost);
  expect_same_plan(serial.plan, parallel.plan);
}

TEST(ShardSchedule, MatchesHistoricalGoldens) {
  // The sharded path's plans, pinned across the divide-and-conquer merge.
  const MbspInstance inst =
      workload_instance("stencil2d:nx=7,ny=5,steps=4", 4, 3.0);
  struct Golden {
    int shards;
    double cost, stitched_cost;
    std::uint64_t fingerprint;
  };
  for (const Golden& g : {Golden{1, 437, 437, 0xc9b894e99fc247ddull},
                          Golden{4, 426, 429, 0xeb7ced2349bdb36aull}}) {
    const ShardResult res = shard_schedule(inst, deterministic_options(g.shards));
    EXPECT_EQ(res.num_shards, static_cast<std::size_t>(g.shards));
    EXPECT_EQ(res.cost, g.cost) << "k=" << g.shards;
    EXPECT_EQ(res.stitched_cost, g.stitched_cost) << "k=" << g.shards;
    EXPECT_EQ(plan_fingerprint(res.plan), g.fingerprint) << "k=" << g.shards;
    EXPECT_FALSE(res.used_full_seed);
    EXPECT_TRUE(validate(inst, res.schedule).ok);
  }
}

TEST(ShardSchedule, ZeroWorkWaveGetsRoundRobinProcessors) {
  // omega = 0 everywhere is a legal DAG; a wave with no work used to
  // divide 0 by 0 when handing out spare processors.
  ComputeDag chain;
  chain.set_name("zero_work_chain");
  for (int i = 0; i < 6; ++i) chain.add_node(0.0, 1.0);
  for (NodeId v = 1; v < 6; ++v) chain.add_edge(v - 1, v);
  const MbspInstance inst{std::move(chain), Architecture::make(4, 10, 1, 5)};

  const ShardResult sharded = shard_schedule(inst, deterministic_options(2));
  EXPECT_EQ(sharded.num_shards, 2u);
  const ValidationResult valid = validate(inst, sharded.schedule);
  EXPECT_TRUE(valid.ok) << valid.error;

  SchedulerOptions options;
  options.budget_ms = 0;
  options.max_iterations = 200;
  options.shards = 2;
  for (const char* name : {"sharded", "divide-conquer"}) {
    const ScheduleResult result =
        SchedulerRegistry::global().at(name).run(inst, options);
    const ValidationResult ok = validate(inst, result.schedule);
    EXPECT_TRUE(ok.ok) << name << ": " << ok.error;
  }
}

}  // namespace
}  // namespace mbsp
