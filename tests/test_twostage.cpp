// Integration tests for the two-stage pipeline: BSP scheduling, compute
// plans, and the memory-completion engine (held bitwise to the reference
// completer of tests/support/). Heavy use of parameterized
// sweeps: every (instance, policy, memory bound) combination must produce
// a schedule that passes full semantic validation.
#include <gtest/gtest.h>

#include "src/bsp/greedy_scheduler.hpp"
#include "src/graph/dag_io.hpp"
#include "src/graph/generators.hpp"
#include "src/holistic/lns.hpp"
#include "src/model/cost.hpp"
#include "src/model/machine_registry.hpp"
#include "src/model/validate.hpp"
#include "src/twostage/memory_completion.hpp"
#include "src/twostage/two_stage.hpp"
#include "src/workload/workload_registry.hpp"
#include "tests/recompute_plan.hpp"
#include "tests/support/reference_completion.hpp"
#include "tests/support/reference_lns.hpp"

namespace mbsp {
namespace {

MbspInstance make_instance(ComputeDag dag, int P, double r_factor,
                           double g = 1, double L = 10) {
  const double r0 = min_memory_r0(dag);
  return {std::move(dag), Architecture::make(P, r_factor * r0, g, L)};
}

TEST(ComputePlan, FromBspRoundTrip) {
  Rng rng(1);
  ComputeDag dag = spmv_dag(6, 3, rng, "t");
  const MbspInstance inst = make_instance(std::move(dag), 2, 3);
  GreedyBspScheduler sched;
  const BspSchedule bsp = sched.schedule(inst.dag, inst.arch);
  ASSERT_TRUE(validate_bsp(inst.dag, 2, bsp).ok);
  const ComputePlan plan = plan_from_bsp(inst.dag, bsp, 2);
  EXPECT_TRUE(validate_plan(inst.dag, plan).ok);
  std::size_t non_sources = 0;
  for (NodeId v = 0; v < inst.dag.num_nodes(); ++v) {
    non_sources += !inst.dag.is_source(v);
  }
  EXPECT_EQ(plan.total_computes(), non_sources);
}

TEST(ComputePlan, DetectsMissingNode) {
  ComputeDag dag;
  dag.add_node(0, 1);
  dag.add_node(1, 1);
  dag.add_edge(0, 1);
  ComputePlan plan;
  plan.num_procs = 1;
  plan.seq.resize(1);
  EXPECT_FALSE(validate_plan(dag, plan).ok);
}

TEST(ComputePlan, DetectsUnavailableParent) {
  // a -> b with both on different procs in the same superstep.
  ComputeDag dag;
  dag.add_node(0, 1);  // source s
  dag.add_node(1, 1);  // a
  dag.add_node(1, 1);  // b
  dag.add_edge(0, 1);
  dag.add_edge(1, 2);
  ComputePlan plan;
  plan.num_procs = 2;
  plan.seq.resize(2);
  plan.seq[0].push_back({1, 0});
  plan.seq[1].push_back({2, 0});  // parent a unavailable cross-proc same step
  EXPECT_FALSE(validate_plan(dag, plan).ok);
  plan.seq[1][0].superstep = 1;
  EXPECT_TRUE(validate_plan(dag, plan).ok);
}

TEST(ComputePlan, RecomputationAccepted) {
  ComputeDag dag;
  dag.add_node(0, 1);
  dag.add_node(1, 1);
  dag.add_node(1, 1);
  dag.add_edge(0, 1);
  dag.add_edge(1, 2);
  ComputePlan plan;
  plan.num_procs = 2;
  plan.seq.resize(2);
  plan.seq[0].push_back({1, 0});
  plan.seq[1].push_back({1, 0});  // recompute a locally
  plan.seq[1].push_back({2, 0});
  EXPECT_TRUE(validate_plan(dag, plan).ok);
}

TEST(ComputePlan, NormalizeSupersteps) {
  ComputePlan plan;
  plan.num_procs = 1;
  plan.seq.resize(1);
  plan.seq[0] = {{0, 3}, {1, 7}, {2, 7}};
  normalize_supersteps(plan);
  EXPECT_EQ(plan.seq[0][0].superstep, 0);
  EXPECT_EQ(plan.seq[0][1].superstep, 1);
  EXPECT_EQ(plan.num_supersteps(), 2);
}

// ---------------------------------------------------------------------------
// Parameterized sweep: every tiny-dataset instance completes to a valid
// schedule under every policy and several memory bounds.
struct SweepParam {
  int instance_index;
  PolicyKind policy;
  double r_factor;
};

class CompletionSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(CompletionSweep, ProducesValidSchedule) {
  const SweepParam param = GetParam();
  auto dataset = tiny_dataset(2025);
  ComputeDag dag = std::move(dataset[param.instance_index]);
  const std::string name = dag.name();
  const MbspInstance inst = make_instance(std::move(dag), 4, param.r_factor);
  GreedyBspScheduler stage1;
  const TwoStageResult result =
      two_stage_schedule(inst, stage1, param.policy);
  const ValidationResult valid = validate(inst, result.mbsp);
  EXPECT_TRUE(valid.ok) << name << ": " << valid.error;
  EXPECT_GT(sync_cost(inst, result.mbsp), 0);
  EXPECT_GT(async_cost(inst, result.mbsp), 0);
  EXPECT_LE(async_cost(inst, result.mbsp),
            sync_cost(inst, result.mbsp) + 1e-9)
      << "async cost must not exceed sync cost (L contributes only sync)";
  // Every non-source node computed exactly once (no recomputation in the
  // two-stage pipeline).
  for (NodeId v = 0; v < inst.dag.num_nodes(); ++v) {
    if (!inst.dag.is_source(v)) {
      EXPECT_EQ(result.mbsp.compute_count(v), 1u) << name << " node " << v;
    }
  }
}

std::vector<SweepParam> sweep_params() {
  std::vector<SweepParam> params;
  for (int i = 0; i < 15; ++i) {
    for (PolicyKind policy : {PolicyKind::kClairvoyant, PolicyKind::kLru}) {
      for (double r : {1.0, 3.0, 5.0}) {
        params.push_back({i, policy, r});
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(TinyDataset, CompletionSweep,
                         ::testing::ValuesIn(sweep_params()),
                         [](const auto& info) {
                           const SweepParam& p = info.param;
                           return "i" + std::to_string(p.instance_index) +
                                  (p.policy == PolicyKind::kClairvoyant
                                       ? "_cv_"
                                       : "_lru_") +
                                  "r" + std::to_string(int(p.r_factor));
                         });

// Tighter memory must never make the schedule cheaper (same stage-1 plan).
TEST(Completion, MonotoneInMemoryBound) {
  auto dataset = tiny_dataset(2025);
  for (int i : {0, 3, 9}) {
    ComputeDag dag = dataset[i];
    const double r0 = min_memory_r0(dag);
    GreedyBspScheduler stage1;
    double previous = -1;
    for (double factor : {1.0, 2.0, 4.0, 8.0}) {
      MbspInstance inst{dag, Architecture::make(4, factor * r0, 1, 10)};
      const TwoStageResult res =
          two_stage_schedule(inst, stage1, PolicyKind::kClairvoyant);
      const double cost = sync_cost(inst, res.mbsp);
      if (previous >= 0) {
        EXPECT_LE(cost, previous * 1.001)
            << dag.name() << " factor " << factor;
      }
      previous = cost;
    }
  }
}

// The completion engine also handles plans *with* recomputation.
TEST(Completion, RecomputePlanCompletes) {
  ComputeDag dag;
  const NodeId s = dag.add_node(0, 1);
  const NodeId a = dag.add_node(1, 1);
  const NodeId b = dag.add_node(1, 1);
  const NodeId c = dag.add_node(1, 1);
  dag.add_edge(s, a);
  dag.add_edge(a, b);
  dag.add_edge(a, c);
  MbspInstance inst{dag, Architecture::make(2, 3, 1, 0)};
  ComputePlan plan;
  plan.num_procs = 2;
  plan.seq.resize(2);
  plan.seq[0] = {{a, 0}, {b, 0}};
  plan.seq[1] = {{a, 0}, {c, 0}};  // a recomputed on p1, no load needed
  ASSERT_TRUE(validate_plan(dag, plan).ok);
  const MbspSchedule sched =
      complete_memory(inst, plan, PolicyKind::kClairvoyant);
  const auto valid = validate(inst, sched);
  EXPECT_TRUE(valid.ok) << valid.error;
  EXPECT_EQ(sched.compute_count(a), 2u);
}

// With r = r0 exactly, long chains force eviction churn but must stay valid.
TEST(Completion, TightMemoryChain) {
  ComputeDag dag("tight_chain");
  const NodeId h = dag.add_node(0, 2);  // heavy source reused by all
  NodeId prev = kInvalidNode;
  for (int i = 0; i < 12; ++i) {
    const NodeId v = dag.add_node(1, 1);
    dag.add_edge(h, v);
    if (prev != kInvalidNode) dag.add_edge(prev, v);
    prev = v;
  }
  const double r0 = min_memory_r0(dag);
  MbspInstance inst{dag, Architecture::make(1, r0, 1, 0)};
  GreedyBspScheduler stage1;
  const TwoStageResult res =
      two_stage_schedule(inst, stage1, PolicyKind::kClairvoyant);
  const auto valid = validate(inst, res.mbsp);
  EXPECT_TRUE(valid.ok) << valid.error;
}

TEST(Baselines, AllKindsRunOnSmallInstance) {
  Rng rng(4);
  ComputeDag dag = iterated_spmv_dag(4, 2, 2, rng, "x");
  assign_random_memory_weights(dag, rng);
  const MbspInstance inst = make_instance(std::move(dag), 2, 3);
  for (BaselineKind kind :
       {BaselineKind::kGreedyClairvoyant, BaselineKind::kCilkLru,
        BaselineKind::kRefinedClairvoyant}) {
    const TwoStageResult res = run_baseline(inst, kind, 50);
    const auto valid = validate(inst, res.mbsp);
    EXPECT_TRUE(valid.ok) << baseline_name(kind) << ": " << valid.error;
  }
}

TEST(Baselines, PlanOnlyIsRunBaselinesPlan) {
  Rng rng(4);
  ComputeDag dag = iterated_spmv_dag(4, 2, 2, rng, "x");
  assign_random_memory_weights(dag, rng);
  const MbspInstance inst = make_instance(std::move(dag), 2, 3);
  // The refined stage 1 is wall-clock budgeted, so it is left out.
  for (BaselineKind kind : {BaselineKind::kGreedyClairvoyant,
                            BaselineKind::kCilkLru,
                            BaselineKind::kDfsClairvoyant}) {
    EXPECT_TRUE(baseline_plan(inst, kind).seq ==
                run_baseline(inst, kind).plan.seq)
        << baseline_name(kind);
  }
}

TEST(Baselines, DfsForSingleProcessor) {
  Rng rng(4);
  ComputeDag dag = spmv_dag(5, 3, rng, "p1");
  assign_random_memory_weights(dag, rng);
  const MbspInstance inst = make_instance(std::move(dag), 1, 3);
  const TwoStageResult res =
      run_baseline(inst, BaselineKind::kDfsClairvoyant);
  const auto valid = validate(inst, res.mbsp);
  EXPECT_TRUE(valid.ok) << valid.error;
}

/// FNV-1a digest of every operation of `sched`, in order, with the
/// per-phase lengths mixed in so ops cannot migrate between phases,
/// processors or supersteps unnoticed.
std::uint64_t schedule_digest(const MbspSchedule& sched) {
  std::uint64_t h = kFnvOffset;
  const auto mix = [&h](std::uint64_t word) {
    h = fnv1a_64(&word, sizeof(word), h);
  };
  const auto mix_nodes = [&mix](const std::vector<NodeId>& nodes) {
    mix(nodes.size());
    for (NodeId v : nodes) mix(v);
  };
  mix(sched.steps.size());
  for (const Superstep& step : sched.steps) {
    mix(step.proc.size());
    for (const ProcStep& ps : step.proc) {
      mix(ps.compute_phase.size());
      for (const PhaseOp& op : ps.compute_phase) {
        mix(static_cast<std::uint64_t>(op.kind) << 32 | op.node);
      }
      mix_nodes(ps.saves);
      mix_nodes(ps.deletes);
      mix_nodes(ps.loads);
    }
  }
  return h;
}

/// One of the 24 digest plans: a stage-1 plan (with local recomputation
/// for some) on a uniform, hetero or NUMA machine with tight memories, and
/// the digests its completions were recorded with.
struct DigestCase {
  std::string label;
  MbspInstance inst;
  ComputePlan plan;
  std::uint64_t clairvoyant, lru;
};

std::vector<DigestCase> digest_cases() {
  // Tight memories (completion sees a machine only through them), so
  // nearly every segment evicts.
  constexpr const char* kUniform = "uniform:P=4,rf=1";
  constexpr const char* kHetero = "hetero:P=4,mems=1x2+2x2,rf=1,speeds=1x2+2x2";
  constexpr const char* kNuma = "numa:gin=1,gout=4,groups=2x2,mems=1x3+2x1,rf=1.2";
  struct Golden {
    const char* workload;
    bool recompute;
    const char* machine;
    std::uint64_t clairvoyant, lru;
  };
  const Golden goldens[] = {
      {"stencil2d:nx=5,ny=4,steps=3", false, kUniform,
       0x2bd84cc139b2058aull, 0x3616199251addf59ull},
      {"stencil2d:nx=5,ny=4,steps=3", false, kHetero,
       0xea295e943615f43eull, 0xff6773b7a486edfeull},
      {"stencil2d:nx=5,ny=4,steps=3", false, kNuma,
       0xd9579400601cd3dbull, 0x2e8d5ee064deeb5dull},
      {"fft:n=16", false, kUniform,
       0x0996d39486910900ull, 0xf02cfc798c096b9cull},
      {"fft:n=16", false, kHetero,
       0x0afbb8c48ab51a80ull, 0xdc24962308e6d6efull},
      {"fft:n=16", false, kNuma,
       0xd677f610ef118989ull, 0x88224ae77f47c880ull},
      {"wavefront:nx=6,ny=6", false, kUniform,
       0x701c70405aa7a249ull, 0xded75390e9e2d413ull},
      {"wavefront:nx=6,ny=6", false, kHetero,
       0x701c70405aa7a249ull, 0xded75390e9e2d413ull},
      {"wavefront:nx=6,ny=6", false, kNuma,
       0x124016a4f91dffccull, 0xd30ef760db01de54ull},
      {"spmv", false, kUniform,
       0x385ba8dfed24c8ccull, 0xedbaea19bbdde44cull},
      {"spmv", false, kHetero,
       0x2fda9229c03b35efull, 0x7f0562f4cda70594ull},
      {"spmv", false, kNuma,
       0xb78a14b27b01a611ull, 0xc48548062915d79bull},
      {"lu:blocks=4", false, kUniform,
       0x5dc683933e87c8e3ull, 0x9e19e5ec33006177ull},
      {"lu:blocks=4", false, kHetero,
       0x5dc683933e87c8e3ull, 0x9e19e5ec33006177ull},
      {"lu:blocks=4", false, kNuma,
       0x9ec996c81fb90b02ull, 0x7f241b9868765f30ull},
      {"attention", false, kUniform,
       0xd5284dc83b760bf0ull, 0x8204e9d0393939f3ull},
      {"attention", false, kHetero,
       0x68fc2edbad7fd082ull, 0xb543b2a142cb0554ull},
      {"attention", false, kNuma,
       0x0d8a62da44cf14ffull, 0xc7ae0727e1091627ull},
      {"stencil2d:nx=5,ny=4,steps=3", true, kUniform,
       0x5a2850d4963456e2ull, 0x72739926f0ff501full},
      {"stencil2d:nx=5,ny=4,steps=3", true, kHetero,
       0x99fc40ae5e39853eull, 0xd2461b895c57b0cfull},
      {"stencil2d:nx=5,ny=4,steps=3", true, kNuma,
       0xe5c07780b99fa4f0ull, 0x0bc7436f8f2ad284ull},
      {"fft:n=16", true, kUniform,
       0x93ca3338e2dd0166ull, 0x0bb39a2c443d3938ull},
      {"fft:n=16", true, kHetero,
       0x4e516f20b220f1afull, 0x3c3b1d28db6e6240ull},
      {"fft:n=16", true, kNuma,
       0x35a501f7457e686full, 0x776c259c4a44c466ull},
  };
  std::vector<DigestCase> cases;
  for (const Golden& g : goldens) {
    std::string error;
    auto dag = WorkloadRegistry::global().make_dag(g.workload, 2025, &error);
    EXPECT_TRUE(dag.has_value()) << g.workload << ": " << error;
    auto machine = MachineRegistry::global().make_machine(
        g.machine, min_memory_r0(*dag), &error);
    EXPECT_TRUE(machine.has_value()) << g.machine << ": " << error;
    MbspInstance inst{std::move(*dag), std::move(*machine)};
    GreedyBspScheduler stage1;
    ComputePlan plan = plan_from_bsp(
        inst.dag, stage1.schedule(inst.dag, inst.arch), inst.arch.num_processors);
    if (g.recompute) {
      const std::size_t computes = plan.total_computes();
      plan = with_local_recomputes(inst.dag, plan);
      EXPECT_GT(plan.total_computes(), computes) << g.workload;
    }
    EXPECT_TRUE(validate_plan(inst.dag, plan).ok) << g.workload;
    cases.push_back({std::string(g.workload) +
                         (g.recompute ? "+recompute" : "") + " on " + g.machine,
                     std::move(inst), std::move(plan), g.clairvoyant, g.lru});
  }
  return cases;
}

// Pins the completer's decisions, not just their cost: a change that
// picks another victim or order at equal cost moves a digest. Recorded
// from the completer before its allocation-free rewrite; the library's
// completion and the reference completer must both reproduce them.
TEST(Completion, MatchesHistoricalScheduleDigests) {
  for (const DigestCase& c : digest_cases()) {
    for (PolicyKind policy : {PolicyKind::kClairvoyant, PolicyKind::kLru}) {
      const std::string label =
          c.label +
          (policy == PolicyKind::kClairvoyant ? " clairvoyant" : " lru");
      const char* engines[] = {" (library)", " (reference)"};
      const MbspSchedule schedules[] = {
          complete_memory(c.inst, c.plan, policy),
          complete_memory(c.inst, c.plan, *make_policy(policy))};
      for (int e = 0; e < 2; ++e) {
        EXPECT_TRUE(validate(c.inst, schedules[e]).ok) << label << engines[e];
        EXPECT_EQ(schedule_digest(schedules[e]),
                  policy == PolicyKind::kClairvoyant ? c.clairvoyant : c.lru)
            << label << engines[e];
      }
    }
  }
}

/// The library's completion against the reference completer on one plan,
/// both policies and both cost models: the same schedule and the same
/// cost, bitwise, from complete_memory and from evaluate_plan.
void expect_matches_reference(const MbspInstance& inst, const ComputePlan& plan,
                              const std::string& label) {
  for (PolicyKind policy : {PolicyKind::kClairvoyant, PolicyKind::kLru}) {
    const MbspSchedule reference =
        complete_memory(inst, plan, *make_policy(policy));
    EXPECT_TRUE(complete_memory(inst, plan, policy) == reference) << label;
    for (CostModel cost : {CostModel::kSynchronous, CostModel::kAsynchronous}) {
      LnsOptions options;
      options.completion_policy = policy;
      options.cost = cost;
      MbspSchedule sched;
      EXPECT_EQ(evaluate_plan(inst, plan, options, &sched),
                reference_evaluate_plan(inst, plan, options))
          << label << " policy " << static_cast<int>(policy) << " cost "
          << static_cast<int>(cost);
      EXPECT_TRUE(sched == reference) << label;
    }
  }
}

TEST(Completion, MatchesReferenceCompleterOnDigestPlans) {
  for (const DigestCase& c : digest_cases()) {
    expect_matches_reference(c.inst, c.plan, c.label);
  }
}

// Randomized plans: searched (so they carry the LNS's moves, recomputation
// included) and then spread to gapped superstep labels, on all three
// machine kinds.
TEST(Completion, MatchesReferenceCompleterOnRandomGappedPlans) {
  const char* machines[] = {
      "uniform:P=3,rf=1.5",
      "hetero:P=4,mems=1x2+2x2,rf=1,speeds=1x2+2x2",
      "numa:gin=1,gout=4,groups=2x2,mems=1x3+2x1,rf=1.2",
  };
  for (int seed = 0; seed < 12; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed));
    ComputeDag dag = random_layered_dag(30 + 5 * seed, 4, rng);
    assign_random_memory_weights(dag, rng);
    std::string error;
    auto machine = MachineRegistry::global().make_machine(
        machines[seed % 3], min_memory_r0(dag), &error);
    ASSERT_TRUE(machine.has_value()) << error;
    const MbspInstance inst{std::move(dag), std::move(*machine)};
    GreedyBspScheduler stage1;
    ComputePlan plan = plan_from_bsp(
        inst.dag, stage1.schedule(inst.dag, inst.arch), inst.arch.num_processors);
    if (seed % 2 == 1) plan = with_local_recomputes(inst.dag, plan);
    LnsOptions search;
    search.budget_ms = 0;
    search.max_iterations = 200;
    search.seed = static_cast<std::uint64_t>(seed);
    plan = search_plan(inst, plan, search).plan;
    for (auto& seq : plan.seq) {
      for (PlannedCompute& pc : seq) pc.superstep = 2 * pc.superstep + 1;
    }
    ASSERT_FALSE(has_dense_supersteps(plan));
    ASSERT_TRUE(validate_plan(inst.dag, plan).ok);
    expect_matches_reference(inst, plan, "seed " + std::to_string(seed));
  }
}

// Random layered DAGs: fuzz the completion engine across shapes and seeds.
class RandomDagFuzz : public ::testing::TestWithParam<int> {};

TEST_P(RandomDagFuzz, CompletionAlwaysValid) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  ComputeDag dag = random_layered_dag(40 + GetParam() % 41, 4, rng);
  assign_random_memory_weights(dag, rng);
  const int P = 1 + GetParam() % 4;
  const double factor = 1.0 + (GetParam() % 3);
  const MbspInstance inst = make_instance(std::move(dag), P, factor);
  GreedyBspScheduler stage1;
  for (PolicyKind policy : {PolicyKind::kClairvoyant, PolicyKind::kLru}) {
    const TwoStageResult res = two_stage_schedule(inst, stage1, policy);
    const auto valid = validate(inst, res.mbsp);
    EXPECT_TRUE(valid.ok) << "seed " << GetParam() << ": " << valid.error;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDagFuzz, ::testing::Range(0, 25));

}  // namespace
}  // namespace mbsp
