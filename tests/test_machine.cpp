// Machine-model registry and heterogeneous-cost tests:
//  * registry canonical names, round-trip determinism, error style
//    (offending token + valid keys, aligned with the workload registry);
//  * uniform identity — the generalized (hetero/numa) code paths with
//    degenerate parameters reproduce the historical uniform costs
//    bitwise, across evaluate_plan, improve_plan and PortfolioLns;
//  * hand-checked heterogeneous cost semantics (speeds, home-group
//    transfer pricing, per-group latency, per-processor capacities);
//  * randomized incremental-vs-oracle differential on heterogeneous
//    machines (improve_plan == improve_plan_reference; in debug builds
//    the evaluator additionally asserts bitwise row equality per move).
#include <gtest/gtest.h>

#include "src/holistic/lns.hpp"
#include "src/holistic/portfolio.hpp"
#include "src/model/cost.hpp"
#include "src/model/machine_registry.hpp"
#include "src/model/validate.hpp"
#include "src/runner/batch_runner.hpp"
#include "src/twostage/two_stage.hpp"
#include "src/workload/workload_registry.hpp"
#include "tests/support/reference_lns.hpp"

namespace mbsp {
namespace {

const char* kFamilies[] = {
    "stencil2d:nx=5,ny=5,steps=2",
    "fft:n=16",
    "lu:blocks=3",
    "wavefront:nx=6,ny=6",
    "mapreduce:maps=8,reducers=3",
};

ComputeDag workload_dag(const std::string& spec) {
  std::string error;
  auto dag = WorkloadRegistry::global().make_dag(spec, 2025, &error);
  EXPECT_TRUE(dag.has_value()) << spec << ": " << error;
  return std::move(*dag);
}

Machine machine_or_die(const std::string& spec, double base_memory) {
  std::string error;
  auto machine =
      MachineRegistry::global().make_machine(spec, base_memory, &error);
  EXPECT_TRUE(machine.has_value()) << spec << ": " << error;
  return std::move(*machine);
}

// ---------------------------------------------------------------------------
// Registry.

TEST(MachineRegistry, ListsBuiltinKinds) {
  const auto names = MachineRegistry::global().names();
  EXPECT_EQ(names,
            (std::vector<std::string>{"hetero", "numa", "uniform"}));
}

TEST(MachineRegistry, CanonicalNamesDropDefaultsAndSortKeys) {
  // Defaults dropped: rf=3 is the declared default.
  EXPECT_EQ(machine_or_die("uniform:P=8,rf=3", 10).name, "uniform:P=8");
  // Spelled-out default machine == bare kind name.
  EXPECT_EQ(machine_or_die("uniform:P=4,g=1,L=10,rf=3", 10).name, "uniform");
  // Keys sorted; every spelling shares one canonical name.
  EXPECT_EQ(machine_or_die("numa:gout=4,groups=2x4,gin=1", 10).name,
            machine_or_die("numa:groups=2x4,gin=1,gout=4", 10).name);
}

TEST(MachineRegistry, RoundTripDeterminism) {
  // Equal specs yield equal machines, field for field, and the canonical
  // name itself round-trips to the same machine.
  for (const char* spec :
       {"uniform:P=8", "hetero:P=8,speeds=1x4+2x4,mems=1x6+2x2",
        "numa:groups=2x4,gin=1,gout=4,Lg=5,speeds=2"}) {
    const Machine a = machine_or_die(spec, 7.5);
    const Machine b = machine_or_die(spec, 7.5);
    const Machine c = machine_or_die(a.name, 7.5);
    for (const Machine* m : {&b, &c}) {
      EXPECT_EQ(a.name, m->name) << spec;
      EXPECT_EQ(a.num_processors, m->num_processors) << spec;
      EXPECT_EQ(a.fast_memory, m->fast_memory) << spec;
      EXPECT_EQ(a.g, m->g) << spec;
      EXPECT_EQ(a.L, m->L) << spec;
      EXPECT_EQ(a.speeds, m->speeds) << spec;
      EXPECT_EQ(a.memories, m->memories) << spec;
      EXPECT_EQ(a.group_of, m->group_of) << spec;
      EXPECT_EQ(a.g_in, m->g_in) << spec;
      EXPECT_EQ(a.g_out, m->g_out) << spec;
      EXPECT_EQ(a.L_group, m->L_group) << spec;
    }
  }
}

TEST(MachineRegistry, BuildsTheDeclaredShapes) {
  const Machine uniform = machine_or_die("uniform:P=8,rf=2", 10);
  EXPECT_TRUE(uniform.is_uniform());
  EXPECT_EQ(uniform.num_processors, 8);
  EXPECT_EQ(uniform.fast_memory, 20.0);
  EXPECT_EQ(uniform.sync_L(), 10.0);

  const Machine hetero = machine_or_die("hetero:P=8,speeds=1x4+2x4", 10);
  EXPECT_FALSE(hetero.is_uniform());
  EXPECT_EQ(hetero.speed(0), 1.0);
  EXPECT_EQ(hetero.speed(7), 2.0);
  EXPECT_EQ(hetero.memory(3), hetero.fast_memory);
  EXPECT_EQ(hetero.num_groups(), 1);

  const Machine numa =
      machine_or_die("numa:groups=2x4,gin=1,gout=4,Lg=5,L=10", 10);
  EXPECT_EQ(numa.num_processors, 8);
  EXPECT_EQ(numa.num_groups(), 2);
  EXPECT_EQ(numa.group(3), 0);
  EXPECT_EQ(numa.group(4), 1);
  EXPECT_EQ(numa.comm_g(0, 0), 1.0);   // intra-group
  EXPECT_EQ(numa.comm_g(4, 0), 4.0);   // cross-group
  EXPECT_EQ(numa.comm_g(0, -1), 4.0);  // far memory (sources)
  EXPECT_EQ(numa.sync_L(), 10.0 + 5.0 * 2);
}

TEST(MachineRegistry, ErrorsNameTheTokenAndListAlternatives) {
  std::string error;
  const MachineRegistry& registry = MachineRegistry::global();
  EXPECT_FALSE(registry.make_machine("quantum:P=8", 1, &error));
  EXPECT_NE(error.find("unknown machine kind 'quantum'"), std::string::npos)
      << error;
  EXPECT_NE(error.find("hetero, numa, uniform"), std::string::npos) << error;

  EXPECT_FALSE(registry.make_machine("numa:bogus=1", 1, &error));
  EXPECT_NE(error.find("unknown parameter 'bogus'"), std::string::npos)
      << error;
  EXPECT_NE(error.find("machine kind 'numa'"), std::string::npos) << error;
  // The valid keys are listed, sorted.
  EXPECT_NE(error.find("gin"), std::string::npos) << error;
  EXPECT_NE(error.find("groups"), std::string::npos) << error;

  EXPECT_FALSE(registry.make_machine("hetero:P=8,speeds=1x4", 1, &error));
  EXPECT_NE(error.find("covers 4 processors, expected 8"), std::string::npos)
      << error;
  EXPECT_FALSE(registry.make_machine("hetero:speeds=wat", 1, &error));
  EXPECT_NE(error.find("bad entry 'wat'"), std::string::npos) << error;
  EXPECT_FALSE(registry.make_machine("numa:groups=8", 1, &error));
  EXPECT_NE(error.find("'groups'"), std::string::npos) << error;
  EXPECT_FALSE(registry.make_machine("hetero:mems=0.5", 1, &error));
  EXPECT_NE(error.find("below the minimum"), std::string::npos) << error;
}

TEST(WorkloadRegistry, UnknownParameterListsValidKeys) {
  // The workload registry shares the machine registry's error style.
  std::string error;
  EXPECT_FALSE(
      WorkloadRegistry::global().make_dag("fft:bogus=1", 2025, &error));
  EXPECT_NE(error.find("unknown parameter 'bogus'"), std::string::npos)
      << error;
  EXPECT_NE(error.find("valid: mu, n"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// Uniform identity: degenerate generalized machines cost bitwise like the
// historical uniform machine.

TEST(MachineModel, DegenerateHeteroAndNumaMatchUniformBitwise) {
  for (const char* spec : kFamilies) {
    const ComputeDag dag = workload_dag(spec);
    const double r0 = min_memory_r0(dag);
    const MbspInstance uniform{dag, Architecture::make(4, 3 * r0, 1, 10)};
    // hetero with all-equal speeds/mems and numa with one group and
    // gin == gout == g take the generalized code paths.
    const MbspInstance hetero{dag, machine_or_die("hetero:P=4", r0)};
    const MbspInstance numa{
        dag, machine_or_die("numa:groups=1x4,gin=1,gout=1,Lg=0", r0)};
    ASSERT_FALSE(hetero.arch.is_uniform());
    ASSERT_FALSE(numa.arch.is_uniform());

    const ComputePlan plan =
        run_baseline(uniform, BaselineKind::kGreedyClairvoyant).plan;
    LnsOptions options;
    MbspSchedule u_sched, h_sched, n_sched;
    const double u = evaluate_plan(uniform, plan, options, &u_sched);
    const double h = evaluate_plan(hetero, plan, options, &h_sched);
    const double n = evaluate_plan(numa, plan, options, &n_sched);
    EXPECT_EQ(u, h) << spec;
    EXPECT_EQ(u, n) << spec;
    EXPECT_EQ(sync_cost(uniform, u_sched), sync_cost(hetero, h_sched))
        << spec;
    EXPECT_EQ(async_cost(uniform, u_sched), async_cost(hetero, h_sched))
        << spec;
    EXPECT_EQ(async_cost(uniform, u_sched), async_cost(numa, n_sched))
        << spec;

    // The LNS trajectory (incremental engine) is bitwise unchanged too.
    options.budget_ms = 0;
    options.max_iterations = 800;
    options.seed = 13;
    const LnsResult u_lns = improve_plan(uniform, plan, options);
    const LnsResult h_lns = improve_plan(hetero, plan, options);
    const LnsResult n_lns = improve_plan(numa, plan, options);
    EXPECT_EQ(u_lns.cost, h_lns.cost) << spec;
    EXPECT_EQ(u_lns.cost, n_lns.cost) << spec;
    EXPECT_EQ(u_lns.accepted, h_lns.accepted) << spec;
    EXPECT_EQ(u_lns.plan.seq, h_lns.plan.seq) << spec;
    EXPECT_EQ(u_lns.plan.seq, n_lns.plan.seq) << spec;
  }
}

TEST(MachineModel, DegeneratePortfolioMatchesUniformBitwise) {
  const ComputeDag dag = workload_dag(kFamilies[0]);
  const double r0 = min_memory_r0(dag);
  const MbspInstance uniform{dag, Architecture::make(4, 3 * r0, 1, 10)};
  const MbspInstance hetero{dag, machine_or_die("hetero:P=4", r0)};
  const ComputePlan plan =
      run_baseline(uniform, BaselineKind::kGreedyClairvoyant).plan;

  PortfolioOptions options;
  options.lns.budget_ms = 0;
  options.lns.max_iterations = 600;
  options.lns.seed = 7;
  options.workers = 3;
  options.epochs = 2;
  const PortfolioResult u = PortfolioLns(options).improve(uniform, plan);
  const PortfolioResult h = PortfolioLns(options).improve(hetero, plan);
  EXPECT_EQ(u.cost, h.cost);
  EXPECT_EQ(u.iterations, h.iterations);
  EXPECT_EQ(u.accepted, h.accepted);
  EXPECT_EQ(u.plan.seq, h.plan.seq);
  EXPECT_EQ(u.worker_costs, h.worker_costs);
}

// ---------------------------------------------------------------------------
// Hand-checked heterogeneous semantics.

TEST(MachineModel, HomeGroupTransferPricing) {
  // s (source, mu=1) -> a (omega=2, mu=2) -> b (omega=4, mu=1).
  ComputeDag dag;
  const NodeId s = dag.add_node(0, 1);
  const NodeId a = dag.add_node(2, 2);
  const NodeId b = dag.add_node(4, 1);
  dag.add_edge(s, a);
  dag.add_edge(a, b);

  Machine m = machine_or_die("numa:groups=2x1,gin=1,gout=10,L=3,Lg=2", 100);
  m.speeds = {1, 2};
  const MbspInstance inst{dag, m};

  // p0 (group 0): load s, compute a, save a. p1 (group 1): load a,
  // compute b, save b.
  MbspSchedule sched;
  Superstep& s0 = sched.append(2);
  s0.proc[0].loads = {s};
  Superstep& s1 = sched.append(2);
  s1.proc[0].compute_phase = {PhaseOp::compute(a)};
  s1.proc[0].saves = {a};
  Superstep& s2 = sched.append(2);
  s2.proc[1].loads = {a};
  Superstep& s3 = sched.append(2);
  s3.proc[1].compute_phase = {PhaseOp::compute(b)};
  s3.proc[1].saves = {b};
  ASSERT_TRUE(validate(inst, sched).ok);

  const std::vector<int> homes = home_groups(inst, sched);
  EXPECT_EQ(homes[s], -1);  // never saved: far memory
  EXPECT_EQ(homes[a], 0);   // first saved by p0
  EXPECT_EQ(homes[b], 1);

  const auto table = sync_cost_table(inst, sched);
  ASSERT_EQ(table.size(), 4u);
  EXPECT_EQ(table[0].max_load, 10.0);      // source from far memory: g_out
  EXPECT_EQ(table[1].max_compute, 2.0);    // omega(a) / speed(p0) = 2/1
  EXPECT_EQ(table[1].max_save, 1.0 * 2);   // first save: own segment, g_in
  EXPECT_EQ(table[2].max_load, 10.0 * 2);  // cross-group load of a
  EXPECT_EQ(table[3].max_compute, 2.0);    // omega(b) / speed(p1) = 4/2
  EXPECT_EQ(table[3].max_save, 1.0 * 1);   // b homed with its saver
  // Per-superstep latency: L + Lg * num_groups = 3 + 2*2 = 7.
  const SyncCostBreakdown breakdown = sync_cost_breakdown(inst, sched);
  EXPECT_EQ(breakdown.sync, 4 * 7.0);
  EXPECT_EQ(breakdown.total(),
            (10.0) + (2.0 + 2.0) + (20.0) + (2.0 + 1.0) + 28.0);
}

TEST(MachineModel, PerProcessorCapacitiesAreEnforced) {
  // s (source, mu=2) -> c (omega=1, mu=3): computing c on p needs 5 units.
  ComputeDag dag;
  const NodeId s = dag.add_node(0, 2);
  const NodeId c = dag.add_node(1, 3);
  dag.add_edge(s, c);

  MbspSchedule sched;
  Superstep& s0 = sched.append(2);
  s0.proc[0].loads = {s};
  Superstep& s1 = sched.append(2);
  s1.proc[0].compute_phase = {PhaseOp::compute(c)};
  s1.proc[0].saves = {c};

  Machine m = Machine::make(2, 5, 1, 0);
  EXPECT_TRUE(validate({dag, m}, sched).ok);
  // Starving the *other* processor changes nothing...
  m.memories = {5, 0.5};
  EXPECT_TRUE(validate({dag, m}, sched).ok);
  // ...starving the working one fails at the COMPUTE.
  m.memories = {4.9, 5};
  const auto invalid = validate({dag, m}, sched);
  EXPECT_FALSE(invalid.ok);
  EXPECT_NE(invalid.error.find("memory bound exceeded"), std::string::npos)
      << invalid.error;
}

// ---------------------------------------------------------------------------
// Incremental vs oracle on genuinely heterogeneous machines.

TEST(MachineModel, ImprovePlanMatchesReferenceOnHeterogeneousMachines) {
  const char* kMachines[] = {
      "hetero:P=4,speeds=1x2+2x2",
      "hetero:P=4,speeds=1x2+4x2,mems=1x2+2x2",
      "numa:groups=2x2,gin=1,gout=4",
      "numa:groups=2x2,gin=1,gout=8,Lg=5,speeds=1x2+2x2",
  };
  int machine_index = 0;
  for (const char* spec : kFamilies) {
    const ComputeDag dag = workload_dag(spec);
    const double r0 = min_memory_r0(dag);
    const char* machine_spec = kMachines[machine_index++ % 4];
    const MbspInstance inst{dag, machine_or_die(machine_spec, r0)};
    const ComputePlan initial =
        run_baseline(inst, BaselineKind::kGreedyClairvoyant).plan;
    LnsOptions options;
    options.budget_ms = 0;  // no deadline: fixed iteration count
    options.max_iterations = 1500;
    options.seed = 13;
    const LnsResult fast = improve_plan(inst, initial, options);
    const LnsResult ref = improve_plan_reference(inst, initial, options);
    EXPECT_EQ(fast.cost, ref.cost) << spec << " on " << machine_spec;
    EXPECT_EQ(fast.initial_cost, ref.initial_cost) << spec;
    EXPECT_EQ(fast.iterations, ref.iterations) << spec;
    EXPECT_EQ(fast.accepted, ref.accepted) << spec;
    EXPECT_EQ(fast.plan.seq, ref.plan.seq) << spec;
    EXPECT_LE(fast.cost, fast.initial_cost) << spec;
    const auto valid = validate(inst, fast.schedule);
    EXPECT_TRUE(valid.ok) << spec << ": " << valid.error;
  }
}

TEST(MachineModel, HeterogeneousBatchCellsCarryTheMachineKey) {
  const ComputeDag dag = workload_dag(kFamilies[1]);
  const double r0 = min_memory_r0(dag);
  std::vector<MbspInstance> instances;
  instances.push_back({dag, machine_or_die("uniform:P=4", r0)});
  instances.push_back({dag, machine_or_die("numa:groups=2x2,gout=4", r0)});
  BatchOptions batch;
  batch.scheduler.budget_ms = 0;
  batch.scheduler.max_iterations = 200;
  batch.threads = 2;
  const auto cells = BatchRunner(batch).run_grid(
      instances, {"bspg+clairvoyant", "lns"});
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells[0].machine, "uniform");
  // groups=2x2 and gout=4 are the declared defaults, so they drop out of
  // the canonical name.
  EXPECT_EQ(cells[2].machine, "numa");
  const Table table = batch_table(cells);
  EXPECT_NE(table.to_csv().find("machine"), std::string::npos);
}

}  // namespace
}  // namespace mbsp
