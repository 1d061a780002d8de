// Tests for online schedule repair (src/holistic/repair.*, docs/REPAIR.md)
// and the timed-arrival trace corpus (src/workload/trace.*): the
// differential oracle (repaired plans validate and their reported cost is
// bitwise equal to a from-scratch evaluate_plan on the mutated instance),
// apply/undo exactness of InstanceDelta chains, typed rejection of
// cycle-creating edges, speed-aware relocation of dropped processors,
// the "repair" registry adapter, and the determinism / streaming / hashing
// contracts of the trace families.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "src/bsp/greedy_scheduler.hpp"
#include "src/graph/topology.hpp"
#include "src/holistic/repair.hpp"
#include "src/model/machine_registry.hpp"
#include "src/model/validate.hpp"
#include "src/runner/scheduler_registry.hpp"
#include "src/twostage/compute_plan.hpp"
#include "src/util/rng.hpp"
#include "src/workload/trace.hpp"
#include "src/workload/workload_registry.hpp"

namespace mbsp {
namespace {

ComputePlan greedy_plan(const MbspInstance& inst) {
  ComputePlan plan =
      plan_from_bsp(inst.dag,
                    GreedyBspScheduler().schedule(inst.dag, inst.arch),
                    inst.arch.num_processors);
  normalize_supersteps(plan);
  EXPECT_TRUE(validate_plan(inst.dag, plan).ok);
  return plan;
}

RepairOptions deterministic_repair(long iterations = 1500) {
  RepairOptions options;
  options.lns.budget_ms = 0;  // iteration-capped: machine-speed independent
  options.lns.max_iterations = iterations;
  return options;
}

/// Bitwise structural snapshot of an instance: the DAG's weights and
/// adjacency *in insertion order*, plus every machine field. Two snapshots
/// compare equal only when apply/undo restored the instance exactly.
struct InstanceFingerprint {
  std::string dag_name;
  std::size_t num_edges = 0;
  std::vector<double> omega, mu;
  std::vector<std::vector<NodeId>> children, parents;
  Machine machine;

  static InstanceFingerprint of(const MbspInstance& inst) {
    InstanceFingerprint fp;
    fp.dag_name = inst.dag.name();
    fp.num_edges = inst.dag.num_edges();
    for (NodeId v = 0; v < inst.dag.num_nodes(); ++v) {
      fp.omega.push_back(inst.dag.omega(v));
      fp.mu.push_back(inst.dag.mu(v));
      auto cs = inst.dag.children(v);
      fp.children.emplace_back(cs.begin(), cs.end());
      auto ps = inst.dag.parents(v);
      fp.parents.emplace_back(ps.begin(), ps.end());
    }
    fp.machine = inst.arch;
    return fp;
  }
};

void expect_fingerprints_equal(const InstanceFingerprint& a,
                               const InstanceFingerprint& b,
                               const char* what) {
  EXPECT_EQ(a.dag_name, b.dag_name) << what;
  EXPECT_EQ(a.num_edges, b.num_edges) << what;
  ASSERT_EQ(a.omega.size(), b.omega.size()) << what;
  EXPECT_EQ(a.omega, b.omega) << what;
  EXPECT_EQ(a.mu, b.mu) << what;
  EXPECT_EQ(a.children, b.children) << what;
  EXPECT_EQ(a.parents, b.parents) << what;
  const Machine& m = a.machine;
  const Machine& n = b.machine;
  EXPECT_EQ(m.num_processors, n.num_processors) << what;
  EXPECT_EQ(m.fast_memory, n.fast_memory) << what;
  EXPECT_EQ(m.g, n.g) << what;
  EXPECT_EQ(m.L, n.L) << what;
  EXPECT_EQ(m.speeds, n.speeds) << what;
  EXPECT_EQ(m.memories, n.memories) << what;
  EXPECT_EQ(m.group_of, n.group_of) << what;
  EXPECT_EQ(m.g_in, n.g_in) << what;
  EXPECT_EQ(m.g_out, n.g_out) << what;
  EXPECT_EQ(m.L_group, n.L_group) << what;
  EXPECT_EQ(m.name, n.name) << what;
}

void expect_plans_equal(const ComputePlan& a, const ComputePlan& b) {
  ASSERT_EQ(a.num_procs, b.num_procs);
  for (int p = 0; p < a.num_procs; ++p) {
    const auto& s = a.seq[static_cast<std::size_t>(p)];
    const auto& t = b.seq[static_cast<std::size_t>(p)];
    ASSERT_EQ(s.size(), t.size()) << "proc " << p;
    for (std::size_t i = 0; i < s.size(); ++i) {
      EXPECT_EQ(s[i].node, t[i].node) << "proc " << p << " pos " << i;
      EXPECT_EQ(s[i].superstep, t[i].superstep)
          << "proc " << p << " pos " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// The differential oracle: replay every trace family against its machine,
// repairing after each event, and hold repair_plan to its contracts on
// every single step. Five workload families, three machine kinds.

struct TraceCase {
  const char* trace;
  const char* machine;
};

const TraceCase kTraceCases[] = {
    {"trace-grow:base=stencil2d,events=4,batch=2", "uniform:P=4"},
    {"trace-drift:base=spmv,events=4,batch=3", "hetero:speeds=1x2+2x2"},
    {"trace-dropout:base=mapreduce,events=2", "uniform:P=4"},
    {"trace-churn:base=fft,events=4,batch=2", "numa:groups=2x2"},
    {"trace-mixed:base=random-layered,events=5,batch=2",
     "hetero:mems=2x2+3x2"},
};

TEST(RepairDifferential, TraceReplayMatchesOracleOnEveryEvent) {
  for (const TraceCase& tc : kTraceCases) {
    std::string error;
    auto trace = make_trace(tc.trace, /*seed=*/5, tc.machine, &error);
    ASSERT_TRUE(trace.has_value()) << tc.trace << ": " << error;
    ASSERT_FALSE(trace->events.empty()) << tc.trace;

    MbspInstance inst = trace->base;
    ComputePlan incumbent = greedy_plan(inst);
    const RepairOptions options = deterministic_repair();

    for (std::size_t e = 0; e < trace->events.size(); ++e) {
      const std::string ctx =
          std::string(tc.trace) + " event " + std::to_string(e);
      ASSERT_TRUE(apply_instance_delta(inst, trace->events[e].delta, nullptr,
                                       &error))
          << ctx << ": " << error;
      auto repaired = repair_plan(inst, incumbent, trace->events[e].delta,
                                  options, &error);
      ASSERT_TRUE(repaired.has_value()) << ctx << ": " << error;

      // Both the patched seed and the polished plan validate on the
      // mutated instance.
      EXPECT_TRUE(validate_plan(inst.dag, repaired->patched).ok) << ctx;
      EXPECT_TRUE(validate_plan(inst.dag, repaired->plan).ok) << ctx;
      EXPECT_TRUE(validate(inst, repaired->schedule).ok) << ctx;

      // The differential oracle, bitwise: reported costs are exactly what
      // a from-scratch evaluation of the same plans yields.
      EXPECT_EQ(repaired->cost,
                evaluate_plan(inst, repaired->plan, options.lns))
          << ctx;
      EXPECT_EQ(repaired->patched_cost,
                evaluate_plan(inst, repaired->patched, options.lns))
          << ctx;

      // Repair-then-polish never loses to the patched seed.
      EXPECT_LE(repaired->cost, repaired->patched_cost) << ctx;

      // Machine deltas reprice everything: the polish must run unmasked.
      EXPECT_EQ(repaired->full_mask,
                trace->events[e].delta.touches_machine())
          << ctx;

      incumbent = std::move(repaired->plan);
    }
  }
}

TEST(RepairDifferential, RetrofitEdgeBetweenPlannedNodesRecertifies) {
  // Edges between two *existing* nodes are the hard structural case: the
  // head's occurrences were planned without the new dependency and must be
  // re-certified (recompute-style inserts when the parent arrives late).
  std::string error;
  auto inst = WorkloadRegistry::global().make_instance(
      "random-layered:nodes=40,width=5", /*seed=*/3, /*P=*/4, /*r_factor=*/3.0,
      1, 5, &error);
  ASSERT_TRUE(inst.has_value()) << error;
  const ComputePlan incumbent = greedy_plan(*inst);
  const std::vector<NodeId> topo = topological_order(inst->dag);

  Rng rng(17);
  int tested = 0;
  for (int attempt = 0; attempt < 40 && tested < 6; ++attempt) {
    const std::size_t i = rng.index(topo.size() - 1);
    const std::size_t j =
        i + 1 + rng.index(topo.size() - i - 1);  // strictly later in topo
    const NodeId u = topo[i];
    const NodeId v = topo[j];
    bool present = false;
    for (NodeId c : inst->dag.children(u)) present |= (c == v);
    if (present || inst->dag.is_source(v)) continue;

    InstanceDelta delta;
    delta.add_edge(u, v);
    MbspInstance mutated = *inst;
    ASSERT_TRUE(apply_instance_delta(mutated, delta, nullptr, &error))
        << error;
    const RepairOptions options = deterministic_repair(800);
    auto repaired = repair_plan(mutated, incumbent, delta, options, &error);
    ASSERT_TRUE(repaired.has_value())
        << "edge " << u << "->" << v << ": " << error;
    EXPECT_TRUE(validate_plan(mutated.dag, repaired->plan).ok)
        << "edge " << u << "->" << v;
    EXPECT_EQ(repaired->cost,
              evaluate_plan(mutated, repaired->plan, options.lns));
    ++tested;
  }
  EXPECT_GE(tested, 3);  // the workload offers plenty of retrofit targets
}

TEST(RepairEngine, PolishOffReturnsThePatchedSeed) {
  std::string error;
  auto trace =
      make_trace("trace-churn:base=stencil2d,events=3", 9, "uniform:P=4",
                 &error);
  ASSERT_TRUE(trace.has_value()) << error;
  MbspInstance inst = trace->base;
  const ComputePlan incumbent = greedy_plan(inst);
  ASSERT_TRUE(
      apply_instance_delta(inst, trace->events[0].delta, nullptr, &error))
      << error;

  RepairOptions options = deterministic_repair();
  options.polish = false;
  auto repaired =
      repair_plan(inst, incumbent, trace->events[0].delta, options, &error);
  ASSERT_TRUE(repaired.has_value()) << error;
  EXPECT_EQ(repaired->cost, repaired->patched_cost);
  EXPECT_EQ(repaired->polish_iterations, 0);
  expect_plans_equal(repaired->plan, repaired->patched);
}

TEST(RepairEngine, DropRelocationPricesEachSurvivorWithItsOwnSpeed) {
  // Four processors with speeds {1, 4, 1, 1}; processor 0 drops out. The
  // survivors carry omega 8, 4 and 4, so speed-scaled loads are 2, 4 and 4
  // and the dropped node belongs on the fast processor (mutated index 0).
  // Pricing each survivor with its right neighbour's speed instead would
  // see loads 8, 4, 4 and pick the second survivor.
  ComputeDag dag("hetero-drop");
  const NodeId source = dag.add_node();
  const NodeId dropped = dag.add_node(1.0);
  const NodeId heavy = dag.add_node(8.0);
  const NodeId light_a = dag.add_node(4.0);
  const NodeId light_b = dag.add_node(4.0);
  for (NodeId v : {dropped, heavy, light_a, light_b}) dag.add_edge(source, v);
  Machine machine = Machine::make(4, 3 * min_memory_r0(dag), 1, 5);
  machine.speeds = {1, 4, 1, 1};
  MbspInstance inst{std::move(dag), std::move(machine)};
  ComputePlan incumbent;
  incumbent.num_procs = 4;
  incumbent.seq = {{{dropped, 0}}, {{heavy, 0}}, {{light_a, 0}},
                   {{light_b, 0}}};
  ASSERT_TRUE(validate_plan(inst.dag, incumbent).ok);

  InstanceDelta delta;
  delta.drop_processor(0);
  std::string error;
  ASSERT_TRUE(apply_instance_delta(inst, delta, nullptr, &error)) << error;
  ASSERT_EQ(inst.arch.speeds, (std::vector<double>{4, 1, 1}));
  RepairOptions options = deterministic_repair();
  options.polish = false;
  auto repaired = repair_plan(inst, incumbent, delta, options, &error);
  ASSERT_TRUE(repaired.has_value()) << error;
  const std::vector<PlannedCompute> fast = {{heavy, 0}, {dropped, 0}};
  EXPECT_EQ(repaired->patched.seq[0], fast);
  EXPECT_EQ(repaired->patched.seq[1].size(), 1u);
  EXPECT_EQ(repaired->patched.seq[2].size(), 1u);
  EXPECT_EQ(repaired->cost, evaluate_plan(inst, repaired->plan, options.lns));
}

TEST(RepairEngine, WrongIncumbentShapeIsATypedError) {
  std::string error;
  auto inst = WorkloadRegistry::global().make_instance(
      "stencil2d:nx=4,ny=4,steps=2", 1, /*P=*/4, 3.0, 1, 5, &error);
  ASSERT_TRUE(inst.has_value()) << error;
  ComputePlan incumbent = greedy_plan(*inst);
  incumbent.num_procs = 2;  // contradicts the (delta-free) instance's P=4
  incumbent.seq.resize(2);

  const InstanceDelta empty_delta;
  auto repaired = repair_plan(*inst, incumbent, empty_delta,
                              deterministic_repair(), &error);
  EXPECT_FALSE(repaired.has_value());
  EXPECT_NE(error.find("processor"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// InstanceDelta apply/undo fuzz: long random chains — including rejected
// ops — must leave the instance (and an attached PlanOccurrenceIndex)
// exactly as they found it.

InstanceDelta random_delta(const MbspInstance& inst, Rng& rng) {
  InstanceDelta delta;
  const int ops = static_cast<int>(rng.uniform_int(1, 4));
  const std::size_t n = static_cast<std::size_t>(inst.dag.num_nodes());
  const std::size_t procs =
      static_cast<std::size_t>(inst.arch.num_processors);
  for (int i = 0; i < ops; ++i) {
    switch (rng.uniform_int(0, 5)) {
      case 0:
        delta.add_node(static_cast<double>(rng.uniform_int(1, 4)),
                       static_cast<double>(rng.uniform_int(1, 3)));
        break;
      case 1: {
        // Ascending ids: usually acyclic, occasionally rejected (dup edges
        // are no-ops; both paths must roll back / undo exactly).
        const NodeId a = static_cast<NodeId>(rng.index(n));
        const NodeId b = static_cast<NodeId>(rng.index(n));
        delta.add_edge(std::min(a, b), std::max(a, b));
        break;
      }
      case 2:
        delta.set_node_weight(static_cast<NodeId>(rng.index(n)),
                              static_cast<double>(rng.uniform_int(1, 6)),
                              static_cast<double>(rng.uniform_int(1, 4)));
        break;
      case 3:
        delta.drop_processor(static_cast<int>(rng.index(procs)));
        break;
      case 4: {
        const double r0 = min_memory_r0(inst.dag);
        // Mostly >= r0 (valid), sometimes below (typed rejection).
        delta.shrink_memory(
            rng.chance(0.5) ? -1 : static_cast<int>(rng.index(procs)),
            r0 * (0.9 + rng.uniform01()));
        break;
      }
      default:
        delta.add_node();
        break;
    }
  }
  return delta;
}

void fuzz_apply_undo(const char* machine_spec, std::uint64_t seed) {
  std::string error;
  auto dag =
      WorkloadRegistry::global().make_dag("random-layered:nodes=30,width=4",
                                          /*seed=*/21, &error);
  ASSERT_TRUE(dag.has_value()) << error;
  auto machine = MachineRegistry::global().make_machine(
      machine_spec, min_memory_r0(*dag), &error);
  ASSERT_TRUE(machine.has_value()) << error;
  MbspInstance inst{std::move(*dag), std::move(*machine)};
  const InstanceFingerprint before = InstanceFingerprint::of(inst);

  // A live plan + occurrence index rides along: instance deltas never
  // touch the plan, and once the chain is unwound the index must answer
  // exactly as before (drop_processor chains included — procs whose
  // cached values the plan still references come back intact).
  const ComputePlan plan = greedy_plan(inst);
  PlanOccurrenceIndex index;
  index.attach(&inst.dag, &plan);
  const int steps_before = index.num_supersteps();
  std::vector<long> counts_before;
  std::vector<int> done_before;
  for (NodeId v = 0; v < inst.dag.num_nodes(); ++v) {
    counts_before.push_back(index.node_count(v));
    done_before.push_back(index.earliest_done(v));
  }

  Rng rng(seed);
  std::vector<AppliedInstanceDelta> chain;
  int applied = 0;
  int rejected = 0;
  for (int round = 0; round < 60; ++round) {
    const InstanceDelta delta = random_delta(inst, rng);
    const InstanceFingerprint pre = InstanceFingerprint::of(inst);
    AppliedInstanceDelta undo;
    if (apply_instance_delta(inst, delta, &undo, &error)) {
      chain.push_back(std::move(undo));
      ++applied;
    } else {
      // A failed apply is transactional: nothing changed.
      EXPECT_FALSE(error.empty());
      expect_fingerprints_equal(InstanceFingerprint::of(inst), pre,
                                "failed apply must roll back");
      ++rejected;
    }
    if (!chain.empty() && rng.chance(0.4)) {
      undo_instance_delta(inst, chain.back());
      chain.pop_back();
    }
  }
  EXPECT_GT(applied, 10);
  EXPECT_GT(rejected, 0);  // the generator must exercise the error paths
  while (!chain.empty()) {
    undo_instance_delta(inst, chain.back());
    chain.pop_back();
  }

  expect_fingerprints_equal(InstanceFingerprint::of(inst), before,
                            machine_spec);
  EXPECT_EQ(index.num_supersteps(), steps_before);
  for (NodeId v = 0; v < inst.dag.num_nodes(); ++v) {
    EXPECT_EQ(index.node_count(v), counts_before[static_cast<std::size_t>(v)])
        << "node " << v;
    EXPECT_EQ(index.earliest_done(v),
              done_before[static_cast<std::size_t>(v)])
        << "node " << v;
  }
}

TEST(InstanceDeltaFuzz, LongApplyUndoChainsRestoreUniformMachine) {
  fuzz_apply_undo("uniform:P=4", 101);
}

TEST(InstanceDeltaFuzz, LongApplyUndoChainsRestoreHeteroMachine) {
  fuzz_apply_undo("hetero:speeds=1x2+2x2,mems=2x2+3x2", 202);
}

TEST(InstanceDeltaFuzz, LongApplyUndoChainsRestoreNumaMachine) {
  fuzz_apply_undo("numa:groups=2x2", 303);
}

TEST(InstanceDeltaFuzz, CycleCreatingEdgeRejectedNamingTheEdge) {
  ComputeDag dag("cycle-probe");
  dag.add_node();
  dag.add_node();
  dag.add_node();
  dag.add_edge(0, 1);
  dag.add_edge(1, 2);
  MbspInstance inst{std::move(dag), Machine::make(2, 10.0, 1, 10)};
  const InstanceFingerprint before = InstanceFingerprint::of(inst);

  InstanceDelta delta;
  delta.add_node();       // applied, then rolled back by the failure
  delta.add_edge(2, 1);   // 1 -> 2 exists: this closes a cycle
  std::string error;
  EXPECT_FALSE(apply_instance_delta(inst, delta, nullptr, &error));
  EXPECT_NE(error.find("add_edge"), std::string::npos) << error;
  EXPECT_NE(error.find("2->1"), std::string::npos) << error;
  EXPECT_NE(error.find("cycle"), std::string::npos) << error;
  expect_fingerprints_equal(InstanceFingerprint::of(inst), before,
                            "rejected delta");

  delta.ops.clear();
  delta.add_edge(1, 1);  // self loops are cycles of length one
  EXPECT_FALSE(apply_instance_delta(inst, delta, nullptr, &error));
  EXPECT_NE(error.find("1->1"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// The "repair" registry adapter.

TEST(RepairAdapter, RepairsWhenGivenIncumbentAndDelta) {
  std::string error;
  auto trace = make_trace("trace-grow:base=stencil2d,events=2", 7,
                          "uniform:P=4", &error);
  ASSERT_TRUE(trace.has_value()) << error;
  MbspInstance inst = trace->base;
  const ComputePlan incumbent = greedy_plan(inst);
  ASSERT_TRUE(
      apply_instance_delta(inst, trace->events[0].delta, nullptr, &error))
      << error;

  SchedulerOptions options;
  options.budget_ms = 0;
  options.max_iterations = 1000;
  options.warm_start_plan = &incumbent;
  options.repair_delta = &trace->events[0].delta;
  const ScheduleResult result =
      SchedulerRegistry::global().at("repair").run(inst, options);
  EXPECT_EQ(result.scheduler, "repair");
  EXPECT_TRUE(validate_plan(inst.dag, result.plan).ok);
  EXPECT_TRUE(validate(inst, result.schedule).ok);
  // baseline_cost reports the patched seed; the polish never loses to it.
  EXPECT_GT(result.baseline_cost, 0);
  EXPECT_LE(result.cost, result.baseline_cost);

  // The adapter is a thin wrapper over repair_plan with the same knobs.
  RepairOptions direct = deterministic_repair(1000);
  auto repaired = repair_plan(inst, incumbent, *options.repair_delta, direct,
                              &error);
  ASSERT_TRUE(repaired.has_value()) << error;
  EXPECT_EQ(result.cost, repaired->cost);
  expect_plans_equal(result.plan, repaired->plan);
}

TEST(RepairAdapter, DegeneratesToLnsWithoutADelta) {
  std::string error;
  auto inst = WorkloadRegistry::global().make_instance(
      "mapreduce:maps=6,reducers=3", 4, /*P=*/4, 3.0, 1, 5, &error);
  ASSERT_TRUE(inst.has_value()) << error;
  SchedulerOptions options;
  options.budget_ms = 0;
  options.max_iterations = 800;
  const ScheduleResult via_repair =
      SchedulerRegistry::global().at("repair").run(*inst, options);
  const ScheduleResult via_lns =
      SchedulerRegistry::global().at("lns").run(*inst, options);
  EXPECT_EQ(via_repair.cost, via_lns.cost);  // same search, bitwise
  expect_plans_equal(via_repair.plan, via_lns.plan);
}

// ---------------------------------------------------------------------------
// Trace corpus contracts.

TEST(TraceCorpus, FamiliesAreRegisteredAndRecognized) {
  const std::vector<std::string> families = trace_family_names();
  ASSERT_EQ(families.size(), 5u);
  EXPECT_TRUE(std::is_sorted(families.begin(), families.end()));
  for (const std::string& family : families) {
    EXPECT_TRUE(is_trace_spec(family)) << family;
    std::string error;
    auto trace = make_trace(family, 1, "uniform:P=4", &error);
    ASSERT_TRUE(trace.has_value()) << family << ": " << error;
    EXPECT_FALSE(trace->events.empty()) << family;
  }
  EXPECT_FALSE(is_trace_spec("stencil2d:nx=4"));
}

TEST(TraceCorpus, DeterministicPerSeedAndCanonicallyNamed) {
  std::string error;
  const char* spec = "trace-churn:base=fft,events=6,batch=2";
  auto a = make_trace(spec, 11, "uniform:P=4", &error);
  auto b = make_trace(spec, 11, "uniform:P=4", &error);
  auto c = make_trace(spec, 12, "uniform:P=4", &error);
  ASSERT_TRUE(a && b && c) << error;
  ASSERT_EQ(a->events.size(), b->events.size());
  for (std::size_t e = 0; e < a->events.size(); ++e) {
    EXPECT_EQ(a->events[e].at_ms, b->events[e].at_ms);
    EXPECT_TRUE(a->events[e].delta == b->events[e].delta) << "event " << e;
  }
  EXPECT_EQ(trace_canonical_hash(*a), trace_canonical_hash(*b));
  EXPECT_NE(trace_canonical_hash(*a), trace_canonical_hash(*c));

  // Timestamps strictly increase along the trace.
  for (std::size_t e = 1; e < a->events.size(); ++e) {
    EXPECT_GT(a->events[e].at_ms, a->events[e - 1].at_ms);
  }

  // Canonical naming: params sort, defaults drop.
  EXPECT_EQ(a->name, "trace-churn:base=fft,batch=2,events=6");
  auto d = make_trace("trace-grow:events=8,batch=3", 11, "uniform:P=4",
                      &error);
  ASSERT_TRUE(d.has_value()) << error;
  EXPECT_EQ(d->name, "trace-grow");  // all parameters at their defaults
}

TEST(TraceCorpus, StreamingMatchesMaterializedAndStopsEarly) {
  std::string error;
  const char* spec = "trace-mixed:base=stencil2d,events=5";
  auto trace = make_trace(spec, 23, "uniform:P=4", &error);
  ASSERT_TRUE(trace.has_value()) << error;

  std::vector<TraceEvent> streamed;
  MbspInstance base{ComputeDag("empty"), Machine::make(1, 1)};
  ASSERT_TRUE(for_each_trace_event(
      spec, 23, "uniform:P=4",
      [&](const TraceEvent& event) {
        streamed.push_back(event);
        return true;
      },
      &base, &error))
      << error;
  ASSERT_EQ(streamed.size(), trace->events.size());
  for (std::size_t e = 0; e < streamed.size(); ++e) {
    EXPECT_EQ(streamed[e].at_ms, trace->events[e].at_ms);
    EXPECT_TRUE(streamed[e].delta == trace->events[e].delta) << "event " << e;
  }
  EXPECT_EQ(base.dag.num_nodes(), trace->base.dag.num_nodes());
  EXPECT_EQ(base.arch.name, trace->base.arch.name);

  std::size_t seen = 0;
  ASSERT_TRUE(for_each_trace_event(spec, 23, "uniform:P=4",
                                   [&](const TraceEvent&) {
                                     ++seen;
                                     return seen < 2;
                                   },
                                   nullptr, &error))
      << error;
  EXPECT_EQ(seen, 2u);
}

TEST(TraceCorpus, EventsAreValidByConstruction) {
  // Every generated delta applies cleanly, and the feasibility invariant
  // (min machine capacity >= min_memory_r0) survives the whole replay.
  for (const TraceCase& tc : kTraceCases) {
    std::string error;
    auto trace = make_trace(tc.trace, 31, tc.machine, &error);
    ASSERT_TRUE(trace.has_value()) << tc.trace << ": " << error;
    MbspInstance inst = trace->base;
    for (std::size_t e = 0; e < trace->events.size(); ++e) {
      ASSERT_TRUE(apply_instance_delta(inst, trace->events[e].delta, nullptr,
                                       &error))
          << tc.trace << " event " << e << ": " << error;
      double min_capacity = inst.arch.fast_memory;
      for (int p = 0; p < inst.arch.num_processors; ++p) {
        min_capacity = std::min(min_capacity, inst.arch.memory(p));
      }
      EXPECT_GE(min_capacity, min_memory_r0(inst.dag))
          << tc.trace << " event " << e;
    }
  }
}

TEST(TraceCorpus, BadSpecsAreTypedErrors) {
  std::string error;
  EXPECT_FALSE(make_trace("trace-nope:events=2", 1, "uniform:P=4", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(
      make_trace("trace-grow:bogus=1", 1, "uniform:P=4", &error));
  EXPECT_NE(error.find("bogus"), std::string::npos) << error;
  EXPECT_FALSE(
      make_trace("trace-grow:base=not-a-family", 1, "uniform:P=4", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(make_trace("trace-grow:events=0", 1, "uniform:P=4", &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace mbsp
