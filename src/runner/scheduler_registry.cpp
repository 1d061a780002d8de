#include "src/runner/scheduler_registry.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/graph/topology.hpp"
#include "src/holistic/repair.hpp"
#include "src/holistic/exact_pebbler.hpp"
#include "src/holistic/shard.hpp"
#include "src/holistic/formulation.hpp"
#include "src/holistic/partition.hpp"
#include "src/holistic/portfolio.hpp"
#include "src/ilp/solver.hpp"
#include "src/model/cost.hpp"
#include "src/model/validate.hpp"
#include "src/twostage/memory_completion.hpp"
#include "src/util/timer.hpp"

namespace mbsp {

namespace {

/// "holistic" switches from the plain LNS to divide-and-conquer above
/// this many nodes.
constexpr int kDivideConquerThreshold = 120;

/// Largest part of divide-and-conquer's recursive ILP bipartition.
constexpr int kMaxPartSize = 60;

/// Cost of a schedule under the configured cost model.
double schedule_cost(const MbspInstance& inst, const MbspSchedule& sched,
                     CostModel cost) {
  return cost == CostModel::kSynchronous ? sync_cost(inst, sched)
                                         : async_cost(inst, sched);
}

/// Fills the name and metric fields every adapter shares.
void finalize(std::string scheduler, const MbspInstance& inst,
              const SchedulerOptions& options, const Timer& timer,
              ScheduleResult& result) {
  result.scheduler = std::move(scheduler);
  result.cost = schedule_cost(inst, result.schedule, options.cost);
  result.io_volume = io_volume(inst, result.schedule);
  result.supersteps = result.schedule.num_supersteps();
  result.wall_ms = timer.elapsed_ms();
  if (result.baseline_cost == 0) result.baseline_cost = result.cost;
}

/// Where the LNS-based schedulers start: `warm` (a caller's incumbent)
/// when given, else the trivial plan under cold_start, else the
/// configured two-stage baseline.
ComputePlan initial_plan(const MbspInstance& inst,
                         const SchedulerOptions& options,
                         const ComputePlan* warm) {
  if (warm != nullptr) return *warm;
  if (options.cold_start) return trivial_plan(inst);
  return baseline_plan(inst, options.warm_start, options.stage1_budget_ms);
}

/// The row of an LNS-family result (LnsResult or PortfolioResult): its
/// plan and schedule, the warm-start cost and the per-class move counters.
template <typename Improved>
ScheduleResult improved_result(Improved res) {
  ScheduleResult result;
  result.schedule = std::move(res.schedule);
  result.plan = std::move(res.plan);
  result.baseline_cost = res.initial_cost;
  result.lns_proposed.assign(res.proposed_by_class.begin(),
                             res.proposed_by_class.end());
  result.lns_accepted.assign(res.accepted_by_class.begin(),
                             res.accepted_by_class.end());
  return result;
}

/// The "lns" solve: improve_plan from initial_plan(inst, options, warm).
ScheduleResult lns_solve(const MbspInstance& inst,
                         const SchedulerOptions& options,
                         const ComputePlan* warm) {
  return improved_result(
      improve_plan(inst, initial_plan(inst, options, warm), options));
}

/// The "divide-conquer" solve: the hierarchical pipeline in its
/// divide_conquer_options() configuration on the recursive ILP parts,
/// every part's LNS funded with `per_part_budget_ms`.
ScheduleResult divide_conquer_solve(const MbspInstance& inst,
                                    const SchedulerOptions& options,
                                    double per_part_budget_ms) {
  LnsOptions per_part = options;
  per_part.budget_ms = per_part_budget_ms;
  ShardResult res = shard_schedule(
      inst, recursive_acyclic_partition(inst.dag, kMaxPartSize),
      divide_conquer_options(per_part));
  ScheduleResult result;
  result.schedule = std::move(res.schedule);
  result.plan = std::move(res.plan);
  result.num_parts = res.num_shards;
  return result;
}

/// The four paper baselines plus policy variants: stage-1 scheduler choice
/// via BaselineKind, eviction policy overridable (e.g. BSPg + LRU).
class TwoStageAdapter final : public MbspScheduler {
 public:
  TwoStageAdapter(std::string name, BaselineKind stage1, PolicyKind policy)
      : name_(std::move(name)), stage1_(stage1), policy_(policy) {}

  std::string name() const override { return name_; }

  ScheduleResult run(const MbspInstance& inst,
                     const SchedulerOptions& options) const override {
    const Timer timer;
    ScheduleResult result;
    result.plan = baseline_plan(inst, stage1_, options.stage1_budget_ms);
    result.schedule = complete_memory(inst, result.plan, policy_);
    finalize(name(), inst, options, timer, result);
    return result;
  }

 private:
  std::string name_;
  BaselineKind stage1_;
  PolicyKind policy_;
};

/// The holistic LNS, warm-started from a configurable two-stage baseline
/// (or the trivial cold-start plan). Exposes the ablation knobs.
class LnsAdapter final : public MbspScheduler {
 public:
  std::string name() const override { return "lns"; }
  bool honors_warm_start() const override { return true; }

  ScheduleResult run(const MbspInstance& inst,
                     const SchedulerOptions& options) const override {
    const Timer timer;
    ScheduleResult result = lns_solve(inst, options, options.warm_start_plan);
    finalize(name(), inst, options, timer, result);
    return result;
  }
};

/// The parallel portfolio LNS: options.workers concurrent workers with
/// derived seeds and (per the profile) diversified annealing, exchanging
/// incumbents at options.epochs deterministic epoch barriers.
class PortfolioAdapter final : public MbspScheduler {
 public:
  std::string name() const override { return "lns-portfolio"; }
  bool honors_warm_start() const override { return true; }

  ScheduleResult run(const MbspInstance& inst,
                     const SchedulerOptions& options) const override {
    const Timer timer;
    PortfolioOptions portfolio;
    portfolio.lns = options;
    portfolio.workers = options.workers;
    portfolio.epochs = options.epochs;
    portfolio.profile = options.portfolio_profile;
    ScheduleResult result = improved_result(PortfolioLns(portfolio).improve(
        inst, initial_plan(inst, options, options.warm_start_plan)));
    finalize(name(), inst, options, timer, result);
    return result;
  }
};

/// Online schedule repair (docs/REPAIR.md): patch the pre-delta incumbent
/// (options.warm_start_plan) onto the mutated instance along
/// options.repair_delta, then run the locality-masked polish. The serving
/// path (mbspd REPAIR frames) and suite_runner --repair go through here.
/// Without an incumbent + delta pair it degenerates to a plain "lns" run,
/// so the registry contract (any scheduler handles any instance) holds.
class RepairAdapter final : public MbspScheduler {
 public:
  std::string name() const override { return "repair"; }

  ScheduleResult run(const MbspInstance& inst,
                     const SchedulerOptions& options) const override {
    const Timer timer;
    if (options.warm_start_plan != nullptr && options.repair_delta != nullptr) {
      RepairOptions repair;
      repair.lns = options;
      repair.mask_radius = options.repair_mask_radius;
      std::string error;
      auto repaired = repair_plan(inst, *options.warm_start_plan,
                                  *options.repair_delta, repair, &error);
      if (repaired) {
        ScheduleResult result;
        result.schedule = std::move(repaired->schedule);
        result.plan = std::move(repaired->plan);
        result.baseline_cost = repaired->patched_cost;
        finalize(name(), inst, options, timer, result);
        return result;
      }
      // Incumbent unusable for this delta (shape mismatch): fall through
      // to a from-scratch LNS solve below.
    }
    // warm_start_plan is the pre-delta incumbent: never start from it.
    ScheduleResult result = lns_solve(inst, options, nullptr);
    finalize(name(), inst, options, timer, result);
    return result;
  }
};

/// How the paper deploys its ILP: the "lns" solve below the
/// divide-and-conquer threshold, the "divide-conquer" solve (budget_ms / 8
/// per part) above it, measured against the two-stage warm start.
/// Neither route starts from warm_start_plan.
class HolisticAdapter final : public MbspScheduler {
 public:
  std::string name() const override { return "holistic"; }

  ScheduleResult run(const MbspInstance& inst,
                     const SchedulerOptions& options) const override {
    const Timer timer;
    if (inst.dag.num_nodes() <= kDivideConquerThreshold) {
      ScheduleResult result = lns_solve(inst, options, nullptr);
      finalize(name(), inst, options, timer, result);
      return result;
    }
    // The baseline's schedule is only priced: drop it before the solve.
    const double baseline_cost = schedule_cost(
        inst,
        run_baseline(inst, options.warm_start, options.stage1_budget_ms).mbsp,
        options.cost);
    ScheduleResult result =
        divide_conquer_solve(inst, options, options.budget_ms / 8);
    result.baseline_cost = baseline_cost;
    finalize(name(), inst, options, timer, result);
    return result;
  }
};

/// Divide-and-conquer unconditionally (Table 2). budget_ms is split /4
/// into the per-part LNS budget, matching the paper bench's convention.
class DivideConquerAdapter final : public MbspScheduler {
 public:
  std::string name() const override { return "divide-conquer"; }

  ScheduleResult run(const MbspInstance& inst,
                     const SchedulerOptions& options) const override {
    const Timer timer;
    ScheduleResult result =
        divide_conquer_solve(inst, options, options.budget_ms / 4);
    finalize(name(), inst, options, timer, result);
    return result;
  }
};

/// The sharded out-of-core pipeline (docs/SCALE.md): acyclic k-way
/// partition, per-shard LNS fan-out with shard-indexed seeds, stitch,
/// boundary-masked global polish. budget_ms is split across the shards;
/// a quarter of the iteration budget funds the polish. The fan-out uses
/// every hardware thread and the result is the cheaper of the sharded
/// plan and the unpartitioned seed (the ShardOptions defaults).
class ShardedAdapter final : public MbspScheduler {
 public:
  std::string name() const override { return "sharded"; }

  ScheduleResult run(const MbspInstance& inst,
                     const SchedulerOptions& options) const override {
    const Timer timer;
    ShardOptions shard;
    shard.num_shards = std::max(1, options.shards);
    shard.lns = options;
    shard.lns.budget_ms = options.budget_ms / shard.num_shards;  // per shard
    shard.polish_budget_ms = options.budget_ms / 4;
    shard.polish_max_iterations = std::max(1L, options.max_iterations / 4);
    ShardResult res = shard_schedule(inst, shard);
    ScheduleResult result;
    result.schedule = std::move(res.schedule);
    result.plan = std::move(res.plan);
    result.num_parts = res.num_shards;
    result.baseline_cost = res.seed_cost;
    finalize(name(), inst, options, timer, result);
    return result;
  }
};

/// Exact P = 1 red-blue pebbling (Dijkstra over configurations). Falls back
/// to the DFS baseline when the state-space limits are hit.
class ExactPebbleAdapter final : public MbspScheduler {
 public:
  std::string name() const override { return "exact-pebbler"; }

  bool supports(const MbspInstance& inst) const override {
    // Uniform machines only: the pebbling state space prices transfers
    // with the flat g, so optimality claims don't carry to heterogeneous
    // cost models.
    return inst.arch.num_processors == 1 && inst.dag.num_nodes() <= 30 &&
           inst.arch.is_uniform();
  }

  ScheduleResult run(const MbspInstance& inst,
                     const SchedulerOptions& options) const override {
    const Timer timer;
    ExactPebbleOptions pebble;
    // budget_ms <= 0 means "no deadline", like everywhere else (see
    // src/util/timer.hpp and the batch determinism contract). Substituting
    // the 30 s pebbler default here made budget-0 grids machine-speed
    // dependent; max_states still bounds the search deterministically.
    pebble.budget_ms = options.budget_ms;
    ExactPebbleResult res = exact_pebble(inst, pebble);
    ScheduleResult result;
    if (res.solved) {
      result.schedule = std::move(res.schedule);
      result.optimal = true;
    } else {
      result.schedule =
          run_baseline(inst, BaselineKind::kDfsClairvoyant).mbsp;
    }
    finalize(name(), inst, options, timer, result);
    return result;
  }
};

/// The full ILP (Section 6.1): encode the warm-start baseline, branch and
/// bound within the budget, extract the incumbent if it improves.
class IlpAdapter final : public MbspScheduler {
 public:
  std::string name() const override { return "ilp"; }

  bool supports(const MbspInstance& inst) const override {
    // Uniform machines only: the MILP objective encodes the flat
    // (g, L) machine, so its optimality proof is machine-specific.
    return inst.dag.num_nodes() <= 30 && inst.arch.is_uniform();
  }

  ScheduleResult run(const MbspInstance& inst,
                     const SchedulerOptions& options) const override {
    const Timer timer;
    TwoStageResult base =
        run_baseline(inst, options.warm_start, options.stage1_budget_ms);
    const double base_cost = schedule_cost(inst, base.mbsp, options.cost);

    FormulationOptions form;
    form.cost = options.cost;
    form.allow_recompute = options.allow_recompute;
    form.num_steps = IlpFormulation::steps_required(base.mbsp);
    const IlpFormulation formulation(inst, form);
    const std::vector<double> warm = formulation.encode_schedule(base.mbsp);

    ScheduleResult result;
    result.baseline_cost = base_cost;
    result.schedule = std::move(base.mbsp);
    result.plan = std::move(base.plan);
    if (!warm.empty()) {
      ilp::MipOptions mip;
      mip.budget_ms = options.budget_ms;
      const ilp::MipResult res =
          ilp::BranchAndBoundSolver(mip).solve(formulation.model(), warm);
      const bool has_incumbent = res.status == ilp::MipStatus::kOptimal ||
                                 res.status == ilp::MipStatus::kFeasible;
      bool adopted = false;
      if (has_incumbent && res.objective < base_cost - 1e-9) {
        MbspSchedule improved = formulation.extract_schedule(res.x);
        if (validate(inst, improved).ok &&
            schedule_cost(inst, improved, options.cost) < base_cost) {
          result.schedule = std::move(improved);
          result.plan = ComputePlan{};
          adopted = true;
        }
      }
      // Only claim optimality when the returned schedule attains it: the
      // incumbent was adopted, or the warm start already is the optimum.
      result.optimal = res.status == ilp::MipStatus::kOptimal &&
                       (adopted || res.objective >= base_cost - 1e-9);
    }
    finalize(name(), inst, options, timer, result);
    return result;
  }
};

}  // namespace

ComputePlan trivial_plan(const MbspInstance& inst) {
  ComputePlan plan;
  plan.num_procs = inst.arch.num_processors;
  plan.seq.resize(plan.num_procs);
  for (NodeId v : topological_order(inst.dag)) {
    if (!inst.dag.is_source(v)) plan.seq[0].push_back({v, 0});
  }
  return plan;
}

void register_builtin_schedulers(SchedulerRegistry& registry) {
  registry.add(std::make_unique<TwoStageAdapter>(
      "bspg+clairvoyant", BaselineKind::kGreedyClairvoyant,
      PolicyKind::kClairvoyant));
  registry.add(std::make_unique<TwoStageAdapter>(
      "bspg+lru", BaselineKind::kGreedyClairvoyant, PolicyKind::kLru));
  registry.add(std::make_unique<TwoStageAdapter>(
      "cilk+lru", BaselineKind::kCilkLru, PolicyKind::kLru));
  registry.add(std::make_unique<TwoStageAdapter>(
      "ilp-bsp+clairvoyant", BaselineKind::kRefinedClairvoyant,
      PolicyKind::kClairvoyant));
  registry.add(std::make_unique<TwoStageAdapter>(
      "dfs+clairvoyant", BaselineKind::kDfsClairvoyant,
      PolicyKind::kClairvoyant));
  registry.add(std::make_unique<LnsAdapter>());
  registry.add(std::make_unique<PortfolioAdapter>());
  registry.add(std::make_unique<RepairAdapter>());
  registry.add(std::make_unique<HolisticAdapter>());
  registry.add(std::make_unique<DivideConquerAdapter>());
  registry.add(std::make_unique<ShardedAdapter>());
  registry.add(std::make_unique<ExactPebbleAdapter>());
  registry.add(std::make_unique<IlpAdapter>());
}

SchedulerRegistry& SchedulerRegistry::global() {
  static SchedulerRegistry* registry = [] {
    auto* r = new SchedulerRegistry;
    register_builtin_schedulers(*r);
    return r;
  }();
  return *registry;
}

void SchedulerRegistry::add(std::unique_ptr<MbspScheduler> scheduler) {
  const std::string name = scheduler->name();
  for (auto& existing : schedulers_) {
    if (existing->name() == name) {
      existing = std::move(scheduler);
      return;
    }
  }
  schedulers_.push_back(std::move(scheduler));
}

const MbspScheduler* SchedulerRegistry::find(const std::string& name) const {
  for (const auto& scheduler : schedulers_) {
    if (scheduler->name() == name) return scheduler.get();
  }
  return nullptr;
}

const MbspScheduler& SchedulerRegistry::at(const std::string& name) const {
  const MbspScheduler* scheduler = find(name);
  if (scheduler == nullptr) {
    throw std::out_of_range("no scheduler named '" + name +
                            "' in the registry");
  }
  return *scheduler;
}

std::vector<std::string> SchedulerRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(schedulers_.size());
  for (const auto& scheduler : schedulers_) out.push_back(scheduler->name());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace mbsp
