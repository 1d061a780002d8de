#include "src/holistic/lns.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <optional>

#include "src/holistic/incremental_eval.hpp"
#include "src/util/rng.hpp"
#include "src/util/timer.hpp"

namespace mbsp {

namespace {

/// Iterations between two reads of the wall clock in search_plan (a power
/// of two). Iteration-capped runs do not depend on it.
constexpr long kDeadlinePollInterval = 256;
static_assert((kDeadlinePollInterval & (kDeadlinePollInterval - 1)) == 0);

/// The annealing schedule ends at this fraction of its start temperature,
/// so every search, however short, finishes in near-greedy descent.
constexpr double kFinalTemperatureRatio = 1e-3;

/// The cost-changing proposals whose mean |delta| scales the temperature.
constexpr long kScaleSamples = 64;

/// Simulated annealing (Kirkpatrick, Gelatt and Vecchi 1983) cooled over
/// the search's own effort: at progress f in [0, 1] (the spent fraction
/// of max_iterations, or of budget_ms when that is further along) the
/// temperature is temp * scale * kFinalTemperatureRatio^f. The scale is
/// the mean |delta| of the first kScaleSamples validated proposals that
/// change the cost: one move's cost change, which does not grow with n
/// the way the total cost does. tests/support/reference_lns.cpp mirrors
/// this arithmetic and reads wall progress at the same 256-iteration
/// polls; the two searches match bitwise under budget_ms = 0, where the
/// schedule depends on the iteration count alone.
class Annealing {
 public:
  explicit Annealing(double temp) : temp_(temp) {}

  /// Records a validated proposal's cost change.
  void observe(double delta) {
    if (delta == 0 || samples_ == kScaleSamples) return;
    sum_ += std::abs(delta);
    ++samples_;
  }

  /// The temperature at `progress`; needs one observed nonzero delta.
  double temperature(double progress) const {
    return temp_ * (sum_ / static_cast<double>(samples_)) *
           std::pow(kFinalTemperatureRatio, progress);
  }

 private:
  double temp_;
  double sum_ = 0;
  long samples_ = 0;
};

struct OccRef {
  int proc = 0;
  std::size_t index = 0;
};

/// Uniformly random occurrence reference, or nullopt if the plan is empty.
/// With a node mask, the draw is made first (so RNG consumption is
/// independent of the mask) and then rejected when it lands on a frozen
/// node — the move proposal simply fizzles, like any other infeasible
/// draw. This keeps the reference and incremental kernels bitwise-aligned
/// under masking.
std::optional<OccRef> random_occurrence(const ComputePlan& plan, Rng& rng,
                                        const std::vector<char>* mask) {
  const std::size_t total = plan.total_computes();
  if (total == 0) return std::nullopt;
  std::size_t pick = rng.index(total);
  for (int p = 0; p < plan.num_procs; ++p) {
    if (pick < plan.seq[p].size()) {
      if (mask != nullptr &&
          (*mask)[static_cast<std::size_t>(plan.seq[p][pick].node)] == 0) {
        return std::nullopt;
      }
      return OccRef{p, pick};
    }
    pick -= plan.seq[p].size();
  }
  return std::nullopt;
}

/// Insertion index range within proc q for an occurrence of superstep s.
std::pair<std::size_t, std::size_t> superstep_range(
    const std::vector<PlannedCompute>& seq, int s) {
  const auto lo = std::lower_bound(
      seq.begin(), seq.end(), s,
      [](const PlannedCompute& pc, int step) { return pc.superstep < step; });
  const auto hi = std::upper_bound(
      seq.begin(), seq.end(), s,
      [](int step, const PlannedCompute& pc) { return step < pc.superstep; });
  return {static_cast<std::size_t>(lo - seq.begin()),
          static_cast<std::size_t>(hi - seq.begin())};
}

// ---------------------------------------------------------------------------
// Move generators: the semantics and RNG consumption of the reference
// LNS's copy-based kernels (tests/support/reference_lns.cpp), expressed as
// reversible PlanDeltaOps applied through the IncrementalEvaluator. Each
// returns false only before applying any op.

PlanDeltaOp make_insert(int proc, std::size_t pos, PlannedCompute pc) {
  PlanDeltaOp op;
  op.kind = PlanDeltaOpKind::kInsert;
  op.proc = proc;
  op.pos = pos;
  op.pc = pc;
  return op;
}

PlanDeltaOp make_erase(int proc, std::size_t pos, PlannedCompute pc) {
  PlanDeltaOp op;
  op.kind = PlanDeltaOpKind::kErase;
  op.proc = proc;
  op.pos = pos;
  op.pc = pc;
  return op;
}

bool gen_move_proc(IncrementalEvaluator& ev, Rng& rng,
                   const std::vector<char>* mask) {
  const ComputePlan& plan = ev.plan();
  if (plan.num_procs < 2) return false;
  const auto ref = random_occurrence(plan, rng, mask);
  if (!ref) return false;
  const PlannedCompute pc = plan.seq[ref->proc][ref->index];
  int q = static_cast<int>(rng.index(plan.num_procs - 1));
  if (q >= ref->proc) ++q;
  ev.apply_op(make_erase(ref->proc, ref->index, pc));
  const auto [lo, hi] = superstep_range(plan.seq[q], pc.superstep);
  const std::size_t at = lo + rng.index(hi - lo + 1);
  ev.apply_op(make_insert(q, at, pc));
  return true;
}

bool gen_move_superstep(IncrementalEvaluator& ev, Rng& rng,
                        const std::vector<char>* mask) {
  const ComputePlan& plan = ev.plan();
  const auto ref = random_occurrence(plan, rng, mask);
  if (!ref) return false;
  PlannedCompute pc = plan.seq[ref->proc][ref->index];
  const int delta = rng.chance(0.5) ? 1 : -1;
  const int target = pc.superstep + delta;
  if (target < 0) return false;
  ev.apply_op(make_erase(ref->proc, ref->index, pc));
  const auto [lo, hi] = superstep_range(plan.seq[ref->proc], target);
  pc.superstep = target;
  const std::size_t at = delta > 0 ? lo : hi;
  ev.apply_op(make_insert(ref->proc, at, pc));
  return true;
}

bool gen_swap_between_procs(IncrementalEvaluator& ev, Rng& rng,
                            const std::vector<char>* mask) {
  const ComputePlan& plan = ev.plan();
  if (plan.num_procs < 2) return false;
  const auto a = random_occurrence(plan, rng, mask);
  const auto b = random_occurrence(plan, rng, mask);
  if (!a || !b || a->proc == b->proc) return false;
  const PlannedCompute pa = plan.seq[a->proc][a->index];
  const PlannedCompute pb = plan.seq[b->proc][b->index];
  if (pa.superstep != pb.superstep) return false;
  PlanDeltaOp op;
  op.kind = PlanDeltaOpKind::kSetNode;
  op.proc = a->proc;
  op.pos = a->index;
  op.old_node = pa.node;
  op.pc = {pb.node, pa.superstep};
  ev.apply_op(op);
  op.proc = b->proc;
  op.pos = b->index;
  op.old_node = pb.node;
  op.pc = {pa.node, pb.superstep};
  ev.apply_op(op);
  return true;
}

bool gen_merge_supersteps(IncrementalEvaluator& ev, Rng& rng) {
  const ComputePlan& plan = ev.plan();
  const int k = plan.num_supersteps();
  if (k < 2) return false;
  const int s = static_cast<int>(rng.index(static_cast<std::size_t>(k - 1)));
  // Pooled op: its cuts vector keeps capacity across proposals, so
  // structural moves stay allocation-free in steady state.
  PlanDeltaOp& op = ev.scratch_op();
  op.kind = PlanDeltaOpKind::kMergeStep;
  op.pc = PlannedCompute{};
  op.pc.superstep = s;
  op.cuts.resize(static_cast<std::size_t>(plan.num_procs));
  for (int p = 0; p < plan.num_procs; ++p) {
    op.cuts[static_cast<std::size_t>(p)] =
        superstep_range(plan.seq[p], s).second;
  }
  ev.apply_op(op);
  return true;
}

bool gen_split_superstep(IncrementalEvaluator& ev, Rng& rng) {
  const ComputePlan& plan = ev.plan();
  const int k = plan.num_supersteps();
  if (k == 0) return false;
  const int s = static_cast<int>(rng.index(static_cast<std::size_t>(k)));
  PlanDeltaOp& op = ev.scratch_op();
  op.kind = PlanDeltaOpKind::kSplitStep;
  op.pc = PlannedCompute{};
  op.pc.superstep = s;
  op.cuts.resize(static_cast<std::size_t>(plan.num_procs));
  bool any = false;
  for (int p = 0; p < plan.num_procs; ++p) {
    const auto& seq = plan.seq[p];
    const auto [lo, hi] = superstep_range(seq, s);
    const std::size_t cut = lo + rng.index(hi - lo + 1);
    op.cuts[static_cast<std::size_t>(p)] = cut;
    if (cut < seq.size()) any = true;
  }
  if (!any) return false;
  ev.apply_op(op);
  return true;
}

bool gen_add_recompute(const ComputeDag& dag, IncrementalEvaluator& ev,
                       Rng& rng, const std::vector<char>* mask) {
  const ComputePlan& plan = ev.plan();
  const auto ref = random_occurrence(plan, rng, mask);
  if (!ref) return false;
  const PlannedCompute pc = plan.seq[ref->proc][ref->index];
  std::vector<NodeId> candidates;
  for (NodeId u : dag.parents(pc.node)) {
    if (dag.is_source(u)) continue;
    if (mask != nullptr && (*mask)[static_cast<std::size_t>(u)] == 0) continue;
    if (!ev.index().has_local_comp_before(ref->proc, u, ref->index)) {
      candidates.push_back(u);
    }
  }
  if (candidates.empty()) return false;
  const NodeId u = candidates[rng.index(candidates.size())];
  ev.apply_op(make_insert(ref->proc, ref->index, {u, pc.superstep}));
  return true;
}

bool gen_remove_occurrence(IncrementalEvaluator& ev, Rng& rng,
                           const std::vector<char>* mask) {
  const ComputePlan& plan = ev.plan();
  const auto ref = random_occurrence(plan, rng, mask);
  if (!ref) return false;
  const PlannedCompute pc = plan.seq[ref->proc][ref->index];
  if (ev.index().node_count(pc.node) < 2) return false;
  ev.apply_op(make_erase(ref->proc, ref->index, pc));
  return true;
}

int move_class_index(unsigned move) {
  int index = 0;
  while ((move >> index) != 1u) ++index;
  return index;
}

}  // namespace

const char* lns_move_class_name(int index) {
  static const char* kNames[kNumMoveClasses] = {
      "proc", "step", "swap", "merge", "split", "recompute", "drop"};
  return index >= 0 && index < kNumMoveClasses ? kNames[index] : "?";
}

bool parse_move_mask(const std::string& spec, unsigned* mask,
                     std::string* unknown) {
  unsigned out = 0;
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t end = spec.find('+', start);
    if (end == std::string::npos) end = spec.size();
    const std::string name = spec.substr(start, end - start);
    if (name == "all") {
      out |= kAllMoves;
    } else if (name == "none" || name.empty()) {
      // no-op
    } else {
      bool found = false;
      for (int i = 0; i < kNumMoveClasses; ++i) {
        if (name == lns_move_class_name(i)) {
          out |= 1u << i;
          found = true;
          break;
        }
      }
      if (!found) {
        if (unknown != nullptr) *unknown = name;
        return false;
      }
    }
    if (end == spec.size()) break;
    start = end + 1;
  }
  *mask = out;
  return true;
}

double evaluate_plan(const MbspInstance& inst, const ComputePlan& plan,
                     const LnsOptions& options, MbspSchedule* out) {
  CompletionLog log;
  double cost = 0;
  {
    IncrementalEvaluator eval(inst, options);
    cost = eval.attach(plan, out != nullptr ? &log : nullptr);
  }
  // Built once the evaluator is freed (CompletionLog).
  if (out != nullptr) *out = log.to_schedule();
  return cost;
}

MbspSchedule complete_memory(const MbspInstance& inst, const ComputePlan& plan,
                             PolicyKind kind) {
  LnsOptions options;
  options.completion_policy = kind;
  MbspSchedule schedule;
  evaluate_plan(inst, plan, options, &schedule);
  return schedule;
}

namespace {

/// Enabled move classes under `options` (ablations can disable any
/// subset; recompute moves additionally require allow_recompute).
std::vector<unsigned> enabled_moves(const LnsOptions& options) {
  std::vector<unsigned> moves;
  for (unsigned m : {kMoveProc, kMoveSuperstep, kSwapProcs, kMergeSupersteps,
                     kSplitSuperstep, kAddRecompute, kRemoveOccurrence}) {
    const bool recompute_move = m == kAddRecompute || m == kRemoveOccurrence;
    if ((options.move_mask & m) != 0 &&
        (!recompute_move || options.allow_recompute)) {
      moves.push_back(m);
    }
  }
  return moves;
}

}  // namespace

LnsResult improve_plan(const MbspInstance& inst, const ComputePlan& initial,
                       const LnsOptions& options) {
  // The returned schedule needs one completion of the best plan; the
  // tracked cost already is its cost, bitwise. An unimproved search
  // returns its warm start, which attach completed into warm_log.
  CompletionLog warm_log;
  LnsResult result{search_plan(inst, initial, options, &warm_log), {}};
  if (result.cost == result.initial_cost) {
    result.schedule = warm_log.to_schedule();
    assert(result.schedule ==
               complete_memory(inst, result.plan, options.completion_policy) &&
           "the warm start's logged completion differs from a fresh one");
    return result;
  }
  warm_log = CompletionLog{};  // freed before the final completion runs
  const double cost =
      evaluate_plan(inst, result.plan, options, &result.schedule);
  assert(cost == result.cost);
  (void)cost;
  return result;
}

LnsSearchResult search_plan(const MbspInstance& inst,
                            const ComputePlan& initial,
                            const LnsOptions& options,
                            CompletionLog* warm_log) {
  // The incremental engine maintains dense superstep indices as an
  // invariant, so a gappy warm start is searched from its normalized copy.
  // The completion drops empty supersteps, so both price identically and
  // initial_cost is still the warm start's.
  LnsSearchResult result;
  result.plan = initial;
  if (!has_dense_supersteps(result.plan)) normalize_supersteps(result.plan);

  // attach() is bitwise-equal to evaluate_plan on the same plan (the
  // engine's oracle invariant), so the warm start needs no separate full
  // completion, and every tracked cost is the cost evaluate_plan would
  // report for the same plan.
  IncrementalEvaluator eval(inst, options);
  result.initial_cost = eval.attach(result.plan, warm_log);
  result.cost = result.initial_cost;

  double current_cost = result.initial_cost;

  Rng rng(options.seed);
  Deadline deadline(options.budget_ms);
  Annealing annealing(options.initial_temperature_frac);
  double wall_progress = 0;  // spent fraction of budget_ms at the last poll

  const std::vector<unsigned> moves = enabled_moves(options);
  const auto finish = [&] {
    result.rescan_moves = eval.rescan_moves();
    return std::move(result);
  };
  if (moves.empty()) return finish();

  // The deadline poll leaves the hot loop: the clock is only read every
  // kDeadlinePollInterval iterations (a power of two, so the check is a
  // mask test; iteration counts per poll window are deterministic). Every
  // configuration costs moves in O(dirty rounds) through the incremental
  // engine, so a whole batch cannot overshoot the budget by more than a
  // sliver of work. The same read gives the schedule its wall progress;
  // without a budget the schedule depends on the iteration count alone.
  constexpr long poll_mask = kDeadlinePollInterval - 1;
  const double max_iterations = static_cast<double>(options.max_iterations);
  while (result.iterations < options.max_iterations) {
    if ((result.iterations & poll_mask) == 0 && options.budget_ms > 0) {
      const double left = deadline.remaining_ms();
      if (left <= 0) break;
      wall_progress = 1 - left / options.budget_ms;
    }
    ++result.iterations;
    const unsigned move = moves[rng.index(moves.size())];
    const int class_index = move_class_index(move);
    ++result.proposed_by_class[class_index];
    eval.begin_move();
    bool changed = false;
    switch (move) {
      case kMoveProc:
        changed = gen_move_proc(eval, rng, options.node_mask);
        break;
      case kMoveSuperstep:
        changed = gen_move_superstep(eval, rng, options.node_mask);
        break;
      case kSwapProcs:
        changed = gen_swap_between_procs(eval, rng, options.node_mask);
        break;
      case kMergeSupersteps: changed = gen_merge_supersteps(eval, rng); break;
      case kSplitSuperstep: changed = gen_split_superstep(eval, rng); break;
      case kAddRecompute:
        changed = gen_add_recompute(inst.dag, eval, rng, options.node_mask);
        break;
      case kRemoveOccurrence:
        changed = gen_remove_occurrence(eval, rng, options.node_mask);
        break;
    }
    if (!changed) {
      eval.rollback();  // no ops applied; resets the move transaction
      continue;
    }
    const IncrementalEvaluator::Outcome out = eval.finish_move();
    ++result.validated;
    if (!out.valid) {
      eval.rollback();
      continue;
    }
    const double cost = out.cost;
    const double delta = cost - current_cost;
    annealing.observe(delta);
    bool accept = delta <= 0;
    if (!accept) {
      const double progress = std::max(
          static_cast<double>(result.iterations) / max_iterations,
          wall_progress);
      accept = rng.uniform01() <
               std::exp(-delta / annealing.temperature(progress));
    }
    if (!accept) {
      eval.rollback();
      continue;
    }
    ++result.accepted;
    ++result.accepted_by_class[class_index];
    eval.commit();
    current_cost = cost;
    if (cost < result.cost) {
      result.cost = cost;
      result.plan = eval.plan();
    }
  }
  return finish();
}

}  // namespace mbsp
