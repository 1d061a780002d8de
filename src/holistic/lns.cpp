#include "src/holistic/lns.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <optional>

#include "src/holistic/incremental_eval.hpp"
#include "src/model/cost.hpp"
#include "src/util/rng.hpp"
#include "src/util/timer.hpp"

namespace mbsp {

namespace {

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
// Copy-based move implementations: the historical search kernel, kept
// verbatim for improve_plan_reference (the differential oracle and the
// bench_lns_throughput baseline). The delta-based generators further down
// consume the RNG in exactly the same order, so both loops walk the same
// trajectory for a fixed seed.

bool move_to_other_proc(ComputePlan& plan, Rng& rng,
                        const std::vector<char>* mask) {
  if (plan.num_procs < 2) return false;
  const auto ref = random_occurrence(plan, rng, mask);
  if (!ref) return false;
  const PlannedCompute pc = plan.seq[ref->proc][ref->index];
  int q = static_cast<int>(rng.index(plan.num_procs - 1));
  if (q >= ref->proc) ++q;
  plan.seq[ref->proc].erase(plan.seq[ref->proc].begin() +
                            static_cast<std::ptrdiff_t>(ref->index));
  const auto [lo, hi] = superstep_range(plan.seq[q], pc.superstep);
  const std::size_t at = lo + rng.index(hi - lo + 1);
  plan.seq[q].insert(plan.seq[q].begin() + static_cast<std::ptrdiff_t>(at), pc);
  return true;
}

bool move_superstep(ComputePlan& plan, Rng& rng,
                    const std::vector<char>* mask) {
  const auto ref = random_occurrence(plan, rng, mask);
  if (!ref) return false;
  auto& seq = plan.seq[ref->proc];
  PlannedCompute pc = seq[ref->index];
  const int delta = rng.chance(0.5) ? 1 : -1;
  const int target = pc.superstep + delta;
  if (target < 0) return false;
  seq.erase(seq.begin() + static_cast<std::ptrdiff_t>(ref->index));
  pc.superstep = target;
  const auto [lo, hi] = superstep_range(seq, target);
  // Moving later: insert at the front of the target block keeps local
  // topological order plausible; moving earlier: at the back.
  const std::size_t at = delta > 0 ? lo : hi;
  seq.insert(seq.begin() + static_cast<std::ptrdiff_t>(at), pc);
  return true;
}

bool swap_between_procs(ComputePlan& plan, Rng& rng,
                        const std::vector<char>* mask) {
  if (plan.num_procs < 2) return false;
  const auto a = random_occurrence(plan, rng, mask);
  const auto b = random_occurrence(plan, rng, mask);
  if (!a || !b || a->proc == b->proc) return false;
  PlannedCompute& pa = plan.seq[a->proc][a->index];
  PlannedCompute& pb = plan.seq[b->proc][b->index];
  if (pa.superstep != pb.superstep) return false;
  std::swap(pa.node, pb.node);
  return true;
}

bool merge_supersteps(ComputePlan& plan, Rng& rng) {
  const int k = plan.num_supersteps();
  if (k < 2) return false;
  const int s = static_cast<int>(rng.index(static_cast<std::size_t>(k - 1)));
  for (auto& seq : plan.seq) {
    for (PlannedCompute& pc : seq) {
      if (pc.superstep > s) --pc.superstep;
    }
  }
  return true;
}

bool split_superstep(ComputePlan& plan, Rng& rng) {
  const int k = plan.num_supersteps();
  if (k == 0) return false;
  const int s = static_cast<int>(rng.index(static_cast<std::size_t>(k)));
  bool any = false;
  for (auto& seq : plan.seq) {
    const auto [lo, hi] = superstep_range(seq, s);
    // Random split point inside the block (may keep everything in s).
    const std::size_t cut = lo + rng.index(hi - lo + 1);
    for (std::size_t i = 0; i < seq.size(); ++i) {
      if (seq[i].superstep > s || (seq[i].superstep == s && i >= cut)) {
        ++seq[i].superstep;
        any = true;
      }
    }
  }
  return any;
}

bool add_recompute(const ComputeDag& dag, ComputePlan& plan, Rng& rng,
                   const std::vector<char>* mask) {
  // Pick a random occurrence with a non-source parent not computed locally
  // beforehand; insert a recomputation of that parent right before it.
  const auto ref = random_occurrence(plan, rng, mask);
  if (!ref) return false;
  auto& seq = plan.seq[ref->proc];
  const PlannedCompute pc = seq[ref->index];
  std::vector<NodeId> candidates;
  for (NodeId u : dag.parents(pc.node)) {
    if (dag.is_source(u)) continue;
    if (mask != nullptr && (*mask)[static_cast<std::size_t>(u)] == 0) continue;
    bool local_before = false;
    for (std::size_t i = 0; i < ref->index; ++i) {
      if (seq[i].node == u) {
        local_before = true;
        break;
      }
    }
    if (!local_before) candidates.push_back(u);
  }
  if (candidates.empty()) return false;
  const NodeId u = candidates[rng.index(candidates.size())];
  seq.insert(seq.begin() + static_cast<std::ptrdiff_t>(ref->index),
             {u, pc.superstep});
  return true;
}

bool remove_occurrence(const ComputeDag& dag, ComputePlan& plan, Rng& rng,
                       const std::vector<char>* mask) {
  const auto ref = random_occurrence(plan, rng, mask);
  if (!ref) return false;
  const NodeId v = plan.seq[ref->proc][ref->index].node;
  std::size_t copies = 0;
  for (const auto& seq : plan.seq) {
    for (const PlannedCompute& pc : seq) {
      if (pc.node == v) ++copies;
    }
  }
  (void)dag;
  if (copies < 2) return false;
  auto& seq = plan.seq[ref->proc];
  seq.erase(seq.begin() + static_cast<std::ptrdiff_t>(ref->index));
  return true;
}

// ---------------------------------------------------------------------------
// Delta-based move generators: identical semantics and RNG consumption as
// the copy-based kernels above, but expressed as reversible PlanDeltaOps
// applied through the IncrementalEvaluator. Each returns false only
// before applying any op.

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
    std::size_t end = spec.find(',', start);
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
  MbspSchedule schedule =
      complete_memory(inst, plan, options.completion_policy);
  const double cost = options.cost == CostModel::kSynchronous
                          ? sync_cost(inst, schedule)
                          : async_cost(inst, schedule);
  if (out != nullptr) *out = std::move(schedule);
  return cost;
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

/// The historical copy-and-reevaluate loop behind improve_plan_reference
/// (and behind search_plan on gappy warm starts).
LnsSearchResult reference_search(const MbspInstance& inst,
                                 const ComputePlan& initial,
                                 const LnsOptions& options) {
  LnsSearchResult result;
  result.plan = initial;
  result.initial_cost = evaluate_plan(inst, initial, options);
  result.cost = result.initial_cost;

  ComputePlan current = initial;
  double current_cost = result.initial_cost;

  Rng rng(options.seed);
  Deadline deadline(options.budget_ms);
  double temperature =
      std::max(1e-9, options.initial_temperature_frac * result.initial_cost);
  const double cooling = 0.9995;

  const std::vector<unsigned> moves = enabled_moves(options);
  if (moves.empty()) return result;

  while (result.iterations < options.max_iterations && !deadline.expired()) {
    ++result.iterations;
    ComputePlan candidate = current;
    const unsigned move = moves[rng.index(moves.size())];
    const int class_index = move_class_index(move);
    ++result.proposed_by_class[class_index];
    bool changed = false;
    switch (move) {
      case kMoveProc:
        changed = move_to_other_proc(candidate, rng, options.node_mask);
        break;
      case kMoveSuperstep:
        changed = move_superstep(candidate, rng, options.node_mask);
        break;
      case kSwapProcs:
        changed = swap_between_procs(candidate, rng, options.node_mask);
        break;
      case kMergeSupersteps: changed = merge_supersteps(candidate, rng); break;
      case kSplitSuperstep: changed = split_superstep(candidate, rng); break;
      case kAddRecompute:
        changed = add_recompute(inst.dag, candidate, rng, options.node_mask);
        break;
      case kRemoveOccurrence:
        changed =
            remove_occurrence(inst.dag, candidate, rng, options.node_mask);
        break;
    }
    if (!changed) continue;
    normalize_supersteps(candidate);
    if (!validate_plan(inst.dag, candidate)) continue;
    const double cost = evaluate_plan(inst, candidate, options);
    const double delta = cost - current_cost;
    const bool accept =
        delta <= 0 || rng.uniform01() < std::exp(-delta / temperature);
    temperature = std::max(1e-9, temperature * cooling);
    if (!accept) continue;
    ++result.accepted;
    ++result.accepted_by_class[class_index];
    current = std::move(candidate);
    current_cost = cost;
    if (cost < result.cost) {
      result.cost = cost;
      result.plan = current;
    }
  }
  return result;
}

/// Completes the search's best plan: the one completion a returned
/// schedule needs. The tracked cost already is its cost, bitwise.
LnsResult with_schedule(const MbspInstance& inst, LnsSearchResult search,
                        const LnsOptions& options) {
  LnsResult result{std::move(search), {}};
  result.schedule =
      complete_memory(inst, result.plan, options.completion_policy);
  assert(result.cost == (options.cost == CostModel::kSynchronous
                             ? sync_cost(inst, result.schedule)
                             : async_cost(inst, result.schedule)));
  return result;
}

}  // namespace

LnsResult improve_plan_reference(const MbspInstance& inst,
                                 const ComputePlan& initial,
                                 const LnsOptions& options) {
  return with_schedule(inst, reference_search(inst, initial, options),
                       options);
}

LnsResult improve_plan(const MbspInstance& inst, const ComputePlan& initial,
                       const LnsOptions& options) {
  return with_schedule(inst, search_plan(inst, initial, options), options);
}

LnsSearchResult search_plan(const MbspInstance& inst,
                            const ComputePlan& initial,
                            const LnsOptions& options) {
  // The incremental engine maintains dense superstep indices as an
  // invariant; a gappy warm start would change move semantics, so it runs
  // on the historical loop (whose per-candidate normalization tolerates
  // gaps) to preserve behavior exactly.
  if (!has_dense_supersteps(initial)) {
    return reference_search(inst, initial, options);
  }

  LnsSearchResult result;
  result.plan = initial;

  // attach() is bitwise-equal to evaluate_plan on the same plan (the
  // engine's oracle invariant), so the warm start needs no separate full
  // completion, and every tracked cost is the cost evaluate_plan would
  // report for the same plan.
  IncrementalEvaluator eval(inst, options);
  result.initial_cost = eval.attach(initial);
  result.cost = result.initial_cost;

  double current_cost = result.initial_cost;

  Rng rng(options.seed);
  Deadline deadline(options.budget_ms);
  double temperature =
      std::max(1e-9, options.initial_temperature_frac * result.initial_cost);
  const double cooling = 0.9995;

  const std::vector<unsigned> moves = enabled_moves(options);
  if (moves.empty()) return result;

  // The deadline poll leaves the hot loop: the clock is only read every
  // deadline_poll_interval iterations (rounded down to a power of two, so
  // the check stays a mask test; iteration counts per poll window are
  // deterministic). Every configuration costs moves in O(dirty rounds)
  // through the incremental engine, so a whole batch cannot overshoot the
  // budget by more than a sliver of work.
  const long poll_mask =
      static_cast<long>(std::bit_floor(static_cast<unsigned long>(
          std::max(1L, options.deadline_poll_interval)))) -
      1;
  while (result.iterations < options.max_iterations &&
         ((result.iterations & poll_mask) != 0 || !deadline.expired())) {
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
    if (!out.valid) {
      eval.rollback();
      continue;
    }
    const double cost = out.cost;
    const double delta = cost - current_cost;
    const bool accept =
        delta <= 0 || rng.uniform01() < std::exp(-delta / temperature);
    temperature = std::max(1e-9, temperature * cooling);
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
  return result;
}

}  // namespace mbsp
