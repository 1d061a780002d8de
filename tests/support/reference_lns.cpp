#include "tests/support/reference_lns.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <optional>

#include "src/model/cost.hpp"
#include "src/util/rng.hpp"
#include "src/util/timer.hpp"
#include "tests/support/reference_completion.hpp"

namespace mbsp {

namespace {

// The occurrence draw, block range, move-class index and enabled-move list
// of src/holistic/lns.cpp, repeated so the oracle shares no code with the
// search it checks.

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
// bench_lns_throughput baseline). The delta-based generators of
// src/holistic/lns.cpp consume the RNG in exactly the same order, so both
// loops walk the same trajectory for a fixed seed.

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

int move_class_index(unsigned move) {
  int index = 0;
  while ((move >> index) != 1u) ++index;
  return index;
}

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

/// The historical copy-and-reevaluate loop behind improve_plan_reference.
LnsSearchResult reference_search(const MbspInstance& inst,
                                 const ComputePlan& initial,
                                 const LnsOptions& options) {
  LnsSearchResult result;
  result.plan = initial;
  result.initial_cost = reference_evaluate_plan(inst, initial, options);
  result.cost = result.initial_cost;

  ComputePlan current = initial;
  double current_cost = result.initial_cost;

  Rng rng(options.seed);
  Deadline deadline(options.budget_ms);
  // search_plan's annealing schedule: temp * scale * 1e-3^progress, the
  // scale being the mean |delta| of the first 64 cost-changing proposals
  // and progress the spent fraction of the iterations or of the budget.
  double delta_sum = 0;
  long delta_samples = 0;

  const std::vector<unsigned> moves = enabled_moves(options);
  if (moves.empty()) return result;

  double wall_progress = 0;  // read at search_plan's 256-iteration poll
  while (result.iterations < options.max_iterations && !deadline.expired()) {
    if (result.iterations % 256 == 0 && options.budget_ms > 0) {
      wall_progress = 1 - deadline.remaining_ms() / options.budget_ms;
    }
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
    const double cost = reference_evaluate_plan(inst, candidate, options);
    const double delta = cost - current_cost;
    if (delta != 0 && delta_samples < 64) {
      delta_sum += std::abs(delta);
      ++delta_samples;
    }
    if (delta > 0) {
      const double progress =
          std::max(static_cast<double>(result.iterations) /
                       static_cast<double>(options.max_iterations),
                   wall_progress);
      const double temperature =
          options.initial_temperature_frac *
          (delta_sum / static_cast<double>(delta_samples)) *
          std::pow(1e-3, progress);
      if (rng.uniform01() >= std::exp(-delta / temperature)) continue;
    }
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

}  // namespace

double reference_evaluate_plan(const MbspInstance& inst,
                               const ComputePlan& plan,
                               const LnsOptions& options, MbspSchedule* out) {
  MbspSchedule schedule =
      complete_memory(inst, plan, *make_policy(options.completion_policy));
  const double cost = options.cost == CostModel::kSynchronous
                          ? sync_cost(inst, schedule)
                          : async_cost(inst, schedule);
  if (out != nullptr) *out = std::move(schedule);
  return cost;
}

LnsResult improve_plan_reference(const MbspInstance& inst,
                                 const ComputePlan& initial,
                                 const LnsOptions& options) {
  LnsResult result{reference_search(inst, initial, options), {}};
  const double cost =
      reference_evaluate_plan(inst, result.plan, options, &result.schedule);
  assert(cost == result.cost);
  (void)cost;
  return result;
}

}  // namespace mbsp
