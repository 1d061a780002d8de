#include "src/twostage/compute_plan.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <map>
#include <numeric>
#include <set>

namespace mbsp {

int ComputePlan::num_supersteps() const {
  int count = 0;
  for (const auto& proc_seq : seq) {
    if (!proc_seq.empty()) count = std::max(count, proc_seq.back().superstep + 1);
  }
  return count;
}

std::size_t ComputePlan::total_computes() const {
  std::size_t total = 0;
  for (const auto& proc_seq : seq) total += proc_seq.size();
  return total;
}

PlanValidation validate_plan(const ComputeDag& dag, const ComputePlan& plan) {
  auto fail = [](std::string msg) { return PlanValidation{false, std::move(msg)}; };
  if (static_cast<int>(plan.seq.size()) != plan.num_procs) {
    return fail("plan.seq size differs from num_procs");
  }
  const NodeId n = dag.num_nodes();
  // earliest_done[v] = smallest superstep in which some occurrence of v
  // completes (cross-processor availability starts one superstep later).
  std::vector<int> earliest_done(n, -1);
  for (const auto& proc_seq : plan.seq) {
    int last_step = 0;
    for (const PlannedCompute& pc : proc_seq) {
      if (pc.node < 0 || pc.node >= n) return fail("bad node id in plan");
      if (dag.is_source(pc.node)) {
        return fail("plan computes source node " + std::to_string(pc.node));
      }
      if (pc.superstep < last_step) {
        return fail("superstep indices decrease along a processor sequence");
      }
      last_step = pc.superstep;
      if (earliest_done[pc.node] == -1 ||
          pc.superstep < earliest_done[pc.node]) {
        earliest_done[pc.node] = pc.superstep;
      }
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    if (!dag.is_source(v) && earliest_done[v] == -1) {
      return fail("node " + std::to_string(v) + " is never computed");
    }
  }
  // local_pos[v]: position of v's first occurrence on the processor being
  // scanned (SIZE_MAX: none); each processor resets the entries it set.
  std::vector<std::size_t> local_pos(n, SIZE_MAX);
  for (int p = 0; p < plan.num_procs; ++p) {
    for (std::size_t i = 0; i < plan.seq[p].size(); ++i) {
      const PlannedCompute& pc = plan.seq[p][i];
      for (NodeId u : dag.parents(pc.node)) {
        if (dag.is_source(u)) continue;
        const bool local_earlier = local_pos[u] < i;
        const bool remote_earlier =
            earliest_done[u] >= 0 && earliest_done[u] < pc.superstep;
        if (!local_earlier && !remote_earlier) {
          return fail("occurrence of node " + std::to_string(pc.node) +
                      " on processor " + std::to_string(p) +
                      " has unavailable parent " + std::to_string(u));
        }
      }
      if (local_pos[pc.node] == SIZE_MAX) local_pos[pc.node] = i;
    }
    for (const PlannedCompute& pc : plan.seq[p]) local_pos[pc.node] = SIZE_MAX;
  }
  return {};
}

ComputePlan plan_from_bsp(const ComputeDag& dag, const BspSchedule& bsp,
                          int num_procs) {
  ComputePlan plan;
  plan.num_procs = num_procs;
  plan.seq.resize(num_procs);
  for (NodeId v : bsp.order) {
    if (dag.is_source(v)) continue;
    plan.seq[bsp.proc[v]].push_back({v, bsp.superstep[v]});
  }
  normalize_supersteps(plan);
  return plan;
}

void normalize_supersteps(ComputePlan& plan) {
  std::set<int> used;
  for (const auto& proc_seq : plan.seq) {
    for (const PlannedCompute& pc : proc_seq) used.insert(pc.superstep);
  }
  std::map<int, int> renumber;
  int next = 0;
  for (int s : used) renumber[s] = next++;
  for (auto& proc_seq : plan.seq) {
    for (PlannedCompute& pc : proc_seq) pc.superstep = renumber[pc.superstep];
  }
}

bool has_dense_supersteps(const ComputePlan& plan) {
  const int k = plan.num_supersteps();
  std::vector<char> seen(static_cast<std::size_t>(k), 0);
  for (const auto& proc_seq : plan.seq) {
    for (const PlannedCompute& pc : proc_seq) {
      if (pc.superstep < 0 || pc.superstep >= k) return false;
      seen[static_cast<std::size_t>(pc.superstep)] = 1;
    }
  }
  for (char s : seen) {
    if (!s) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Delta application.

void apply_delta_op(ComputePlan& plan, const PlanDeltaOp& op) {
  auto& seq = plan.seq[op.proc];
  switch (op.kind) {
    case PlanDeltaOpKind::kInsert:
      seq.insert(seq.begin() + static_cast<std::ptrdiff_t>(op.pos), op.pc);
      break;
    case PlanDeltaOpKind::kErase:
      seq.erase(seq.begin() + static_cast<std::ptrdiff_t>(op.pos));
      break;
    case PlanDeltaOpKind::kSetNode:
      seq[op.pos].node = op.pc.node;
      break;
    case PlanDeltaOpKind::kMergeStep:
      for (int p = 0; p < plan.num_procs; ++p) {
        auto& s = plan.seq[p];
        for (std::size_t i = op.cuts[static_cast<std::size_t>(p)];
             i < s.size(); ++i) {
          --s[i].superstep;
        }
      }
      break;
    case PlanDeltaOpKind::kSplitStep:
      for (int p = 0; p < plan.num_procs; ++p) {
        auto& s = plan.seq[p];
        for (std::size_t i = op.cuts[static_cast<std::size_t>(p)];
             i < s.size(); ++i) {
          ++s[i].superstep;
        }
      }
      break;
  }
}

void undo_delta_op(ComputePlan& plan, const PlanDeltaOp& op) {
  auto& seq = plan.seq[op.proc];
  switch (op.kind) {
    case PlanDeltaOpKind::kInsert:
      seq.erase(seq.begin() + static_cast<std::ptrdiff_t>(op.pos));
      break;
    case PlanDeltaOpKind::kErase:
      seq.insert(seq.begin() + static_cast<std::ptrdiff_t>(op.pos), op.pc);
      break;
    case PlanDeltaOpKind::kSetNode:
      seq[op.pos].node = op.old_node;
      break;
    case PlanDeltaOpKind::kMergeStep:
      for (int p = 0; p < plan.num_procs; ++p) {
        auto& s = plan.seq[p];
        for (std::size_t i = op.cuts[static_cast<std::size_t>(p)];
             i < s.size(); ++i) {
          ++s[i].superstep;
        }
      }
      break;
    case PlanDeltaOpKind::kSplitStep:
      for (int p = 0; p < plan.num_procs; ++p) {
        auto& s = plan.seq[p];
        for (std::size_t i = op.cuts[static_cast<std::size_t>(p)];
             i < s.size(); ++i) {
          --s[i].superstep;
        }
      }
      break;
  }
}

// ---------------------------------------------------------------------------
// PlanOccurrenceIndex.

namespace {

// Adds (delta = +1) or removes (delta = -1) position x in the runs of
// `nodes` (sorted descending) of one CSR list, then moves the offsets.
// Descending order keeps every run still to be edited in place: an edit
// moves only items at or after its own run's start.
void patch_runs(std::vector<std::int32_t>& start,
                std::vector<std::int32_t>& items,
                const std::vector<NodeId>& nodes, std::int32_t x, int delta) {
  for (NodeId u : nodes) {
    const auto lo = items.begin() + start[static_cast<std::size_t>(u)];
    const auto hi = items.begin() + start[static_cast<std::size_t>(u) + 1];
    const auto it = std::lower_bound(lo, hi, x);
    if (delta > 0) {
      items.insert(it, x);
    } else {
      assert(it != hi && *it == x);
      items.erase(it);
    }
  }
  // The k-th smallest node's edit moves every later offset by k * delta.
  const std::size_t n = start.size() - 1;
  const std::size_t m = nodes.size();
  for (std::size_t i = m; i-- > 0;) {
    const std::size_t from = static_cast<std::size_t>(nodes[i]) + 1;
    const std::size_t to = i > 0 ? static_cast<std::size_t>(nodes[i - 1]) : n;
    const auto add = static_cast<std::int32_t>(delta * static_cast<int>(m - i));
    for (std::size_t w = from; w <= to; ++w) start[w] += add;
  }
}

// Moves every position >= from by delta.
void shift_positions(std::vector<std::int32_t>& items, std::int32_t from,
                     std::int32_t delta) {
  for (std::int32_t& x : items) x += x >= from ? delta : 0;
}

}  // namespace

void PlanOccurrenceIndex::attach(const ComputeDag* dag,
                                 const ComputePlan* plan) {
  dag_ = dag;
  plan_ = plan;
  const std::size_t n = static_cast<std::size_t>(dag->num_nodes());
  const std::size_t P = static_cast<std::size_t>(plan->num_procs);
  num_supersteps_ = plan->num_supersteps();
  const std::size_t K = static_cast<std::size_t>(num_supersteps_);
  node_count_.assign(n, 0);
  done_counts_.assign(n, {});
  step_count_.assign(K, 0);
  proc_step_count_.assign(P, std::vector<long>(K, 0));
  block_of_step_.resize(K);
  std::iota(block_of_step_.begin(), block_of_step_.end(), 0);
  step_of_block_ = block_of_step_;
  free_blocks_.clear();
  for (std::size_t p = 0; p < P; ++p) {
    for (const PlannedCompute& pc : plan->seq[p]) {
      ++node_count_[static_cast<std::size_t>(pc.node)];
      ++step_count_[static_cast<std::size_t>(pc.superstep)];
      ++proc_step_count_[p][static_cast<std::size_t>(pc.superstep)];
      bump_done(pc.node, pc.superstep, +1);
    }
  }
  proc_.resize(P);
  for (std::size_t p = 0; p < P; ++p) {
    build_into(static_cast<int>(p), proc_[p]);
  }
}

void PlanOccurrenceIndex::bump_done(NodeId v, int step, int delta) {
  const int id = block_of_step_[static_cast<std::size_t>(step)];
  auto& dc = done_counts_[static_cast<std::size_t>(v)];
  auto it = std::lower_bound(
      dc.begin(), dc.end(), step, [&](const std::pair<int, long>& e, int s) {
        return step_of_block_[static_cast<std::size_t>(e.first)] < s;
      });
  if (it != dc.end() && it->first == id) {
    it->second += delta;
    if (it->second == 0) dc.erase(it);
  } else {
    dc.insert(it, {id, static_cast<long>(delta)});
  }
}

void PlanOccurrenceIndex::bump_step(int p, int step, int delta) {
  const std::size_t s = static_cast<std::size_t>(step);
  if (delta > 0) {
    while (s >= step_count_.size()) {
      // A new top step.
      const int id = take_block_id();
      step_of_block_[static_cast<std::size_t>(id)] =
          static_cast<int>(step_count_.size());
      block_of_step_.push_back(id);
      step_count_.push_back(0);
      for (auto& psc : proc_step_count_) psc.push_back(0);
    }
    if (step >= num_supersteps_) num_supersteps_ = step + 1;
  }
  step_count_[s] += delta;
  proc_step_count_[static_cast<std::size_t>(p)][s] += delta;
  shrink_top();
}

int PlanOccurrenceIndex::take_block_id() {
  if (free_blocks_.empty()) {
    step_of_block_.push_back(0);
    return static_cast<int>(step_of_block_.size()) - 1;
  }
  const int id = free_blocks_.back();
  free_blocks_.pop_back();
  return id;
}

void PlanOccurrenceIndex::shrink_top() {
  // An emptied top superstep shrinks K (normalize_supersteps semantics:
  // no renumbering needed, the index range just contracts).
  while (num_supersteps_ > 0 &&
         step_count_[static_cast<std::size_t>(num_supersteps_ - 1)] == 0) {
    --num_supersteps_;
  }
}

void PlanOccurrenceIndex::relabel_from(int s) {
  for (std::size_t t = static_cast<std::size_t>(s); t < block_of_step_.size();
       ++t) {
    step_of_block_[static_cast<std::size_t>(block_of_step_[t])] =
        static_cast<int>(t);
  }
}

void PlanOccurrenceIndex::edit_node(int p, std::size_t pos, NodeId v,
                                    int delta) {
  ProcPositions& pp = proc_[static_cast<std::size_t>(p)];
  const auto x = static_cast<std::int32_t>(pos);
  patch_nodes_.assign(1, v);
  patch_runs(pp.comp_start, pp.comp_items, patch_nodes_, x, delta);
  const auto parents = dag_->parents(v);
  patch_nodes_.assign(parents.begin(), parents.end());
  std::sort(patch_nodes_.begin(), patch_nodes_.end(), std::greater<>());
  patch_runs(pp.use_start, pp.use_items, patch_nodes_, x, delta);
}

void PlanOccurrenceIndex::rekey_done(const std::vector<PlannedCompute>& seq,
                                     std::size_t lo, std::size_t hi, int from,
                                     int to) {
  for (std::size_t i = lo; i < hi; ++i) {
    bump_done(seq[i].node, from, -1);
    bump_done(seq[i].node, to, +1);
  }
}

void PlanOccurrenceIndex::join_steps(int s, const std::vector<std::size_t>& cuts) {
  // Steps s and s+1 become one; on each processor step s+1's occurrences
  // sit at [cut, cut + its count). The smaller block's occurrences are
  // re-keyed to the other block's id, which the joined step keeps.
  const std::size_t a = static_cast<std::size_t>(s), b = a + 1;
  assert(b < step_count_.size());
  const bool move_upper = step_count_[b] <= step_count_[a];
  for (int p = 0; p < plan_->num_procs; ++p) {
    const auto& seq = plan_->seq[static_cast<std::size_t>(p)];
    auto& psc = proc_step_count_[static_cast<std::size_t>(p)];
    const std::size_t cut = cuts[static_cast<std::size_t>(p)];
    if (move_upper) {
      rekey_done(seq, cut, cut + static_cast<std::size_t>(psc[b]), s + 1, s);
    } else {
      rekey_done(seq, cut - static_cast<std::size_t>(psc[a]), cut, s, s + 1);
    }
    psc[a] += psc[b];
    psc.erase(psc.begin() + static_cast<std::ptrdiff_t>(b));
  }
  step_count_[a] += step_count_[b];
  step_count_.erase(step_count_.begin() + static_cast<std::ptrdiff_t>(b));
  const std::size_t gone = move_upper ? b : a;
  free_blocks_.push_back(block_of_step_[gone]);
  block_of_step_.erase(block_of_step_.begin() + static_cast<std::ptrdiff_t>(gone));
  relabel_from(s);
  if (s + 1 < num_supersteps_) --num_supersteps_;
  shrink_top();
}

void PlanOccurrenceIndex::part_step(int s, const std::vector<std::size_t>& cuts) {
  // Step s parts at the cuts: on each processor its occurrences at or
  // after the cut form the new step s+1. The smaller part's occurrences
  // are re-keyed to a fresh block id.
  const std::size_t a = static_cast<std::size_t>(s), b = a + 1;
  assert(a < step_count_.size());
  const std::size_t P = static_cast<std::size_t>(plan_->num_procs);
  // Per processor: the start of step s's block (labels before the cut are
  // still <= s).
  std::vector<std::size_t>& lo = part_lo_;
  lo.resize(P);
  long below = 0;
  for (std::size_t p = 0; p < P; ++p) {
    const auto& seq = plan_->seq[p];
    lo[p] = static_cast<std::size_t>(
        std::lower_bound(seq.begin(),
                         seq.begin() + static_cast<std::ptrdiff_t>(cuts[p]), s,
                         [](const PlannedCompute& pc, int step) {
                           return pc.superstep < step;
                         }) -
        seq.begin());
    below += static_cast<long>(cuts[p] - lo[p]);
  }
  const long above = step_count_[a] - below;
  const bool move_upper = above <= below;
  block_of_step_.insert(
      block_of_step_.begin() + static_cast<std::ptrdiff_t>(move_upper ? b : a),
      take_block_id());
  relabel_from(s);
  step_count_[a] = below;
  step_count_.insert(step_count_.begin() + static_cast<std::ptrdiff_t>(b),
                     above);
  for (std::size_t p = 0; p < P; ++p) {
    const auto& seq = plan_->seq[p];
    auto& psc = proc_step_count_[p];
    const long below_p = static_cast<long>(cuts[p] - lo[p]);
    const long above_p = psc[a] - below_p;
    if (move_upper) {
      rekey_done(seq, cuts[p], cuts[p] + static_cast<std::size_t>(above_p), s,
                 s + 1);
    } else {
      rekey_done(seq, lo[p], cuts[p], s + 1, s);
    }
    psc[a] = below_p;
    psc.insert(psc.begin() + static_cast<std::ptrdiff_t>(b), above_p);
  }
  if (s < num_supersteps_) ++num_supersteps_;
  shrink_top();
}

void PlanOccurrenceIndex::on_apply(const PlanDeltaOp& op) {
  switch (op.kind) {
    case PlanDeltaOpKind::kInsert:
      insert_at(op.proc, op.pos, op.pc);
      break;
    case PlanDeltaOpKind::kErase:
      erase_at(op.proc, op.pos, op.pc);
      break;
    case PlanDeltaOpKind::kSetNode:
      set_node_at(op.proc, op.pos, op.old_node, op.pc.node);
      break;
    case PlanDeltaOpKind::kMergeStep:
      join_steps(op.pc.superstep, op.cuts);
      break;
    case PlanDeltaOpKind::kSplitStep:
      part_step(op.pc.superstep, op.cuts);
      break;
  }
}

void PlanOccurrenceIndex::on_undo(const PlanDeltaOp& op) {
  // The inverse bookkeeping of on_apply; the plan has already been
  // restored when this runs, so kSetNode reads the restored superstep.
  switch (op.kind) {
    case PlanDeltaOpKind::kInsert:
      erase_at(op.proc, op.pos, op.pc);
      break;
    case PlanDeltaOpKind::kErase:
      insert_at(op.proc, op.pos, op.pc);
      break;
    case PlanDeltaOpKind::kSetNode:
      set_node_at(op.proc, op.pos, op.pc.node, op.old_node);
      break;
    case PlanDeltaOpKind::kMergeStep:
      part_step(op.pc.superstep, op.cuts);
      break;
    case PlanDeltaOpKind::kSplitStep:
      join_steps(op.pc.superstep, op.cuts);
      break;
  }
}

void PlanOccurrenceIndex::insert_at(int p, std::size_t pos, PlannedCompute pc) {
  ++node_count_[static_cast<std::size_t>(pc.node)];
  bump_step(p, pc.superstep, +1);
  bump_done(pc.node, pc.superstep, +1);
  ProcPositions& pp = proc_[static_cast<std::size_t>(p)];
  const auto x = static_cast<std::int32_t>(pos);
  shift_positions(pp.comp_items, x, +1);
  shift_positions(pp.use_items, x, +1);
  edit_node(p, pos, pc.node, +1);
}

void PlanOccurrenceIndex::erase_at(int p, std::size_t pos, PlannedCompute pc) {
  --node_count_[static_cast<std::size_t>(pc.node)];
  bump_done(pc.node, pc.superstep, -1);
  bump_step(p, pc.superstep, -1);
  ProcPositions& pp = proc_[static_cast<std::size_t>(p)];
  const auto x = static_cast<std::int32_t>(pos);
  edit_node(p, pos, pc.node, -1);
  shift_positions(pp.comp_items, x + 1, -1);
  shift_positions(pp.use_items, x + 1, -1);
}

void PlanOccurrenceIndex::set_node_at(int p, std::size_t pos, NodeId from,
                                      NodeId to) {
  --node_count_[static_cast<std::size_t>(from)];
  ++node_count_[static_cast<std::size_t>(to)];
  const int step =
      plan_->seq[static_cast<std::size_t>(p)][pos].superstep;
  bump_done(from, step, -1);
  bump_done(to, step, +1);
  edit_node(p, pos, from, -1);
  edit_node(p, pos, to, +1);
}

long PlanOccurrenceIndex::step_count(int s) const {
  return s < num_supersteps_ ? step_count_[static_cast<std::size_t>(s)] : 0;
}

long PlanOccurrenceIndex::proc_step_count(int p, int s) const {
  if (s >= num_supersteps_) return 0;
  return proc_step_count_[static_cast<std::size_t>(p)][static_cast<std::size_t>(s)];
}

int PlanOccurrenceIndex::gap_step() const {
  for (int s = 0; s < num_supersteps_; ++s) {
    if (step_count_[static_cast<std::size_t>(s)] == 0) return s;
  }
  return -1;
}

void PlanOccurrenceIndex::build_into(int p, ProcPositions& pp) const {
  // Counting sort by node, in place: count into the offsets, prefix-sum
  // them to end offsets, then place positions walking seq backwards with
  // pre-decrement, which leaves each run ascending and each offset at its
  // run's start.
  const std::size_t n = static_cast<std::size_t>(dag_->num_nodes());
  const auto& seq = plan_->seq[static_cast<std::size_t>(p)];
  pp.comp_start.assign(n + 1, 0);
  pp.use_start.assign(n + 1, 0);
  for (const PlannedCompute& pc : seq) {
    ++pp.comp_start[static_cast<std::size_t>(pc.node)];
    for (NodeId u : dag_->parents(pc.node)) {
      ++pp.use_start[static_cast<std::size_t>(u)];
    }
  }
  for (std::size_t v = 0; v < n; ++v) {
    pp.comp_start[v + 1] += pp.comp_start[v];
    pp.use_start[v + 1] += pp.use_start[v];
  }
  pp.comp_items.assign(static_cast<std::size_t>(pp.comp_start[n]), 0);
  pp.use_items.assign(static_cast<std::size_t>(pp.use_start[n]), 0);
  for (std::size_t i = seq.size(); i-- > 0;) {
    const NodeId v = seq[i].node;
    pp.comp_items[static_cast<std::size_t>(
        --pp.comp_start[static_cast<std::size_t>(v)])] =
        static_cast<std::int32_t>(i);
    for (NodeId u : dag_->parents(v)) {
      pp.use_items[static_cast<std::size_t>(
          --pp.use_start[static_cast<std::size_t>(u)])] =
          static_cast<std::int32_t>(i);
    }
  }
}

std::int64_t PlanOccurrenceIndex::first_remote_use(int p, NodeId u) const {
  const std::size_t u_ = static_cast<std::size_t>(u);
  const ProcPositions& pp = proc_[static_cast<std::size_t>(p)];
  if (pp.use_start[u_] == pp.use_start[u_ + 1]) return -1;
  const std::int32_t use = pp.use_items[static_cast<std::size_t>(
      pp.use_start[u_])];
  const bool local =
      pp.comp_start[u_] != pp.comp_start[u_ + 1] &&
      pp.comp_items[static_cast<std::size_t>(pp.comp_start[u_])] < use;
  return local ? -1 : use;
}

bool PlanOccurrenceIndex::has_local_comp_before(int p, NodeId u,
                                                std::size_t pos) const {
  const ProcPositions& pp = proc_positions(p);
  const std::size_t lo = static_cast<std::size_t>(
      pp.comp_start[static_cast<std::size_t>(u)]);
  // The first occurrence position of u on p (positions are sorted).
  if (lo == static_cast<std::size_t>(
                pp.comp_start[static_cast<std::size_t>(u) + 1])) {
    return false;
  }
  return pp.comp_items[lo] < static_cast<std::int64_t>(pos);
}

bool PlanOccurrenceIndex::matches_fresh_index() const {
  PlanOccurrenceIndex fresh;
  fresh.attach(dag_, plan_);
  if (fresh.num_supersteps_ != num_supersteps_ ||
      fresh.node_count_ != node_count_) {
    return false;
  }
  for (int s = 0; s < num_supersteps_; ++s) {
    if (fresh.step_count(s) != step_count(s)) return false;
    for (int p = 0; p < plan_->num_procs; ++p) {
      if (fresh.proc_step_count(p, s) != proc_step_count(p, s)) return false;
    }
  }
  // Done lists by label: block ids are internal.
  for (std::size_t v = 0; v < done_counts_.size(); ++v) {
    const auto& mine = done_counts_[v];
    const auto& theirs = fresh.done_counts_[v];
    if (mine.size() != theirs.size()) return false;
    for (std::size_t i = 0; i < mine.size(); ++i) {
      if (step_of_block_[static_cast<std::size_t>(mine[i].first)] !=
              fresh.step_of_block_[static_cast<std::size_t>(theirs[i].first)] ||
          mine[i].second != theirs[i].second) {
        return false;
      }
    }
  }
  return fresh.proc_ == proc_;
}

}  // namespace mbsp
