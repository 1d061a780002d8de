#include "src/twostage/compute_plan.hpp"

#include <algorithm>
#include <map>
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
  for (int p = 0; p < plan.num_procs; ++p) {
    std::vector<int> computed_here_at(n, -1);  // superstep of first local occ.
    std::vector<std::size_t> local_pos(n, SIZE_MAX);
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
      if (local_pos[pc.node] == SIZE_MAX) {
        local_pos[pc.node] = i;
        computed_here_at[pc.node] = pc.superstep;
      } else {
        local_pos[pc.node] = i;  // latest occurrence also fine
      }
    }
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

void undo_delta(ComputePlan& plan, const PlanDelta& delta) {
  for (auto it = delta.ops.rbegin(); it != delta.ops.rend(); ++it) {
    undo_delta_op(plan, *it);
  }
}

// ---------------------------------------------------------------------------
// PlanOccurrenceIndex.

void PlanOccurrenceIndex::attach(const ComputeDag* dag,
                                 const ComputePlan* plan) {
  dag_ = dag;
  plan_ = plan;
  const std::size_t n = static_cast<std::size_t>(dag->num_nodes());
  const std::size_t P = static_cast<std::size_t>(plan->num_procs);
  node_count_.assign(n, 0);
  done_counts_.assign(n, {});
  proc_committed_.assign(P, {});
  proc_candidate_.assign(P, {});
  committed_valid_.assign(P, 0);
  candidate_built_.assign(P, 0);
  proc_touched_.assign(P, 0);
  in_move_ = false;
  proc_step_count_.assign(P, {});
  counts_dirty_ = true;
  ensure_counts();
}

void PlanOccurrenceIndex::begin_move() { in_move_ = true; }

void PlanOccurrenceIndex::commit_move() {
  for (std::size_t p = 0; p < proc_touched_.size(); ++p) {
    if (!proc_touched_[p]) continue;
    std::swap(proc_committed_[p], proc_candidate_[p]);
    committed_valid_[p] = candidate_built_[p];
    candidate_built_[p] = 0;
    proc_touched_[p] = 0;
  }
  in_move_ = false;
}

void PlanOccurrenceIndex::rollback_move() {
  for (std::size_t p = 0; p < proc_touched_.size(); ++p) {
    if (!proc_touched_[p]) continue;
    candidate_built_[p] = 0;
    proc_touched_[p] = 0;
  }
  in_move_ = false;
}

void PlanOccurrenceIndex::touch_proc(int p) {
  if (in_move_) {
    proc_touched_[static_cast<std::size_t>(p)] = 1;
    candidate_built_[static_cast<std::size_t>(p)] = 0;
  } else {
    // Edits outside a move transaction invalidate the committed view.
    committed_valid_[static_cast<std::size_t>(p)] = 0;
  }
}

void PlanOccurrenceIndex::rebuild_counts() {
  std::fill(node_count_.begin(), node_count_.end(), 0);
  for (auto& dc : done_counts_) dc.clear();
  num_supersteps_ = plan_->num_supersteps();
  step_count_.assign(static_cast<std::size_t>(num_supersteps_), 0);
  for (int p = 0; p < plan_->num_procs; ++p) {
    auto& psc = proc_step_count_[static_cast<std::size_t>(p)];
    psc.assign(static_cast<std::size_t>(num_supersteps_), 0);
    for (const PlannedCompute& pc : plan_->seq[static_cast<std::size_t>(p)]) {
      ++node_count_[static_cast<std::size_t>(pc.node)];
      ++step_count_[static_cast<std::size_t>(pc.superstep)];
      ++psc[static_cast<std::size_t>(pc.superstep)];
      bump_done(pc.node, pc.superstep, +1);
    }
  }
  counts_dirty_ = false;
}

void PlanOccurrenceIndex::bump_done(NodeId v, int step, int delta) {
  auto& dc = done_counts_[static_cast<std::size_t>(v)];
  auto it = std::lower_bound(
      dc.begin(), dc.end(), step,
      [](const std::pair<int, long>& e, int s) { return e.first < s; });
  if (it != dc.end() && it->first == step) {
    it->second += delta;
    if (it->second == 0) dc.erase(it);
  } else {
    dc.insert(it, {step, static_cast<long>(delta)});
  }
}

void PlanOccurrenceIndex::bump_step(int p, int step, int delta) {
  const std::size_t s = static_cast<std::size_t>(step);
  if (delta > 0) {
    if (s >= step_count_.size()) {
      step_count_.resize(s + 1, 0);
      for (auto& psc : proc_step_count_) psc.resize(s + 1, 0);
    }
    if (step >= num_supersteps_) num_supersteps_ = step + 1;
  }
  step_count_[s] += delta;
  proc_step_count_[static_cast<std::size_t>(p)][s] += delta;
  // An emptied top superstep shrinks K (normalize_supersteps semantics:
  // no renumbering needed, the index range just contracts).
  while (num_supersteps_ > 0 &&
         step_count_[static_cast<std::size_t>(num_supersteps_ - 1)] == 0) {
    --num_supersteps_;
  }
}

void PlanOccurrenceIndex::on_apply(const PlanDeltaOp& op) {
  switch (op.kind) {
    case PlanDeltaOpKind::kInsert:
      if (!counts_dirty_) {
        ++node_count_[static_cast<std::size_t>(op.pc.node)];
        bump_step(op.proc, op.pc.superstep, +1);
        bump_done(op.pc.node, op.pc.superstep, +1);
      }
      touch_proc(op.proc);
      break;
    case PlanDeltaOpKind::kErase:
      if (!counts_dirty_) {
        --node_count_[static_cast<std::size_t>(op.pc.node)];
        bump_step(op.proc, op.pc.superstep, -1);
        bump_done(op.pc.node, op.pc.superstep, -1);
      }
      touch_proc(op.proc);
      break;
    case PlanDeltaOpKind::kSetNode:
      if (!counts_dirty_) {
        --node_count_[static_cast<std::size_t>(op.old_node)];
        ++node_count_[static_cast<std::size_t>(op.pc.node)];
        const int step =
            plan_->seq[static_cast<std::size_t>(op.proc)][op.pos].superstep;
        bump_done(op.old_node, step, -1);
        bump_done(op.pc.node, step, +1);
      }
      touch_proc(op.proc);
      break;
    case PlanDeltaOpKind::kMergeStep:
    case PlanDeltaOpKind::kSplitStep:
      counts_dirty_ = true;
      for (int p = 0; p < plan_->num_procs; ++p) touch_proc(p);
      break;
  }
}

void PlanOccurrenceIndex::on_undo(const PlanDeltaOp& op) {
  // The inverse bookkeeping of on_apply; the plan has already been
  // restored when this runs, so kSetNode reads the restored superstep.
  switch (op.kind) {
    case PlanDeltaOpKind::kInsert:
      if (!counts_dirty_) {
        --node_count_[static_cast<std::size_t>(op.pc.node)];
        bump_step(op.proc, op.pc.superstep, -1);
        bump_done(op.pc.node, op.pc.superstep, -1);
      }
      touch_proc(op.proc);
      break;
    case PlanDeltaOpKind::kErase:
      if (!counts_dirty_) {
        ++node_count_[static_cast<std::size_t>(op.pc.node)];
        bump_step(op.proc, op.pc.superstep, +1);
        bump_done(op.pc.node, op.pc.superstep, +1);
      }
      touch_proc(op.proc);
      break;
    case PlanDeltaOpKind::kSetNode:
      if (!counts_dirty_) {
        ++node_count_[static_cast<std::size_t>(op.old_node)];
        --node_count_[static_cast<std::size_t>(op.pc.node)];
        const int step =
            plan_->seq[static_cast<std::size_t>(op.proc)][op.pos].superstep;
        bump_done(op.old_node, step, +1);
        bump_done(op.pc.node, step, -1);
      }
      touch_proc(op.proc);
      break;
    case PlanDeltaOpKind::kMergeStep:
    case PlanDeltaOpKind::kSplitStep:
      counts_dirty_ = true;
      for (int p = 0; p < plan_->num_procs; ++p) touch_proc(p);
      break;
  }
}

int PlanOccurrenceIndex::num_supersteps() {
  ensure_counts();
  return num_supersteps_;
}

long PlanOccurrenceIndex::node_count(NodeId v) {
  ensure_counts();
  return node_count_[static_cast<std::size_t>(v)];
}

int PlanOccurrenceIndex::earliest_done(NodeId v) {
  ensure_counts();
  const auto& dc = done_counts_[static_cast<std::size_t>(v)];
  return dc.empty() ? -1 : dc.front().first;
}

long PlanOccurrenceIndex::step_count(int s) {
  ensure_counts();
  return s < num_supersteps_ ? step_count_[static_cast<std::size_t>(s)] : 0;
}

long PlanOccurrenceIndex::proc_step_count(int p, int s) {
  ensure_counts();
  if (s >= num_supersteps_) return 0;
  return proc_step_count_[static_cast<std::size_t>(p)][static_cast<std::size_t>(s)];
}

int PlanOccurrenceIndex::gap_step() {
  ensure_counts();
  for (int s = 0; s < num_supersteps_; ++s) {
    if (step_count_[static_cast<std::size_t>(s)] == 0) return s;
  }
  return -1;
}

void PlanOccurrenceIndex::rebuild_into(int p, ProcPositions& pp) {
  const std::size_t n = static_cast<std::size_t>(dag_->num_nodes());
  const auto& seq = plan_->seq[static_cast<std::size_t>(p)];
  pp.comp_start.assign(n + 1, 0);
  pp.use_start.assign(n + 1, 0);
  for (const PlannedCompute& pc : seq) {
    ++pp.comp_start[static_cast<std::size_t>(pc.node) + 1];
    for (NodeId u : dag_->parents(pc.node)) {
      ++pp.use_start[static_cast<std::size_t>(u) + 1];
    }
  }
  for (std::size_t v = 0; v < n; ++v) {
    pp.comp_start[v + 1] += pp.comp_start[v];
    pp.use_start[v + 1] += pp.use_start[v];
  }
  pp.comp_items.assign(static_cast<std::size_t>(pp.comp_start[n]), 0);
  pp.use_items.assign(static_cast<std::size_t>(pp.use_start[n]), 0);
  std::vector<std::int32_t> comp_fill(pp.comp_start.begin(),
                                      pp.comp_start.end() - 1);
  std::vector<std::int32_t> use_fill(pp.use_start.begin(),
                                     pp.use_start.end() - 1);
  for (std::size_t i = 0; i < seq.size(); ++i) {
    const PlannedCompute& pc = seq[i];
    pp.comp_items[static_cast<std::size_t>(
        comp_fill[static_cast<std::size_t>(pc.node)]++)] =
        static_cast<std::int32_t>(i);
    for (NodeId u : dag_->parents(pc.node)) {
      pp.use_items[static_cast<std::size_t>(
          use_fill[static_cast<std::size_t>(u)]++)] =
          static_cast<std::int32_t>(i);
    }
  }
}

const PlanOccurrenceIndex::ProcPositions& PlanOccurrenceIndex::proc_positions(
    int p) {
  const std::size_t p_ = static_cast<std::size_t>(p);
  if (in_move_ && proc_touched_[p_]) {
    if (!candidate_built_[p_]) {
      rebuild_into(p, proc_candidate_[p_]);
      candidate_built_[p_] = 1;
    }
    return proc_candidate_[p_];
  }
  if (!committed_valid_[p_]) {
    rebuild_into(p, proc_committed_[p_]);
    committed_valid_[p_] = 1;
  }
  return proc_committed_[p_];
}

bool PlanOccurrenceIndex::has_local_comp_before(int p, NodeId u,
                                                std::size_t pos) {
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

}  // namespace mbsp
