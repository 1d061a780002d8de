#include "src/holistic/incremental_eval.hpp"

#include <algorithm>
#include <cassert>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>

#include "src/graph/dag_io.hpp"
#include "src/model/validate.hpp"

namespace mbsp {

namespace {

constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();

// One non-empty slot row into the sync cost accumulator, in the full
// evaluator's add order.
void fold_row(SyncCostBreakdown& bd, const SyncStepCost& row, double L) {
  bd.compute += row.max_compute;
  bd.io += row.max_save + row.max_load;
  bd.sync += L;
}

// Replaces dst[lo, hi) by src[from, end), moving the tail once.
template <class Vec>
void splice_rows(Vec& dst, std::size_t lo, std::size_t hi, const Vec& src,
                 std::size_t from = 0) {
  const std::size_t n = src.size() - from;
  if (n > hi - lo) {
    dst.insert(dst.begin() + static_cast<std::ptrdiff_t>(hi), n - (hi - lo),
               typename Vec::value_type{});
  } else {
    dst.erase(dst.begin() + static_cast<std::ptrdiff_t>(lo + n),
              dst.begin() + static_cast<std::ptrdiff_t>(hi));
  }
  std::copy(src.begin() + static_cast<std::ptrdiff_t>(from), src.end(),
            dst.begin() + static_cast<std::ptrdiff_t>(lo));
}

// True iff v has a compute or use event on the processor at a position
// >= at.
bool has_event_from(const PlanOccurrenceIndex::ProcPositions& pp, NodeId v,
                    std::int64_t at) {
  const std::size_t v_ = static_cast<std::size_t>(v);
  const auto any_from = [&](const std::vector<std::int32_t>& start,
                            const std::vector<std::int32_t>& items) {
    const auto end = items.begin() + start[v_ + 1];
    return std::lower_bound(items.begin() + start[v_], end, at) != end;
  };
  return any_from(pp.comp_start, pp.comp_items) ||
         any_from(pp.use_start, pp.use_items);
}

}  // namespace

// ---------------------------------------------------------------------------
// Completion-state tables.

template <class T>
void IncrementalEvaluator::PooledCsr<T>::splice(std::size_t lo, std::size_t hi,
                                                const PooledCsr& src) {
  // src's offsets start at 0: its rows rebase onto start[lo], and every
  // later row shifts by the change in item count.
  const std::int64_t n_lo = start[lo];
  const std::int64_t n_hi = start[hi];
  const std::int64_t delta =
      static_cast<std::int64_t>(src.items.size()) - (n_hi - n_lo);
  splice_rows(items, static_cast<std::size_t>(n_lo),
              static_cast<std::size_t>(n_hi), src.items);
  splice_rows(start, lo + 1, hi + 1, src.start, 1);
  const std::size_t mid = lo + src.start.size();
  for (std::size_t i = lo + 1; i < mid; ++i) start[i] += n_lo;
  for (std::size_t i = mid; i < start.size(); ++i) start[i] += delta;
}

void IncrementalEvaluator::BoundaryRows::reset(std::size_t P) {
  pos.assign(P, 0);
  weight.assign(P, 0.0);
  if (async) {
    save_prefix.assign(P, 0);
  } else {
    comp.assign(P, 0.0);
    save.assign(P, 0.0);
    load.assign(P, 0.0);
    any.assign(P, 0);
  }
  cache.reset(P);
}

void IncrementalEvaluator::BoundaryRows::clear() {
  pos.clear();
  weight.clear();
  comp.clear();
  save.clear();
  load.clear();
  any.clear();
  cache.clear();
  save_prefix.clear();
}

void IncrementalEvaluator::BoundaryRows::reserve(std::size_t entries,
                                                 std::size_t cache_items) {
  pos.reserve(entries);
  weight.reserve(entries);
  cache.reserve(entries, cache_items);
  if (async) {
    save_prefix.reserve(entries);
  } else {
    comp.reserve(entries);
    save.reserve(entries);
    load.reserve(entries);
    any.reserve(entries);
  }
}

void IncrementalEvaluator::BoundaryRows::push_boundary(
    const IncrementalEvaluator& ev) {
  // Boundary eval_cur_: state before round eval_cur_, including the
  // straddling slot's partial accumulators / op lists.
  pos.insert(pos.end(), ev.pos_.begin(), ev.pos_.end());
  weight.insert(weight.end(), ev.ec_weight_.begin(), ev.ec_weight_.end());
  if (async) {
    for (const SlotOps& cur : ev.async_cur_) {
      save_prefix.push_back(static_cast<std::int32_t>(cur.save.size()));
    }
  } else {
    const auto P = static_cast<std::ptrdiff_t>(ev.P_);
    const std::ptrdiff_t base = (ev.eval_cur_ - ev.first_eval_slot_) * P;
    const auto append = [&](auto& to, const auto& slot) {
      to.insert(to.end(), slot.begin() + base, slot.begin() + base + P);
    };
    append(comp, ev.slot_comp_);
    append(save, ev.slot_save_);
    append(load, ev.slot_load_);
    append(any, ev.slot_any_);
  }
  for (const auto& list : ev.ec_list_) cache.push_row(list);
}

void IncrementalEvaluator::BoundaryRows::splice(std::size_t lo, std::size_t hi,
                                                const BoundaryRows& src) {
  splice_rows(pos, lo, hi, src.pos);
  splice_rows(weight, lo, hi, src.weight);
  if (async) {
    splice_rows(save_prefix, lo, hi, src.save_prefix);
  } else {
    splice_rows(comp, lo, hi, src.comp);
    splice_rows(save, lo, hi, src.save);
    splice_rows(load, lo, hi, src.load);
    splice_rows(any, lo, hi, src.any);
  }
  cache.splice(lo, hi, src.cache);
}

bool IncrementalEvaluator::BoundaryRows::row_equals(
    std::size_t i, const BoundaryRows& other, std::size_t j) const {
  const auto row = cache.row(i);
  const auto other_row = other.cache.row(j);
  return pos[i] == other.pos[j] && weight[i] == other.weight[j] &&
         (async ? save_prefix[i] == other.save_prefix[j]
                : comp[i] == other.comp[j] && save[i] == other.save[j] &&
                      load[i] == other.load[j] && any[i] == other.any[j]) &&
         std::equal(row.begin(), row.end(), other_row.begin(),
                    other_row.end());
}

void IncrementalEvaluator::OpPool::reset(std::size_t rows) {
  comp.reset(rows);
  save.reset(rows);
  load.reset(rows);
}

void IncrementalEvaluator::OpPool::reserve(std::size_t rows,
                                           std::size_t n_items) {
  comp.reserve(rows, n_items);
  save.reserve(rows, n_items);
  load.reserve(rows, n_items);
}

void IncrementalEvaluator::OpPool::push_slot(const std::vector<SlotOps>& slot) {
  for (const SlotOps& ops : slot) {
    comp.push_row(ops.comp);
    save.push_row(ops.save);
    load.push_row(ops.load);
  }
}

void IncrementalEvaluator::OpPool::splice(std::size_t lo, std::size_t hi,
                                          const OpPool& src) {
  comp.splice(lo, hi, src.comp);
  save.splice(lo, hi, src.save);
  load.splice(lo, hi, src.load);
}

void IncrementalEvaluator::SlotRows::reset(std::size_t slots) {
  cost.assign(slots, SyncStepCost{});
  empty.assign(slots, 1);
}

void IncrementalEvaluator::SlotRows::reserve(std::size_t slots) {
  cost.reserve(slots);
  empty.reserve(slots);
}

void IncrementalEvaluator::SlotRows::splice(std::size_t lo, std::size_t hi,
                                            const SlotRows& src) {
  splice_rows(cost, lo, hi, src.cost);
  splice_rows(empty, lo, hi, src.empty);
}

void IncrementalEvaluator::SlotRows::fold(SyncCostBreakdown& bd,
                                          std::size_t from, double L) const {
  for (std::size_t s = from; s < cost.size(); ++s) {
    if (!empty[s]) fold_row(bd, cost[s], L);
  }
}

bool IncrementalEvaluator::SlotRows::operator==(const SlotRows& other) const {
  const auto same = [](const SyncStepCost& a, const SyncStepCost& b) {
    return a.max_compute == b.max_compute && a.max_save == b.max_save &&
           a.max_load == b.max_load;
  };
  return std::equal(cost.begin(), cost.end(), other.cost.begin(),
                    other.cost.end(), same) &&
         empty == other.empty;
}

IncrementalEvaluator::IncrementalEvaluator(const MbspInstance& inst,
                                           const LnsOptions& options)
    : inst_(inst),
      dag_(inst.dag),
      options_(options),
      async_(options.cost == CostModel::kAsynchronous),
      lru_(options.completion_policy == PolicyKind::kLru),
      P_(inst.arch.num_processors),
      n_(static_cast<std::size_t>(inst.dag.num_nodes())),
      g_(inst.arch.g),
      L_(inst.arch.sync_L()),
      single_group_(inst.arch.group_of.empty()),
      g_in_(inst.arch.g_in),
      g_out_(inst.arch.g_out) {
  mem_.resize(static_cast<std::size_t>(P_));
  speed_.resize(static_cast<std::size_t>(P_));
  grp_.resize(static_cast<std::size_t>(P_));
  for (int p = 0; p < P_; ++p) {
    mem_[static_cast<std::size_t>(p)] = inst.arch.memory(p);
    speed_[static_cast<std::size_t>(p)] = inst.arch.speed(p);
    grp_[static_cast<std::size_t>(p)] = inst.arch.group(p);
  }
}

// Home groups mirror blue rounds: committed entries are valid exactly when
// the blue round is committed-visible, the per-eval overlay is a dense
// array reset through eval_homes_, and assignment happens at the value's
// first save in blue-visibility order — which equals the oracle's
// slot-scan order for every schedule the completion can produce
// (post-saves of a round are priced at the round's drain so a same-round
// earlier-slot pre-save can still claim the home first).

int IncrementalEvaluator::eval_home(NodeId v) const {
  const int ov = home_ov_[static_cast<std::size_t>(v)];
  if (ov >= 0) return ov;
  if (blue_round_[static_cast<std::size_t>(v)] < eval_b_) {
    return home_group_[static_cast<std::size_t>(v)];
  }
  return -1;
}

void IncrementalEvaluator::eval_assign_home(NodeId v, int grp) {
  if (single_group_ || eval_home(v) >= 0) return;
  home_ov_[static_cast<std::size_t>(v)] = grp;
  eval_homes_.push_back({v, grp});
}

double IncrementalEvaluator::comm_cost(int p, int home) const {
  if (single_group_) return g_;
  return home == grp_[static_cast<std::size_t>(p)] ? g_in_ : g_out_;
}

MbspSchedule CompletionLog::to_schedule() const {
  MbspSchedule out;
  out.steps.assign(static_cast<std::size_t>(num_rounds_) + 1,
                   Superstep(num_procs_));
  const NodeId* w = words_.data();
  const NodeId* const end = w + words_.size();
  while (w != end) {
    const auto slot = static_cast<std::size_t>(w[0]);
    const auto p = static_cast<std::size_t>(w[1]);
    const NodeId* len = w + 2;
    w += 8;
    const auto take = [&w](std::vector<NodeId>& to, NodeId count) {
      to.insert(to.end(), w, w + count);
      w += count;
    };
    ProcStep& stage = out.steps[slot].proc[p];
    take(stage.saves, len[0]);
    take(stage.deletes, len[1]);
    take(stage.loads, len[2]);
    ProcStep& body = out.steps[slot + 1].proc[p];
    for (const NodeId* op_end = w + len[3]; w != op_end; ++w) {
      body.compute_phase.push_back(*w >= 0 ? PhaseOp::compute(*w)
                                           : PhaseOp::erase(-1 - *w));
    }
    take(body.saves, len[4]);
    take(body.deletes, len[5]);
  }
  out.drop_empty_supersteps();
  return out;
}

double IncrementalEvaluator::attach(const ComputePlan& plan,
                                    CompletionLog* log) {
#ifndef NDEBUG
  // Debug builds always record, to check the completion below against the
  // model layer's validator and cost functions.
  CompletionLog own;
  if (log == nullptr) log = &own;
#endif
  plan_ = plan;
  P_ = plan_.num_procs;
  index_.attach(&dag_, &plan_);

  save_req_.assign(n_, 0);
  for (NodeId v = 0; v < static_cast<NodeId>(n_); ++v) {
    save_req_[static_cast<std::size_t>(v)] = compute_save_required(v) ? 1 : 0;
  }

  scan_stamp_.assign(n_, 0);
  scan_epoch_ = 0;
  affected_stamp_.assign(n_, 0);
  affected_epoch_ = 0;

  in_move_ = false;
  delta_ops_.clear();
  delta_size_ = 0;
  proc_touched_.assign(static_cast<std::size_t>(P_), 0);
  touched_procs_.clear();
  inserts_on_proc_.assign(static_cast<std::size_t>(P_), 0);
  ed_before_.clear();
  affected_nodes_.clear();
  save_req_before_.clear();
  relabel_fixups_.clear();
  edit_hi_.assign(static_cast<std::size_t>(P_), 0);
  edit_shift_.assign(static_cast<std::size_t>(P_), 0);
  lru_keys_.clear();

  // Committed completion state at boundary 0 (nothing completed yet).
  blue_round_.assign(n_, INT_MAX);
  for (NodeId v = 0; v < static_cast<NodeId>(n_); ++v) {
    if (dag_.is_source(v)) blue_round_[static_cast<std::size_t>(v)] = -1;
  }
  home_group_.assign(n_, -1);
  blued_.clear();
  // One (empty) slot per boundary count, like every committed table.
  rows_.reset(1);
  row_prefix_.assign(1, SyncCostBreakdown{});
  committed_rounds_ = 0;
  committed_steps_ = 0;
  ck_.reset(static_cast<std::size_t>(P_));
  ck_step_.clear();
  step_first_round_.assign(1, 0);
  if (async_) {
    ops_.reset(static_cast<std::size_t>(P_));
    async_cur_.assign(static_cast<std::size_t>(P_), SlotOps{});
    async_next_.assign(static_cast<std::size_t>(P_), SlotOps{});
    fs_stamp_.assign(n_, 0);
    first_save_.assign(n_, 0);
    gets_blue_.assign(n_, 0.0);
    now_.assign(static_cast<std::size_t>(P_), 0.0);
    async_epoch_ = 0;
  }

  // Per-eval / per-try scratch (epoch 1 + zeroed stamps = all empty).
  nn_.assign(static_cast<std::size_t>(P_) * n_, NextNeed{});
  nn_epoch_.assign(static_cast<std::size_t>(P_), 1);
  ec_stamp_.assign(static_cast<std::size_t>(P_) * n_, 0);
  ec_epoch_.assign(static_cast<std::size_t>(P_), 1);
  ec_list_.assign(static_cast<std::size_t>(P_), {});
  ec_weight_.assign(static_cast<std::size_t>(P_), 0.0);
  pos_.assign(static_cast<std::size_t>(P_), 0);
  eb_stamp_.assign(n_, 0);
  eb_epoch_ = 1;
  home_ov_.assign(n_, -1);
  eval_homes_.clear();
  pending_blue_.clear();
  s_ov_.assign(n_, SegOv{});
  s_epoch_ = 1;
  t_ov_.assign(n_, TryOv{});
  t_epoch_ = 1;
  t_added_.clear();
  best_ov_.assign(n_, TryOv{});
  best_epoch_ = 1;
  best_added_.clear();
  double total_mu = 0;
  weights_exact_ = true;
  for (NodeId v = 0; v < static_cast<NodeId>(n_); ++v) {
    const double mu = dag_.mu(v);
    weights_exact_ = weights_exact_ && mu >= 0 && mu == std::floor(mu);
    total_mu += mu;
  }
  weights_exact_ = weights_exact_ && total_mu < 0x1p53;

  reserve_from_attached();

  log_ = log;
  if (log_ != nullptr) {
    log_->num_procs_ = P_;
    log_->words_.clear();
  }
  const double cost = evaluate_from(0, /*may_exit=*/false);
  if (log_ != nullptr) log_->num_rounds_ = eval_cur_;
  log_ = nullptr;
  promote_eval();
#ifndef NDEBUG
  const MbspSchedule schedule = log->to_schedule();
  assert(validate(inst_, schedule).ok && "completed schedule is invalid");
  assert(cost == (async_ ? async_cost(inst_, schedule)
                         : sync_cost(inst_, schedule)) &&
         "engine cost differs from the completed schedule's");
#endif
  return cost;
}

void IncrementalEvaluator::reserve_from_attached() {
  // Steady-state sizing from (n, P, K): rounds track supersteps closely
  // (one round per superstep unless segments split), so 2K + 8 rows of
  // headroom absorbs typical structural churn without mid-search growth.
  const std::size_t P = static_cast<std::size_t>(P_);
  const std::size_t K =
      static_cast<std::size_t>(std::max(plan_.num_supersteps(), 1));
  const std::size_t rows = 2 * K + 8;
  ck_.reserve(rows * P, 2 * n_);
  ck_step_.reserve(rows);
  step_first_round_.reserve(K + 2);
  blued_.reserve(rows, n_);
  if (!async_) {
    rows_.reserve(rows + 1);
    row_prefix_.reserve(rows + 1);
    scr_rows_.reserve(rows + 1);
    slot_comp_.reserve(rows * P);
    slot_save_.reserve(rows * P);
    slot_load_.reserve(rows * P);
    slot_any_.reserve(rows * P);
  }
  if (async_) ops_.reserve(rows * P, 2 * n_);
  pending_blue_.reserve(4 * P);
  sorted_members_.reserve(64);
  t_added_.reserve(64);
  best_added_.reserve(64);
  t_journal_.reserve(64);
  s_upfront_.reserve(64);
  s_loads_.reserve(64);
  delta_ops_.reserve(16);
  touched_procs_.reserve(P);
  ed_before_.reserve(16);
  affected_nodes_.reserve(32);
  save_req_before_.reserve(32);
  relabel_fixups_.reserve(4);
}

// ---------------------------------------------------------------------------
// save_required maintenance.

bool IncrementalEvaluator::compute_save_required(NodeId v) const {
  // Mirrors Completer::precompute: sinks always; otherwise "used on some
  // processor that is not the only computing processor". The counts are
  // the occurrence index's run lengths.
  if (dag_.is_source(v)) return false;
  if (dag_.is_sink(v)) return true;
  int cc = 0;
  for (int p = 0; p < P_; ++p) cc += index_.comp_count(p, v) > 0;
  for (int p = 0; p < P_; ++p) {
    if (index_.use_count(p, v) > 0 &&
        (cc > 1 || index_.comp_count(p, v) == 0)) {
      return true;
    }
  }
  return false;
}

void IncrementalEvaluator::refresh_save_required() {
  for (NodeId v : affected_nodes_) {
    save_req_[static_cast<std::size_t>(v)] = compute_save_required(v) ? 1 : 0;
  }
}

bool IncrementalEvaluator::save_required_current() const {
  for (NodeId v : affected_nodes_) {
    if ((save_req_[static_cast<std::size_t>(v)] != 0) !=
        compute_save_required(v)) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Move protocol.

void IncrementalEvaluator::begin_move() {
  assert(!in_move_);
  in_move_ = true;
  delta_size_ = 0;
  std::fill(proc_touched_.begin(), proc_touched_.end(), 0);
  touched_procs_.clear();
  ed_before_.clear();
  affected_nodes_.clear();
  save_req_before_.clear();
  relabel_fixups_.clear();
  next_epoch(affected_epoch_, affected_stamp_.begin(), affected_stamp_.end());
}

void IncrementalEvaluator::apply_op(const PlanDeltaOp& op) {
  assert(in_move_);
  auto touch_proc = [&](int p) {
    if (!proc_touched_[static_cast<std::size_t>(p)]) {
      proc_touched_[static_cast<std::size_t>(p)] = 1;
      touched_procs_.push_back(p);
    }
  };
  auto note_affected = [&](NodeId v) {
    if (affected_stamp_[static_cast<std::size_t>(v)] != affected_epoch_) {
      affected_stamp_[static_cast<std::size_t>(v)] = affected_epoch_;
      affected_nodes_.push_back(v);
      save_req_before_.push_back({v, save_req_[static_cast<std::size_t>(v)]});
    }
  };
  auto note_node = [&](NodeId v) {
    ed_before_.push_back({v, index_.earliest_done(v)});
    note_affected(v);
    for (NodeId u : dag_.parents(v)) note_affected(u);
  };

  switch (op.kind) {
    case PlanDeltaOpKind::kInsert:
    case PlanDeltaOpKind::kErase:
      touch_proc(op.proc);
      note_node(op.pc.node);
      break;
    case PlanDeltaOpKind::kSetNode:
      touch_proc(op.proc);
      note_node(op.old_node);
      note_node(op.pc.node);
      break;
    case PlanDeltaOpKind::kMergeStep:
    case PlanDeltaOpKind::kSplitStep:
      break;  // a relabel: no processor's positions or nodes change
  }
  apply_delta_op(plan_, op);
  index_.on_apply(op);
  // Pooled move log: reuse slots (and their cuts capacity) across moves.
  if (delta_size_ == delta_ops_.size()) delta_ops_.emplace_back();
  delta_ops_[delta_size_++] = op;
}

IncrementalEvaluator::Outcome IncrementalEvaluator::finish_move() {
  assert(in_move_);
  // Keep the dense-superstep invariant: a move that emptied a superstep
  // strictly below the top is followed by a gap-closing merge (this is
  // exactly what normalize_supersteps would have done).
  for (int gap = index_.gap_step(); gap != -1; gap = index_.gap_step()) {
    PlanDeltaOp& close = scratch_op_;
    close.kind = PlanDeltaOpKind::kMergeStep;
    close.proc = 0;
    close.pos = 0;
    close.pc = PlannedCompute{};
    close.pc.superstep = gap;
    close.old_node = kInvalidNode;
    close.cuts.resize(static_cast<std::size_t>(P_));
    for (int p = 0; p < P_; ++p) {
      const auto& seq = plan_.seq[static_cast<std::size_t>(p)];
      const auto it = std::upper_bound(
          seq.begin(), seq.end(), gap,
          [](int s, const PlannedCompute& pc) { return s < pc.superstep; });
      close.cuts[static_cast<std::size_t>(p)] =
          static_cast<std::size_t>(it - seq.begin());
    }
    apply_op(close);
  }

  refresh_save_required();
  // The incremental verdict must equal a from-scratch validation's, both
  // ways, every iteration.
  if (!validate_candidate()) {
    assert(!validate_plan(dag_, plan_).ok &&
           "incremental validator rejected a valid plan");
    return {false, 0};
  }
  assert(validate_plan(dag_, plan_).ok &&
         "incremental validator accepted an invalid plan");

  // Edited processors' candidate-frame occurrence positions changed; drop
  // their memoized lookahead. The memo holds positions only, so the rows of
  // every other processor stay warm, across merges and splits too.
  for (int p : touched_procs_) nn_invalidate(p);

  last_flip_ = false;
  for (const auto& [v, before] : save_req_before_) {
    last_flip_ |= save_req_[static_cast<std::size_t>(v)] != before;
  }
  const int b = std::max(std::min(dirty_bound(), committed_rounds_), 0);
  prepare_exit();
  const double cost = evaluate_from(b, /*may_exit=*/true);
  // The incremental cost must equal a from-scratch evaluation's bitwise,
  // every iteration (the cross-engine check against the reference
  // completer lives in the differential tests).
  assert(cost == evaluate_plan(inst_, plan_, options_) &&
         "incremental cost diverged from a from-scratch evaluation");
  return {true, cost};
}

void IncrementalEvaluator::commit() {
  assert(in_move_);
  promote_eval();
  in_move_ = false;
  // The index was patched op by op; it must answer like a fresh one.
  assert(index_.matches_fresh_index() &&
         "patched occurrence index diverges from a fresh one");
  assert(save_required_current() &&
         "committed save_required bit diverges from the committed plan");
#ifndef NDEBUG
  // MBSP_CK_VERIFY=1 re-derives every checkpoint from scratch after each
  // commit and requires the promoted rows to match. The per-move cost
  // oracle above cannot see *cost-silent* state drift (evictions are
  // free, so a wrong cache can coast for many rounds before it prices a
  // reload); this check catches the drift at the commit that caused it.
  // Beyond the checkpoint rows it also pins what a reconvergence splice
  // rewrites: round labels, blue rounds, home groups, and the sync cost
  // rows or async op pools.
  if (std::getenv("MBSP_CK_VERIFY") != nullptr) {
    evaluate_from(0, /*may_exit=*/false);
    const std::size_t P = static_cast<std::size_t>(P_);
    assert(std::equal(ck_step_.begin(), ck_step_.end(),
                      scr_round_steps_.begin(), scr_round_steps_.end()) &&
           "promoted round labels diverge from a fresh evaluation");
    assert(blued_.start.back() ==
               static_cast<std::int64_t>(eval_blued_.size()) &&
           "promoted blue count diverges from a fresh evaluation");
    for (const BlueRec& rec : eval_blued_) {
      assert(blue_round_[static_cast<std::size_t>(rec.node)] == rec.round &&
             "promoted blue round diverges from a fresh evaluation");
      (void)rec;
    }
    for (const HomeRec& rec : eval_homes_) {
      assert(home_group_[static_cast<std::size_t>(rec.node)] == rec.grp &&
             "promoted home group diverges from a fresh evaluation");
      (void)rec;
    }
    assert((async_ ? ops_ == scr_ops_ : rows_ == scr_rows_) &&
           "promoted cost rows / op pool diverge from a fresh evaluation");
    assert(scr_.pos.size() == static_cast<std::size_t>(committed_rounds_) * P &&
           "promoted round count diverges from a fresh evaluation");
    for (std::size_t i = 0; i < scr_.pos.size(); ++i) {
      // Fresh boundary r+1 is scratch entry r * P + p, promoted entry
      // (r + 1) * P + p.
      assert(ck_.row_equals(i + P, scr_, i) &&
             "promoted checkpoint row diverges from a fresh evaluation");
    }
  }
#endif
}

void IncrementalEvaluator::rollback() {
  assert(in_move_);
  for (std::size_t i = delta_size_; i-- > 0;) {
    const PlanDeltaOp& op = delta_ops_[i];
    undo_delta_op(plan_, op);
    index_.on_undo(op);
  }
  for (const auto& [v, req] : save_req_before_) {
    save_req_[static_cast<std::size_t>(v)] = req;
  }
  assert(save_required_current() &&
         "restored save_required bit diverges from the restored plan");
  // The plan reverts to the committed frame: memo rows filled from the
  // rolled-back candidate frame of an edited processor must not survive.
  for (int p : touched_procs_) nn_invalidate(p);
  in_move_ = false;
}

// ---------------------------------------------------------------------------
// Validation.

bool IncrementalEvaluator::rescan_proc(int p) {
  // Exact replica of validate_plan's per-processor availability scan,
  // against the *current* (candidate) global earliest_done.
  next_epoch(scan_epoch_, scan_stamp_.begin(), scan_stamp_.end());
  const auto& seq = plan_.seq[static_cast<std::size_t>(p)];
  for (std::size_t i = 0; i < seq.size(); ++i) {
    const PlannedCompute& pc = seq[i];
    for (NodeId u : dag_.parents(pc.node)) {
      if (dag_.is_source(u)) continue;
      if (scan_stamp_[static_cast<std::size_t>(u)] == scan_epoch_) continue;
      const int ed = index_.earliest_done(u);
      const bool remote_earlier = ed >= 0 && ed < pc.superstep;
      if (!remote_earlier) return false;
    }
    scan_stamp_[static_cast<std::size_t>(pc.node)] = scan_epoch_;
  }
  return true;
}

bool IncrementalEvaluator::validate_candidate() {
  // The committed plan is valid, so only what the move can break is
  // checked (see the header's "Validation"). Every node whose occurrences
  // changed must still be computed somewhere.
  for (const auto& [v, ed_old] : ed_before_) {
    if (index_.earliest_done(v) < 0) return false;
  }
  int merges = 0, splits = 0;
  for (std::size_t i = 0; i < delta_size_; ++i) {
    merges += delta_ops_[i].kind == PlanDeltaOpKind::kMergeStep;
    splits += delta_ops_[i].kind == PlanDeltaOpKind::kSplitStep;
  }
  const bool edits = !touched_procs_.empty();
  if (merges + splits == 0) return edits_valid(/*rise_shortcut=*/true);
  if (splits == 1 && merges == 0 && !edits) {
    // A lone split is valid by construction. Its cuts lie inside block s,
    // so every label <= s before a cut stays put and every later label
    // rises by one. A remote parent finishing at e < s keeps e, and its
    // consumer's label never drops. One finishing at e >= s rises by at
    // most one, and its consumers (labels > e >= s) all rise by one. Local
    // availability depends on positions only, which do not move.
    return true;
  }
  const PlanDeltaOp& last = delta_ops_[delta_size_ - 1];
  if (merges == 1 && splits == 0 && last.kind == PlanDeltaOpKind::kMergeStep) {
    // The merge's labels are not the edits' labels, so an earliest-done
    // rise cannot be read off ed_before_ here.
    return merged_step_valid(last) && edits_valid(/*rise_shortcut=*/false);
  }
  ++rescan_moves_;
  for (int p = 0; p < P_; ++p) {
    if (!rescan_proc(p)) return false;
  }
  return true;
}

bool IncrementalEvaluator::edits_valid(bool rise_shortcut) {
  // Edited processors: a (consumer, parent) pair can change only if the
  // parent is in A (the changed nodes C plus their parents); any other
  // pair keeps its occurrences, their order and the parent's earliest
  // done. A parent's binding use is its first remote use (supersteps
  // never decrease along a sequence).
  for (int p : touched_procs_) {
    const auto& seq = plan_.seq[static_cast<std::size_t>(p)];
    for (NodeId u : affected_nodes_) {
      if (dag_.is_source(u)) continue;
      const std::int64_t use = index_.first_remote_use(p, u);
      if (use < 0) continue;
      const int ed = index_.earliest_done(u);
      if (ed < 0 || ed >= seq[static_cast<std::size_t>(use)].superstep) {
        return false;
      }
    }
  }
  // Other processors: their local structure is unchanged, so only a node
  // of C, whose earliest_done may have moved, can break there, first at
  // its first remote use. With the rise shortcut (labels unchanged by the
  // move), a node whose earliest_done did not rise cannot fail; a node's
  // first ed_before_ entry holds its committed earliest_done.
  next_epoch(scan_epoch_, scan_stamp_.begin(), scan_stamp_.end());
  for (const auto& [v, ed_old] : ed_before_) {
    if (scan_stamp_[static_cast<std::size_t>(v)] == scan_epoch_) continue;
    scan_stamp_[static_cast<std::size_t>(v)] = scan_epoch_;
    const int ed = index_.earliest_done(v);
    if (rise_shortcut && ed <= ed_old) continue;
    for (int q = 0; q < P_; ++q) {
      if (proc_touched_[static_cast<std::size_t>(q)]) continue;
      const std::int64_t use = index_.first_remote_use(q, v);
      if (use >= 0 && plan_.seq[static_cast<std::size_t>(q)]
                              [static_cast<std::size_t>(use)]
                                  .superstep <= ed) {
        return false;
      }
    }
  }
  return true;
}

bool IncrementalEvaluator::merged_step_valid(const PlanDeltaOp& merge) {
  // Merging s with s+1 maps labels monotonically and keeps every other
  // pair of labels apart, so "earliest done < consumer" can newly fail
  // only for a consumer that moved from s+1 to s whose remote parent
  // finishes at s. The merge is the move's last op, so its cuts index
  // the candidate plan: the movers are the label-s occurrences at or
  // after each cut.
  const int s = merge.pc.superstep;
  for (int p = 0; p < P_; ++p) {
    const auto& seq = plan_.seq[static_cast<std::size_t>(p)];
    for (std::size_t i = merge.cuts[static_cast<std::size_t>(p)];
         i < seq.size() && seq[i].superstep == s; ++i) {
      for (NodeId u : dag_.parents(seq[i].node)) {
        if (dag_.is_source(u)) continue;
        const int ed = index_.earliest_done(u);
        if (ed >= 0 && ed < s) continue;
        if (!index_.has_local_comp_before(p, u, i)) return false;
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Round-table helpers (committed frame).

int IncrementalEvaluator::first_round_of(int superstep) const {
  const int s = std::clamp(superstep, 0, committed_steps_);
  return step_first_round_[static_cast<std::size_t>(s)];
}

int IncrementalEvaluator::round_of_pos(int p, std::int64_t pos) const {
  // Smallest committed round whose segment on p contains position pos
  // (boundary positions are per-proc nondecreasing in r).
  int lo = 0, hi = committed_rounds_;
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    if (ck_.pos[static_cast<std::size_t>(mid + 1) * static_cast<std::size_t>(P_) +
                static_cast<std::size_t>(p)] > pos) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

int IncrementalEvaluator::crossing_round(int p, std::int64_t cut) const {
  // Smallest committed round boundary at which p has consumed >= cut
  // positions (the round whose segment first reaches the old block
  // boundary starts at the previous boundary).
  int lo = 0, hi = committed_rounds_;
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    if (ck_.pos[static_cast<std::size_t>(mid) * static_cast<std::size_t>(P_) +
                static_cast<std::size_t>(p)] >= cut) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

// ---------------------------------------------------------------------------
// Dirty bound (in committed rounds; see the header's invariants).

int IncrementalEvaluator::dirty_bound() {
  int b = INT_MAX;
  int structural = 0;
  int num_splits = 0;
  for (std::size_t i = 0; i < delta_size_; ++i) {
    const PlanDeltaOpKind k = delta_ops_[i].kind;
    if (k == PlanDeltaOpKind::kMergeStep) ++structural;
    if (k == PlanDeltaOpKind::kSplitStep) {
      ++structural;
      ++num_splits;
    }
  }
  // Every processor's count is read below (a merge or split consults all
  // of them), not only the edited ones'.
  std::fill(inserts_on_proc_.begin(), inserts_on_proc_.end(), 0);
  for (std::size_t i = 0; i < delta_size_; ++i) {
    if (delta_ops_[i].kind == PlanDeltaOpKind::kInsert) {
      ++inserts_on_proc_[static_cast<std::size_t>(delta_ops_[i].proc)];
    }
  }
  // Candidate-frame superstep labels under-shoot committed ones only via
  // splits (each raises labels by one); subtracting the move's split
  // count keeps label-keyed round lookups conservative.
  const auto safe_first = [&](int s) { return first_round_of(s - num_splits); };
  const auto first_at = [](const std::vector<PlannedCompute>& seq, int s) {
    return static_cast<std::size_t>(
        std::lower_bound(seq.begin(), seq.end(), s,
                         [](const PlannedCompute& pc, int step) {
                           return pc.superstep < step;
                         }) -
        seq.begin());
  };

  // For each node whose occurrence/use pattern on a processor changed,
  // completion decisions on that processor are provably unchanged before
  // (the node's last event strictly before the edit position) + 1; an
  // absent prior event dirties the processor from its first activity on.
  const auto node_bound = [&](int p, std::size_t pos, int op_superstep,
                              NodeId a) {
    const auto& seq = plan_.seq[static_cast<std::size_t>(p)];
    const auto& pp = index_.proc_positions(p);
    std::int64_t last = -1;
    const auto find_last = [&](const std::vector<std::int32_t>& start,
                               const std::vector<std::int32_t>& items) {
      const auto lo =
          items.begin() +
          static_cast<std::ptrdiff_t>(start[static_cast<std::size_t>(a)]);
      const auto hi =
          items.begin() +
          static_cast<std::ptrdiff_t>(start[static_cast<std::size_t>(a) + 1]);
      const auto it = std::lower_bound(lo, hi, static_cast<std::int64_t>(pos));
      if (it != lo) last = std::max<std::int64_t>(last, *(it - 1));
    };
    find_last(pp.comp_start, pp.comp_items);
    find_last(pp.use_start, pp.use_items);
    if (last >= 0) {
      // Queries with from == last+1 can be issued by the segment *ending*
      // there, which runs in the round containing position `last` — so
      // the restart must cover that round. `last` is a candidate-frame
      // position; shifting it down by the move's insert count on p
      // under-approximates its committed image (erases only shift it up,
      // and inserts behind the event do not shift it at all — hence the
      // clamp to 0 rather than a jump to the block fallback, which would
      // unsoundly skip the rounds holding the event).
      const std::int64_t last_c = std::max<std::int64_t>(
          last - inserts_on_proc_[static_cast<std::size_t>(p)], 0);
      b = std::min(b, round_of_pos(p, last_c));
      return;
    }
    // No usable prior event: `a` cannot sit in p's cache before the edit
    // position (membership requires a comp or use event), so no earlier
    // round ever queries it. Positional effects of the edit are confined
    // to the superstep block containing it: segment planning reads items
    // (weights, labels) only within its own block — the length search
    // can reach the whole block, so every round of the block is suspect —
    // plus the boundary label of the next block, whose block-end test is
    // label-agnostic. Rounds before the block's first replay identically.
    (void)seq;
    b = std::min(b, safe_first(op_superstep));
  };

  for (std::size_t i = 0; i < delta_size_; ++i) {
    const PlanDeltaOp& op = delta_ops_[i];
    if (op.kind == PlanDeltaOpKind::kMergeStep) {
      const int s = op.pc.superstep;
      relabel_fixups_.push_back({s + 1, -1});
      // Tight analysis reads candidate labels against the op's apply-time
      // cuts; both frames coincide only when this is the move's sole
      // structural op and no node op follows it (gap closes are appended
      // last; generator merges are single-op moves).
      if (structural > 1 || i + 1 != delta_size_) {
        b = std::min(b, safe_first(s));
        continue;
      }
      bool any_s = false, any_s1 = false;
      for (int p = 0; p < P_; ++p) {
        const auto& seq = plan_.seq[static_cast<std::size_t>(p)];
        const std::size_t cut =
            std::min(op.cuts[static_cast<std::size_t>(p)], seq.size());
        const std::size_t lo = first_at(seq, s);
        any_s |= lo < cut;
        any_s1 |= cut < seq.size() && seq[cut].superstep == s;
      }
      if (!any_s || !any_s1) {
        // One side globally empty (every gap-closing merge lands here):
        // no block boundary moved on any processor, so the completion is
        // a pure relabel — the fixup pushed above patches the kept round
        // table at promote, and nothing needs re-running for this op.
        continue;
      }
      for (int p = 0; p < P_; ++p) {
        const auto& seq = plan_.seq[static_cast<std::size_t>(p)];
        const std::size_t cut =
            std::min(op.cuts[static_cast<std::size_t>(p)], seq.size());
        const bool had_s1 = cut < seq.size() && seq[cut].superstep == s;
        if (!had_s1) continue;  // nothing joined s on this processor
        const std::size_t lo = first_at(seq, s);
        if (lo >= cut) {
          // s was empty on p: its first segment of the merged block is
          // brand new — dirty from the first round of s on.
          b = std::min(b, first_round_of(s));
          continue;
        }
        // p had work on both sides: every committed segment of s that
        // ended on a feasibility failure replays identically; only the
        // one that first *reached* the old boundary (ended on the block
        // limit) can now grow across it.
        const std::int64_t cut_c = std::max<std::int64_t>(
            static_cast<std::int64_t>(cut) -
                inserts_on_proc_[static_cast<std::size_t>(p)],
            0);
        b = std::min(b, std::max(first_round_of(s), crossing_round(p, cut_c) - 1));
      }
      continue;
    }
    if (op.kind == PlanDeltaOpKind::kSplitStep) {
      const int s = op.pc.superstep;
      relabel_fixups_.push_back({s + 1, +1});
      if (structural > 1 || i + 1 != delta_size_) {
        b = std::min(b, safe_first(s));
        continue;
      }
      bool any_moved = false;
      for (int p = 0; p < P_; ++p) {
        const auto& seq = plan_.seq[static_cast<std::size_t>(p)];
        const std::size_t cut =
            std::min(op.cuts[static_cast<std::size_t>(p)], seq.size());
        const bool moved = cut < seq.size() && seq[cut].superstep == s + 1;
        if (!moved) continue;  // p's block of s is untouched (or empty)
        any_moved = true;
        const std::size_t lo = first_at(seq, s);
        if (cut == lo) {
          // The whole block moved into the new step: label change only
          // for p, but other processors' s-blocks now end a superstep
          // earlier — conservative restart from s.
          b = std::min(b, first_round_of(s));
          continue;
        }
        const std::int64_t cut_c = std::max<std::int64_t>(
            static_cast<std::int64_t>(cut) -
                inserts_on_proc_[static_cast<std::size_t>(p)],
            0);
        b = std::min(b, std::max(first_round_of(s), crossing_round(p, cut_c) - 1));
      }
      (void)any_moved;  // none moved: pure relabel, fixup only
      continue;
    }
    const int s_op =
        op.kind == PlanDeltaOpKind::kSetNode
            ? plan_.seq[static_cast<std::size_t>(op.proc)][op.pos].superstep
            : op.pc.superstep;
    // op.pos is the apply-time position; clamp into the candidate
    // sequence (conservative: a smaller pos only lowers the bound).
    const std::size_t cand_size =
        plan_.seq[static_cast<std::size_t>(op.proc)].size();
    const std::size_t pos = std::min(op.pos, cand_size);
    node_bound(op.proc, pos, s_op, op.pc.node);
    for (NodeId u : dag_.parents(op.pc.node)) {
      node_bound(op.proc, pos, s_op, u);
    }
    if (op.kind == PlanDeltaOpKind::kSetNode) {
      node_bound(op.proc, pos, s_op, op.old_node);
      for (NodeId u : dag_.parents(op.old_node)) {
        node_bound(op.proc, pos, s_op, u);
      }
    }
  }
  // save_required is global: if a move flipped it for some node, every
  // round from that node's earliest occurrence's superstep on is dirty.
  for (const auto& [v, before] : save_req_before_) {
    if (save_req_[static_cast<std::size_t>(v)] == before) continue;
    int earliest = index_.earliest_done(v);
    for (const auto& [w, ed_old] : ed_before_) {
      if (w == v && ed_old >= 0) {
        earliest = earliest < 0 ? ed_old : std::min(earliest, ed_old);
      }
    }
    if (earliest >= 0) b = std::min(b, safe_first(earliest));
  }
  // INT_MAX (no-op move / pure relabel) is clamped by the caller to
  // committed_rounds_: a zero-round rerun that reuses every checkpoint.
  return b;
}

// ---------------------------------------------------------------------------
// Reconvergence exit (see the header).

void IncrementalEvaluator::prepare_exit() {
  // A save_required flip needs no rule here (see the header's "Reconvergence
  // exit"): the blue-set agreement already covers the flipped nodes.
  std::fill(edit_hi_.begin(), edit_hi_.end(), 0);
  std::fill(edit_shift_.begin(), edit_shift_.end(), 0);
  lru_keys_.clear();
  const auto note_keys = [&](int p, NodeId v) {
    lru_keys_.push_back({p, v});
    for (NodeId u : dag_.parents(v)) lru_keys_.push_back({p, u});
  };
  // Track, op by op in apply-time frames, the smallest position past
  // which every occurrence is unedited: an insert at x pushes it to x+1
  // (or shifts it), an erase leaves a seam at x (or shifts it back).
  for (std::size_t i = 0; i < delta_size_; ++i) {
    const PlanDeltaOp& op = delta_ops_[i];
    if (op.kind == PlanDeltaOpKind::kMergeStep ||
        op.kind == PlanDeltaOpKind::kSplitStep) {
      continue;  // relabels only: checked against relabel_fixups_
    }
    const std::size_t p = static_cast<std::size_t>(op.proc);
    const auto x = static_cast<std::int64_t>(op.pos);
    std::int64_t& hi = edit_hi_[p];
    if (op.kind == PlanDeltaOpKind::kInsert) {
      hi = std::max(hi + 1, x + 1);
      ++edit_shift_[p];
    } else if (op.kind == PlanDeltaOpKind::kErase) {
      hi = std::max(hi - 1, x);
      --edit_shift_[p];
    } else {
      hi = std::max(hi, x + 1);
      if (lru_) note_keys(op.proc, op.old_node);
    }
    if (lru_) note_keys(op.proc, op.pc.node);
  }
}

bool IncrementalEvaluator::dead_at_boundary(NodeId v) {
  // The completion reads a node's blue bit and home group only while the
  // node is cached, or for one of its own compute or use events (loads,
  // eviction and save decisions, pricing). A node cached nowhere, with no
  // event at or after the running positions, is never read again — and
  // no later op (so none of a reused committed tail) names it.
  for (int p = 0; p < P_; ++p) {
    if (ec_member(p, v) ||
        has_event_from(index_.proc_positions(p), v,
                       pos_[static_cast<std::size_t>(p)])) {
      return false;
    }
  }
  return true;
}

int IncrementalEvaluator::reconvergence_round() {
  const std::size_t P = static_cast<std::size_t>(P_);
  std::int64_t target = 0;
  for (std::size_t p = 0; p < P; ++p) {
    if (pos_[p] < edit_hi_[p]) return -1;  // still inside an edit
    target += pos_[p] - edit_shift_[p];
  }
  // Every round advances some processor, so committed boundary position
  // sums strictly increase: at most one boundary can match. Boundary b+1
  // is the earliest the splice can keep (b itself is never dropped), and
  // the end boundary R is left to the loop's natural exit.
  const auto pos_sum = [&](int r) {
    std::int64_t sum = 0;
    for (std::size_t p = 0; p < P; ++p) {
      sum += ck_.pos[static_cast<std::size_t>(r) * P + p];
    }
    return sum;
  };
  int lo = eval_b_ + 1, hi = committed_rounds_;
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    if (pos_sum(mid) < target) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const int r = lo;
  if (r >= committed_rounds_) return -1;
  const std::size_t row = static_cast<std::size_t>(r) * P;
  for (std::size_t p = 0; p < P; ++p) {
    if (ck_.pos[row + p] != pos_[p] - edit_shift_[p]) return -1;
  }
  // The suffix's blocks must lie past every relabeled block: round r's
  // label (the least remaining one) clears each relabel threshold in turn.
  int label = ck_step_[static_cast<std::size_t>(r)];
  for (const auto& [thr, delta] : relabel_fixups_) {
    if (label < thr) return -1;
    label += delta;
  }
  // Processor state at the boundary: weights, straddling slot, caches.
  for (std::size_t p = 0; p < P; ++p) {
    if (ck_.weight[row + p] != ec_weight_[p]) return -1;
  }
  if (!async_) {
    const std::size_t at =
        static_cast<std::size_t>(eval_cur_ - first_eval_slot_) * P;
    for (std::size_t p = 0; p < P; ++p) {
      if (ck_.comp[row + p] != slot_comp_[at + p] ||
          ck_.save[row + p] != slot_save_[at + p] ||
          ck_.load[row + p] != slot_load_[at + p] ||
          ck_.any[row + p] != slot_any_[at + p]) {
        return -1;
      }
    }
  }
  for (std::size_t p = 0; p < P; ++p) {
    const auto& list = ec_list_[p];
    const auto cached = ck_.cache.row(row + p);
    if (!std::equal(list.begin(), list.end(), cached.begin(), cached.end())) {
      return -1;
    }
  }
  if (async_) {
    for (std::size_t p = 0; p < P; ++p) {
      const SlotOps& cur = async_cur_[p];
      const auto comp = ops_.comp.row(row + p);
      const auto saves = ops_.save.row(row + p).first(
          static_cast<std::size_t>(ck_.save_prefix[row + p]));
      if (!std::equal(cur.comp.begin(), cur.comp.end(), comp.begin(),
                      comp.end()) ||
          !std::equal(cur.save.begin(), cur.save.end(), saves.begin(),
                      saves.end())) {
        return -1;
      }
    }
  }
  // Blue set: the nodes first blued in candidate rounds [b, c) and the
  // committed ones of rounds [b, r) must agree, with equal homes, on every
  // node still live at the boundary (see dead_at_boundary).
  for (const BlueRec& rec : eval_blued_) {
    const std::size_t v = static_cast<std::size_t>(rec.node);
    const bool both = blue_round_[v] >= eval_b_ && blue_round_[v] < r;
    if ((!both || (!single_group_ && eval_home(rec.node) != home_group_[v])) &&
        !dead_at_boundary(rec.node)) {
      return -1;
    }
  }
  for (std::int64_t i = blued_.start[static_cast<std::size_t>(eval_b_)];
       i < blued_.start[static_cast<std::size_t>(r)]; ++i) {
    const NodeId v = blued_.items[static_cast<std::size_t>(i)];
    if (!eb_contains(v) && !dead_at_boundary(v)) return -1;
  }
  // LRU keys of affected nodes: wherever one can still be read — the node
  // is cached at the boundary or has an event at or after it — its last
  // event before the boundary must lie in the unedited region.
  for (const auto& [p, v] : lru_keys_) {
    const auto& pp = index_.proc_positions(p);
    const std::int64_t at = pos_[static_cast<std::size_t>(p)];
    if (!ec_member(p, v) && !has_event_from(pp, v, at)) continue;
    if (committed_last_active(pp, v, at) <
        edit_hi_[static_cast<std::size_t>(p)]) {
      return -1;
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// Completion: eval-level state.

// Memoized per (proc, node). A cached (use, comp) lower-bound pair
// computed at `from` stays exact for any later query from >= `from`:
// a cached position >= from is still the first one >= from (nothing can
// exist between the old query point and it), and kNever at an earlier
// point is kNever forever after. choose_victim re-scans every cache
// member per eviction at (near-)monotone positions, so almost all probes
// take the store-free inline hit path; only a side the query point has
// passed goes through the out-of-line refill.
inline std::int64_t IncrementalEvaluator::effective_next_need(
    int p, const PlanOccurrenceIndex::ProcPositions& pp, NodeId v,
    std::int64_t from) {
  const NextNeed& e =
      nn_[static_cast<std::size_t>(p) * n_ + static_cast<std::size_t>(v)];
  if (e.stamp == nn_epoch_[static_cast<std::size_t>(p)] && from >= e.from) {
    if (e.use == kNoPos) return kNever;
    // kNoPos compares greatest, so a never-recomputed value passes both.
    if (e.use >= from && e.comp >= from) {
      return e.comp < e.use ? kNever : e.use;
    }
  }
  return next_need_refill(p, pp, v, from);
}

std::int64_t IncrementalEvaluator::next_need_refill(
    int p, const PlanOccurrenceIndex::ProcPositions& pp, NodeId v,
    std::int64_t from) {
  const std::size_t v_ = static_cast<std::size_t>(v);
  NextNeed& e = nn_[static_cast<std::size_t>(p) * n_ + v_];
  const bool live =
      e.stamp == nn_epoch_[static_cast<std::size_t>(p)] && from >= e.from;
  std::int64_t use = live ? e.use : 0;
  if (use == kNoPos) use = kNever;
  if (!live || (use != kNever && use < from)) {
    const auto ub =
        pp.use_items.begin() + static_cast<std::ptrdiff_t>(pp.use_start[v_]);
    const auto ue = pp.use_items.begin() +
                    static_cast<std::ptrdiff_t>(pp.use_start[v_ + 1]);
    const auto uit = std::lower_bound(ub, ue, from);
    use = uit == ue ? kNever : *uit;
  }
  std::int64_t comp = live ? e.comp : 0;
  if (comp == kNoPos) comp = kNever;
  if (use == kNever) {
    comp = kNever;  // never consulted while use stays kNever
  } else if (!live || (comp != kNever && comp < from)) {
    const auto cb =
        pp.comp_items.begin() + static_cast<std::ptrdiff_t>(pp.comp_start[v_]);
    const auto ce = pp.comp_items.begin() +
                    static_cast<std::ptrdiff_t>(pp.comp_start[v_ + 1]);
    const auto cit = std::lower_bound(cb, ce, from);
    comp = cit == ce ? kNever : *cit;
  }
  const auto pos32 = [](std::int64_t pos) {
    return pos == kNever ? kNoPos : static_cast<std::int32_t>(pos);
  };
  e.stamp = nn_epoch_[static_cast<std::size_t>(p)];
  e.from = static_cast<std::int32_t>(from);
  e.use = pos32(use);
  e.comp = pos32(comp);
  if (use == kNever) return kNever;
  if (comp != kNever && comp < use) return kNever;  // recomputed first
  return use;
}

std::int64_t IncrementalEvaluator::committed_last_active(
    const PlanOccurrenceIndex::ProcPositions& pp, NodeId v,
    std::int64_t before) const {
  // The completion's committed last_active of a cached value is always
  // the position of its last compute-or-use event strictly before the
  // query point (loads are recorded at the segment start but every load
  // feeds an in-segment use that overwrites the entry), so two binary
  // searches over the occurrence index recover it exactly; -1 = never.
  const std::size_t v_ = static_cast<std::size_t>(v);
  std::int64_t last = -1;
  {
    const auto lo =
        pp.comp_items.begin() + static_cast<std::ptrdiff_t>(pp.comp_start[v_]);
    const auto hi = pp.comp_items.begin() +
                    static_cast<std::ptrdiff_t>(pp.comp_start[v_ + 1]);
    const auto it = std::lower_bound(lo, hi, before);
    if (it != lo) last = std::max<std::int64_t>(last, *(it - 1));
  }
  {
    const auto lo =
        pp.use_items.begin() + static_cast<std::ptrdiff_t>(pp.use_start[v_]);
    const auto hi =
        pp.use_items.begin() + static_cast<std::ptrdiff_t>(pp.use_start[v_ + 1]);
    const auto it = std::lower_bound(lo, hi, before);
    if (it != lo) last = std::max<std::int64_t>(last, *(it - 1));
  }
  return last;
}

// ---------------------------------------------------------------------------
// Completion: boundary restore / checkpoint / main loop.

void IncrementalEvaluator::restore_boundary(int b) {
  // Per-eval scratch: clear() keeps every array's capacity, so once the
  // arrays reach their high-water mark an evaluation allocates nothing.
  scr_.clear();
  scr_round_steps_.clear();
  scr_ops_.clear();
  eval_blued_.clear();
  for (const HomeRec& rec : eval_homes_) {
    home_ov_[static_cast<std::size_t>(rec.node)] = -1;
  }
  eval_homes_.clear();

  eval_b_ = b;
  eval_cur_ = b;
  first_eval_slot_ = b;
  num_slots_ = b + 1;

  const std::size_t row =
      static_cast<std::size_t>(b) * static_cast<std::size_t>(P_);
  if (!async_) {
    const auto restore = [&](auto& slot, const auto& boundary) {
      const auto first = boundary.begin() + static_cast<std::ptrdiff_t>(row);
      slot.assign(first, first + P_);
    };
    restore(slot_comp_, ck_.comp);
    restore(slot_save_, ck_.save);
    restore(slot_load_, ck_.load);
    restore(slot_any_, ck_.any);
  }
  for (int p = 0; p < P_; ++p) {
    const std::size_t at = row + static_cast<std::size_t>(p);
    auto& list = ec_list_[static_cast<std::size_t>(p)];
    ec_clear(p);
    const auto cached = ck_.cache.row(at);
    list.assign(cached.begin(), cached.end());
    for (NodeId v : list) ec_insert(p, v);
    ec_weight_[static_cast<std::size_t>(p)] = ck_.weight[at];
    pos_[static_cast<std::size_t>(p)] = ck_.pos[at];
  }
  eb_clear();
  pending_blue_.clear();
  if (async_) {
    for (int p = 0; p < P_; ++p) {
      const std::size_t at = row + static_cast<std::size_t>(p);
      SlotOps& cur = async_cur_[static_cast<std::size_t>(p)];
      SlotOps& nxt = async_next_[static_cast<std::size_t>(p)];
      nxt.reset();
      // Straddling slot b at the boundary: the body ops of round b-1 are
      // final; of its saves only the post-save prefix exists (stage
      // pre-saves of round b are re-derived); loads are stage-only.
      const auto comp = ops_.comp.row(at);
      cur.comp.assign(comp.begin(), comp.end());
      const auto saves = ops_.save.row(at).first(
          static_cast<std::size_t>(ck_.save_prefix[at]));
      cur.save.assign(saves.begin(), saves.end());
      cur.load.clear();
    }
  }
}

double IncrementalEvaluator::evaluate_from(int b, bool may_exit) {
  cand_steps_ = index_.num_supersteps();
  restore_boundary(b);
  conv_c_ = conv_r_ = -1;

  // Rounds < b consumed a prefix of every sequence; the first remaining
  // superstep is the minimum label at the restored positions (equal to
  // the superstep a full run would be processing at this boundary).
  int k_start = cand_steps_;
  for (int p = 0; p < P_; ++p) {
    const auto& seq = plan_.seq[static_cast<std::size_t>(p)];
    const std::int64_t pos = pos_[static_cast<std::size_t>(p)];
    if (pos < static_cast<std::int64_t>(seq.size())) {
      k_start = std::min(k_start, seq[static_cast<std::size_t>(pos)].superstep);
    }
  }

  for (int k = k_start; k < cand_steps_ && conv_r_ < 0; ++k) {
    for (;;) {
      bool any_remaining = false;
      for (int p = 0; p < P_; ++p) {
        const auto& seq = plan_.seq[static_cast<std::size_t>(p)];
        const std::int64_t pos = pos_[static_cast<std::size_t>(p)];
        if (pos < static_cast<std::int64_t>(seq.size()) &&
            seq[static_cast<std::size_t>(pos)].superstep == k) {
          any_remaining = true;
          break;
        }
      }
      if (!any_remaining) break;
      if (eval_cur_ > eval_b_) scr_.push_boundary(*this);
      scr_round_steps_.push_back(k);
      // Append the body slot of this round (slot count stays cur + 2).
      if (!async_) {
        slot_comp_.insert(slot_comp_.end(), static_cast<std::size_t>(P_), 0.0);
        slot_save_.insert(slot_save_.end(), static_cast<std::size_t>(P_), 0.0);
        slot_load_.insert(slot_load_.end(), static_cast<std::size_t>(P_), 0.0);
        slot_any_.insert(slot_any_.end(), static_cast<std::size_t>(P_),
                         static_cast<char>(0));
      }
      ++num_slots_;
      for (int p = 0; p < P_; ++p) {
        const auto& seq = plan_.seq[static_cast<std::size_t>(p)];
        const std::int64_t pos = pos_[static_cast<std::size_t>(p)];
        if (pos >= static_cast<std::int64_t>(seq.size()) ||
            seq[static_cast<std::size_t>(pos)].superstep != k) {
          continue;
        }
        const bool planned = plan_segment(p, k);
        assert(planned && "first compute of a segment must be schedulable");
        (void)planned;
        commit_segment(p);
      }
      // post_saves become loadable from the next round on. Their transfer
      // price is also settled here, not at commit time: a later processor
      // of the *same* round can pre-save the value into the earlier slot
      // and claim its home group first (matching the oracle's slot-scan
      // home rule); by drain time every earlier save has been processed,
      // so the home consulted below is final.
      for (const auto& [v, p] : pending_blue_) {
        eval_assign_home(v, grp_[static_cast<std::size_t>(p)]);
        if (!async_) {
          const std::size_t at =
              static_cast<std::size_t>(eval_cur_ + 1 - first_eval_slot_) *
                  static_cast<std::size_t>(P_) +
              static_cast<std::size_t>(p);
          slot_save_[at] += comm_cost(p, eval_home(v)) * dag_.mu(v);
        }
        eval_blue_set(v);
      }
      pending_blue_.clear();
      if (async_) {
        // The completed straddling slot's op lists join the scratch pool
        // (the committed pool's layout, rebased at slot b).
        scr_ops_.push_slot(async_cur_);
        std::swap(async_cur_, async_next_);
        for (int p = 0; p < P_; ++p) {
          async_next_[static_cast<std::size_t>(p)].reset();
        }
      }
      ++eval_cur_;
      if (may_exit) {
        const int r = reconvergence_round();
        if (r >= 0) {
          conv_c_ = eval_cur_;
          conv_r_ = r;
          break;
        }
      }
    }
  }
  if (conv_r_ >= 0) {
    // Rejoined the committed run: boundary c is committed boundary r_c
    // (not recorded) and the committed rounds r_c.. are the rest.
    cand_rounds_ = conv_c_ + (committed_rounds_ - conv_r_);
    last_dirty_ = conv_c_ - b;
    return async_ ? finalize_async_cost() : finalize_cost();
  }
  // Zero-length suffix (an erase shrank the plan so that no round runs):
  // the boundary checkpoint already is the end state — recording it again
  // would mislabel it as boundary b+1.
  if (eval_cur_ > eval_b_) scr_.push_boundary(*this);
  if (async_) scr_ops_.push_slot(async_cur_);  // final straddling slot
  cand_rounds_ = eval_cur_;
  last_dirty_ = cand_rounds_ - b;
  return async_ ? finalize_async_cost() : finalize_cost();
}

// ---------------------------------------------------------------------------
// Completion: segment planning (the try_segment / plan_largest_segment
// replica, with the prefix scan shared across growing counts).
//
// A try's success depends only on phases A and B (the post phase never
// fails), so each try runs just those: on success its state (overlay,
// additions, weight) is swapped into the best_* buffers like best_seg_,
// and finish_segment runs the post phase and builds the final cache once,
// on the winner. The post phase reads only that state, the eval-level
// blue set and the lookahead, none of which a later (failing) try
// touches, so the winner's post phase is the one its own try would have
// run. A try that the resume guard admits continues the last successful
// try's state instead of replaying the prefix (see the header's "Segment
// planning").

bool IncrementalEvaluator::plan_segment(int p, int superstep) {
  const auto& seq = plan_.seq[static_cast<std::size_t>(p)];
  const std::int64_t i0 = pos_[static_cast<std::size_t>(p)];
  std::int64_t limit = 0;
  while (i0 + limit < static_cast<std::int64_t>(seq.size()) &&
         seq[static_cast<std::size_t>(i0 + limit)].superstep == superstep) {
    ++limit;
  }
  assert(limit > 0);

  ++counters_.segments;
  clear_seg_overlay();
  s_loads_.clear();
  s_load_weight_ = 0;
  s_upfront_sorted_ = false;
  bool best_found = false;
  for (std::int64_t count = 1; count <= limit; ++count) {
    // Extend the segment prefix state by entry count-1: upfront loads in
    // first-encounter order, consumed start-cache values, produced set.
    const NodeId v = seq[static_cast<std::size_t>(i0 + count - 1)].node;
    const std::size_t first_new_load = s_loads_.size();
    double new_load_weight = 0;
    bool loadable = true;
    for (NodeId u : dag_.parents(v)) {
      SegOv& ov = seg_ov(u);
      if (ov.produced || ov.load) continue;
      if (eval_cache_member(p, u)) {
        ov.needed = 1;
        continue;
      }
      if (!eval_blue(u)) {
        loadable = false;
        break;
      }
      ov.load = 1;
      s_loads_.push_back(u);
      s_load_weight_ += dag_.mu(u);
      new_load_weight += dag_.mu(u);
    }
    if (!loadable) break;
    seg_ov(v).produced = 1;
    ++counters_.tries;
    if (best_found && may_resume(p, v, s_loads_.size() > first_new_load,
                                 new_load_weight)) {
      ++counters_.resumed_tries;
      // The last successful try continues in the running buffers; on
      // failure resume_try restores it, so they go back to best_* either
      // way.
      std::swap(best_seg_, cur_seg_);
      swap_best_try();
      const bool ok = resume_try(p, i0, count, first_new_load);
      std::swap(best_seg_, cur_seg_);
      swap_best_try();
      if (!ok) break;
    } else {
      if (!run_phases(p, i0, count)) break;
      std::swap(best_seg_, cur_seg_);
      swap_best_try();
    }
    best_found = true;
  }
  if (best_found) finish_segment(p, i0);
  return best_found;
}

// The resume guard: a replay of try `count` (new entry v) would repeat the
// last successful try on the segment prefix, decision for decision, when
//  1. that try evicted no parent of v (in phase A, or in phase B as an
//     erase or a hoist). A replay holds v's parents back from those
//     evictions: each has a remaining need, and a start-cache parent is
//     newly "needed". Any other victim stays the policy's first choice
//     among what a replay allows, so it is still chosen;
//  2. v adds no upfront load, or the loads' weight W fits under every
//     memory test that try made: with exact weights each replayed test
//     reads its old weight plus W, so none of them changes outcome when
//     the try's peak tested weight plus W fits. A test that evicted had a
//     weight above the capacity, so this also requires that the try made
//     no victim eviction. Without exact weights the loads' weight would
//     join the sums in another order, so only a try without new loads
//     resumes.
bool IncrementalEvaluator::may_resume(int p, NodeId v, bool new_loads,
                                      double new_load_weight) const {
  for (NodeId u : dag_.parents(v)) {
    const TryOv& ov = best_ov_[static_cast<std::size_t>(u)];
    if (ov.stamp == best_epoch_ && ov.evicted != 0) return false;
  }
  if (!new_loads) return true;
  return weights_exact_ &&
         !(best_peak_ + new_load_weight >
           mem_[static_cast<std::size_t>(p)] + kMemEps);
}

// Phase A's candidates are the start cache minus the values the segment
// needs, and its keys are taken at i0, so every try of the segment ranks
// them identically. Both policies' keys are strict total orders (the id
// breaks every tie), so the victims choose_victim would pick one scan at
// a time are this order's non-needed entries, in order.
void IncrementalEvaluator::sort_upfront_order(int p, std::int64_t i0) {
  const auto& pp = index_.proc_positions(p);
  s_upfront_.clear();
  for (NodeId v : ec_list_[static_cast<std::size_t>(p)]) {
    s_upfront_.push_back({effective_next_need(p, pp, v, i0),
                          lru_ ? committed_last_active(pp, v, i0) : 0, v});
  }
  if (lru_) {
    // Dead first, then least recently active, then the smaller id.
    std::sort(s_upfront_.begin(), s_upfront_.end(),
              [](const UpfrontKey& a, const UpfrontKey& b) {
                const bool a_dead = a.next == kNever;
                const bool b_dead = b.next == kNever;
                if (a_dead != b_dead) return a_dead;
                return a.la < b.la || (a.la == b.la && a.v < b.v);
              });
  } else {
    // Furthest next use (dead values last used at kNever) first, then
    // the smaller id.
    std::sort(s_upfront_.begin(), s_upfront_.end(),
              [](const UpfrontKey& a, const UpfrontKey& b) {
                return a.next > b.next || (a.next == b.next && a.v < b.v);
              });
  }
  s_upfront_sorted_ = true;
}

// A full try: setup, phase A, the loads, the remaining-need bumps and
// phase B over the whole prefix.
bool IncrementalEvaluator::run_phases(int p, std::int64_t i0,
                                      std::int64_t count) {
  const auto& seq = plan_.seq[static_cast<std::size_t>(p)];
  const auto& pp = index_.proc_positions(p);
  clear_try_overlay();
  t_added_.clear();
  t_weight_ = ec_weight_[static_cast<std::size_t>(p)];
  Segment& seg = cur_seg_;
  seg.loads.assign(s_loads_.begin(), s_loads_.end());
  seg.pre_saves.clear();
  seg.pre_deletes.clear();
  seg.ops.clear();
  seg.count = count;

  auto needed = [&](NodeId v) {
    const SegOv* ov = seg_find(v);
    return ov != nullptr && ov->needed;
  };

  // Phase A: upfront evictions so start cache + loads fit, walking the
  // segment's victim order (sort_upfront_order) past the needed values.
  const double r_p = mem_[static_cast<std::size_t>(p)];
  t_peak_ = t_weight_ + s_load_weight_;
  if (t_peak_ > r_p + kMemEps && !s_upfront_sorted_) sort_upfront_order(p, i0);
  for (auto it = s_upfront_.begin();
       t_weight_ + s_load_weight_ > r_p + kMemEps; ++it) {
    while (it != s_upfront_.end() && needed(it->v)) ++it;
    if (it == s_upfront_.end()) return false;
    const NodeId victim = it->v;
    if (!try_blue(victim) &&
        (it->next != kNever || save_req_[static_cast<std::size_t>(victim)])) {
      seg.pre_saves.push_back(victim);
      try_ov(victim).blue = 1;
    }
    seg.pre_deletes.push_back(victim);
    TryOv& ov = try_ov(victim);
    ov.member = 0;
    ov.evicted = static_cast<std::int8_t>(kEvictedUpfront | kEvictedInTry);
    t_weight_ -= dag_.mu(victim);
  }

  // Apply the upfront loads.
  for (NodeId u : seg.loads) {
    if (!try_member(p, u)) {
      try_set_member(p, u, true);
      t_weight_ += dag_.mu(u);
    }
  }

  for (std::int64_t j = 0; j < count; ++j) {
    for (NodeId u : dag_.parents(seq[static_cast<std::size_t>(i0 + j)].node)) {
      try_ov(u).remneed += 1;
    }
  }

  // Phase B: replay the computes with mid-segment evictions.
  for (std::int64_t j = 0; j < count; ++j) {
    if (!replay_entry(p, pp, i0, j, /*journal=*/false)) return false;
  }
  return true;
}

// Try `count` as a continuation of try count - 1's finished state, which
// the running buffers hold; the guard (may_resume) has proved that a
// replay of the prefix would repeat that try. What a replay does
// differently happens for the new entry only: its loads join the cache
// (a replay adds their weight before phase B, here it comes after the
// prefix: equal, as exact weights make the sum order-free), its parents'
// remaining need rises by one, and then the entry itself runs. On failure
// the journal and the recorded lengths restore the previous try exactly.
bool IncrementalEvaluator::resume_try(int p, std::int64_t i0,
                                      std::int64_t count,
                                      std::size_t first_new_load) {
  const NodeId v =
      plan_.seq[static_cast<std::size_t>(p)][static_cast<std::size_t>(
          i0 + count - 1)].node;
  Segment& seg = cur_seg_;
  const std::size_t old_loads = seg.loads.size();
  const std::size_t old_pre_saves = seg.pre_saves.size();
  const std::size_t old_pre_deletes = seg.pre_deletes.size();
  const std::size_t old_ops = seg.ops.size();
  const std::size_t old_added = t_added_.size();
  const double old_weight = t_weight_;
  const double old_peak = t_peak_;
  // The entry touches only itself, its parents (the new loads among them)
  // and its victims; replay_entry journals the victims.
  t_journal_.clear();
  t_journal_.push_back({v, t_ov_[static_cast<std::size_t>(v)]});
  for (NodeId u : dag_.parents(v)) {
    t_journal_.push_back({u, t_ov_[static_cast<std::size_t>(u)]});
  }

  for (std::size_t i = first_new_load; i < s_loads_.size(); ++i) {
    const NodeId u = s_loads_[i];
    assert(!try_member(p, u));
    seg.loads.push_back(u);
    try_set_member(p, u, true);
    t_weight_ += dag_.mu(u);
    t_peak_ += dag_.mu(u);  // every earlier test reads W more
  }
  for (NodeId u : dag_.parents(v)) try_ov(u).remneed += 1;
  seg.count = count;
  if (replay_entry(p, index_.proc_positions(p), i0, count - 1,
                   /*journal=*/true)) {
    // A replay lists its loads before phase B's additions in t_added_,
    // which orders finish_segment's cache row: move the new loads there.
    const auto first = t_added_.begin();
    std::rotate(first + static_cast<std::ptrdiff_t>(old_loads),
                first + static_cast<std::ptrdiff_t>(old_added),
                first + static_cast<std::ptrdiff_t>(
                            old_added + (s_loads_.size() - first_new_load)));
    return true;
  }
  for (auto it = t_journal_.rbegin(); it != t_journal_.rend(); ++it) {
    t_ov_[static_cast<std::size_t>(it->node)] = it->before;
  }
  seg.loads.resize(old_loads);
  seg.pre_saves.resize(old_pre_saves);
  seg.pre_deletes.resize(old_pre_deletes);
  seg.ops.resize(old_ops);
  seg.count = count - 1;
  t_added_.resize(old_added);
  t_weight_ = old_weight;
  t_peak_ = old_peak;
  return false;
}

// Phase B for entry j of the running try: the compute with its
// mid-segment evictions, then the eager cleanup of its dead parents.
// With `journal` each victim's overlay slot is recorded before it
// changes. False when no value may make room for the compute.
bool IncrementalEvaluator::replay_entry(
    int p, const PlanOccurrenceIndex::ProcPositions& pp, std::int64_t i0,
    std::int64_t j, bool journal) {
  auto save_required = [&](NodeId v) {
    return save_req_[static_cast<std::size_t>(v)] != 0;
  };
  // Hoistable values: start-cache values untouched by the segment (see
  // memory_completion.cpp for why hoisting their eviction is sound) —
  // in the start cache, not needed, and still cached after phase A. The
  // oracle snapshots that set once post-load; its three conditions never
  // change later in the try, so the lazy test is the same set (a value
  // recomputed after a phase-B eviction keeps its start-cache answer).
  auto hoistable = [&](NodeId v) {
    if (!eval_cache_member(p, v)) return false;
    const SegOv* sov = seg_find(v);
    if (sov != nullptr && sov->needed) return false;
    const TryOv* ov = try_find(v);
    return ov == nullptr || (ov->evicted & kEvictedUpfront) == 0;
  };
  auto remneed = [&](NodeId v) -> std::int32_t {
    const TryOv* ov = try_find(v);
    return ov != nullptr ? ov->remneed : 0;
  };
  auto evict = [&](NodeId v) {
    TryOv& ov = try_ov(v);
    ov.member = 0;
    ov.evicted |= kEvictedInTry;
    t_weight_ -= dag_.mu(v);
  };

  // Both eviction policies are strict total orders over the candidates,
  // so iterating the committed list then the additions is free. The LRU
  // key is the committed last-active position *at the segment start*
  // (frozen during a try, exactly like the completer's committed array).
  auto choose_victim = [&](auto&& allowed, std::int64_t from) -> NodeId {
    NodeId best = kInvalidNode;
    std::int64_t best_next = -1;
    std::int64_t best_la = -1;
    bool best_dead = false;
    auto consider = [&](NodeId v) {
      if (!allowed(v)) return;
      const std::int64_t need = effective_next_need(p, pp, v, from);
      if (!lru_) {
        if (best == kInvalidNode || need > best_next ||
            (need == best_next && v < best)) {
          best = v;
          best_next = need;
        }
        return;
      }
      const bool dead = need == kNever;
      const std::int64_t la = committed_last_active(pp, v, i0);
      if (best == kInvalidNode) {
        best = v;
        best_dead = dead;
        best_la = la;
        return;
      }
      if (dead != best_dead) {
        if (dead) {
          best = v;
          best_dead = dead;
          best_la = la;
        }
        return;
      }
      if (la < best_la || (la == best_la && v < best)) {
        best = v;
        best_la = la;
      }
    };
    for (NodeId v : ec_list_[static_cast<std::size_t>(p)]) {
      const TryOv* ov = try_find(v);
      if (ov != nullptr && ov->member == 0) continue;  // evicted in this try
      consider(v);
    }
    for (NodeId v : t_added_) {
      const TryOv* ov = try_find(v);
      if (ov == nullptr || ov->member != 1) continue;
      consider(v);
    }
    return best;
  };

  const NodeId v =
      plan_.seq[static_cast<std::size_t>(p)][static_cast<std::size_t>(i0 + j)]
          .node;
  const std::int64_t gpos = i0 + j;
  const double r_p = mem_[static_cast<std::size_t>(p)];
  Segment& seg = cur_seg_;
  if (!try_member(p, v)) {
    t_peak_ = std::max(t_peak_, t_weight_ + dag_.mu(v));
    while (t_weight_ + dag_.mu(v) > r_p + kMemEps) {
      const NodeId victim = choose_victim(
          [&](NodeId c) {
            if (remneed(c) > 0) return false;  // still a parent here
            if (try_blue(c)) return true;
            if (hoistable(c)) return true;
            return effective_next_need(p, pp, c, gpos) == kNever &&
                   !save_required(c);
          },
          gpos + 1);
      if (victim == kInvalidNode) return false;
      if (journal) {
        t_journal_.push_back({victim, t_ov_[static_cast<std::size_t>(victim)]});
      }
      const bool dirty_live =
          !try_blue(victim) &&
          (effective_next_need(p, pp, victim, gpos) != kNever ||
           save_required(victim));
      if (dirty_live) {
        // Hoist: evict before the segment, saving first.
        seg.pre_saves.push_back(victim);
        try_ov(victim).blue = 1;
        seg.pre_deletes.push_back(victim);
      } else {
        seg.ops.push_back(PhaseOp::erase(victim));
      }
      evict(victim);
    }
    seg.ops.push_back(PhaseOp::compute(v));
    try_set_member(p, v, true);
    t_weight_ += dag_.mu(v);
  }
  // else: value already red; the occurrence is redundant, skip the op.
  for (NodeId u : dag_.parents(v)) try_ov(u).remneed -= 1;
  // Eager cleanup: drop parents that just died (free DELETE ops).
  for (NodeId u : dag_.parents(v)) {
    if (!try_member(p, u) || remneed(u) > 0) continue;
    if (effective_next_need(p, pp, u, gpos + 1) != kNever) continue;
    if (!try_blue(u) && save_required(u)) continue;
    seg.ops.push_back(PhaseOp::erase(u));
    evict(u);
  }
  return true;
}

void IncrementalEvaluator::finish_segment(int p, std::int64_t i0) {
  const auto& seq = plan_.seq[static_cast<std::size_t>(p)];
  const auto& pp = index_.proc_positions(p);
  swap_best_try();  // the try accessors now read the winner's state
  Segment& seg = best_seg_;
  seg.post_saves.clear();
  seg.post_deletes.clear();
  auto save_required = [&](NodeId v) {
    return save_req_[static_cast<std::size_t>(v)] != 0;
  };

  // Post phase: save outputs that need a blue pebble, then drop dead
  // values in ascending node order (matches the oracle's full scan).
  for (std::int64_t j = 0; j < seg.count; ++j) {
    const NodeId v = seq[static_cast<std::size_t>(i0 + j)].node;
    if (try_member(p, v) && !try_blue(v) && save_required(v)) {
      seg.post_saves.push_back(v);
      try_ov(v).blue = 1;
    }
  }
  sorted_members_.clear();
  for (NodeId v : ec_list_[static_cast<std::size_t>(p)]) {
    if (try_member(p, v)) sorted_members_.push_back(v);
  }
  for (NodeId v : t_added_) {
    const TryOv* ov = try_find(v);
    if (ov != nullptr && ov->member == 1) sorted_members_.push_back(v);
  }
  std::sort(sorted_members_.begin(), sorted_members_.end());
  const std::int64_t after = i0 + seg.count;
  for (NodeId v : sorted_members_) {
    if (effective_next_need(p, pp, v, after) != kNever) continue;
    if (!try_blue(v) && save_required(v)) continue;
    seg.post_deletes.push_back(v);
    try_set_member(p, v, false);
    t_weight_ -= dag_.mu(v);
  }

  // Final cache in committed-list-then-additions order — the same
  // sequence the old per-try list produced, so committed ec_list_ rows
  // (and with them every checkpoint cache row) are order-stable.
  seg.final_cache.clear();
  for (NodeId v : ec_list_[static_cast<std::size_t>(p)]) {
    if (try_member(p, v)) seg.final_cache.push_back(v);
  }
  for (NodeId v : t_added_) {
    const TryOv* ov = try_find(v);
    if (ov != nullptr && ov->member == 1) seg.final_cache.push_back(v);
  }
  seg.final_weight = t_weight_;
}

void IncrementalEvaluator::commit_segment(int p) {
  const Segment& seg = best_seg_;
  if (!async_) {
    const std::size_t stage =
        static_cast<std::size_t>(eval_cur_ - first_eval_slot_) *
            static_cast<std::size_t>(P_) +
        static_cast<std::size_t>(p);
    const std::size_t body = stage + static_cast<std::size_t>(P_);
    for (NodeId v : seg.pre_saves) {
      // A pre-save is the slot-order-first save of a not-yet-blue value
      // on this processor's slot, so it may claim the home group.
      eval_assign_home(v, grp_[static_cast<std::size_t>(p)]);
      slot_save_[stage] += comm_cost(p, eval_home(v)) * dag_.mu(v);
    }
    for (NodeId v : seg.loads) {
      // Loads require blue, so the home (if any) is already final.
      slot_load_[stage] += comm_cost(p, eval_home(v)) * dag_.mu(v);
    }
    if (!seg.pre_saves.empty() || !seg.pre_deletes.empty() ||
        !seg.loads.empty()) {
      slot_any_[stage] = 1;
    }
    for (const PhaseOp& op : seg.ops) {
      if (op.kind == OpKind::kCompute) slot_comp_[body] += dag_.omega(op.node);
    }
    // post_saves are priced at the round drain (see evaluate_from), where
    // their home groups are final.
    if (!seg.ops.empty() || !seg.post_saves.empty() ||
        !seg.post_deletes.empty()) {
      slot_any_[body] = 1;
    }
  } else {
    // Async cost: record the op lists; pricing happens at finalize. Home
    // groups are still claimed in oracle order (pre-saves at commit,
    // post-saves at the round drain).
    for (NodeId v : seg.pre_saves) eval_assign_home(v, grp_[static_cast<std::size_t>(p)]);
    SlotOps& cur = async_cur_[static_cast<std::size_t>(p)];
    SlotOps& nxt = async_next_[static_cast<std::size_t>(p)];
    // Slot layout mirrors the oracle's chronological save list: the
    // straddling slot's saves are [post-saves of round r-1, pre-saves of
    // round r]; loads are stage-only; computes are body-only.
    for (NodeId v : seg.pre_saves) cur.save.push_back(v);
    for (NodeId v : seg.loads) cur.load.push_back(v);
    for (const PhaseOp& op : seg.ops) {
      if (op.kind == OpKind::kCompute) nxt.comp.push_back(op.node);
    }
    for (NodeId v : seg.post_saves) nxt.save.push_back(v);
  }
  if (log_ != nullptr) {
    PageVector<NodeId>& w = log_->words_;
    const auto size = [](const auto& list) {
      return static_cast<NodeId>(list.size());
    };
    w.insert(w.end(), {eval_cur_, p, size(seg.pre_saves),
                       size(seg.pre_deletes), size(seg.loads), size(seg.ops),
                       size(seg.post_saves), size(seg.post_deletes)});
    w.insert(w.end(), seg.pre_saves.begin(), seg.pre_saves.end());
    w.insert(w.end(), seg.pre_deletes.begin(), seg.pre_deletes.end());
    w.insert(w.end(), seg.loads.begin(), seg.loads.end());
    for (const PhaseOp& op : seg.ops) {
      w.push_back(op.kind == OpKind::kCompute ? op.node : -1 - op.node);
    }
    w.insert(w.end(), seg.post_saves.begin(), seg.post_saves.end());
    w.insert(w.end(), seg.post_deletes.begin(), seg.post_deletes.end());
  }

  // Fold the segment's end state into the eval-level processor state.
  auto& list = ec_list_[static_cast<std::size_t>(p)];
  ec_clear(p);
  list = seg.final_cache;
  for (NodeId v : list) ec_insert(p, v);
  ec_weight_[static_cast<std::size_t>(p)] = seg.final_weight;
  pos_[static_cast<std::size_t>(p)] += seg.count;
  for (NodeId v : seg.pre_saves) eval_blue_set(v);
  for (NodeId v : seg.post_saves) pending_blue_.push_back({v, p});
}

// ---------------------------------------------------------------------------
// Cost finalization.

double IncrementalEvaluator::finalize_cost() {
  scr_rows_.clear();
  // After a reconvergence exit the partial slot c is committed slot r_c.
  const int local_slots =
      (conv_r_ >= 0 ? conv_c_ : num_slots_) - first_eval_slot_;
  for (int ls = 0; ls < local_slots; ++ls) {
    const std::size_t base =
        static_cast<std::size_t>(ls) * static_cast<std::size_t>(P_);
    // Structure-of-arrays row fold: one contiguous sweep per field (max
    // over non-NaN doubles is order-free, so splitting the fold keeps the
    // result bitwise; speeds divide in the same per-entry order as the
    // full evaluator — uniform machines divide by 1.0, a bitwise
    // identity).
    const double* comp = slot_comp_.data() + base;
    const double* save = slot_save_.data() + base;
    const double* load = slot_load_.data() + base;
    const char* any = slot_any_.data() + base;
    SyncStepCost row;
    for (int p = 0; p < P_; ++p) {
      row.max_compute = std::max(
          row.max_compute, comp[p] / speed_[static_cast<std::size_t>(p)]);
    }
    for (int p = 0; p < P_; ++p) {
      row.max_save = std::max(row.max_save, save[p]);
    }
    for (int p = 0; p < P_; ++p) {
      row.max_load = std::max(row.max_load, load[p]);
    }
    char a = 0;
    for (int p = 0; p < P_; ++p) a |= any[p];
    scr_rows_.push(row, a == 0);
  }
  // Resume the accumulation from the cached prefix state (same doubles,
  // same add order as a full front-to-back sweep — bitwise equal).
  SyncCostBreakdown bd =
      first_eval_slot_ > 0
          ? row_prefix_[static_cast<std::size_t>(first_eval_slot_ - 1)]
          : SyncCostBreakdown{};
  scr_rows_.fold(bd, 0, L_);
  if (conv_r_ >= 0) rows_.fold(bd, static_cast<std::size_t>(conv_r_), L_);
  return bd.total();
}

double IncrementalEvaluator::finalize_async_cost() {
  // Exact replay of async_cost's slot sweep (cost.cpp): per slot, compute
  // phase then save phase then load phase, processors ascending, ops in
  // list order. Slots below first_eval_slot_ read the committed CSR pool,
  // re-derived slots the scratch pool, and after a reconvergence exit the
  // slots from c on replay the committed pool from r_c on. Empty drained
  // slots fold harmlessly (the oracle drops them, but an empty slot
  // changes neither finishing times nor first-save slots' relative order).
  const bool conv = conv_r_ >= 0;
  const int total_slots = conv ? cand_rounds_ + 1 : num_slots_;
  // Homes of committed-tail values are committed; every other value the
  // lists name is blue before b or homed by this evaluation.
  const auto home = [&](NodeId v) {
    const int ov = home_ov_[static_cast<std::size_t>(v)];
    if (ov >= 0) return ov;
    const int br = blue_round_[static_cast<std::size_t>(v)];
    const bool committed =
        br < eval_b_ || (conv && br >= conv_r_ && br != INT_MAX);
    return committed ? home_group_[static_cast<std::size_t>(v)] : -1;
  };
  next_epoch(async_epoch_, fs_stamp_.begin(), fs_stamp_.end());
  std::fill(now_.begin(), now_.end(), 0.0);
  for (int slot = 0; slot < total_slots; ++slot) {
    const bool scratch = slot >= first_eval_slot_ && (!conv || slot < conv_c_);
    int src = slot;
    if (scratch) {
      src = slot - first_eval_slot_;
    } else if (slot >= first_eval_slot_) {
      src = slot - conv_c_ + conv_r_;  // committed tail
    }
    const OpPool& pool = scratch ? scr_ops_ : ops_;
    const std::size_t row =
        static_cast<std::size_t>(src) * static_cast<std::size_t>(P_);
    for (int p = 0; p < P_; ++p) {
      double t = now_[static_cast<std::size_t>(p)];
      for (const NodeId v : pool.comp.row(row + static_cast<std::size_t>(p))) {
        t += dag_.omega(v) / speed_[static_cast<std::size_t>(p)];
      }
      now_[static_cast<std::size_t>(p)] = t;
    }
    for (int p = 0; p < P_; ++p) {
      for (const NodeId v : pool.save.row(row + static_cast<std::size_t>(p))) {
        const std::size_t v_ = static_cast<std::size_t>(v);
        const double gv = comm_cost(p, home(v));
        now_[static_cast<std::size_t>(p)] += gv * dag_.mu(v);
        if (fs_stamp_[v_] != async_epoch_) {
          fs_stamp_[v_] = async_epoch_;
          first_save_[v_] = slot;
          gets_blue_[v_] = now_[static_cast<std::size_t>(p)];
        } else if (first_save_[v_] == slot) {
          gets_blue_[v_] =
              std::min(gets_blue_[v_], now_[static_cast<std::size_t>(p)]);
        }
      }
    }
    for (int p = 0; p < P_; ++p) {
      for (const NodeId v : pool.load.row(row + static_cast<std::size_t>(p))) {
        const std::size_t v_ = static_cast<std::size_t>(v);
        assert(fs_stamp_[v_] == async_epoch_ || dag_.is_source(v));
        const double gb = fs_stamp_[v_] == async_epoch_ ? gets_blue_[v_] : 0.0;
        const double gv = comm_cost(p, home(v));
        now_[static_cast<std::size_t>(p)] =
            std::max(now_[static_cast<std::size_t>(p)], gb) + gv * dag_.mu(v);
      }
    }
  }
  double makespan = 0;
  for (int p = 0; p < P_; ++p) {
    makespan = std::max(makespan, now_[static_cast<std::size_t>(p)]);
  }
  return makespan;
}

// ---------------------------------------------------------------------------
// Promotion: install the scratch evaluation as the committed state.

void IncrementalEvaluator::promote_eval() {
  const std::size_t b = static_cast<std::size_t>(eval_b_);
  const int old_rounds = committed_rounds_;
  const std::size_t P = static_cast<std::size_t>(P_);
  const bool conv = conv_r_ >= 0;
  // Layout of every committed table after promotion: the kept prefix, the
  // re-derived scratch, then (after a reconvergence exit) the committed
  // tail from boundary/slot `tail` (round min(tail, R)) on. Without an
  // exit the tail is empty: tail = R + 1 drops every old entry past b.
  const std::size_t tail =
      conv ? static_cast<std::size_t>(conv_r_)
           : static_cast<std::size_t>(old_rounds) + 1;
  const std::size_t tail_round =
      std::min(tail, static_cast<std::size_t>(old_rounds));
  const std::size_t keep = (b + 1) * P;  // boundaries 0..b

  if (!async_) {
    rows_.splice(b, tail, scr_rows_);
    row_prefix_.resize(rows_.cost.size());
    SyncCostBreakdown bd = b > 0 ? row_prefix_[b - 1] : SyncCostBreakdown{};
    for (std::size_t at = b; at < rows_.cost.size(); ++at) {
      if (!rows_.empty[at]) fold_row(bd, rows_.cost[at], L_);
      row_prefix_[at] = bd;
    }
  }

  // Checkpoint rows: boundaries 0..b kept, the re-derived boundaries b+1..
  // in between, the committed tail boundaries after them (their positions
  // moved into the candidate frame).
  ck_.splice(keep, tail * P, scr_);
  if (conv) {
    for (std::size_t at = keep + scr_.pos.size(); at < ck_.pos.size();
         at += P) {
      for (std::size_t p = 0; p < P; ++p) ck_.pos[at + p] += edit_shift_[p];
    }
  }

  // Round -> superstep labels: patch the kept rounds (pure-relabel merges
  // and splits) and the committed tail (relabeled wholesale by the exit's
  // threshold check), then install the re-derived labels in between.
  const auto relabel = [&](std::size_t lo, std::size_t hi) {
    for (const auto& [thr, delta] : relabel_fixups_) {
      for (std::size_t r = lo; r < hi; ++r) {
        if (ck_step_[r] >= thr) ck_step_[r] += delta;
      }
    }
  };
  relabel(0, b);
  relabel(tail_round, static_cast<std::size_t>(old_rounds));
  splice_rows(ck_step_, b, tail_round, scr_round_steps_);
  assert(ck_step_.size() == static_cast<std::size_t>(cand_rounds_));
  committed_rounds_ = cand_rounds_;
  committed_steps_ = cand_steps_;
  step_first_round_.assign(static_cast<std::size_t>(committed_steps_) + 1,
                           committed_rounds_);
  for (int r = committed_rounds_ - 1; r >= 0; --r) {
    assert(ck_step_[static_cast<std::size_t>(r)] >= 0 &&
           ck_step_[static_cast<std::size_t>(r)] < committed_steps_);
    step_first_round_[static_cast<std::size_t>(
        ck_step_[static_cast<std::size_t>(r)])] = r;
  }
  // Monotone sweep: first_round_of(s) = first round with label >= s, so
  // label-keyed bounds stay valid even when a superstep owns no round.
  for (int k = committed_steps_ - 1; k >= 0; --k) {
    step_first_round_[static_cast<std::size_t>(k)] =
        std::min(step_first_round_[static_cast<std::size_t>(k)],
                 step_first_round_[static_cast<std::size_t>(k) + 1]);
  }

  // Committed async op pool: slots 0..b-1 kept (boundary b's straddling
  // slot is re-derived in scratch), then the scratch slots, then the
  // committed tail slots.
  if (async_) ops_.splice(b * P, tail * P, scr_ops_);

  // Blue rounds: clear the dropped rounds' nodes, move the tail's by
  // c - r_c, then install the re-derived ones (disjoint from both).
  for (std::size_t r = b; r < tail_round; ++r) {
    for (const NodeId v : blued_.row(r)) {
      blue_round_[static_cast<std::size_t>(v)] = INT_MAX;
    }
  }
  for (std::size_t r = tail_round; r < static_cast<std::size_t>(old_rounds);
       ++r) {
    for (const NodeId v : blued_.row(r)) {
      blue_round_[static_cast<std::size_t>(v)] += conv_c_ - conv_r_;
    }
  }
  // Re-derived rounds [b, c), one row per round, for the splice.
  const int eval_end = conv ? conv_c_ : cand_rounds_;
  promote_blued_.clear();
  std::size_t i = 0;
  for (int r = eval_b_; r < eval_end; ++r) {
    for (; i < eval_blued_.size() && eval_blued_[i].round == r; ++i) {
      promote_blued_.items.push_back(eval_blued_[i].node);
      blue_round_[static_cast<std::size_t>(eval_blued_[i].node)] = r;
    }
    promote_blued_.close_row();
  }
  assert(i == eval_blued_.size());
  blued_.splice(b, tail_round, promote_blued_);
  // Home groups ride on the blue rounds: entries dropped above are
  // invalidated by their blue reset; the new rounds install their own.
  for (const HomeRec& rec : eval_homes_) {
    home_group_[static_cast<std::size_t>(rec.node)] = rec.grp;
  }
}

std::uint64_t IncrementalEvaluator::checkpoint_digest() const {
  std::uint64_t h = kFnvOffset;
  const auto mix = [&h](const auto& values) {
    const std::uint64_t size = values.size();
    h = fnv1a_64(&size, sizeof(size), h);
    h = fnv1a_64(values.data(), values.size() * sizeof(values[0]), h);
  };
  const auto mix_csr = [&mix](const PooledCsr<NodeId>& csr) {
    mix(csr.start);
    mix(csr.items);
  };
  mix(ck_.pos);
  mix(ck_.weight);
  mix_csr(ck_.cache);
  mix(ck_step_);
  if (!async_) {
    mix(ck_.comp);
    mix(ck_.save);
    mix(ck_.load);
    mix(ck_.any);
    mix(rows_.cost);
    mix(rows_.empty);
  } else {
    mix_csr(ops_.comp);
    mix_csr(ops_.save);
    mix_csr(ops_.load);
    mix(ck_.save_prefix);
  }
  return h;
}

}  // namespace mbsp
