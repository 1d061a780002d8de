#include "src/holistic/incremental_eval.hpp"

#include <algorithm>
#include <cassert>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <cstring>
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

// Replaces v[lo, hi) by [first, last), moving the tail once.
template <class Vec, class It>
void replace_range(Vec& v, std::size_t lo, std::size_t hi, It first, It last) {
  const auto n = static_cast<std::size_t>(last - first);
  if (n > hi - lo) {
    v.insert(v.begin() + static_cast<std::ptrdiff_t>(hi), n - (hi - lo),
             typename Vec::value_type{});
  } else {
    v.erase(v.begin() + static_cast<std::ptrdiff_t>(lo + n),
            v.begin() + static_cast<std::ptrdiff_t>(hi));
  }
  std::copy(first, last, v.begin() + static_cast<std::ptrdiff_t>(lo));
}

// Replaces rows [lo, hi) of a pooled CSR (start holds rows + 1 offsets) by
// the rows of a scratch CSR whose offsets start at 0; later rows rebase.
template <class T>
void splice_csr(PageVector<std::int64_t>& start, PageVector<T>& nodes,
                std::size_t lo, std::size_t hi,
                const ArenaVector<std::int64_t>& scr_start,
                const ArenaVector<T>& scr_nodes) {
  const std::int64_t n_lo = start[lo];
  const std::int64_t n_hi = start[hi];
  replace_range(nodes, static_cast<std::size_t>(n_lo),
                static_cast<std::size_t>(n_hi), scr_nodes.begin(),
                scr_nodes.end());
  const std::int64_t delta =
      static_cast<std::int64_t>(scr_nodes.size()) - (n_hi - n_lo);
  replace_range(start, lo + 1, hi + 1, scr_start.begin() + 1, scr_start.end());
  const std::size_t mid = lo + scr_start.size();
  for (std::size_t i = lo + 1; i < mid; ++i) start[i] += n_lo;
  for (std::size_t i = mid; i < start.size(); ++i) start[i] += delta;
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

IncrementalEvaluator::IncrementalEvaluator(const MbspInstance& inst,
                                           const LnsOptions& options)
    : inst_(inst),
      dag_(inst.dag),
      options_(options),
      async_(options.cost == CostModel::kAsynchronous),
      sync_(options.cost != CostModel::kAsynchronous),
      lru_(options.completion_policy == PolicyKind::kLru),
      uniform_(inst.arch.is_uniform()),
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
  const char* mode = std::getenv("MBSP_ARENA_MODE");
  eval_arena_.set_paranoid(options.arena_paranoid ||
                           (mode != nullptr && std::strcmp(mode, "heap") == 0));
}

// Home groups mirror blue rounds: committed entries are valid exactly when
// the blue round is committed-visible, the per-eval overlay is a FlatMap,
// and assignment happens at the value's first save in blue-visibility
// order — which equals the oracle's slot-scan order for every schedule the
// completion can produce (post-saves of a round are priced at the round's
// drain so a same-round earlier-slot pre-save can still claim the home
// first).

int IncrementalEvaluator::eval_home(NodeId v) const {
  const int* ov = eh_map_.find(v);
  if (ov != nullptr) return *ov;
  if (blue_round_[static_cast<std::size_t>(v)] < eval_b_) {
    return home_group_[static_cast<std::size_t>(v)];
  }
  return -1;
}

void IncrementalEvaluator::eval_assign_home(NodeId v, int grp) {
  if (single_group_ || eval_home(v) >= 0) return;
  eh_map_.get_or_insert(v, grp);
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

  const std::size_t pn = static_cast<std::size_t>(P_) * n_;
  comp_cnt_.assign(pn, 0);
  use_cnt_.assign(pn, 0);
  comp_proc_count_.assign(n_, 0);
  for (int p = 0; p < P_; ++p) {
    for (const PlannedCompute& pc : plan_.seq[static_cast<std::size_t>(p)]) {
      bump_occurrence_counts(p, pc.node, +1);
    }
  }
  save_req_.assign(n_, 0);
  for (NodeId v = 0; v < static_cast<NodeId>(n_); ++v) {
    save_req_[static_cast<std::size_t>(v)] = compute_save_required(v) ? 1 : 0;
  }

  // Validator committed rows.
  R_map_.assign(static_cast<std::size_t>(P_), FlatMap<NodeId, int>{});
  R_scratch_map_.assign(static_cast<std::size_t>(P_), FlatMap<NodeId, int>{});
  scan_stamp_.assign(n_, 0);
  scan_epoch_ = 0;
  affected_stamp_.assign(n_, 0);
  affected_epoch_ = 0;
  for (int p = 0; p < P_; ++p) {
    rescan_proc(p);  // attached plans are valid; this just fills the rows
    std::swap(R_map_[static_cast<std::size_t>(p)],
              R_scratch_map_[static_cast<std::size_t>(p)]);
  }

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
  blued_nodes_.clear();
  blued_start_.assign(1, 0);
  // One (empty) slot per boundary count, like every committed table.
  rows_.assign(1, SyncStepCost{});
  row_empty_.assign(1, 1);
  row_prefix_.assign(1, SyncCostBreakdown{});
  committed_rounds_ = 0;
  committed_steps_ = 0;
  ck_pos_.assign(static_cast<std::size_t>(P_), 0);
  ck_weight_.assign(static_cast<std::size_t>(P_), 0.0);
  if (sync_) {
    ck_comp_.assign(static_cast<std::size_t>(P_), 0.0);
    ck_save_.assign(static_cast<std::size_t>(P_), 0.0);
    ck_load_.assign(static_cast<std::size_t>(P_), 0.0);
    ck_any_.assign(static_cast<std::size_t>(P_), 0);
  }
  ck_cache_start_.assign(static_cast<std::size_t>(P_) + 1, 0);
  ck_cache_nodes_.clear();
  ck_step_.clear();
  step_first_round_.assign(1, 0);
  if (async_) {
    as_comp_nodes_.clear();
    as_save_nodes_.clear();
    as_load_nodes_.clear();
    as_comp_start_.assign(static_cast<std::size_t>(P_) + 1, 0);
    as_save_start_.assign(static_cast<std::size_t>(P_) + 1, 0);
    as_load_start_.assign(static_cast<std::size_t>(P_) + 1, 0);
    as_save_prefix_.assign(static_cast<std::size_t>(P_), 0);
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
  eh_map_.clear();
  pending_blue_.clear();
  s_ov_.assign(n_, SegOv{});
  s_epoch_ = 1;
  t_ov_.assign(n_, TryOv{});
  t_epoch_ = 1;
  t_added_.clear();
  best_ov_.assign(n_, TryOv{});
  best_epoch_ = 1;
  best_added_.clear();

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
  ck_pos_.reserve(rows * P);
  ck_weight_.reserve(rows * P);
  ck_cache_start_.reserve(rows * P + 1);
  ck_cache_nodes_.reserve(2 * n_);
  ck_step_.reserve(rows);
  step_first_round_.reserve(K + 2);
  blued_nodes_.reserve(n_);
  blued_start_.reserve(rows + 1);
  if (sync_) {
    ck_comp_.reserve(rows * P);
    ck_save_.reserve(rows * P);
    ck_load_.reserve(rows * P);
    ck_any_.reserve(rows * P);
    rows_.reserve(rows + 1);
    row_empty_.reserve(rows + 1);
    row_prefix_.reserve(rows + 1);
    scratch_rows_.reserve(rows + 1);
    scratch_row_empty_.reserve(rows + 1);
    slot_comp_.reserve(rows * P);
    slot_save_.reserve(rows * P);
    slot_load_.reserve(rows * P);
    slot_any_.reserve(rows * P);
  }
  if (async_) {
    as_comp_nodes_.reserve(2 * n_);
    as_save_nodes_.reserve(2 * n_);
    as_load_nodes_.reserve(2 * n_);
    as_comp_start_.reserve(rows * P + 1);
    as_save_start_.reserve(rows * P + 1);
    as_load_start_.reserve(rows * P + 1);
    as_save_prefix_.reserve(rows * P);
  }
  pending_blue_.reserve(4 * P);
  sorted_members_.reserve(64);
  t_added_.reserve(64);
  best_added_.reserve(64);
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

void IncrementalEvaluator::bump_occurrence_counts(int p, NodeId v, int delta) {
  const std::size_t base = static_cast<std::size_t>(p) * n_;
  std::int32_t& cc = comp_cnt_[base + static_cast<std::size_t>(v)];
  const bool had = cc > 0;
  cc += delta;
  const bool has = cc > 0;
  if (had != has) {
    comp_proc_count_[static_cast<std::size_t>(v)] += has ? 1 : -1;
  }
  for (NodeId u : dag_.parents(v)) {
    use_cnt_[base + static_cast<std::size_t>(u)] += delta;
  }
}

bool IncrementalEvaluator::compute_save_required(NodeId v) const {
  // Mirrors Completer::precompute: sinks always; otherwise "used on some
  // processor that is not the only computing processor".
  if (dag_.is_source(v)) return false;
  if (dag_.is_sink(v)) return true;
  const int cc = comp_proc_count_[static_cast<std::size_t>(v)];
  for (int p = 0; p < P_; ++p) {
    const std::size_t at =
        static_cast<std::size_t>(p) * n_ + static_cast<std::size_t>(v);
    if (use_cnt_[at] > 0 && (cc > 1 || comp_cnt_[at] == 0)) return true;
  }
  return false;
}

void IncrementalEvaluator::refresh_save_required() {
  for (NodeId v : affected_nodes_) {
    save_req_[static_cast<std::size_t>(v)] = compute_save_required(v) ? 1 : 0;
  }
}

// ---------------------------------------------------------------------------
// Move protocol.

void IncrementalEvaluator::begin_move() {
  assert(!in_move_);
  in_move_ = true;
  index_.begin_move();
  delta_size_ = 0;
  std::fill(proc_touched_.begin(), proc_touched_.end(), 0);
  touched_procs_.clear();
  ed_before_.clear();
  affected_nodes_.clear();
  save_req_before_.clear();
  relabel_fixups_.clear();
  ++affected_epoch_;
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
      touch_proc(op.proc);
      note_node(op.pc.node);
      bump_occurrence_counts(op.proc, op.pc.node, +1);
      break;
    case PlanDeltaOpKind::kErase:
      touch_proc(op.proc);
      note_node(op.pc.node);
      bump_occurrence_counts(op.proc, op.pc.node, -1);
      break;
    case PlanDeltaOpKind::kSetNode:
      touch_proc(op.proc);
      note_node(op.old_node);
      note_node(op.pc.node);
      bump_occurrence_counts(op.proc, op.old_node, -1);
      bump_occurrence_counts(op.proc, op.pc.node, +1);
      break;
    case PlanDeltaOpKind::kMergeStep:
    case PlanDeltaOpKind::kSplitStep:
      for (int p = 0; p < P_; ++p) touch_proc(p);
      break;
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
  if (!validate_candidate()) return {false, 0};

  // Touched processors' candidate-frame occurrence positions changed;
  // drop their memoized lookahead (untouched rows stay warm).
  for (int p : touched_procs_) nn_invalidate(p);

  const int b = std::max(std::min(dirty_bound(), committed_rounds_), 0);
  const double cost = evaluate_from(b, prepare_exit());
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
  for (int p : touched_procs_) {
    std::swap(R_map_[static_cast<std::size_t>(p)],
              R_scratch_map_[static_cast<std::size_t>(p)]);
  }
  index_.commit_move();
  in_move_ = false;
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
    assert(blued_start_.back() ==
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
    if (sync_) {
      assert(rows_.size() == scratch_rows_.size() &&
             "promoted slot count diverges from a fresh evaluation");
      for (std::size_t s = 0; s < rows_.size(); ++s) {
        assert(rows_[s].max_compute == scratch_rows_[s].max_compute &&
               rows_[s].max_save == scratch_rows_[s].max_save &&
               rows_[s].max_load == scratch_rows_[s].max_load &&
               row_empty_[s] == scratch_row_empty_[s] &&
               "promoted cost row diverges from a fresh evaluation");
      }
    } else {
      assert(std::equal(as_comp_start_.begin(), as_comp_start_.end(),
                        scr_as_comp_start_.begin(), scr_as_comp_start_.end()) &&
             std::equal(as_comp_nodes_.begin(), as_comp_nodes_.end(),
                        scr_as_comp_nodes_.begin(), scr_as_comp_nodes_.end()) &&
             std::equal(as_save_start_.begin(), as_save_start_.end(),
                        scr_as_save_start_.begin(), scr_as_save_start_.end()) &&
             std::equal(as_save_nodes_.begin(), as_save_nodes_.end(),
                        scr_as_save_nodes_.begin(), scr_as_save_nodes_.end()) &&
             std::equal(as_load_start_.begin(), as_load_start_.end(),
                        scr_as_load_start_.begin(), scr_as_load_start_.end()) &&
             std::equal(as_load_nodes_.begin(), as_load_nodes_.end(),
                        scr_as_load_nodes_.begin(), scr_as_load_nodes_.end()) &&
             "promoted async op pool diverges from a fresh evaluation");
    }
    const std::size_t nrec = scr_pos_.size() / P;
    assert(nrec == static_cast<std::size_t>(committed_rounds_) &&
           "promoted round count diverges from a fresh evaluation");
    for (std::size_t r = 0; r < nrec; ++r) {
      for (std::size_t p = 0; p < P; ++p) {
        const std::size_t si = r * P + p;        // fresh boundary r+1
        const std::size_t ci = (r + 1) * P + p;  // promoted boundary r+1
        assert(ck_pos_[ci] == scr_pos_[si] &&
               ck_weight_[ci] == scr_weight_[si] &&
               "promoted checkpoint scalars diverge from a fresh evaluation");
        assert((!sync_ || (ck_comp_[ci] == scr_comp_[si] &&
                           ck_save_[ci] == scr_save_[si] &&
                           ck_load_[ci] == scr_load_[si] &&
                           ck_any_[ci] == scr_any_[si])) &&
               (!async_ || as_save_prefix_[ci] == scr_as_save_prefix_[si]) &&
               "promoted straddling slot diverges from a fresh evaluation");
        const std::int64_t cn = ck_cache_start_[ci + 1] - ck_cache_start_[ci];
        assert(cn == scr_cache_start_[si + 1] - scr_cache_start_[si] &&
               "promoted cache size diverges from a fresh evaluation");
        for (std::int64_t j = 0; j < cn; ++j) {
          assert(ck_cache_nodes_[ck_cache_start_[ci] + j] ==
                     scr_cache_nodes_[scr_cache_start_[si] + j] &&
                 "promoted cache row diverges from a fresh evaluation");
        }
      }
    }
  }
#endif
}

void IncrementalEvaluator::rollback() {
  assert(in_move_);
  for (std::size_t i = delta_size_; i-- > 0;) {
    const PlanDeltaOp& op = delta_ops_[i];
    switch (op.kind) {
      case PlanDeltaOpKind::kInsert:
        bump_occurrence_counts(op.proc, op.pc.node, -1);
        break;
      case PlanDeltaOpKind::kErase:
        bump_occurrence_counts(op.proc, op.pc.node, +1);
        break;
      case PlanDeltaOpKind::kSetNode:
        bump_occurrence_counts(op.proc, op.old_node, +1);
        bump_occurrence_counts(op.proc, op.pc.node, -1);
        break;
      case PlanDeltaOpKind::kMergeStep:
      case PlanDeltaOpKind::kSplitStep:
        break;
    }
    undo_delta_op(plan_, op);
    index_.on_undo(op);
  }
  for (const auto& [v, req] : save_req_before_) {
    save_req_[static_cast<std::size_t>(v)] = req;
  }
  // The plan reverts to the committed frame: memo rows filled from the
  // rolled-back candidate frame must not survive.
  for (int p : touched_procs_) nn_invalidate(p);
  index_.rollback_move();
  in_move_ = false;
}

// ---------------------------------------------------------------------------
// Validation.

bool IncrementalEvaluator::rescan_proc(int p) {
  // Exact replica of validate_plan's per-processor availability scan,
  // against the *current* (candidate) global earliest_done; also rebuilds
  // this processor's remote-requirement row (min superstep per needed
  // node), which guards untouched processors against later earliest_done
  // changes.
  auto& row = R_scratch_map_[static_cast<std::size_t>(p)];
  row.clear();
  ++scan_epoch_;
  const auto& seq = plan_.seq[static_cast<std::size_t>(p)];
  for (std::size_t i = 0; i < seq.size(); ++i) {
    const PlannedCompute& pc = seq[i];
    for (NodeId u : dag_.parents(pc.node)) {
      if (dag_.is_source(u)) continue;
      if (scan_stamp_[static_cast<std::size_t>(u)] == scan_epoch_) continue;
      int& entry = row.get_or_insert(u, INT_MAX);
      entry = std::min(entry, pc.superstep);
      const int ed = index_.earliest_done(u);
      const bool remote_earlier = ed >= 0 && ed < pc.superstep;
      if (!remote_earlier) return false;
    }
    scan_stamp_[static_cast<std::size_t>(pc.node)] = scan_epoch_;
  }
  return true;
}

bool IncrementalEvaluator::validate_candidate() {
  for (int p : touched_procs_) {
    if (!rescan_proc(p)) return false;
  }
  // Untouched processors: their local structure is unchanged, so their
  // occurrences can only break through a changed earliest_done of a node
  // they need remotely — checked against the committed requirement rows.
  for (const auto& [v, ed_old] : ed_before_) {
    (void)ed_old;
    const int ed = index_.earliest_done(v);
    if (ed < 0) return false;  // never computed (cannot happen for moves)
    for (int q = 0; q < P_; ++q) {
      if (proc_touched_[static_cast<std::size_t>(q)]) continue;
      const int* entry = R_map_[static_cast<std::size_t>(q)].find(v);
      if (entry != nullptr && *entry <= ed) return false;
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
    if (ck_pos_[static_cast<std::size_t>(mid + 1) * static_cast<std::size_t>(P_) +
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
    if (ck_pos_[static_cast<std::size_t>(mid) * static_cast<std::size_t>(P_) +
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
  for (int p : touched_procs_) {
    inserts_on_proc_[static_cast<std::size_t>(p)] = 0;
  }
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

bool IncrementalEvaluator::prepare_exit() {
  // A save_required flip changes decisions wherever the node is cached.
  for (const auto& [v, before] : save_req_before_) {
    if (save_req_[static_cast<std::size_t>(v)] != before) return false;
  }
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
  return true;
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
      sum += ck_pos_[static_cast<std::size_t>(r) * P + p];
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
    if (ck_pos_[row + p] != pos_[p] - edit_shift_[p]) return -1;
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
    if (ck_weight_[row + p] != ec_weight_[p]) return -1;
  }
  if (sync_) {
    const std::size_t at =
        static_cast<std::size_t>(eval_cur_ - first_eval_slot_) * P;
    for (std::size_t p = 0; p < P; ++p) {
      if (ck_comp_[row + p] != slot_comp_[at + p] ||
          ck_save_[row + p] != slot_save_[at + p] ||
          ck_load_[row + p] != slot_load_[at + p] ||
          ck_any_[row + p] != slot_any_[at + p]) {
        return -1;
      }
    }
  }
  for (std::size_t p = 0; p < P; ++p) {
    const auto& list = ec_list_[p];
    if (!std::equal(list.begin(), list.end(),
                    ck_cache_nodes_.begin() + ck_cache_start_[row + p],
                    ck_cache_nodes_.begin() + ck_cache_start_[row + p + 1])) {
      return -1;
    }
  }
  if (async_) {
    for (std::size_t p = 0; p < P; ++p) {
      const SlotOps& cur = async_cur_[p];
      const auto comp0 = as_comp_nodes_.begin() + as_comp_start_[row + p];
      const auto comp1 = as_comp_nodes_.begin() + as_comp_start_[row + p + 1];
      const auto save0 = as_save_nodes_.begin() + as_save_start_[row + p];
      if (!std::equal(cur.comp.begin(), cur.comp.end(), comp0, comp1) ||
          !std::equal(cur.save.begin(), cur.save.end(), save0,
                      save0 + as_save_prefix_[row + p])) {
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
  for (std::int64_t i = blued_start_[static_cast<std::size_t>(eval_b_)];
       i < blued_start_[static_cast<std::size_t>(r)]; ++i) {
    const NodeId v = blued_nodes_[static_cast<std::size_t>(i)];
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
  // All per-eval append-only scratch lives in the arena; one reset makes
  // the previous evaluation's blocks reusable at once.
  eval_arena_.reset();
  scr_pos_.attach(&eval_arena_);
  scr_weight_.attach(&eval_arena_);
  scr_comp_.attach(&eval_arena_);
  scr_save_.attach(&eval_arena_);
  scr_load_.attach(&eval_arena_);
  scr_any_.attach(&eval_arena_);
  scr_cache_start_.attach(&eval_arena_);
  scr_cache_nodes_.attach(&eval_arena_);
  scr_round_steps_.attach(&eval_arena_);
  eval_blued_.attach(&eval_arena_);
  eval_homes_.attach(&eval_arena_);
  scr_as_comp_nodes_.attach(&eval_arena_);
  scr_as_save_nodes_.attach(&eval_arena_);
  scr_as_load_nodes_.attach(&eval_arena_);
  scr_as_comp_start_.attach(&eval_arena_);
  scr_as_save_start_.attach(&eval_arena_);
  scr_as_load_start_.attach(&eval_arena_);
  scr_as_save_prefix_.attach(&eval_arena_);

  eval_b_ = b;
  eval_cur_ = b;
  first_eval_slot_ = b;
  num_slots_ = b + 1;
  scr_cache_start_.push_back(0);

  const std::size_t row =
      static_cast<std::size_t>(b) * static_cast<std::size_t>(P_);
  if (sync_) {
    slot_comp_.assign(ck_comp_.begin() + static_cast<std::ptrdiff_t>(row),
                      ck_comp_.begin() + static_cast<std::ptrdiff_t>(row) + P_);
    slot_save_.assign(ck_save_.begin() + static_cast<std::ptrdiff_t>(row),
                      ck_save_.begin() + static_cast<std::ptrdiff_t>(row) + P_);
    slot_load_.assign(ck_load_.begin() + static_cast<std::ptrdiff_t>(row),
                      ck_load_.begin() + static_cast<std::ptrdiff_t>(row) + P_);
    slot_any_.assign(ck_any_.begin() + static_cast<std::ptrdiff_t>(row),
                     ck_any_.begin() + static_cast<std::ptrdiff_t>(row) + P_);
  }
  for (int p = 0; p < P_; ++p) {
    const std::size_t at = row + static_cast<std::size_t>(p);
    auto& list = ec_list_[static_cast<std::size_t>(p)];
    ec_clear(p);
    const std::int64_t c0 = ck_cache_start_[at];
    const std::int64_t c1 = ck_cache_start_[at + 1];
    list.assign(ck_cache_nodes_.begin() + static_cast<std::ptrdiff_t>(c0),
                ck_cache_nodes_.begin() + static_cast<std::ptrdiff_t>(c1));
    for (NodeId v : list) ec_insert(p, v);
    ec_weight_[static_cast<std::size_t>(p)] = ck_weight_[at];
    pos_[static_cast<std::size_t>(p)] = ck_pos_[at];
  }
  eb_clear();
  eh_map_.clear();
  pending_blue_.clear();
  if (async_) {
    scr_as_comp_start_.push_back(0);
    scr_as_save_start_.push_back(0);
    scr_as_load_start_.push_back(0);
    for (int p = 0; p < P_; ++p) {
      const std::size_t at = row + static_cast<std::size_t>(p);
      SlotOps& cur = async_cur_[static_cast<std::size_t>(p)];
      SlotOps& nxt = async_next_[static_cast<std::size_t>(p)];
      nxt.reset();
      // Straddling slot b at the boundary: the body ops of round b-1 are
      // final; of its saves only the post-save prefix exists (stage
      // pre-saves of round b are re-derived); loads are stage-only.
      cur.comp.assign(
          as_comp_nodes_.begin() + static_cast<std::ptrdiff_t>(as_comp_start_[at]),
          as_comp_nodes_.begin() +
              static_cast<std::ptrdiff_t>(as_comp_start_[at + 1]));
      const std::int64_t s0 = as_save_start_[at];
      cur.save.assign(
          as_save_nodes_.begin() + static_cast<std::ptrdiff_t>(s0),
          as_save_nodes_.begin() +
              static_cast<std::ptrdiff_t>(s0 + as_save_prefix_[at]));
      cur.load.clear();
    }
  }
}

void IncrementalEvaluator::record_checkpoint() {
  // Boundary eval_cur_: state before round eval_cur_, including the
  // straddling slot's partial accumulators / op lists.
  for (int p = 0; p < P_; ++p) {
    scr_pos_.push_back(pos_[static_cast<std::size_t>(p)]);
  }
  for (int p = 0; p < P_; ++p) {
    scr_weight_.push_back(ec_weight_[static_cast<std::size_t>(p)]);
  }
  if (sync_) {
    const std::size_t base =
        static_cast<std::size_t>(eval_cur_ - first_eval_slot_) *
        static_cast<std::size_t>(P_);
    for (int p = 0; p < P_; ++p) {
      scr_comp_.push_back(slot_comp_[base + static_cast<std::size_t>(p)]);
    }
    for (int p = 0; p < P_; ++p) {
      scr_save_.push_back(slot_save_[base + static_cast<std::size_t>(p)]);
    }
    for (int p = 0; p < P_; ++p) {
      scr_load_.push_back(slot_load_[base + static_cast<std::size_t>(p)]);
    }
    for (int p = 0; p < P_; ++p) {
      scr_any_.push_back(slot_any_[base + static_cast<std::size_t>(p)]);
    }
  }
  for (int p = 0; p < P_; ++p) {
    const auto& list = ec_list_[static_cast<std::size_t>(p)];
    scr_cache_nodes_.append(list.data(), list.size());
    scr_cache_start_.push_back(
        static_cast<std::int64_t>(scr_cache_nodes_.size()));
  }
  if (async_) {
    for (int p = 0; p < P_; ++p) {
      scr_as_save_prefix_.push_back(static_cast<std::int32_t>(
          async_cur_[static_cast<std::size_t>(p)].save.size()));
    }
  }
}

double IncrementalEvaluator::evaluate_from(int b, bool may_exit) {
  cand_steps_ = index_.num_supersteps();
  restore_boundary(b);
  conv_c_ = conv_r_ = -1;

  // Flushes the completed straddling slot's op lists into the scratch
  // CSR pool (same layout as the committed pool, rebased at slot b).
  const auto flush_async_slot = [&] {
    for (int p = 0; p < P_; ++p) {
      SlotOps& cur = async_cur_[static_cast<std::size_t>(p)];
      scr_as_comp_nodes_.append(cur.comp.data(), cur.comp.size());
      scr_as_comp_start_.push_back(
          static_cast<std::int64_t>(scr_as_comp_nodes_.size()));
      scr_as_save_nodes_.append(cur.save.data(), cur.save.size());
      scr_as_save_start_.push_back(
          static_cast<std::int64_t>(scr_as_save_nodes_.size()));
      scr_as_load_nodes_.append(cur.load.data(), cur.load.size());
      scr_as_load_start_.push_back(
          static_cast<std::int64_t>(scr_as_load_nodes_.size()));
    }
  };

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
      if (eval_cur_ > eval_b_) record_checkpoint();
      scr_round_steps_.push_back(k);
      // Append the body slot of this round (slot count stays cur + 2).
      if (sync_) {
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
        if (sync_) {
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
        flush_async_slot();
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
    return sync_ ? finalize_cost() : finalize_async_cost();
  }
  // Zero-length suffix (an erase shrank the plan so that no round runs):
  // the boundary checkpoint already is the end state — recording it again
  // would mislabel it as boundary b+1.
  if (eval_cur_ > eval_b_) record_checkpoint();
  if (async_) flush_async_slot();  // final straddling slot (complete)
  cand_rounds_ = eval_cur_;
  last_dirty_ = cand_rounds_ - b;
  return sync_ ? finalize_cost() : finalize_async_cost();
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
// run.

bool IncrementalEvaluator::plan_segment(int p, int superstep) {
  const auto& seq = plan_.seq[static_cast<std::size_t>(p)];
  const std::int64_t i0 = pos_[static_cast<std::size_t>(p)];
  std::int64_t limit = 0;
  while (i0 + limit < static_cast<std::int64_t>(seq.size()) &&
         seq[static_cast<std::size_t>(i0 + limit)].superstep == superstep) {
    ++limit;
  }
  assert(limit > 0);

  clear_seg_overlay();
  s_loads_.clear();
  s_load_weight_ = 0;
  s_upfront_sorted_ = false;
  bool best_found = false;
  for (std::int64_t count = 1; count <= limit; ++count) {
    // Extend the segment prefix state by entry count-1: upfront loads in
    // first-encounter order, consumed start-cache values, produced set.
    const NodeId v = seq[static_cast<std::size_t>(i0 + count - 1)].node;
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
    }
    if (!loadable) break;
    seg_ov(v).produced = 1;
    if (!run_phases(p, i0, count)) break;
    std::swap(best_seg_, cur_seg_);
    swap_best_try();
    best_found = true;
  }
  if (best_found) finish_segment(p, i0);
  return best_found;
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

  auto save_required = [&](NodeId v) {
    return save_req_[static_cast<std::size_t>(v)] != 0;
  };
  auto needed = [&](NodeId v) {
    const SegOv* ov = seg_find(v);
    return ov != nullptr && ov->needed;
  };
  auto mark_blue = [&](NodeId v) { try_ov(v).blue = 1; };

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

  // Phase A: upfront evictions so start cache + loads fit, walking the
  // segment's victim order (sort_upfront_order) past the needed values.
  const double r_p = mem_[static_cast<std::size_t>(p)];
  if (t_weight_ + s_load_weight_ > r_p + kMemEps && !s_upfront_sorted_) {
    sort_upfront_order(p, i0);
  }
  for (auto it = s_upfront_.begin();
       t_weight_ + s_load_weight_ > r_p + kMemEps; ++it) {
    while (it != s_upfront_.end() && needed(it->v)) ++it;
    if (it == s_upfront_.end()) return false;
    const NodeId victim = it->v;
    if (!try_blue(victim) && (it->next != kNever || save_required(victim))) {
      seg.pre_saves.push_back(victim);
      mark_blue(victim);
    }
    seg.pre_deletes.push_back(victim);
    try_set_member(p, victim, false);
    try_ov(victim).upfront = 1;
    t_weight_ -= dag_.mu(victim);
  }

  // Apply the upfront loads.
  for (NodeId u : seg.loads) {
    if (!try_member(p, u)) {
      try_set_member(p, u, true);
      t_weight_ += dag_.mu(u);
    }
  }

  // Hoistable values: start-cache values untouched by the segment (see
  // memory_completion.cpp for why hoisting their eviction is sound) —
  // in the start cache, not needed, and still cached after phase A. The
  // oracle snapshots that set once post-load; its three conditions never
  // change later in the try, so the lazy test is the same set (a value
  // recomputed after a phase-B eviction keeps its start-cache answer).
  auto hoistable = [&](NodeId v) {
    if (!eval_cache_member(p, v) || needed(v)) return false;
    const TryOv* ov = try_find(v);
    return ov == nullptr || ov->upfront == 0;
  };
  auto remneed = [&](NodeId v) -> std::int32_t {
    const TryOv* ov = try_find(v);
    return ov != nullptr ? ov->remneed : 0;
  };
  auto bump_remneed = [&](NodeId v, std::int32_t delta) {
    try_ov(v).remneed += delta;
  };
  for (std::int64_t j = 0; j < count; ++j) {
    for (NodeId u : dag_.parents(seq[static_cast<std::size_t>(i0 + j)].node)) {
      bump_remneed(u, +1);
    }
  }

  // Phase B: replay the computes with mid-segment evictions.
  for (std::int64_t j = 0; j < count; ++j) {
    const NodeId v = seq[static_cast<std::size_t>(i0 + j)].node;
    const std::int64_t gpos = i0 + j;
    if (!try_member(p, v)) {
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
        const bool dirty_live =
            !try_blue(victim) &&
            (effective_next_need(p, pp, victim, gpos) != kNever ||
             save_required(victim));
        if (dirty_live) {
          // Hoist: evict before the segment, saving first.
          seg.pre_saves.push_back(victim);
          mark_blue(victim);
          seg.pre_deletes.push_back(victim);
        } else {
          seg.ops.push_back(PhaseOp::erase(victim));
        }
        try_set_member(p, victim, false);
        t_weight_ -= dag_.mu(victim);
      }
      seg.ops.push_back(PhaseOp::compute(v));
      try_set_member(p, v, true);
      t_weight_ += dag_.mu(v);
    }
    // else: value already red; the occurrence is redundant, skip the op.
    for (NodeId u : dag_.parents(v)) bump_remneed(u, -1);
    // Eager cleanup: drop parents that just died (free DELETE ops).
    for (NodeId u : dag_.parents(v)) {
      if (!try_member(p, u) || remneed(u) > 0) continue;
      if (effective_next_need(p, pp, u, gpos + 1) != kNever) continue;
      if (!try_blue(u) && save_required(u)) continue;
      seg.ops.push_back(PhaseOp::erase(u));
      try_set_member(p, u, false);
      t_weight_ -= dag_.mu(u);
    }
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
  if (sync_) {
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
  scratch_rows_.clear();
  scratch_row_empty_.clear();
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
    scratch_rows_.push_back(row);
    scratch_row_empty_.push_back(a ? 0 : 1);
  }
  // Resume the accumulation from the cached prefix state (same doubles,
  // same add order as a full front-to-back sweep — bitwise equal).
  SyncCostBreakdown bd =
      first_eval_slot_ > 0
          ? row_prefix_[static_cast<std::size_t>(first_eval_slot_ - 1)]
          : SyncCostBreakdown{};
  for (std::size_t i = 0; i < scratch_rows_.size(); ++i) {
    if (!scratch_row_empty_[i]) fold_row(bd, scratch_rows_[i], L_);
  }
  if (conv_r_ >= 0) {
    for (std::size_t s = static_cast<std::size_t>(conv_r_); s < rows_.size();
         ++s) {
      if (!row_empty_[s]) fold_row(bd, rows_[s], L_);
    }
  }
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
    const int* ov = eh_map_.find(v);
    if (ov != nullptr) return *ov;
    const int br = blue_round_[static_cast<std::size_t>(v)];
    const bool committed =
        br < eval_b_ || (conv && br >= conv_r_ && br != INT_MAX);
    return committed ? home_group_[static_cast<std::size_t>(v)] : -1;
  };
  ++async_epoch_;
  std::fill(now_.begin(), now_.end(), 0.0);
  for (int slot = 0; slot < total_slots; ++slot) {
    const bool scratch = slot >= first_eval_slot_ && (!conv || slot < conv_c_);
    int src = slot;
    if (scratch) {
      src = slot - first_eval_slot_;
    } else if (slot >= first_eval_slot_) {
      src = slot - conv_c_ + conv_r_;  // committed tail
    }
    const std::size_t row =
        static_cast<std::size_t>(src) * static_cast<std::size_t>(P_);
    for (int p = 0; p < P_; ++p) {
      const std::size_t at = row + static_cast<std::size_t>(p);
      const std::int64_t a0 =
          scratch ? scr_as_comp_start_[at] : as_comp_start_[at];
      const std::int64_t a1 =
          scratch ? scr_as_comp_start_[at + 1] : as_comp_start_[at + 1];
      const NodeId* pool =
          scratch ? scr_as_comp_nodes_.data() : as_comp_nodes_.data();
      double t = now_[static_cast<std::size_t>(p)];
      if (uniform_) {
        for (std::int64_t i = a0; i < a1; ++i) t += dag_.omega(pool[i]);
      } else {
        for (std::int64_t i = a0; i < a1; ++i) {
          t += dag_.omega(pool[i]) / speed_[static_cast<std::size_t>(p)];
        }
      }
      now_[static_cast<std::size_t>(p)] = t;
    }
    for (int p = 0; p < P_; ++p) {
      const std::size_t at = row + static_cast<std::size_t>(p);
      const std::int64_t a0 =
          scratch ? scr_as_save_start_[at] : as_save_start_[at];
      const std::int64_t a1 =
          scratch ? scr_as_save_start_[at + 1] : as_save_start_[at + 1];
      const NodeId* pool =
          scratch ? scr_as_save_nodes_.data() : as_save_nodes_.data();
      for (std::int64_t i = a0; i < a1; ++i) {
        const NodeId v = pool[i];
        const std::size_t v_ = static_cast<std::size_t>(v);
        const double gv = uniform_ ? g_ : comm_cost(p, home(v));
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
      const std::size_t at = row + static_cast<std::size_t>(p);
      const std::int64_t a0 =
          scratch ? scr_as_load_start_[at] : as_load_start_[at];
      const std::int64_t a1 =
          scratch ? scr_as_load_start_[at + 1] : as_load_start_[at + 1];
      const NodeId* pool =
          scratch ? scr_as_load_nodes_.data() : as_load_nodes_.data();
      for (std::int64_t i = a0; i < a1; ++i) {
        const NodeId v = pool[i];
        const std::size_t v_ = static_cast<std::size_t>(v);
        assert(fs_stamp_[v_] == async_epoch_ || dag_.is_source(v));
        const double gb = fs_stamp_[v_] == async_epoch_ ? gets_blue_[v_] : 0.0;
        const double gv = uniform_ ? g_ : comm_cost(p, home(v));
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

  if (sync_) {
    replace_range(rows_, b, tail, scratch_rows_.begin(), scratch_rows_.end());
    replace_range(row_empty_, b, tail, scratch_row_empty_.begin(),
                  scratch_row_empty_.end());
    row_prefix_.resize(rows_.size());
    SyncCostBreakdown bd = b > 0 ? row_prefix_[b - 1] : SyncCostBreakdown{};
    for (std::size_t at = b; at < rows_.size(); ++at) {
      if (!row_empty_[at]) fold_row(bd, rows_[at], L_);
      row_prefix_[at] = bd;
    }
  }

  // Checkpoint SoA rows: boundaries 0..b kept, the re-derived boundaries
  // b+1.. in between, the committed tail boundaries after them (their
  // positions moved into the candidate frame).
  replace_range(ck_pos_, keep, tail * P, scr_pos_.begin(), scr_pos_.end());
  replace_range(ck_weight_, keep, tail * P, scr_weight_.begin(),
                scr_weight_.end());
  if (sync_) {
    replace_range(ck_comp_, keep, tail * P, scr_comp_.begin(), scr_comp_.end());
    replace_range(ck_save_, keep, tail * P, scr_save_.begin(), scr_save_.end());
    replace_range(ck_load_, keep, tail * P, scr_load_.begin(), scr_load_.end());
    replace_range(ck_any_, keep, tail * P, scr_any_.begin(), scr_any_.end());
  }
  splice_csr(ck_cache_start_, ck_cache_nodes_, keep, tail * P,
             scr_cache_start_, scr_cache_nodes_);
  if (conv) {
    for (std::size_t at = keep + scr_pos_.size(); at < ck_pos_.size();
         at += P) {
      for (std::size_t p = 0; p < P; ++p) ck_pos_[at + p] += edit_shift_[p];
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
  replace_range(ck_step_, b, tail_round, scr_round_steps_.begin(),
                scr_round_steps_.end());
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

  if (async_) {
    // Committed async op pools: slots 0..b-1 kept (boundary b's straddling
    // slot is re-derived in scratch), then the scratch slots, then the
    // committed tail slots; save prefixes follow the boundary layout.
    splice_csr(as_comp_start_, as_comp_nodes_, b * P, tail * P,
               scr_as_comp_start_, scr_as_comp_nodes_);
    splice_csr(as_save_start_, as_save_nodes_, b * P, tail * P,
               scr_as_save_start_, scr_as_save_nodes_);
    splice_csr(as_load_start_, as_load_nodes_, b * P, tail * P,
               scr_as_load_start_, scr_as_load_nodes_);
    replace_range(as_save_prefix_, keep, tail * P, scr_as_save_prefix_.begin(),
                  scr_as_save_prefix_.end());
  }

  // Blue rounds: clear the dropped rounds' nodes, move the tail's by
  // c - r_c, then install the re-derived ones (disjoint from both).
  const auto blued = [&](std::size_t r) {
    return std::pair{blued_nodes_.begin() + blued_start_[r],
                     blued_nodes_.begin() + blued_start_[r + 1]};
  };
  for (std::size_t r = b; r < tail_round; ++r) {
    const auto [lo, hi] = blued(r);
    for (auto it = lo; it != hi; ++it) {
      blue_round_[static_cast<std::size_t>(*it)] = INT_MAX;
    }
  }
  for (std::size_t r = tail_round; r < static_cast<std::size_t>(old_rounds);
       ++r) {
    const auto [lo, hi] = blued(r);
    for (auto it = lo; it != hi; ++it) {
      blue_round_[static_cast<std::size_t>(*it)] += conv_c_ - conv_r_;
    }
  }
  // Re-derived rounds [b, c) as a CSR (ends per round) for the splice.
  const int eval_end = conv ? conv_c_ : cand_rounds_;
  ArenaVector<std::int64_t> ends(&eval_arena_);
  ArenaVector<NodeId> nodes(&eval_arena_);
  ends.push_back(0);
  std::size_t i = 0;
  for (int r = eval_b_; r < eval_end; ++r) {
    for (; i < eval_blued_.size() && eval_blued_[i].round == r; ++i) {
      nodes.push_back(eval_blued_[i].node);
      blue_round_[static_cast<std::size_t>(eval_blued_[i].node)] = r;
    }
    ends.push_back(static_cast<std::int64_t>(nodes.size()));
  }
  assert(i == eval_blued_.size());
  splice_csr(blued_start_, blued_nodes_, b, tail_round, ends, nodes);
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
  mix(ck_pos_);
  mix(ck_weight_);
  mix(ck_cache_start_);
  mix(ck_cache_nodes_);
  mix(ck_step_);
  if (sync_) {
    mix(ck_comp_);
    mix(ck_save_);
    mix(ck_load_);
    mix(ck_any_);
    mix(rows_);
    mix(row_empty_);
  } else {
    mix(as_comp_start_);
    mix(as_comp_nodes_);
    mix(as_save_start_);
    mix(as_save_nodes_);
    mix(as_load_start_);
    mix(as_load_nodes_);
    mix(as_save_prefix_);
  }
  return h;
}

}  // namespace mbsp
