#pragma once
// Incremental evaluation engine for the holistic LNS: applies moves to a
// ComputePlan *in place* as reversible PlanDelta ops and maintains plan
// validity and schedule cost incrementally, so evaluating a move costs
// O(delta) bookkeeping plus a *suffix* of the memory completion instead of
// a full copy + validate + complete + cost pass.
//
// It is also the library's one memory completion engine: attach() runs
// the whole completion, and with a CompletionLog it records every
// committed segment's operations, from which complete_memory and
// evaluate_plan build the MBSP schedule once the evaluator is freed.
//
// ## Dirty-round invariants
//
// The memory completion is a deterministic left-to-right simulation over
// *rounds* (one maximal segment per participating processor per round;
// memory_completion.hpp) whose cross-processor coupling is forward-only:
// the shared blue set only grows and is only read by later rounds. The
// engine checkpoints the completion state at every round boundary and,
// per move, re-completes only rounds >= b (usually only the first few of
// them: see the reconvergence exit below), where b is a *provably safe*
// dirty bound:
//
//  * A move edits processor p around position i. Completion decisions
//    before i on p consult the plan only through position-indexed
//    lookahead (effective_next_need) and, under LRU, position-indexed
//    lookback (last_active). For every node not touched by the edit the
//    answers shift uniformly (order-preserving); for each touched node v
//    they are unchanged for queries before d(v) = (v's last
//    occurrence-or-use position on p strictly before i) + 1. Both
//    eviction policies only *compare* those values, so every decision in
//    rounds whose segments end at positions <= d(v) - 1 is bitwise
//    reproduced; b is the committed round containing that position
//    (conservatively shifted down by the move's insert count on p, so
//    candidate-frame positions always under-approximate committed ones).
//  * save_required(v) is a global property (which processors compute /
//    consume v); if a move flips it, rounds from v's earliest
//    occurrence's superstep on are dirty too.
//  * Merging superstep s with s+1 changes nothing below the first round
//    of s, and on each processor the completion is bitwise identical up
//    to the committed round whose segment first *reaches* the old block
//    boundary (every earlier segment ended on a feasibility failure, not
//    on the block limit, so its planning loop replays identically); b is
//    the min over affected processors of that crossing round - 1. A merge
//    where one side is empty on every processor (in particular every
//    gap-closing merge after an erase) is a pure relabel: it costs *no*
//    re-completion at all, only a label fixup of the kept round table.
//    Splits are bounded symmetrically.
//
// ## Reconvergence exit
//
// The dirty suffix rarely needs to run to the end of the plan: a few
// rounds after the edit the candidate's completion state usually rejoins
// the committed run. After each round's drain, at candidate boundary c,
// evaluate_from looks for the committed boundary r_c whose per-proc
// positions equal the candidate positions mapped into the committed frame
// (shifted by the move's net inserts - erases on each edited processor),
// and stops re-completing once all of these hold there:
//
//  * the per-proc cache rows (in order) and weights match, and so do the
//    straddling slot's partial accumulators (sync: comp/save/load/any;
//    async: the slot's compute list and its post-save prefix);
//  * the nodes first blued in candidate rounds [b, c) and the committed
//    ones of rounds [b, r_c) agree, with equal home groups, on every node
//    still live at the boundary: cached on some processor, or with a
//    compute or use event at or after some processor's position. The
//    completion reads a blue bit or home only for a cached node or at one
//    of the node's own events, so a dead node's are never read again and
//    no later op names it.
//
// and the exit is admissible at all:
//
//  * every edited processor's position lies past its last edited
//    position, so the plan suffix on it is the committed suffix shifted;
//  * the committed round r_c lies past every block a merge or split
//    relabeled (its label clears each relabel threshold in turn), so the
//    suffix's block structure is unchanged and only its labels shift;
//  * the move flipped no save_required bit;
//  * under LRU, every affected (node, edited processor) pair whose key
//    can still be read — the node is cached at the boundary or has an
//    event at or after it — has its last event before the boundary inside
//    the unedited region, so its last-active key names the same
//    occurrence in both frames.
//
// Soundness: the completion from a boundary on is a deterministic
// function of exactly that state — positions and the plan suffix
// (forward lookahead only reads positions >= the query point), the cache
// rows and weights, the straddling slot, the live nodes' blue bits and
// home groups, save_required, the block structure, and (LRU only) the
// last-active keys, which are compared but never priced. Equal inputs
// replay the committed rounds r_c.. bitwise, so the candidate's remaining
// rounds are the committed ones relabeled. The cost folds the candidate
// rows [b, c) and then the committed rows [r_c, R] — the same rows in the
// same add order as a from-scratch attach, hence bitwise equal; the
// async cost replays the committed op pool past slot c. commit() splices
// the committed suffix into the promoted state (checkpoint positions
// shifted, round labels through the relabel fixups, blue rounds moved by
// c - r_c); rollback() needs nothing extra. With no exit the whole
// suffix runs, exactly as before. Every cost model, eviction policy and
// machine kind takes the exit; none keeps the full suffix.
//
// Everything the suffix run reuses — boundary caches, blue rounds, home
// groups, per-slot cost rows, per-(slot, proc) async op lists — is
// restored exactly as a from-scratch run of the edited plan would have
// produced it, so the incremental cost is *bitwise identical* to a
// from-scratch evaluation (evaluate_plan): debug builds assert equality
// after every move. The oracle is the reference completer of
// tests/support/: tests/test_incremental_eval.cpp drives randomized
// apply/undo sequences against it, and tests/test_twostage.cpp requires
// attach's schedules to equal its schedules op for op.
//
// Every cost model / eviction policy combination runs incrementally:
// synchronous cost folds per-slot accumulator rows (heterogeneous
// speeds/memories/comm groups priced as in docs/MACHINES.md), the
// asynchronous cost replays the finishing-time recursion over per-(slot,
// proc) operation lists kept incrementally, and the LRU policy's
// last-active timestamps are reconstructed from the occurrence index
// (they are always the position of a committed compute-or-use, so a
// binary search recovers them exactly).
//
// ## Memory layout (docs/PERFORMANCE.md)
//
// The move loop runs millions of evaluations; its state is laid out to
// make an evaluation allocation-free in steady state:
//  * committed checkpoints are structure-of-arrays: flat per-(round,
//    proc) position/weight/accumulator arrays plus one pooled cache-row
//    array with offsets — no per-round vectors;
//  * per-eval scratch (checkpoint rows, async op lists, blue/home logs)
//    lives in a bump Arena (src/util/arena.hpp), reset per evaluation;
//  * the hot per-node overlays (tentative membership, blue, phase-A
//    eviction, remaining-need; the eval cache sets) are dense
//    epoch-stamped arrays — one direct indexed load per probe, O(1)
//    clears by epoch bump —
//    while the sparse, rarely-touched validator remote-requirement rows
//    stay open-addressing FlatMaps (src/util/flat_map.hpp);
//  * slot cost accumulators are structure-of-arrays folded by contiguous
//    per-field loops in finalize_cost (same fp order as the oracle).

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/holistic/lns.hpp"
#include "src/model/cost.hpp"
#include "src/twostage/compute_plan.hpp"
#include "src/util/arena.hpp"
#include "src/util/page_alloc.hpp"
#include "src/util/flat_map.hpp"

namespace mbsp {

/// The operations of one completion, in emission order: per committed
/// segment its round, processor and six op lists, packed into one word
/// array (about one word per op). A one-shot completion frees the
/// evaluator before it builds the schedule from the log, so the
/// schedule's many small vectors reuse the evaluator's memory instead of
/// pinning it.
class CompletionLog {
 public:
  /// The completed schedule: slot 0 carries the first loads, round r
  /// writes its segments' upfront I/O to slot r (the stage) and their
  /// computes and post phase to slot r + 1 (the body); empty supersteps
  /// are dropped.
  MbspSchedule to_schedule() const;

 private:
  friend class IncrementalEvaluator;
  int num_procs_ = 0;
  int num_rounds_ = 0;
  // Per segment: round, proc, the lengths of pre_saves, pre_deletes,
  // loads, ops, post_saves and post_deletes, then their nodes (a delete
  // op as -1 - node).
  PageVector<NodeId> words_;
};

class IncrementalEvaluator {
 public:
  IncrementalEvaluator(const MbspInstance& inst, const LnsOptions& options);

  /// Attaches to `plan` (superstep indices must be dense 0..k-1) and fully
  /// evaluates it. Returns the cost; when `log` is non-null, also records
  /// the completion's operations there (the one memory completion of the
  /// library: complete_memory and evaluate_plan build their schedule from
  /// it).
  double attach(const ComputePlan& plan, CompletionLog* log = nullptr);

  const ComputePlan& plan() const { return plan_; }
  PlanOccurrenceIndex& index() { return index_; }

  struct Outcome {
    bool valid = false;
    double cost = 0;
  };

  /// Move protocol: begin_move(); apply_op(...) for each edit;
  /// finish_move() validates and costs the edited plan. After
  /// finish_move, call exactly one of commit() / rollback().
  void begin_move();
  void apply_op(const PlanDeltaOp& op);
  /// Reusable op buffer for move generators: fill it, pass it to
  /// apply_op (which copies it into the pooled move log). Its `cuts`
  /// capacity is retained across proposals, so structural moves allocate
  /// nothing in steady state.
  PlanDeltaOp& scratch_op() { return scratch_op_; }
  Outcome finish_move();
  /// Keeps the applied move; promotes the scratch evaluation state.
  void commit();
  /// Undoes the applied move; the plan and all caches return to the
  /// pre-begin_move state bitwise.
  void rollback();

  /// Number of completion rounds the last finish_move re-derived: from
  /// the dirty bound to the reconvergence exit, or to the end of the plan
  /// when the exit did not fire. Benches and tests use this to observe
  /// how incremental the search actually is.
  long last_dirty_rounds() const { return last_dirty_; }
  /// Total committed completion rounds of the current plan.
  long committed_rounds() const { return committed_rounds_; }
  /// FNV-1a digest of the committed checkpoint rows: per-boundary
  /// positions, weights and cache rows (in row order), then the sync
  /// straddling accumulators and slot cost rows, or the async op pools.
  /// Tests pin the completion's decisions with it: another victim or cache
  /// row order at equal cost moves the digest, not the cost.
  std::uint64_t checkpoint_digest() const;

 private:
  struct Segment {
    std::vector<NodeId> loads, pre_saves, pre_deletes, post_saves,
        post_deletes;
    std::vector<PhaseOp> ops;  ///< computes + interleaved deletes
    std::int64_t count = 0;
    std::vector<NodeId> final_cache;
    double final_weight = 0;
  };
  /// Per-try overlay entry, one dense slot per node; live iff
  /// stamp == t_epoch_ (one indexed load per probe, no hashing). A try of
  /// the grow-by-one segment loop writes only what its success test
  /// needs (phases A and B); the winner's overlay is kept in best_ov_ for
  /// finish_segment's post phase. Hoistability is not stored: it is
  /// "in the start cache, not needed, and not `upfront`", which equals the
  /// completer's post-load snapshot because none of the three changes
  /// after phase A.
  struct TryOv {
    std::int8_t member = -1;  ///< -1 inherit from eval cache, else 0/1
    std::int8_t blue = 0;     ///< made blue in this try
    std::int8_t upfront = 0;  ///< evicted by this try's phase A
    std::int8_t in_added = 0; ///< already logged in t_added_
    std::int32_t remneed = 0; ///< remaining in-segment parent uses
    std::uint32_t stamp = 0;  ///< live iff == t_epoch_
  };
  /// Per-segment overlay entry (cleared per plan_segment, shared across
  /// the growing try counts); live iff stamp == s_epoch_.
  struct SegOv {
    char produced = 0, load = 0, needed = 0;
    std::uint32_t stamp = 0;  ///< live iff == s_epoch_
  };
  struct BlueRec {
    NodeId node;
    int round;
  };
  struct HomeRec {
    NodeId node;
    int grp;
  };
  struct PendRec {
    NodeId node;
    int proc;
  };
  /// Per-(slot, proc) async operation lists of the two active slots.
  struct SlotOps {
    std::vector<NodeId> comp, save, load;
    void reset() {
      comp.clear();
      save.clear();
      load.clear();
    }
  };

  // -- validation ----------------------------------------------------------
  bool validate_candidate();
  bool rescan_proc(int p);

  // -- save_required maintenance ------------------------------------------
  void bump_occurrence_counts(int p, NodeId v, int delta);
  bool compute_save_required(NodeId v) const;
  void refresh_save_required();

  // -- completion ----------------------------------------------------------
  /// Re-completes from committed boundary b; `may_exit` allows the
  /// reconvergence exit (moves only — attach and the checkpoint verifier
  /// must run the whole plan).
  double evaluate_from(int b, bool may_exit);
  bool prepare_exit();
  int reconvergence_round();
  bool dead_at_boundary(NodeId v);
  void restore_boundary(int b);
  void record_checkpoint();
  bool plan_segment(int p, int superstep);
  bool run_phases(int p, std::int64_t i0, std::int64_t count);
  void sort_upfront_order(int p, std::int64_t i0);
  void finish_segment(int p, std::int64_t i0);
  void commit_segment(int p);
  std::int64_t effective_next_need(int p,
                                   const PlanOccurrenceIndex::ProcPositions& pp,
                                   NodeId v, std::int64_t from);
  std::int64_t next_need_refill(int p,
                                const PlanOccurrenceIndex::ProcPositions& pp,
                                NodeId v, std::int64_t from);
  std::int64_t committed_last_active(
      const PlanOccurrenceIndex::ProcPositions& pp, NodeId v,
      std::int64_t before) const;
  int dirty_bound();
  double finalize_cost();
  double finalize_async_cost();
  void promote_eval();
  void reserve_from_attached();

  // -- round-table helpers (committed frame) -------------------------------
  int first_round_of(int superstep) const;
  int round_of_pos(int p, std::int64_t pos) const;
  int crossing_round(int p, std::int64_t cut) const;

  // eval/try-local cache + blue reads (overlay over committed state);
  // defined in-class so the run_phases loops inline them (they run
  // hundreds of millions of times per bench).
  bool eval_cache_member(int p, NodeId v) const { return ec_member(p, v); }
  bool eval_blue(NodeId v) const {
    if (eb_contains(v)) return true;
    return blue_round_[static_cast<std::size_t>(v)] < eval_b_;
  }
  void eval_blue_set(NodeId v) {
    std::uint32_t& stamp = eb_stamp_[static_cast<std::size_t>(v)];
    if (stamp == eb_epoch_) return;
    stamp = eb_epoch_;
    eval_blued_.push_back({v, eval_cur_});
  }
  bool try_member(int p, NodeId v) const {
    const TryOv* ov = try_find(v);
    if (ov != nullptr && ov->member >= 0) return ov->member != 0;
    return ec_member(p, v);
  }
  void try_set_member(int p, NodeId v, bool in) {
    TryOv& ov = try_ov(v);
    ov.member = in ? 1 : 0;
    if (in && !ov.in_added && !ec_member(p, v)) {
      ov.in_added = 1;
      t_added_.push_back(v);
    }
  }
  bool try_blue(NodeId v) const {
    const TryOv* ov = try_find(v);
    if (ov != nullptr && ov->blue) return true;
    return eval_blue(v);
  }

  // -- dense epoch-stamped overlay primitives ------------------------------
  // A slot is live iff its stamp equals the overlay's epoch; bumping the
  // epoch empties the overlay in O(1). On the (astronomically rare)
  // uint32 wrap the stamps are zero-filled so stale slots cannot alias.
  TryOv& try_ov(NodeId v) {
    TryOv& o = t_ov_[static_cast<std::size_t>(v)];
    if (o.stamp != t_epoch_) {
      o = TryOv{};
      o.stamp = t_epoch_;
    }
    return o;
  }
  const TryOv* try_find(NodeId v) const {
    const TryOv& o = t_ov_[static_cast<std::size_t>(v)];
    return o.stamp == t_epoch_ ? &o : nullptr;
  }
  void clear_try_overlay() {
    if (++t_epoch_ == 0) {
      for (TryOv& o : t_ov_) o.stamp = 0;
      t_epoch_ = 1;
    }
  }
  // Exchanges the running try's state with the last successful try's.
  void swap_best_try() {
    std::swap(best_ov_, t_ov_);
    std::swap(best_epoch_, t_epoch_);
    std::swap(best_added_, t_added_);
    std::swap(best_weight_, t_weight_);
  }
  SegOv& seg_ov(NodeId v) {
    SegOv& o = s_ov_[static_cast<std::size_t>(v)];
    if (o.stamp != s_epoch_) {
      o = SegOv{};
      o.stamp = s_epoch_;
    }
    return o;
  }
  const SegOv* seg_find(NodeId v) const {
    const SegOv& o = s_ov_[static_cast<std::size_t>(v)];
    return o.stamp == s_epoch_ ? &o : nullptr;
  }
  void clear_seg_overlay() {
    if (++s_epoch_ == 0) {
      for (SegOv& o : s_ov_) o.stamp = 0;
      s_epoch_ = 1;
    }
  }
  bool ec_member(int p, NodeId v) const {
    return ec_stamp_[static_cast<std::size_t>(p) * n_ +
                     static_cast<std::size_t>(v)] ==
           ec_epoch_[static_cast<std::size_t>(p)];
  }
  void ec_insert(int p, NodeId v) {
    ec_stamp_[static_cast<std::size_t>(p) * n_ + static_cast<std::size_t>(v)] =
        ec_epoch_[static_cast<std::size_t>(p)];
  }
  void ec_clear(int p) {
    std::uint32_t& epoch = ec_epoch_[static_cast<std::size_t>(p)];
    if (++epoch == 0) {
      const std::ptrdiff_t base =
          static_cast<std::ptrdiff_t>(static_cast<std::size_t>(p) * n_);
      std::fill(ec_stamp_.begin() + base,
                ec_stamp_.begin() + base + static_cast<std::ptrdiff_t>(n_),
                0u);
      epoch = 1;
    }
  }
  bool eb_contains(NodeId v) const {
    return eb_stamp_[static_cast<std::size_t>(v)] == eb_epoch_;
  }
  void eb_clear() {
    if (++eb_epoch_ == 0) {
      std::fill(eb_stamp_.begin(), eb_stamp_.end(), 0u);
      eb_epoch_ = 1;
    }
  }
  // Drops proc p's memoized next-need lookahead (its candidate-frame
  // occurrence positions changed).
  void nn_invalidate(int p) {
    std::uint32_t& epoch = nn_epoch_[static_cast<std::size_t>(p)];
    if (++epoch == 0) {
      const std::ptrdiff_t base =
          static_cast<std::ptrdiff_t>(static_cast<std::size_t>(p) * n_);
      std::for_each(nn_.begin() + base,
                    nn_.begin() + base + static_cast<std::ptrdiff_t>(n_),
                    [](NextNeed& e) { e.stamp = 0; });
      epoch = 1;
    }
  }

  // -- home-group bookkeeping (heterogeneous comm groups) ------------------
  int eval_home(NodeId v) const;
  void eval_assign_home(NodeId v, int grp);
  double comm_cost(int p, int home) const;

  const MbspInstance& inst_;
  const ComputeDag& dag_;
  LnsOptions options_;
  bool async_ = false;    ///< asynchronous cost model
  bool sync_ = true;      ///< !async_: maintain per-slot sync cost rows
  bool lru_ = false;      ///< LRU eviction (else clairvoyant)
  bool uniform_ = true;   ///< flat (P, r, g, L) machine
  int P_ = 1;
  std::size_t n_ = 0;
  double g_ = 0, L_ = 0;
  bool single_group_ = true;
  double g_in_ = 0, g_out_ = 0;
  std::vector<double> mem_;    ///< per-proc capacity
  std::vector<double> speed_;  ///< per-proc speed (divisor at row fold)
  std::vector<int> grp_;       ///< per-proc comm group

  ComputePlan plan_;
  PlanOccurrenceIndex index_;

  // -- committed state -----------------------------------------------------
  // Arrays sized by n, P·n or the round count are PageVectors
  // (src/util/page_alloc.hpp): an attach's memory leaves RSS with it.
  PageVector<std::int32_t> comp_cnt_, use_cnt_;  // [p * n + v]
  PageVector<int> comp_proc_count_;              // [v]
  PageVector<char> save_req_;                    // [v]
  PageVector<int> blue_round_;  // [v]: -1 sources, else first blue round,
                                // INT_MAX never
  PageVector<int> home_group_;  // [v]: first saver's group; valid exactly
                                // when blue_round_ is
  // blued-by-round pool: nodes first blued in round r are
  // blued_nodes_[blued_start_[r] .. blued_start_[r+1]).
  PageVector<NodeId> blued_nodes_;
  PageVector<std::int64_t> blued_start_;  // [R + 1]
  PageVector<SyncStepCost> rows_;          // per slot (sync only)
  PageVector<char> row_empty_;
  // row_prefix_[i]: the cost accumulator state after folding rows [0..i]
  // (skipping empties) — finalize_cost resumes from it instead of
  // rescanning the committed prefix, preserving the exact fp add order.
  PageVector<SyncCostBreakdown> row_prefix_;

  // Round-granular checkpoints, structure-of-arrays: row r (0..R) is the
  // completion state at the boundary *before* round r; the straddling
  // slot r holds the body of round r-1 so its partial accumulators are
  // part of the boundary. All arrays are indexed [r * P + p].
  int committed_rounds_ = 0;  // R
  int committed_steps_ = 0;   // K (committed superstep count)
  PageVector<std::int64_t> ck_pos_;
  PageVector<double> ck_weight_, ck_comp_, ck_save_, ck_load_;
  PageVector<char> ck_any_;
  PageVector<std::int64_t> ck_cache_start_;  // [(R+1)*P + 1]
  PageVector<NodeId> ck_cache_nodes_;         // pooled cache rows
  PageVector<int> ck_step_;           // [R]: superstep round r processed
  PageVector<int> step_first_round_;  // [K+1], [K] = R

  // Committed per-(slot, proc) async op lists (async cost only), pooled
  // CSR: slot s, proc p occupies [start[s*P+p], start[s*P+p+1]).
  PageVector<NodeId> as_comp_nodes_, as_save_nodes_, as_load_nodes_;
  PageVector<std::int64_t> as_comp_start_, as_save_start_, as_load_start_;
  // Boundary r: how many of slot r's saves existed at the boundary (the
  // post-saves of round r-1; the rest are re-derived stage pre-saves).
  PageVector<std::int32_t> as_save_prefix_;  // [(R+1)*P]

  // Validator: committed remote-requirement rows, R_map_[p][v] = min
  // superstep of an occurrence on p that needs v from another processor
  // (absent = none). Scratch rows are rebuilt per touched proc and
  // swapped in on commit.
  std::vector<FlatMap<NodeId, int>> R_map_, R_scratch_map_;

  // -- per-move scratch ----------------------------------------------------
  bool in_move_ = false;
  // Pooled move log (apply order); slots are reused across moves so the
  // per-op `cuts` vectors keep their capacity.
  std::vector<PlanDeltaOp> delta_ops_;
  std::size_t delta_size_ = 0;
  PlanDeltaOp scratch_op_;
  std::vector<char> proc_touched_;
  std::vector<int> touched_procs_;
  std::vector<int> inserts_on_proc_;  // kInsert count per touched proc
  std::vector<std::pair<NodeId, int>> ed_before_;  // (node, committed ed)
  std::vector<NodeId> affected_nodes_;             // counts changed
  std::vector<std::pair<NodeId, char>> save_req_before_;
  // Superstep-label fixups (threshold, delta) of every merge/split, in
  // apply order: applied at promote to the kept rounds and to a committed
  // tail reused past a reconvergence exit.
  std::vector<std::pair<int, int>> relabel_fixups_;
  long last_dirty_ = 0;
  // Reconvergence exit: candidate positions >= edit_hi_[p] are unedited
  // and sit edit_shift_[p] past their committed images; lru_keys_ lists
  // the (edited proc, affected node) pairs whose LRU keys may differ.
  std::vector<std::int64_t> edit_hi_, edit_shift_;  // [p]
  std::vector<std::pair<int, NodeId>> lru_keys_;
  // The last evaluation stopped at candidate boundary conv_c_, rejoining
  // committed boundary conv_r_ (both -1: it ran to the end).
  int conv_c_ = -1, conv_r_ = -1;

  // -- per-eval scratch (arena-backed where append-only) -------------------
  // attach's operation log: commit_segment appends each segment (null:
  // cost only).
  CompletionLog* log_ = nullptr;
  Arena eval_arena_;
  int eval_b_ = 0;  ///< restart round of the running evaluation
  // Per-proc eval cache membership, dense epoch-stamped: v is in proc
  // p's eval cache iff ec_stamp_[p * n + v] == ec_epoch_[p].
  PageVector<std::uint32_t> ec_stamp_;        // [p * n + v]
  std::vector<std::uint32_t> ec_epoch_;       // [p]
  std::vector<std::vector<NodeId>> ec_list_;  // per-proc ordered cache
  std::vector<double> ec_weight_;
  PageVector<std::uint32_t> eb_stamp_;  // [v]: blued this eval iff == epoch
  std::uint32_t eb_epoch_ = 0;
  FlatMap<NodeId, int> eh_map_;  // home overlay (set at first save)
  std::vector<PendRec> pending_blue_;  // post_saves of the running round
  ArenaVector<BlueRec> eval_blued_;
  ArenaVector<HomeRec> eval_homes_;
  std::vector<std::int64_t> pos_;
  // Slot cost accumulators, structure-of-arrays: local index
  // (slot - first_eval_slot_) * P + p.
  PageVector<double> slot_comp_, slot_save_, slot_load_;
  PageVector<char> slot_any_;
  int first_eval_slot_ = 0;
  int num_slots_ = 0;
  int eval_cur_ = 0;  ///< round being processed / straddling slot index
  PageVector<SyncStepCost> scratch_rows_;  // slots >= first_eval_slot_
  PageVector<char> scratch_row_empty_;
  // Scratch checkpoint rows (boundaries b+1 .. R_cand), SoA like ck_*.
  ArenaVector<std::int64_t> scr_pos_;
  ArenaVector<double> scr_weight_, scr_comp_, scr_save_, scr_load_;
  ArenaVector<char> scr_any_;
  ArenaVector<std::int64_t> scr_cache_start_;
  ArenaVector<NodeId> scr_cache_nodes_;
  ArenaVector<int> scr_round_steps_;  // superstep of rounds b..R_cand-1
  int cand_rounds_ = 0;
  int cand_steps_ = 0;
  // Async: the two active slots' op lists and the flushed scratch pool
  // (slots b .. R_cand, same CSR layout as the committed pool).
  std::vector<SlotOps> async_cur_, async_next_;
  ArenaVector<NodeId> scr_as_comp_nodes_, scr_as_save_nodes_,
      scr_as_load_nodes_;
  ArenaVector<std::int64_t> scr_as_comp_start_, scr_as_save_start_,
      scr_as_load_start_;
  ArenaVector<std::int32_t> scr_as_save_prefix_;
  // Async finalize scratch (epoch-stamped per finalize).
  int async_epoch_ = 0;
  PageVector<int> fs_stamp_;      // [v]
  PageVector<int> first_save_;    // [v]: slot of the first save
  PageVector<double> gets_blue_;  // [v]: availability time
  std::vector<double> now_;       // [p]: finishing time per proc

  // -- per-segment / per-try scratch (dense epoch-stamped) ----------------
  PageVector<SegOv> s_ov_;  // [v]
  std::uint32_t s_epoch_ = 0;
  std::vector<NodeId> s_loads_;
  double s_load_weight_ = 0;
  // Phase A's victim order: the segment's start cache sorted by the
  // eviction policy's key at i0, rebuilt by the first try of each segment
  // that evicts upfront (s_upfront_sorted_ says whether it is current).
  struct UpfrontKey {
    std::int64_t next;  ///< effective next need at i0 (kNever: dead)
    std::int64_t la;    ///< LRU: committed last-active before i0
    NodeId v;
  };
  std::vector<UpfrontKey> s_upfront_;
  bool s_upfront_sorted_ = false;
  // The running try's state and, swapped in on each success like
  // best_seg_/cur_seg_, the last successful try's: finish_segment runs
  // the post phase once, on the winner.
  PageVector<TryOv> t_ov_, best_ov_;  // [v]
  std::uint32_t t_epoch_ = 0, best_epoch_ = 0;
  // try members not in the eval cache list
  std::vector<NodeId> t_added_, best_added_;
  double t_weight_ = 0, best_weight_ = 0;
  Segment cur_seg_, best_seg_;
  std::vector<NodeId> sorted_members_;

  // effective_next_need memo: the (use, comp) lower-bound pair of node v
  // on proc p at query position `from`; live iff the stamp matches the
  // proc's epoch. Survives across moves for untouched processors. One
  // 16-byte entry per (proc, node): plan positions fit 32 bits, and
  // kNoPos (above every position) stands for kNever.
  struct NextNeed {
    std::uint32_t stamp = 0;
    std::int32_t from = 0, use = 0, comp = 0;
  };
  static constexpr std::int32_t kNoPos = INT32_MAX;
  PageVector<NextNeed> nn_;             // [p * n + v]
  std::vector<std::uint32_t> nn_epoch_;  // [p]

  // validator scratch
  int scan_epoch_ = 0;
  PageVector<int> scan_stamp_;
  int affected_epoch_ = 0;
  PageVector<int> affected_stamp_;
};

}  // namespace mbsp
