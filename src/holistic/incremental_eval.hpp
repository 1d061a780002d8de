#pragma once
// Incremental evaluation engine for the holistic LNS: applies moves to a
// ComputePlan *in place* as reversible PlanDeltaOps and maintains plan
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
//    occurrence's superstep (in either frame) on are dirty too. So every
//    compute of a flipped node lies in the re-derived rounds.
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
//  * under LRU, every affected (node, edited processor) pair whose key
//    can still be read — the node is cached at the boundary or has an
//    event at or after it — has its last event before the boundary inside
//    the unedited region, so its last-active key names the same
//    occurrence in both frames.
//
// A move that flips save_required(v) keeps the exit with no rule of its
// own. The completion reads the bit only for a non-blue v, while v is
// cached or at v's own compute, and it blues a node whose bit is set by
// the end of the segment that computes it. Let X be the run (candidate or
// committed) where the bit is set. If X computes v before the boundary,
// it blues v there (in rounds >= b, by the dirty bound above). If the
// other run blues v too, neither reads the bit again; if it does not, the
// blue-set agreement requires v to be dead, and a dead node's bit is
// never read. X cannot compute v only past the boundary: every use before
// the boundary would then lack an earlier compute, so the uses and
// computes of v would all lie in the suffix both runs share, and the bit
// could not differ.
//
// Soundness: the completion from a boundary on is a deterministic
// function of exactly that state — positions and the plan suffix
// (forward lookahead only reads positions >= the query point), the cache
// rows and weights, the straddling slot, the live nodes' blue bits and
// home groups, the save_required bits it can still read (above), the
// block structure, and (LRU only) the last-active keys, which are
// compared but never priced. Equal inputs
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
// ## Validation
//
// The committed plan is valid, so finish_move checks only what the move
// can break (debug builds assert, every move, that the verdict equals
// validate_plan's). Let C be the nodes whose occurrences the move changed
// and A be C plus their parents. Every node of C must still be computed.
//
//  * Edit-only moves (inserts, erases, set-nodes): on each edited
//    processor, every non-source node of A must have no first remote use
//    or one whose superstep exceeds its earliest done; on every other
//    processor, each node of C whose earliest done rose must clear its
//    first remote use there.
//  * A lone merge, or edits closed by one gap-closing merge: merging s
//    with s+1 newly breaks only a consumer that moved from s+1 to s whose
//    remote parent finishes at s, so each occurrence that now carries
//    label s past its cut must have every parent local before it or done
//    before s. The edits add the A checks on edited processors and check
//    C on every other processor without the rise shortcut: earliest-done
//    values from before the merge are in other labels.
//  * A lone split is valid by construction (validate_candidate argues it).
//  * Anything else (two structural ops, a split with other ops) rescans
//    every processor; rescan_moves() counts these moves.
//
// ## Segment planning
//
// Each segment is the largest prefix of the processor's remaining block
// that fits: plan_segment grows the try count 1, 2, 3, … and keeps the
// last try that succeeded (never galloping or bisecting: success need not
// be monotone, so any skip could change the segment). A full try replays
// the prefix — setup, phase A (upfront evictions), the loads, the
// remaining-need bumps and phase B (the computes with mid-segment
// evictions) — so a k-entry segment would replay k(k+1)/2 computes. Try
// t+1 instead continues try t's finished state, running only the new
// entry, when the resume guard proves the replay would repeat try t:
//
//  1. try t evicted no parent of the new entry (a replay keeps those back:
//     they have a remaining need, or are newly needed start-cache values);
//  2. the entry adds no upfront load, or weights are exact integers and
//     the loads' weight fits under the peak weight of every memory test
//     try t made (so none changes outcome; a test that evicted already
//     exceeded the capacity, so try t made no victim eviction).
//
// The resumed try adds the loads and their weight, bumps the parents'
// remaining need, and replays the entry with an undo journal of the
// overlay slots it writes; on failure the journal restores try t for
// finish_segment. Otherwise the try takes the full replay. Decisions,
// cache-row orders and weights are bitwise those of the full replay.
//
// ## Memory layout (docs/PERFORMANCE.md)
//
// The move loop runs millions of evaluations; its state is laid out to
// make an evaluation allocation-free in steady state:
//  * each piece of completion state is one table type, instantiated as
//    the committed copy and the per-eval scratch copy that promote_eval
//    splices into it: BoundaryRows (the checkpoints, structure-of-arrays:
//    flat per-(boundary, proc) position/weight/accumulator arrays plus a
//    PooledCsr of cache rows — no per-round vectors), SlotRows (sync cost
//    rows), OpPool (async op lists, three PooledCsrs); the blued-by-round
//    rows are a PooledCsr too;
//  * per-eval scratch (those tables' scratch copies, blue/home logs) is
//    PageVectors that each evaluation clears with their capacity kept, so
//    after warm-up they never reallocate;
//  * the hot per-node overlays (tentative membership, blue, phase-A
//    eviction, remaining-need; the eval cache sets) are dense
//    epoch-stamped arrays — one direct indexed load per probe, O(1)
//    clears by epoch bump — and the home overlay is a dense per-node
//    array cleared by walking the evaluation's home log;
//  * per-processor occurrence facts have one owner, the occurrence index
//    (PlanOccurrenceIndex), whose attach builds every processor's
//    position lists: the validator reads remote needs from them, and
//    save_required reads the per-(proc, node) occurrence and use counts
//    as their run lengths (comp_count, use_count); the evaluator keeps no
//    per-(proc, node) count arrays or validator rows of its own;
//  * slot cost accumulators are structure-of-arrays folded by contiguous
//    per-field loops in finalize_cost (same fp order as the oracle).

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/holistic/lns.hpp"
#include "src/model/cost.hpp"
#include "src/twostage/compute_plan.hpp"
#include "src/util/page_alloc.hpp"

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

  /// Attaches to `plan` and fully evaluates it. Returns the cost; when
  /// `log` is non-null, also records the completion's operations there
  /// (the one memory completion of the library: complete_memory and
  /// evaluate_plan build their schedule from it). Superstep labels may
  /// have gaps, which the completion drops, but the move protocol below
  /// needs them dense 0..k-1.
  double attach(const ComputePlan& plan, CompletionLog* log = nullptr);

  const ComputePlan& plan() const { return plan_; }
  const PlanOccurrenceIndex& index() const { return index_; }

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
  /// Whether the last finish_move flipped some node's save_required bit
  /// (benches count these moves and their re-derived rounds).
  bool last_move_flipped() const { return last_flip_; }
  /// Total committed completion rounds of the current plan.
  long committed_rounds() const { return committed_rounds_; }
  /// FNV-1a digest of the committed checkpoint rows: per-boundary
  /// positions, weights and cache rows (in row order), then the sync
  /// straddling accumulators and slot cost rows, or the async op pools.
  /// Tests pin the completion's decisions with it: another victim or cache
  /// row order at equal cost moves the digest, not the cost.
  std::uint64_t checkpoint_digest() const;

  /// Segment-planner counters, accumulated over the evaluator's life
  /// (attach included): planned segments, their tries, and the tries that
  /// resumed from the previous try's state instead of replaying the
  /// segment prefix. Benches and tests read them; nothing else does.
  struct PlannerCounters {
    long segments = 0;
    long tries = 0;
    long resumed_tries = 0;
  };
  const PlannerCounters& planner_counters() const { return counters_; }
  /// Moves whose validation fell back to rescanning every processor, over
  /// the evaluator's life. Benches and tests read it; nothing else does.
  long rescan_moves() const { return rescan_moves_; }

 private:
  /// Test access to the lookahead memo (tests/test_incremental_eval.cpp).
  friend struct IncrementalEvaluatorPeer;

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
  /// "in the start cache, not needed, and not evicted upfront", which
  /// equals the completer's post-load snapshot because none of the three
  /// changes after phase A.
  struct TryOv {
    std::int8_t member = -1;  ///< -1 inherit from eval cache, else 0/1
    std::int8_t blue = 0;     ///< made blue in this try
    std::int8_t evicted = 0;  ///< kEvictedUpfront | kEvictedInTry bits
    std::int8_t in_added = 0; ///< already logged in t_added_
    std::int32_t remneed = 0; ///< remaining in-segment parent uses
    std::uint32_t stamp = 0;  ///< live iff == t_epoch_
  };
  static constexpr std::int8_t kEvictedUpfront = 1;  ///< by phase A
  static constexpr std::int8_t kEvictedInTry = 2;    ///< anywhere in the try
  /// A resumed try's undo record: a node's overlay slot before the
  /// resumed entry wrote it (restored verbatim, stale stamp included).
  struct TryJournal {
    NodeId node;
    TryOv before;
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

  // -- completion-state tables ---------------------------------------------
  // Each table is declared once and instantiated twice: the committed copy
  // and the per-evaluation scratch copy that promote_eval splices into it
  // (rows [lo, hi) of the committed copy give way to every scratch row).

  /// Pooled CSR: row i holds items[start[i] .. start[i + 1]).
  template <class T>
  struct PooledCsr {
    PageVector<std::int64_t> start;  // rows + 1 offsets
    PageVector<T> items;
    /// `rows` empty rows.
    void reset(std::size_t rows) {
      start.assign(rows + 1, 0);
      items.clear();
    }
    void clear() { reset(0); }
    void reserve(std::size_t rows, std::size_t n_items) {
      start.reserve(rows + 1);
      items.reserve(n_items);
    }
    /// Ends the row whose items were appended since the last row ended.
    void close_row() {
      start.push_back(static_cast<std::int64_t>(items.size()));
    }
    template <class Range>
    void push_row(const Range& row) {
      items.insert(items.end(), row.begin(), row.end());
      close_row();
    }
    std::span<const T> row(std::size_t i) const {
      return {items.data() + start[i], items.data() + start[i + 1]};
    }
    void splice(std::size_t lo, std::size_t hi, const PooledCsr& src);
    bool operator==(const PooledCsr&) const = default;
  };

  /// Completion state at round boundaries, structure-of-arrays: boundary i,
  /// proc p is entry i * P + p. The straddling slot's partial accumulators
  /// (sync: comp, save, load, any) or its post-save count (async:
  /// save_prefix, how many of the slot's saves exist at the boundary) are
  /// part of the boundary; the other cost model's arrays stay empty.
  struct BoundaryRows {
    explicit BoundaryRows(bool async_model) : async(async_model) {}
    const bool async;
    PageVector<std::int64_t> pos;
    PageVector<double> weight, comp, save, load;
    PageVector<char> any;
    PooledCsr<NodeId> cache;  // one row per entry, in cache order
    PageVector<std::int32_t> save_prefix;
    /// Boundary 0 of `P` processors: nothing consumed, cached or costed.
    void reset(std::size_t P);
    void clear();
    void reserve(std::size_t entries, std::size_t cache_items);
    /// Appends the running evaluation's boundary eval_cur_.
    void push_boundary(const IncrementalEvaluator& ev);
    void splice(std::size_t lo, std::size_t hi, const BoundaryRows& src);
    bool row_equals(std::size_t i, const BoundaryRows& other,
                    std::size_t j) const;
  };

  /// Per-(slot, proc) async operation lists, one CSR row per slot * P + p.
  struct OpPool {
    PooledCsr<NodeId> comp, save, load;
    void reset(std::size_t rows);
    void clear() { reset(0); }
    void reserve(std::size_t rows, std::size_t n_items);
    /// Appends one slot: every processor's lists.
    void push_slot(const std::vector<SlotOps>& slot);
    void splice(std::size_t lo, std::size_t hi, const OpPool& src);
    bool operator==(const OpPool&) const = default;
  };

  /// Sync cost rows, one per slot: its SyncStepCost and whether it is empty.
  struct SlotRows {
    PageVector<SyncStepCost> cost;
    PageVector<char> empty;
    /// `slots` empty rows.
    void reset(std::size_t slots);
    void clear() { reset(0); }
    void reserve(std::size_t slots);
    void push(const SyncStepCost& row, bool is_empty) {
      cost.push_back(row);
      empty.push_back(is_empty ? 1 : 0);
    }
    void splice(std::size_t lo, std::size_t hi, const SlotRows& src);
    /// Folds the non-empty rows [from, end) into `bd`, in row order.
    void fold(SyncCostBreakdown& bd, std::size_t from, double L) const;
    bool operator==(const SlotRows& other) const;
  };

  // -- validation ----------------------------------------------------------
  bool validate_candidate();
  bool edits_valid(bool rise_shortcut);
  bool merged_step_valid(const PlanDeltaOp& merge);
  bool rescan_proc(int p);

  // -- save_required maintenance ------------------------------------------
  bool compute_save_required(NodeId v) const;
  void refresh_save_required();
  /// True iff every affected node's save_req_ bit equals
  /// compute_save_required (debug builds assert it after commit and
  /// rollback).
  bool save_required_current() const;

  // -- completion ----------------------------------------------------------
  /// Re-completes from committed boundary b; `may_exit` allows the
  /// reconvergence exit (moves only — attach and the checkpoint verifier
  /// must run the whole plan).
  double evaluate_from(int b, bool may_exit);
  void prepare_exit();
  int reconvergence_round();
  bool dead_at_boundary(NodeId v);
  void restore_boundary(int b);
  bool plan_segment(int p, int superstep);
  bool run_phases(int p, std::int64_t i0, std::int64_t count);
  bool may_resume(int p, NodeId v, bool new_loads,
                  double new_load_weight) const;
  bool resume_try(int p, std::int64_t i0, std::int64_t count,
                  std::size_t first_new_load);
  bool replay_entry(int p, const PlanOccurrenceIndex::ProcPositions& pp,
                    std::int64_t i0, std::int64_t j, bool journal);
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
  // Every epoch counter of the evaluator bumps through next_epoch.
  static std::uint32_t& stamp_of(std::uint32_t& stamp) { return stamp; }
  template <class Entry>
  static std::uint32_t& stamp_of(Entry& entry) { return entry.stamp; }
  template <class It>
  static void next_epoch(std::uint32_t& epoch, It first, It last) {
    if (++epoch != 0) return;
    for (; first != last; ++first) stamp_of(*first) = 0;
    epoch = 1;
  }
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
  void clear_try_overlay() { next_epoch(t_epoch_, t_ov_.begin(), t_ov_.end()); }
  // Exchanges the running try's state with the last successful try's.
  void swap_best_try() {
    std::swap(best_ov_, t_ov_);
    std::swap(best_epoch_, t_epoch_);
    std::swap(best_added_, t_added_);
    std::swap(best_weight_, t_weight_);
    std::swap(best_peak_, t_peak_);
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
  void clear_seg_overlay() { next_epoch(s_epoch_, s_ov_.begin(), s_ov_.end()); }
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
    const auto row = ec_stamp_.begin() + p * static_cast<std::ptrdiff_t>(n_);
    next_epoch(ec_epoch_[static_cast<std::size_t>(p)], row,
               row + static_cast<std::ptrdiff_t>(n_));
  }
  bool eb_contains(NodeId v) const {
    return eb_stamp_[static_cast<std::size_t>(v)] == eb_epoch_;
  }
  void eb_clear() { next_epoch(eb_epoch_, eb_stamp_.begin(), eb_stamp_.end()); }
  // Drops proc p's memoized next-need lookahead (an edit moved its
  // candidate-frame occurrence positions; relabels move none).
  void nn_invalidate(int p) {
    const auto row = nn_.begin() + p * static_cast<std::ptrdiff_t>(n_);
    next_epoch(nn_epoch_[static_cast<std::size_t>(p)], row,
               row + static_cast<std::ptrdiff_t>(n_));
  }

  // -- home-group bookkeeping (heterogeneous comm groups) ------------------
  int eval_home(NodeId v) const;
  void eval_assign_home(NodeId v, int grp);
  double comm_cost(int p, int home) const;

  const MbspInstance& inst_;
  const ComputeDag& dag_;
  LnsOptions options_;
  bool async_ = false;    ///< asynchronous cost model (else sync rows)
  bool lru_ = false;      ///< LRU eviction (else clairvoyant)
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
  PageVector<char> save_req_;   // [v]
  PageVector<int> blue_round_;  // [v]: -1 sources, else first blue round,
                                // INT_MAX never
  PageVector<int> home_group_;  // [v]: first saver's group; valid exactly
                                // when blue_round_ is
  // Nodes first blued in round r: row r of blued_ (R rows).
  PooledCsr<NodeId> blued_;
  SlotRows rows_;  // per slot (sync only)
  // row_prefix_[i]: the cost accumulator state after folding rows [0..i]
  // (skipping empties) — finalize_cost resumes from it instead of
  // rescanning the committed prefix, preserving the exact fp add order.
  PageVector<SyncCostBreakdown> row_prefix_;

  // Round-granular checkpoints: boundary r (0..R) is the completion state
  // *before* round r; the straddling slot r holds the body of round r-1 so
  // its partial accumulators are part of the boundary.
  int committed_rounds_ = 0;  // R
  int committed_steps_ = 0;   // K (committed superstep count)
  BoundaryRows ck_{async_};
  PageVector<int> ck_step_;           // [R]: superstep round r processed
  PageVector<int> step_first_round_;  // [K+1], [K] = R
  // Committed async op pool (async cost only), slots 0..R.
  OpPool ops_;

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
  std::vector<NodeId> affected_nodes_;             // A: C plus parents
  std::vector<std::pair<NodeId, char>> save_req_before_;
  // Superstep-label fixups (threshold, delta) of every merge/split, in
  // apply order: applied at promote to the kept rounds and to a committed
  // tail reused past a reconvergence exit.
  std::vector<std::pair<int, int>> relabel_fixups_;
  long last_dirty_ = 0;
  bool last_flip_ = false;
  // Reconvergence exit: candidate positions >= edit_hi_[p] are unedited
  // and sit edit_shift_[p] past their committed images; lru_keys_ lists
  // the (edited proc, affected node) pairs whose LRU keys may differ.
  std::vector<std::int64_t> edit_hi_, edit_shift_;  // [p]
  std::vector<std::pair<int, NodeId>> lru_keys_;
  // The last evaluation stopped at candidate boundary conv_c_, rejoining
  // committed boundary conv_r_ (both -1: it ran to the end).
  int conv_c_ = -1, conv_r_ = -1;

  // -- per-eval scratch (cleared per evaluation, capacity kept) ------------
  // attach's operation log: commit_segment appends each segment (null:
  // cost only).
  CompletionLog* log_ = nullptr;
  int eval_b_ = 0;  ///< restart round of the running evaluation
  // Per-proc eval cache membership, dense epoch-stamped: v is in proc
  // p's eval cache iff ec_stamp_[p * n + v] == ec_epoch_[p].
  PageVector<std::uint32_t> ec_stamp_;        // [p * n + v]
  std::vector<std::uint32_t> ec_epoch_;       // [p]
  std::vector<std::vector<NodeId>> ec_list_;  // per-proc ordered cache
  std::vector<double> ec_weight_;
  PageVector<std::uint32_t> eb_stamp_;  // [v]: blued this eval iff == epoch
  std::uint32_t eb_epoch_ = 0;
  // [v]: home group set by this evaluation (first save), else -1; reset
  // by walking eval_homes_.
  PageVector<int> home_ov_;
  std::vector<PendRec> pending_blue_;  // post_saves of the running round
  PageVector<BlueRec> eval_blued_;
  PageVector<HomeRec> eval_homes_;
  std::vector<std::int64_t> pos_;
  // Slot cost accumulators, structure-of-arrays: local index
  // (slot - first_eval_slot_) * P + p.
  PageVector<double> slot_comp_, slot_save_, slot_load_;
  PageVector<char> slot_any_;
  int first_eval_slot_ = 0;
  int num_slots_ = 0;
  int eval_cur_ = 0;  ///< round being processed / straddling slot index
  SlotRows scr_rows_;  // slots >= first_eval_slot_
  BoundaryRows scr_{async_};         // boundaries b+1 .. R_cand
  PageVector<int> scr_round_steps_;  // superstep of rounds b..R_cand-1
  int cand_rounds_ = 0;
  int cand_steps_ = 0;
  // Async: the two active slots' op lists and the flushed scratch pool
  // (slots b .. R_cand).
  std::vector<SlotOps> async_cur_, async_next_;
  OpPool scr_ops_;
  // promote_eval's rows of the re-derived rounds' blued nodes.
  PooledCsr<NodeId> promote_blued_;
  // Async finalize scratch (epoch-stamped per finalize).
  std::uint32_t async_epoch_ = 0;
  PageVector<std::uint32_t> fs_stamp_;  // [v]
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
  // The largest weight a memory-fit test of the try compared with the
  // capacity (phase A's, and every phase-B compute's before it evicts).
  double t_peak_ = 0, best_peak_ = 0;
  Segment cur_seg_, best_seg_;
  std::vector<TryJournal> t_journal_;  // the resumed entry's undo records
  // Every mu is an integer and their total is below 2^53, so weight sums
  // are exact and do not depend on the order of their terms.
  bool weights_exact_ = false;
  PlannerCounters counters_;
  std::vector<NodeId> sorted_members_;

  // effective_next_need memo: the (use, comp) lower-bound pair of node v
  // on proc p at query position `from`; live iff the stamp matches the
  // proc's epoch. Survives across moves on every processor no edit
  // touched (merges and splits move no position). One
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
  long rescan_moves_ = 0;
  std::uint32_t scan_epoch_ = 0;
  PageVector<std::uint32_t> scan_stamp_;
  std::uint32_t affected_epoch_ = 0;
  PageVector<std::uint32_t> affected_stamp_;
};

}  // namespace mbsp
