#pragma once
// A compute plan fixes the COMPUTE operations of an MBSP schedule — which
// node occurrences run on which processor, in which (BSP-level) superstep,
// in which order — while leaving every memory-management decision (loads,
// saves, deletes, the splitting into MBSP supersteps) open. It is the
// interface between stage 1 and stage 2 of the two-stage approach, and
// also the search space of the holistic LNS scheduler (which, unlike
// stage 1, may include *recomputation*: several occurrences of a node).

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/bsp/bsp_schedule.hpp"
#include "src/model/instance.hpp"

namespace mbsp {

struct PlannedCompute {
  NodeId node = kInvalidNode;
  int superstep = 0;  ///< plan-level superstep (BSP phase index)

  bool operator==(const PlannedCompute&) const = default;
};

struct ComputePlan {
  int num_procs = 1;
  /// Per processor: compute occurrences in execution order; superstep
  /// indices must be nondecreasing.
  std::vector<std::vector<PlannedCompute>> seq;

  int num_supersteps() const;
  std::size_t total_computes() const;
};

struct PlanValidation {
  bool ok = true;
  std::string error;
  explicit operator bool() const { return ok; }
};

/// Checks that the plan is realizable:
///  * occurrences only of non-source nodes, supersteps nondecreasing;
///  * every non-source node is computed at least once;
///  * each occurrence's parents are available: a source, or computed
///    earlier on the same processor in the same or earlier superstep, or
///    computed on *any* processor in a strictly earlier superstep.
PlanValidation validate_plan(const ComputeDag& dag, const ComputePlan& plan);

/// Lifts a (validated) BSP schedule to a plan (no recomputation).
ComputePlan plan_from_bsp(const ComputeDag& dag, const BspSchedule& bsp,
                          int num_procs);

/// Renumbers supersteps to 0..k-1 preserving order, dropping gaps.
void normalize_supersteps(ComputePlan& plan);

/// True when superstep indices are already dense 0..k-1 (i.e.
/// normalize_supersteps would be the identity). The incremental LNS engine
/// maintains this as an invariant so it can skip normalization entirely.
bool has_dense_supersteps(const ComputePlan& plan);

// ---------------------------------------------------------------------------
// Plan deltas: the O(delta) edit language of the incremental LNS engine.
// Every LNS move is expressed as a short sequence of PlanDeltaOps applied
// to the plan *in place*; the same ops, replayed inverted in reverse
// order, restore the plan bitwise (apply/undo instead of copy/discard).

enum class PlanDeltaOpKind {
  kInsert,     ///< insert `pc` at seq[proc][pos]
  kErase,      ///< erase seq[proc][pos] (== pc, recorded for the undo)
  kSetNode,    ///< seq[proc][pos].node: old_node -> new_node
  kMergeStep,  ///< superstep -= 1 for every occurrence at pos >= cuts[p]
  kSplitStep,  ///< superstep += 1 for every occurrence at pos >= cuts[p]
};

/// One reversible edit. The structural ops (merge/split; a gap close after
/// a move that emptied a superstep is a merge) carry per-processor cut
/// positions: by the nondecreasing-superstep invariant the affected
/// occurrences form a suffix of every processor sequence, so "shift the
/// suffix" is exact and O(suffix) to apply or undo.
struct PlanDeltaOp {
  PlanDeltaOpKind kind = PlanDeltaOpKind::kInsert;
  int proc = 0;
  std::size_t pos = 0;
  PlannedCompute pc;        ///< insert/erase payload
  NodeId old_node = kInvalidNode;  ///< kSetNode only
  std::vector<std::size_t> cuts;   ///< kMergeStep / kSplitStep only
};

/// Applies one op to the plan in place.
void apply_delta_op(ComputePlan& plan, const PlanDeltaOp& op);

/// Applies the inverse of one op (exact undo of apply_delta_op).
void undo_delta_op(ComputePlan& plan, const PlanDeltaOp& op);

// ---------------------------------------------------------------------------
// Occurrence index: per-superstep and per-(proc, node) lookups maintained
// across deltas, so the LNS move generators and the incremental evaluator
// stop scanning the plan linearly. It is the one owner of per-processor
// occurrence facts: attach builds every processor's position lists, and
// the per-(proc, node) occurrence and use counts are their run lengths.
// Every op patches the index in place (undo patches it back) instead of
// rebuilding any part of it:
//
//  * an insert, erase or set-node updates its node's counts in O(1) and
//    patches the edited processor's position lists: one sequential pass
//    over that processor's offsets and items, no recount of its sequence;
//  * a merge or split relabels supersteps without moving a position. The
//    per-node done lists are keyed by relabel-stable block ids, so a
//    relabel re-keys only the occurrences of the smaller of the two
//    blocks it joins or parts, plus O(K * P) for the per-step tables.

class PlanOccurrenceIndex {
 public:
  /// Sorted occurrence / use positions of every node on one processor,
  /// CSR-flattened. Positions refer to the current seq[p].
  /// Positions and offsets fit 32 bits (a processor's plan holds far
  /// fewer than 2^31 occurrences and parent uses).
  struct ProcPositions {
    std::vector<std::int32_t> comp_start;  ///< n+1 offsets into comp_items
    std::vector<std::int32_t> comp_items;
    std::vector<std::int32_t> use_start;   ///< n+1 offsets into use_items
    std::vector<std::int32_t> use_items;

    bool operator==(const ProcPositions&) const = default;
  };

  void attach(const ComputeDag* dag, const ComputePlan* plan);

  /// Bookkeeping around a delta op. Call on_apply *after* the op has been
  /// applied to the plan, on_undo *after* it has been undone.
  void on_apply(const PlanDeltaOp& op);
  void on_undo(const PlanDeltaOp& op);

  int num_supersteps() const { return num_supersteps_; }
  /// Total occurrences of node v across all processors.
  long node_count(NodeId v) const {
    return node_count_[static_cast<std::size_t>(v)];
  }
  /// Smallest superstep in which some occurrence of v completes (-1 when
  /// v is never computed).
  int earliest_done(NodeId v) const {
    const auto& dc = done_counts_[static_cast<std::size_t>(v)];
    return dc.empty() ? -1 : step_of_block_[static_cast<std::size_t>(
                                 dc.front().first)];
  }
  /// Global occurrence count of superstep s.
  long step_count(int s) const;
  /// Occurrence count of superstep s on processor p.
  long proc_step_count(int p, int s) const;
  /// A superstep 0..K-2 that is globally empty (-1 if none): the caller
  /// must close the gap with a kMergeStep op to keep supersteps dense.
  /// (An emptied *top* superstep is not a gap; the count tables simply
  /// shrink, matching what normalize_supersteps would do.)
  int gap_step() const;

  /// Position lists for processor p.
  const ProcPositions& proc_positions(int p) const {
    return proc_[static_cast<std::size_t>(p)];
  }
  /// Occurrences of v on p, O(1).
  std::int32_t comp_count(int p, NodeId v) const {
    const auto& start = proc_[static_cast<std::size_t>(p)].comp_start;
    return start[static_cast<std::size_t>(v) + 1] -
           start[static_cast<std::size_t>(v)];
  }
  /// Uses of v on p (occurrences of its children, per parent edge), O(1).
  std::int32_t use_count(int p, NodeId v) const {
    const auto& start = proc_[static_cast<std::size_t>(p)].use_start;
    return start[static_cast<std::size_t>(v) + 1] -
           start[static_cast<std::size_t>(v)];
  }

  /// True iff node u has an occurrence on p strictly before position pos
  /// (the add_recompute "computed locally beforehand" test, O(1)).
  bool has_local_comp_before(int p, NodeId u, std::size_t pos) const;

  /// Position of u's first use on p when no occurrence of u on p precedes
  /// it, else -1: p needs u from another processor from that position's
  /// superstep on (supersteps never decrease along a sequence).
  std::int64_t first_remote_use(int p, NodeId u) const;

  /// True iff every answer of this index — counts, done lists, superstep
  /// tables and every processor's position lists — equals that of a fresh
  /// index attached to the same plan. Tests and debug builds call it.
  bool matches_fresh_index() const;

 private:
  void build_into(int p, ProcPositions& out) const;
  void bump_done(NodeId v, int step, int delta);
  void bump_step(int p, int step, int delta);
  int take_block_id();
  void shrink_top();
  void insert_at(int p, std::size_t pos, PlannedCompute pc);
  void erase_at(int p, std::size_t pos, PlannedCompute pc);
  void set_node_at(int p, std::size_t pos, NodeId from, NodeId to);
  void edit_node(int p, std::size_t pos, NodeId v, int delta);
  /// Moves the done entries of seq[lo, hi) from step `from`'s block to
  /// step `to`'s.
  void rekey_done(const std::vector<PlannedCompute>& seq, std::size_t lo,
                  std::size_t hi, int from, int to);
  void join_steps(int s, const std::vector<std::size_t>& cuts);
  void part_step(int s, const std::vector<std::size_t>& cuts);
  void relabel_from(int s);

  const ComputeDag* dag_ = nullptr;
  const ComputePlan* plan_ = nullptr;
  int num_supersteps_ = 0;
  std::vector<long> node_count_;
  // Per-step tables, indexed by label; their size may exceed K (trailing
  // steps emptied at the top keep their zero rows).
  std::vector<long> step_count_;
  std::vector<std::vector<long>> proc_step_count_;  // [p][s]
  // Relabel-stable block ids: step s's block is block_of_step_[s], and
  // step_of_block_[id] is its current label. Freed ids are reused.
  std::vector<int> block_of_step_;
  std::vector<int> step_of_block_;
  std::vector<int> free_blocks_;
  // Per node: (block id, count) pairs over its occurrences, sorted by the
  // blocks' labels; the first entry is earliest_done. Flat vectors:
  // occurrence multiplicity per node is tiny.
  std::vector<std::vector<std::pair<int, long>>> done_counts_;
  std::vector<ProcPositions> proc_;
  std::vector<NodeId> patch_nodes_;      // edit_node scratch
  std::vector<std::size_t> part_lo_;     // part_step scratch
};

}  // namespace mbsp
