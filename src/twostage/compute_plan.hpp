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
// stop scanning the plan linearly. Counts are updated eagerly (O(1) per
// op); the heavyweight per-processor position lists are rebuilt lazily,
// only for processors whose sequence actually changed. Merges and splits
// relabel supersteps without moving a position, so they leave every
// position list current (they only mark the count tables stale).

class PlanOccurrenceIndex {
 public:
  /// Sorted occurrence / use positions of every node on one processor,
  /// CSR-flattened. Positions refer to the current seq[p]; an insert,
  /// erase or set-node op on p invalidates the view (it is rebuilt on next
  /// access).
  /// Positions and offsets fit 32 bits (a processor's plan holds far
  /// fewer than 2^31 occurrences and parent uses).
  struct ProcPositions {
    std::vector<std::int32_t> comp_start;  ///< n+1 offsets into comp_items
    std::vector<std::int32_t> comp_items;
    std::vector<std::int32_t> use_start;   ///< n+1 offsets into use_items
    std::vector<std::int32_t> use_items;
  };

  void attach(const ComputeDag* dag, const ComputePlan* plan);

  /// Eager bookkeeping around a delta op. Call on_apply *after* the op has
  /// been applied to the plan, on_undo *after* it has been undone.
  void on_apply(const PlanDeltaOp& op);
  void on_undo(const PlanDeltaOp& op);

  /// Move transaction brackets (mirroring the evaluator's): between
  /// begin_move and commit_move/rollback_move, position queries serve a
  /// candidate buffer built from the edited plan while the committed
  /// buffer stays intact — so a rollback costs nothing and the next
  /// committed query needs no rebuild.
  void begin_move();
  void commit_move();
  void rollback_move();

  /// Accessors rebuild the count tables first when a structural op left
  /// them stale (lazily, O(total occurrences)).
  int num_supersteps();
  /// Total occurrences of node v across all processors.
  long node_count(NodeId v);
  /// Smallest superstep in which some occurrence of v completes (-1 when
  /// v is never computed).
  int earliest_done(NodeId v);
  /// Global occurrence count of superstep s.
  long step_count(int s);
  /// Occurrence count of superstep s on processor p.
  long proc_step_count(int p, int s);
  /// A superstep 0..K-2 that is globally empty (-1 if none): the caller
  /// must close the gap with a kMergeStep op to keep supersteps dense.
  /// (An emptied *top* superstep is not a gap; the count tables simply
  /// shrink, matching what normalize_supersteps would do.)
  int gap_step();

  /// Position lists for processor p (rebuilt here if p is dirty).
  const ProcPositions& proc_positions(int p);

  /// True iff node u has an occurrence on p strictly before position pos
  /// (the add_recompute "computed locally beforehand" test, O(log)).
  bool has_local_comp_before(int p, NodeId u, std::size_t pos);

  /// Position of u's first use on p when no occurrence of u on p precedes
  /// it, else -1: p needs u from another processor from that position's
  /// superstep on (supersteps never decrease along a sequence). Reads p's
  /// position lists when they are current and scans seq[p] otherwise, so
  /// the query never forces a rebuild.
  std::int64_t first_remote_use(int p, NodeId u) const;

  /// Position-list rebuilds over the index's life, attaches included
  /// (benches and tests read it).
  long rebuilds() const { return rebuilds_; }

 private:
  void ensure_counts() {
    if (counts_dirty_) rebuild_counts();
  }
  void rebuild_counts();
  void rebuild_into(int p, ProcPositions& out);
  void bump_done(NodeId v, int step, int delta);
  void bump_step(int p, int step, int delta);
  void touch_proc(int p);

  const ComputeDag* dag_ = nullptr;
  const ComputePlan* plan_ = nullptr;
  int num_supersteps_ = 0;
  std::vector<long> node_count_;
  std::vector<long> step_count_;              // global, size >= K
  std::vector<std::vector<long>> proc_step_count_;  // [p][s]
  // Per node: sorted (superstep, count) pairs over its occurrences; the
  // first entry is earliest_done. Flat vectors: occurrence multiplicity
  // per node is tiny.
  std::vector<std::vector<std::pair<int, long>>> done_counts_;
  // Double-buffered position lists: `committed` reflects the plan as of
  // the last commit; `candidate` is built on demand for processors
  // edited by the in-flight move. Rollback keeps `committed` valid.
  std::vector<ProcPositions> proc_committed_, proc_candidate_;
  std::vector<char> committed_valid_, candidate_built_, proc_touched_;
  bool in_move_ = false;
  bool counts_dirty_ = true;
  long rebuilds_ = 0;
};

}  // namespace mbsp
