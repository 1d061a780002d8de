#pragma once
// Online schedule repair (docs/REPAIR.md): the serving-path answer to
// instances that change while an incumbent schedule is live. A typed
// InstanceDelta describes how a scenario mutated — nodes arriving, edges
// retrofitted, weights drifting, processors dropping out, fast memory
// shrinking — and repair_plan() patches the incumbent ComputePlan to the
// mutated instance instead of rescheduling from scratch:
//
//   1. structural adaptation: occurrences of dropped processors are
//      relocated (order-preserving, so every same-processor dependency
//      chain survives), new non-source nodes receive occurrences, and
//      edges retrofitted into already-planned nodes trigger recompute-style
//      availability inserts — all expressed as PlanDeltaOp kInsert ops
//      applied through the PlanOccurrenceIndex, the same O(delta) edit
//      language the incremental LNS engine uses;
//   2. locality-masked polish: a search_plan run seeded from the
//      patched plan, with a node mask restricted to the delta's blast
//      radius (touched nodes plus `mask_radius` DAG hops) so the search
//      spends its budget where the instance actually changed. Machine
//      deltas reprice every superstep, so they unmask all nodes.
//
// Contracts, inherited from the LNS stack and asserted by
// tests/test_repair.cpp: the repaired plan passes validate_plan on the
// mutated instance, its reported cost is bitwise equal to a from-scratch
// evaluate_plan of the same plan (the PR 3 oracle discipline), the
// repair-then-polish result is never worse than the patched seed, and for
// budget_ms = 0 the whole pipeline is deterministic.
//
// apply_instance_delta / undo_instance_delta are an exact apply/undo pair:
// a failed apply rolls back every already-applied op, and undo restores
// the instance bitwise — adjacency orders, weights, machine vectors and
// names included.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/holistic/lns.hpp"
#include "src/model/instance.hpp"
#include "src/twostage/compute_plan.hpp"

namespace mbsp {

enum class InstanceDeltaOpKind : std::uint8_t {
  kAddNode = 0,        ///< append a node (omega, mu); ids grow densely
  kAddEdge = 1,        ///< add edge u -> v (may reference added nodes)
  kSetNodeWeight = 2,  ///< overwrite node u's (omega, mu)
  kDropProcessor = 3,  ///< remove processor `proc` from the machine
  kShrinkMemory = 4,   ///< set fast-memory capacity of `proc` (-1 = all)
};

struct InstanceDeltaOp {
  InstanceDeltaOpKind kind = InstanceDeltaOpKind::kAddNode;
  NodeId u = kInvalidNode;  ///< add_edge tail / set_node_weight target
  NodeId v = kInvalidNode;  ///< add_edge head
  double omega = 1.0;       ///< add_node / set_node_weight
  double mu = 1.0;          ///< add_node / set_node_weight
  int proc = -1;            ///< drop_processor / shrink_memory (-1 = all)
  double capacity = 0;      ///< shrink_memory

  bool operator==(const InstanceDeltaOp&) const = default;
};

/// An ordered batch of instance edits, applied transactionally. The
/// builder methods mirror the op kinds; ops referring to node ids may name
/// nodes created by earlier kAddNode ops in the same delta (ids are
/// assigned densely from the pre-delta node count).
struct InstanceDelta {
  std::vector<InstanceDeltaOp> ops;

  void add_node(double omega = 1.0, double mu = 1.0);
  void add_edge(NodeId u, NodeId v);
  void set_node_weight(NodeId u, double omega, double mu);
  void drop_processor(int proc);
  void shrink_memory(int proc, double capacity);

  bool empty() const { return ops.empty(); }
  std::size_t num_added_nodes() const;
  /// True when some op edits the machine rather than the DAG (such deltas
  /// reprice every superstep, so the repair polish runs unmasked).
  bool touches_machine() const;

  bool operator==(const InstanceDelta&) const = default;
};

/// FNV-1a digest of the op stream (kind + payload fields, little-endian),
/// chaining from `seed`. Trace hashing and the daemon's mutated-scenario
/// cache keys both build on it.
std::uint64_t instance_delta_hash(const InstanceDelta& delta,
                                  std::uint64_t seed = 14695981039346656037ull);

/// Undo record of one apply_instance_delta call. Opaque to callers beyond
/// construction-by-apply; undo_instance_delta consumes it.
struct AppliedInstanceDelta {
  struct OpUndo {
    InstanceDeltaOp op;
    bool edge_added = false;  ///< add_edge on an existing edge is a no-op
    double old_omega = 0;     ///< set_node_weight
    double old_mu = 0;
  };
  std::vector<OpUndo> ops;  ///< in apply order; undone in reverse
  /// The machine is snapshotted wholesale before its first edit: machine
  /// state is O(P), and a snapshot restore is exact by construction.
  bool machine_snapshot = false;
  Machine machine_before;
};

/// Applies `delta` to `inst` op by op. On success fills *undo (when
/// non-null) so undo_instance_delta restores `inst` exactly. On failure
/// returns false with a typed error message — naming the offending op and
/// payload, e.g. "add_edge 7->3 would create a cycle" — and rolls every
/// already-applied op back, leaving `inst` unchanged.
///
/// Rejections: out-of-range node/processor ids, self- or cycle-creating
/// edges (named by the edge), non-positive weights, dropping the last
/// processor, and shrinking any capacity below min_memory_r0 of the
/// (current) DAG — the floor below which no valid schedule exists.
///
/// Machine edits append a canonical suffix to Machine::name
/// ("#drop(2)", "#mem(1,12.5)"), so mutated scenarios key distinctly in
/// the daemon's schedule cache; undo restores the original name.
bool apply_instance_delta(MbspInstance& inst, const InstanceDelta& delta,
                          AppliedInstanceDelta* undo = nullptr,
                          std::string* error = nullptr);

/// Exact inverse of apply_instance_delta (DAG ops undone in reverse
/// order, then the machine snapshot restored).
void undo_instance_delta(MbspInstance& inst,
                         const AppliedInstanceDelta& undo);

struct RepairOptions {
  /// Polish configuration: cost model, seed, budget_ms / max_iterations
  /// (the repo's budget_ms = 0 + iteration cap convention makes the whole
  /// repair bit-reproducible). node_mask is managed by repair_plan.
  LnsOptions lns;
  /// Run the locality-masked LNS polish after patching (disable to
  /// measure the pure patch).
  bool polish = true;
  /// DAG hops around the delta's touched nodes included in the polish
  /// mask (parents and children per hop).
  int mask_radius = 1;
};

struct RepairResult {
  ComputePlan plan;       ///< repaired plan, valid on the mutated instance
  MbspSchedule schedule;  ///< completed schedule of `plan`
  double cost = 0;        ///< bitwise equal to evaluate_plan(inst, plan)
  ComputePlan patched;    ///< structurally patched seed (pre-polish)
  double patched_cost = 0;
  long polish_iterations = 0;
  std::size_t masked_nodes = 0;  ///< polish-mask population
  bool full_mask = false;        ///< machine delta: every node unmasked
};

/// Repairs `incumbent` — a valid plan for the PRE-delta instance — onto
/// the MUTATED `inst` (i.e. `delta` has already been applied to `inst`).
/// Returns nullopt with *error when the incumbent's shape contradicts the
/// delta (wrong processor count) or patching cannot produce a valid plan.
std::optional<RepairResult> repair_plan(const MbspInstance& inst,
                                        const ComputePlan& incumbent,
                                        const InstanceDelta& delta,
                                        const RepairOptions& options,
                                        std::string* error = nullptr);

}  // namespace mbsp
