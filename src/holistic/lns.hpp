#pragma once
// The holistic anytime scheduler: simulated-annealing large-neighbourhood
// search over ComputePlans, warm-started from the two-stage baseline — the
// role COPT plays in the paper's experiments (improve an initial solution
// within a time budget against the *true* MBSP objective). The search moves
// mirror the ILP's degrees of freedom:
//
//   * move a compute occurrence to another processor / superstep,
//   * swap occurrences between processors,
//   * merge or split supersteps,
//   * insert a recomputation (extra occurrence) to spare a load,
//   * drop a redundant occurrence.
//
// Every candidate is checked by the IncrementalEvaluator's incremental
// validator (validate_plan's rules, re-derived only for what the move
// touched); memory management is re-derived by the configured
// completion policy, and the exact synchronous or asynchronous cost of the
// resulting schedule is the objective. The returned schedule is therefore
// never worse than the warm start.
//
// ## Hot path
//
// search_plan applies each move *in place* as reversible PlanDeltaOps and
// costs it through the IncrementalEvaluator (incremental_eval.hpp): only
// the supersteps a move dirtied are re-completed and re-costed, the
// accept path keeps the applied plan (no copy), and the reject path
// undoes the delta. improve_plan is search_plan plus the one full
// completion its returned schedule needs (none when the search returns its
// warm start: attach already completed that plan); search_plan is the one
// LNS loop every production caller runs (the portfolio's epoch slices, the
// shard fan-out and repair's polish included). evaluate_plan and
// complete_memory run the same engine once, from scratch. The historical
// copy-normalize-validate-recomplete loop is kept under tests/support/ as
// improve_plan_reference: it is the bitwise oracle of the differential
// tests and the baseline of bench_lns_throughput. For a fixed seed, options
// and a warm start with dense supersteps the two return identical results;
// debug builds additionally assert, every iteration, that the incremental
// candidate cost equals a from-scratch evaluation's.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/cache/policy.hpp"
#include "src/holistic/formulation.hpp"  // CostModel
#include "src/twostage/compute_plan.hpp"
#include "src/twostage/memory_completion.hpp"

namespace mbsp {

class CompletionLog;  // src/holistic/incremental_eval.hpp

/// Bitmask naming the LNS move classes (for ablation studies).
enum LnsMove : unsigned {
  kMoveProc = 1u << 0,       ///< move an occurrence to another processor
  kMoveSuperstep = 1u << 1,  ///< shift an occurrence +-1 superstep
  kSwapProcs = 1u << 2,      ///< swap two same-superstep occurrences
  kMergeSupersteps = 1u << 3,
  kSplitSuperstep = 1u << 4,
  kAddRecompute = 1u << 5,
  kRemoveOccurrence = 1u << 6,
  kAllMoves = (1u << 7) - 1,
};

/// Number of move classes (the bit count of kAllMoves).
constexpr int kNumMoveClasses = 7;

/// Stable short name of move class index 0..kNumMoveClasses-1 (bit order:
/// proc, step, swap, merge, split, recompute, drop).
const char* lns_move_class_name(int index);

/// Parses a '+'-separated list of move-class names (or "all" / "none")
/// into a move mask; returns false on an unknown name, copying the
/// offending name into *unknown (when non-null) so CLIs can say which
/// token was wrong. '+' rather than ',' because the list is the value of
/// a scheduler spec's `moves` key (`lns:moves=proc+swap`).
bool parse_move_mask(const std::string& spec, unsigned* mask,
                     std::string* unknown = nullptr);

struct LnsOptions {
  double budget_ms = 2000;
  CostModel cost = CostModel::kSynchronous;
  bool allow_recompute = true;
  PolicyKind completion_policy = PolicyKind::kClairvoyant;
  std::uint64_t seed = 42;
  long max_iterations = 2'000'000;
  /// Start temperature of the annealing schedule (the `temp` spec key),
  /// as a multiple of one move's cost change: the mean |delta| of the
  /// search's first 64 validated proposals that change the cost. The
  /// schedule cools it geometrically to 1/1000 over the search's own
  /// effort (max_iterations; under a wall budget, whichever of it and
  /// budget_ms is further spent). 0 is greedy descent; docs/ARCHITECTURE.md
  /// says why the default is small.
  double initial_temperature_frac = 0.003;
  /// Enabled move classes; recompute moves additionally require
  /// allow_recompute. Disabling classes is for ablation benches.
  unsigned move_mask = kAllMoves;
  /// Optional per-node move mask (caller-owned, indexed by NodeId, must
  /// outlive the call). When set, occurrence-level moves (proc, step,
  /// swap, recompute, drop) only touch nodes whose mask entry is nonzero;
  /// superstep merge/split stay global (they relabel supersteps without
  /// reassigning or reordering frozen nodes). The sharded pipeline uses
  /// this to restrict the global polish to shard-boundary nodes — see
  /// docs/SCALE.md. RNG consumption is identical whether a draw is
  /// subsequently masked out or not, so masked runs stay deterministic
  /// and the reference/incremental kernels stay bitwise-aligned.
  const std::vector<char>* node_mask = nullptr;
};

/// What the search itself produces: the best plan and its cost, without
/// the completed schedule. Callers that only keep the plan (shard
/// fan-out, portfolio slices, repair's polish stages) stop here and skip
/// a full memory completion.
struct LnsSearchResult {
  ComputePlan plan;
  double cost = 0;           ///< bitwise equal to evaluate_plan(plan)
  double initial_cost = 0;   ///< cost of the warm start
  long iterations = 0;
  long accepted = 0;
  /// Per-move-class proposal / acceptance counters, indexed like
  /// lns_move_class_name. A proposal counts as soon as the class is
  /// drawn (even if the move generator produced no change); acceptances
  /// count SA-accepted candidates of that class.
  std::array<long, kNumMoveClasses> proposed_by_class{};
  std::array<long, kNumMoveClasses> accepted_by_class{};
  /// The search evaluator's work, for benches: the moves it validated and
  /// those whose validation rescanned every processor.
  long validated = 0;
  long rescan_moves = 0;
};

/// A search result plus the completed schedule of its plan.
struct LnsResult : LnsSearchResult {
  MbspSchedule schedule;  ///< completion of `plan`; `cost` is its cost
};

/// Evaluates a plan: completes memory and returns the configured cost (a
/// fresh IncrementalEvaluator's attach). With `out`, also returns the
/// completed schedule, the one complete_memory returns. Superstep labels
/// may have gaps.
double evaluate_plan(const MbspInstance& inst, const ComputePlan& plan,
                     const LnsOptions& options, MbspSchedule* out = nullptr);

/// Improves `initial` within the budget and returns the best plan and its
/// cost, never completing that plan into a schedule. `initial` must pass
/// validate_plan. A warm start with empty supersteps is searched from its
/// normalize_supersteps copy, which prices identically (the completion
/// drops empty supersteps), so initial_cost is the warm start's cost.
///
/// With `warm_log`, the warm start's completion (the attach that prices
/// it) is recorded there. The search replaces its plan only on a strict
/// improvement, so `cost == initial_cost` means the returned plan is the
/// warm start and warm_log->to_schedule() is its completion, the schedule
/// complete_memory would build, without a second completion.
LnsSearchResult search_plan(const MbspInstance& inst,
                            const ComputePlan& initial,
                            const LnsOptions& options,
                            CompletionLog* warm_log = nullptr);

/// search_plan plus one memory completion of the best plan: the same plan,
/// cost and counters, and its schedule. When the search returns its warm
/// start, the schedule is built from the completion its attach logged.
LnsResult improve_plan(const MbspInstance& inst, const ComputePlan& initial,
                       const LnsOptions& options);

}  // namespace mbsp
