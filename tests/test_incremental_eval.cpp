// Differential oracle tests for the incremental evaluation engine:
// randomized move sequences over several workload families, asserting
// after every apply AND every undo that the incremental cost equals the
// reference completer's (reference_evaluate_plan: Completer -> sync_cost)
// bitwise, and that improve_plan returns results identical to the
// preserved copy-and-reevaluate reference loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>

#include "src/bsp/greedy_scheduler.hpp"
#include "src/graph/generators.hpp"
#include "src/holistic/incremental_eval.hpp"
#include "src/holistic/lns.hpp"
#include "src/model/cost.hpp"
#include "src/model/machine_registry.hpp"
#include "src/model/validate.hpp"
#include "src/twostage/two_stage.hpp"
#include "src/util/rng.hpp"
#include "src/workload/workload_registry.hpp"
#include "tests/expect_reference.hpp"
#include "tests/recompute_plan.hpp"
#include "tests/support/reference_lns.hpp"

namespace mbsp {
namespace {

MbspInstance workload_instance(const std::string& spec, int P = 4,
                               double r_factor = 3, double g = 1,
                               double L = 10) {
  std::string error;
  auto dag = WorkloadRegistry::global().make_dag(spec, 2025, &error);
  EXPECT_TRUE(dag.has_value()) << spec << ": " << error;
  const double r0 = min_memory_r0(*dag);
  return {std::move(*dag), Architecture::make(P, r_factor * r0, g, L)};
}

ComputePlan warm_plan(const MbspInstance& inst) {
  return run_baseline(inst, BaselineKind::kGreedyClairvoyant).plan;
}

// The >= 5 workload families the differential harness runs over.
const char* kFamilies[] = {
    "stencil2d:nx=5,ny=5,steps=2",
    "fft:n=16",
    "lu:blocks=3",
    "wavefront:nx=6,ny=6",
    "mapreduce:maps=8,reducers=3",
};

/// Block [lo, hi) of superstep s in one processor sequence.
std::pair<std::size_t, std::size_t> block_of(
    const std::vector<PlannedCompute>& seq, int s) {
  const auto lo = std::lower_bound(
      seq.begin(), seq.end(), s,
      [](const PlannedCompute& a, int step) { return a.superstep < step; });
  const auto hi = std::upper_bound(
      seq.begin(), seq.end(), s,
      [](int step, const PlannedCompute& a) { return step < a.superstep; });
  return {static_cast<std::size_t>(lo - seq.begin()),
          static_cast<std::size_t>(hi - seq.begin())};
}

/// A random position of superstep s's block on seq, both ends included.
std::size_t random_pos_in_block(const std::vector<PlannedCompute>& seq, int s,
                                Rng& rng) {
  const auto [lo, hi] = block_of(seq, s);
  return lo + rng.index(hi - lo + 1);
}

void apply_edit(IncrementalEvaluator& eval, PlanDeltaOpKind kind, int proc,
                std::size_t pos, PlannedCompute pc) {
  PlanDeltaOp op;
  op.kind = kind;
  op.proc = proc;
  op.pos = pos;
  op.pc = pc;
  eval.apply_op(op);
}

/// Applies one random primitive edit inside an open move: erase a random
/// occurrence and reinsert it at a random position of the same superstep
/// block on a random processor — the core shape of every non-structural
/// move. With `shift_superstep`, the occurrence lands in the block one
/// superstep earlier, the same or one later (within the plan's range),
/// which moves earliest-done supersteps. Returns false (nothing applied)
/// on an empty plan.
bool apply_random_relocation(IncrementalEvaluator& eval, Rng& rng,
                             bool shift_superstep = false) {
  const ComputePlan& plan = eval.plan();
  const std::size_t total = plan.total_computes();
  if (total == 0) return false;
  const int top = plan.num_supersteps() - 1;
  std::size_t pick = rng.index(total);
  int p = 0;
  for (; p < plan.num_procs; ++p) {
    if (pick < plan.seq[p].size()) break;
    pick -= plan.seq[p].size();
  }
  PlannedCompute pc = plan.seq[p][pick];
  apply_edit(eval, PlanDeltaOpKind::kErase, p, pick, pc);
  const int q =
      static_cast<int>(rng.index(static_cast<std::size_t>(plan.num_procs)));
  if (shift_superstep) {
    pc.superstep =
        std::clamp(pc.superstep + static_cast<int>(rng.index(3)) - 1, 0, top);
  }
  apply_edit(eval, PlanDeltaOpKind::kInsert, q,
             random_pos_in_block(plan.seq[q], pc.superstep, rng), pc);
  return true;
}

/// Merges a random superstep with the next one (the generator's cuts:
/// the end of the superstep's block on every processor). Returns false
/// (nothing applied) when the plan has fewer than two supersteps.
bool apply_random_merge(IncrementalEvaluator& eval, Rng& rng) {
  const ComputePlan& plan = eval.plan();
  const int k = plan.num_supersteps();
  if (k < 2) return false;
  PlanDeltaOp op;
  op.kind = PlanDeltaOpKind::kMergeStep;
  op.pc.superstep = static_cast<int>(rng.index(static_cast<std::size_t>(k - 1)));
  for (const auto& seq : plan.seq) {
    op.cuts.push_back(block_of(seq, op.pc.superstep).second);
  }
  eval.apply_op(op);
  return true;
}

/// Splits a random superstep at a random cut inside its block on every
/// processor. Returns false (nothing applied) when no occurrence would
/// move.
bool apply_random_split(IncrementalEvaluator& eval, Rng& rng) {
  const ComputePlan& plan = eval.plan();
  const int k = plan.num_supersteps();
  if (k == 0) return false;
  PlanDeltaOp op;
  op.kind = PlanDeltaOpKind::kSplitStep;
  op.pc.superstep = static_cast<int>(rng.index(static_cast<std::size_t>(k)));
  bool any = false;
  for (const auto& seq : plan.seq) {
    op.cuts.push_back(random_pos_in_block(seq, op.pc.superstep, rng));
    any = any || op.cuts.back() < seq.size();
  }
  if (!any) return false;
  eval.apply_op(op);
  return true;
}

/// Empties a random superstep below the top: each of its occurrences moves
/// to a random position of the previous or next superstep's block on a
/// random processor, so finish_move must close the gap with a merge.
/// Returns false (nothing applied) when the plan has one superstep.
bool apply_random_step_emptying(IncrementalEvaluator& eval, Rng& rng) {
  const ComputePlan& plan = eval.plan();
  const int k = plan.num_supersteps();
  if (k < 2) return false;
  const int s = static_cast<int>(rng.index(static_cast<std::size_t>(k - 1)));
  std::vector<PlannedCompute> moved;
  for (int p = 0; p < plan.num_procs; ++p) {
    const auto [lo, hi] = block_of(plan.seq[p], s);
    for (std::size_t i = hi; i-- > lo;) {
      moved.push_back(plan.seq[p][i]);
      apply_edit(eval, PlanDeltaOpKind::kErase, p, i, moved.back());
    }
  }
  for (PlannedCompute pc : moved) {
    pc.superstep = s > 0 && rng.chance(0.5) ? s - 1 : s + 1;
    const int q =
        static_cast<int>(rng.index(static_cast<std::size_t>(plan.num_procs)));
    apply_edit(eval, PlanDeltaOpKind::kInsert, q,
               random_pos_in_block(plan.seq[q], pc.superstep, rng), pc);
  }
  return true;
}

/// The move shapes differential_run drives; each takes its own path
/// through the incremental validator (incremental_eval.hpp, "Validation").
enum class MoveShape {
  kRelocate,        ///< apply_random_relocation within one superstep
  kShiftSuperstep,  ///< relocation to the previous, same or next superstep
  kMerge,           ///< a lone merge (every third move a lone split)
  kSplit,           ///< a lone split
  kGapClose,        ///< a shifted relocation, then a step emptied and closed
  kSplitWithEdit,   ///< a split, then a shifted relocation (full rescan)
};

bool apply_random_move(IncrementalEvaluator& eval, Rng& rng, MoveShape shape) {
  switch (shape) {
    case MoveShape::kRelocate: return apply_random_relocation(eval, rng);
    case MoveShape::kShiftSuperstep:
      return apply_random_relocation(eval, rng, /*shift_superstep=*/true);
    case MoveShape::kMerge:
      // A greedy warm start rarely admits a merge (each of its superstep
      // boundaries carries a remote need); splits make some that do.
      return rng.index(3) == 0 ? apply_random_split(eval, rng)
                               : apply_random_merge(eval, rng);
    case MoveShape::kSplit: return apply_random_split(eval, rng);
    case MoveShape::kGapClose:
      if (!apply_random_relocation(eval, rng, true)) return false;
      apply_random_step_emptying(eval, rng);
      return true;
    case MoveShape::kSplitWithEdit:
      return apply_random_split(eval, rng) &&
             apply_random_relocation(eval, rng, true);
  }
  return false;
}

/// Verdict counts of one differential_run, and the evaluator's moves that
/// fell back to rescanning every processor.
struct RunStats {
  long valid = 0, invalid = 0, rescans = 0;
};

/// Runs `iterations` random moves of one shape through the evaluator,
/// asserting incremental == full cost after every apply and every undo,
/// and that every move's validity verdict equals validate_plan's.
void differential_run(const MbspInstance& inst, const LnsOptions& options,
                      long iterations, std::uint64_t seed,
                      MoveShape shape = MoveShape::kRelocate,
                      RunStats* stats = nullptr) {
  const ComputePlan initial = warm_plan(inst);
  ASSERT_TRUE(has_dense_supersteps(initial));
  ASSERT_TRUE(validate_plan(inst.dag, initial).ok);

  IncrementalEvaluator eval(inst, options);
  const double attach_cost = eval.attach(initial);
  EXPECT_EQ(attach_cost, reference_evaluate_plan(inst, initial, options))
      << inst.name() << ": attach cost differs from the oracle";

  // Drive the evaluator with the same move generators improve_plan uses,
  // via improve_plan itself being compared against the reference below;
  // here we additionally exercise explicit apply/undo cycles with raw
  // ops so undo is covered even for rejected/invalid candidates.
  Rng rng(seed);
  long applied = 0, undone = 0;
  for (long it = 0; it < iterations; ++it) {
    const ComputePlan before = eval.plan();
    eval.begin_move();
    if (!apply_random_move(eval, rng, shape)) {
      eval.rollback();
      continue;
    }

    const auto out = eval.finish_move();
    ASSERT_EQ(out.valid, validate_plan(inst.dag, eval.plan()).ok)
        << inst.name() << " shape " << static_cast<int>(shape) << " iteration "
        << it << ": incremental validity verdict differs from validate_plan";
    if (stats != nullptr) ++(out.valid ? stats->valid : stats->invalid);
    if (out.valid) {
      // Incremental cost must equal the oracle on the applied plan.
      const double full =
          reference_evaluate_plan(inst, eval.plan(), options);
      ASSERT_EQ(out.cost, full)
          << inst.name() << " iteration " << it
          << ": incremental cost diverged from the reference";
    }
    if (out.valid && rng.chance(0.5)) {
      eval.commit();
      ++applied;
    } else {
      eval.rollback();
      ++undone;
      // Undo must restore the plan bitwise, and the evaluator must again
      // agree with the oracle on the restored plan.
      ASSERT_EQ(eval.plan().seq, before.seq)
          << inst.name() << " iteration " << it << ": undo did not restore";
    }
    // After every apply and every undo: committed state still matches the
    // oracle (exercised through a cheap follow-up no-op evaluation).
    eval.begin_move();
    const auto noop = eval.finish_move();
    (void)noop;
    eval.rollback();
  }
  // Some instances rarely admit valid random edits; require only that the
  // harness exercised the undo path, and the apply path where possible.
  EXPECT_GT(applied + undone, 0) << inst.name();
  EXPECT_GT(undone, 0) << inst.name();
  if (stats != nullptr) stats->rescans += eval.rescan_moves();
}

TEST(IncrementalEval, DifferentialOverWorkloadFamilies) {
  // Relocations across superstep blocks raise and lower earliest-done
  // supersteps, which untouched processors' remote needs must see.
  for (const bool shift_superstep : {false, true}) {
    for (const char* spec : kFamilies) {
      const MbspInstance inst = workload_instance(spec);
      LnsOptions options;
      RunStats stats;
      differential_run(inst, options, 120, 7,
                       shift_superstep ? MoveShape::kShiftSuperstep
                                       : MoveShape::kRelocate,
                       &stats);
      // Edits, and edits closed by one gap-closing merge, never rescan.
      EXPECT_EQ(stats.rescans, 0) << spec;
    }
  }
}

TEST(IncrementalEval, UntouchedProcessorRemoteNeeds) {
  // Three processors: v is computed on p0 in superstep 0 and used on p2 in
  // supersteps 1 (by w) and 2 (by y); p1 keeps superstep 0 occupied. The
  // move recomputes v on p0 in superstep 1, which touches p0 only. Without
  // a local v, p2's first use now sees v done no earlier than its own
  // superstep: the move is invalid, though the last use alone would be
  // fine. With p2 computing v before its first use, the move is valid.
  ComputeDag dag("untouched-need");
  const NodeId s = dag.add_node(1, 1);
  const NodeId v = dag.add_node(1, 1);
  const NodeId x = dag.add_node(1, 1);
  const NodeId w = dag.add_node(1, 1);
  const NodeId y = dag.add_node(1, 1);
  dag.add_edge(s, v);
  dag.add_edge(s, x);
  dag.add_edge(v, w);
  dag.add_edge(v, y);
  const MbspInstance inst{std::move(dag), Architecture::make(3, 16, 1, 10)};
  for (const bool p2_computes_v : {false, true}) {
    ComputePlan plan;
    plan.num_procs = 3;
    plan.seq = {{{v, 0}}, {{x, 0}}, {{w, 1}, {y, 2}}};
    if (p2_computes_v) plan.seq[2].insert(plan.seq[2].begin(), {v, 1});
    ASSERT_TRUE(validate_plan(inst.dag, plan).ok);
    LnsOptions options;
    IncrementalEvaluator eval(inst, options);
    eval.attach(plan);
    eval.begin_move();
    PlanDeltaOp op;
    op.kind = PlanDeltaOpKind::kErase;
    op.proc = 0;
    op.pos = 0;
    op.pc = {v, 0};
    eval.apply_op(op);
    op.kind = PlanDeltaOpKind::kInsert;
    op.pc = {v, 1};
    eval.apply_op(op);
    const auto out = eval.finish_move();
    EXPECT_EQ(out.valid, p2_computes_v);
    EXPECT_EQ(validate_plan(inst.dag, eval.plan()).ok, p2_computes_v);
    if (out.valid) {
      EXPECT_EQ(out.cost, reference_evaluate_plan(inst, eval.plan(), options));
    }
    eval.rollback();
    EXPECT_EQ(eval.plan().seq, plan.seq);
  }
}

TEST(IncrementalEval, DeltaValidatorMatchesValidatePlanPerMoveShape) {
  // Each structural shape takes its own validator path: a lone merge
  // checks the consumers it moved into the merged step, a lone split is
  // valid by construction, edits closed by a gap-closing merge check the
  // changed nodes without the earliest-done rise shortcut, and a split
  // with edits rescans every processor. Every verdict must equal
  // validate_plan's (differential_run asserts it per move).
  for (const MoveShape shape : {MoveShape::kMerge, MoveShape::kSplit,
                                MoveShape::kGapClose,
                                MoveShape::kSplitWithEdit}) {
    RunStats total;
    for (const char* spec : kFamilies) {
      const MbspInstance inst = workload_instance(spec);
      LnsOptions options;
      RunStats stats;
      differential_run(inst, options, 80, 29, shape, &stats);
      total.valid += stats.valid;
      total.invalid += stats.invalid;
      total.rescans += stats.rescans;
    }
    const int label = static_cast<int>(shape);
    if (shape == MoveShape::kSplit) {
      EXPECT_EQ(total.invalid, 0) << "a lone split is valid by construction";
    } else {
      EXPECT_GT(total.invalid, 0) << "shape " << label;
    }
    EXPECT_GT(total.valid, 0) << "shape " << label;
    if (shape == MoveShape::kSplitWithEdit) {
      EXPECT_EQ(total.rescans, total.valid + total.invalid);
    }
  }
}

TEST(IncrementalEval, GapCloseHidesAnEarliestDoneRise) {
  // v is done in superstep 1 on p0 and used on p1 in superstep 2. The move
  // lifts x, superstep 0's only occupant, into superstep 1 and v into
  // superstep 2: v's earliest done rises to its consumer's superstep. The
  // gap-closing merge then relabels both down by one, so v's earliest done
  // equals its committed value although the use broke: the earliest-done
  // rise shortcut must not apply to a move with a merge. Lifting x alone
  // is valid.
  ComputeDag dag("gap-close-rise");
  const NodeId src = dag.add_node(1, 1);
  const NodeId x = dag.add_node(1, 1);
  const NodeId v = dag.add_node(1, 1);
  const NodeId w = dag.add_node(1, 1);
  dag.add_edge(src, x);
  dag.add_edge(src, v);
  dag.add_edge(v, w);
  const MbspInstance inst{std::move(dag), Architecture::make(2, 16, 1, 10)};
  ComputePlan plan;
  plan.num_procs = 2;
  plan.seq = {{{x, 0}, {v, 1}}, {{w, 2}}};
  ASSERT_TRUE(validate_plan(inst.dag, plan).ok);
  for (const bool lift_v : {false, true}) {
    LnsOptions options;
    IncrementalEvaluator eval(inst, options);
    eval.attach(plan);
    eval.begin_move();
    PlanDeltaOp op;
    op.proc = 0;
    op.kind = PlanDeltaOpKind::kErase;
    op.pos = 0;
    op.pc = {x, 0};
    eval.apply_op(op);
    op.kind = PlanDeltaOpKind::kInsert;
    op.pc = {x, 1};
    eval.apply_op(op);
    if (lift_v) {
      op.kind = PlanDeltaOpKind::kErase;
      op.pos = 1;
      op.pc = {v, 1};
      eval.apply_op(op);
      op.kind = PlanDeltaOpKind::kInsert;
      op.pc = {v, 2};
      eval.apply_op(op);
    }
    const auto out = eval.finish_move();
    EXPECT_EQ(eval.plan().seq[0][0].superstep, 0) << "the gap was not closed";
    EXPECT_EQ(out.valid, !lift_v);
    EXPECT_EQ(validate_plan(inst.dag, eval.plan()).ok, !lift_v);
    eval.rollback();
    EXPECT_EQ(eval.plan().seq, plan.seq);
  }
}

}  // namespace

/// Reaches the evaluator's lookahead memo, save_required bits and move log
/// (declared a friend there).
struct IncrementalEvaluatorPeer {
  /// The query point of every live memo entry of processor p, by node.
  static std::vector<std::pair<NodeId, std::int64_t>> live_memo(
      const IncrementalEvaluator& eval, int p) {
    std::vector<std::pair<NodeId, std::int64_t>> out;
    for (std::size_t v = 0; v < eval.n_; ++v) {
      const auto& e = eval.nn_[static_cast<std::size_t>(p) * eval.n_ + v];
      if (e.stamp == eval.nn_epoch_[static_cast<std::size_t>(p)]) {
        out.push_back({static_cast<NodeId>(v), e.from});
      }
    }
    return out;
  }
  /// The memoized lookahead: next_need_refill keeps each side of a live
  /// entry that still lies at or after `from`, as effective_next_need's
  /// inline hit path does.
  static std::int64_t memo_next_need(IncrementalEvaluator& eval, int p,
                                     NodeId v, std::int64_t from) {
    return eval.next_need_refill(p, eval.index().proc_positions(p), v, from);
  }
  /// The maintained save_required bit of every node.
  static std::vector<char> save_required(const IncrementalEvaluator& eval) {
    return {eval.save_req_.begin(), eval.save_req_.end()};
  }
  /// The ops applied since begin_move, in apply order.
  static std::vector<PlanDeltaOp> applied_ops(const IncrementalEvaluator& eval) {
    return {eval.delta_ops_.begin(),
            eval.delta_ops_.begin() +
                static_cast<std::ptrdiff_t>(eval.delta_size_)};
  }

  /// The committed state a reconvergence splice rewrites that
  /// checkpoint_digest leaves out. Home groups are -1 wherever the blue
  /// round is not valid (never blued), since only the valid ones are read.
  struct SplicedState {
    std::vector<int> blue_round, home_group, step_first_round;
    std::vector<std::int64_t> blued_start;
    std::vector<NodeId> blued_nodes;
    std::vector<double> row_prefix;  // compute, io, sync per slot
  };
  static SplicedState spliced_state(const IncrementalEvaluator& eval) {
    SplicedState out;
    out.blue_round.assign(eval.blue_round_.begin(), eval.blue_round_.end());
    for (std::size_t v = 0; v < eval.n_; ++v) {
      out.home_group.push_back(eval.blue_round_[v] == INT_MAX
                                   ? -1
                                   : eval.home_group_[v]);
    }
    out.step_first_round.assign(eval.step_first_round_.begin(),
                                eval.step_first_round_.end());
    out.blued_start.assign(eval.blued_.start.begin(), eval.blued_.start.end());
    out.blued_nodes.assign(eval.blued_.items.begin(), eval.blued_.items.end());
    for (const SyncCostBreakdown& bd : eval.row_prefix_) {
      out.row_prefix.insert(out.row_prefix.end(), {bd.compute, bd.io, bd.sync});
    }
    return out;
  }

  /// Sets every epoch counter to its largest value, so that its next bump
  /// wraps: the five uint32 overlays (try, with its winner's copy; segment;
  /// eval cache per processor; eval blue; next-need memo per processor) and
  /// the validator's scan, the affected-node and the async finalize
  /// counters.
  static void saturate_epochs(IncrementalEvaluator& eval) {
    const auto saturate = [](auto& epoch) {
      using Epoch = std::remove_reference_t<decltype(epoch)>;
      epoch = std::numeric_limits<Epoch>::max();
    };
    saturate(eval.t_epoch_);
    saturate(eval.best_epoch_);
    saturate(eval.s_epoch_);
    for (auto& epoch : eval.ec_epoch_) saturate(epoch);
    saturate(eval.eb_epoch_);
    for (auto& epoch : eval.nn_epoch_) saturate(epoch);
    saturate(eval.scan_epoch_);
    saturate(eval.affected_epoch_);
    saturate(eval.async_epoch_);
  }
  /// Every counter saturate_epochs sets, by name, with whether it still
  /// sits at its largest value (has not wrapped). The try overlay counts
  /// as wrapped once either copy has, the next-need memo once any
  /// processor's has.
  static std::vector<std::pair<std::string, bool>> unwrapped_epochs(
      const IncrementalEvaluator& eval) {
    const auto at_max = [](const auto& epoch) {
      return epoch ==
             std::numeric_limits<std::remove_cvref_t<decltype(epoch)>>::max();
    };
    std::vector<std::pair<std::string, bool>> out = {
        {"segment", at_max(eval.s_epoch_)},
        {"eval blue", at_max(eval.eb_epoch_)},
        {"scan", at_max(eval.scan_epoch_)},
        {"affected", at_max(eval.affected_epoch_)},
        {"try", at_max(eval.t_epoch_) && at_max(eval.best_epoch_)},
        {"next need",
         std::all_of(eval.nn_epoch_.begin(), eval.nn_epoch_.end(), at_max)},
    };
    for (std::size_t p = 0; p < eval.ec_epoch_.size(); ++p) {
      out.push_back(
          {"eval cache " + std::to_string(p), at_max(eval.ec_epoch_[p])});
    }
    if (eval.async_) out.push_back({"async", at_max(eval.async_epoch_)});
    return out;
  }
};

namespace {

/// next_need_refill's answer from scratch: v's first use on p at or after
/// `from`, unless p recomputes v first (then, or with no use, never).
std::int64_t fresh_next_need(const PlanOccurrenceIndex::ProcPositions& pp,
                             NodeId v, std::int64_t from) {
  const auto first_from = [&](const std::vector<std::int32_t>& start,
                              const std::vector<std::int32_t>& items) {
    const auto lo = items.begin() + start[static_cast<std::size_t>(v)];
    const auto hi = items.begin() + start[static_cast<std::size_t>(v) + 1];
    const auto it = std::lower_bound(lo, hi, from);
    return it == hi ? INT64_MAX : static_cast<std::int64_t>(*it);
  };
  const std::int64_t use = first_from(pp.use_start, pp.use_items);
  const std::int64_t comp = first_from(pp.comp_start, pp.comp_items);
  return comp < use ? INT64_MAX : use;
}

TEST(IncrementalEval, RelabelsKeepPositionListsAndLookahead) {
  // Merges and splits relabel supersteps without moving a position, so
  // they must leave every processor's position lists and lookahead memo
  // in place: after each such move, committed or rolled back, the lists
  // equal a fresh index's and every live memo entry answers like a fresh
  // lookup.
  const MbspInstance inst = workload_instance(kFamilies[4]);
  LnsOptions options;
  IncrementalEvaluator eval(inst, options);
  eval.attach(warm_plan(inst));
  const int P = inst.arch.num_processors;
  Rng rng(5);
  long merges = 0, splits = 0, commits = 0, rollbacks = 0, probes = 0;
  for (int it = 0; it < 120; ++it) {
    const bool merge = rng.chance(0.5);
    eval.begin_move();
    if (!(merge ? apply_random_merge(eval, rng)
                : apply_random_split(eval, rng))) {
      eval.rollback();
      continue;
    }
    ++(merge ? merges : splits);
    const auto out = eval.finish_move();
    ASSERT_EQ(out.valid, validate_plan(inst.dag, eval.plan()).ok) << it;
    if (out.valid && rng.chance(0.5)) {
      eval.commit();
      ++commits;
    } else {
      eval.rollback();
      ++rollbacks;
    }
    ComputePlan copy = eval.plan();
    PlanOccurrenceIndex fresh;
    fresh.attach(&inst.dag, &copy);
    for (int p = 0; p < P; ++p) {
      const auto& kept = eval.index().proc_positions(p);
      const auto& rebuilt = fresh.proc_positions(p);
      ASSERT_EQ(kept.comp_start, rebuilt.comp_start) << it << " proc " << p;
      ASSERT_EQ(kept.comp_items, rebuilt.comp_items) << it << " proc " << p;
      ASSERT_EQ(kept.use_start, rebuilt.use_start) << it << " proc " << p;
      ASSERT_EQ(kept.use_items, rebuilt.use_items) << it << " proc " << p;
      for (const auto& [v, from] : IncrementalEvaluatorPeer::live_memo(eval, p)) {
        for (const std::int64_t at : {from, from + 1}) {
          ASSERT_EQ(IncrementalEvaluatorPeer::memo_next_need(eval, p, v, at),
                    fresh_next_need(rebuilt, v, at))
              << it << " proc " << p << " node " << v << " from " << at;
          ++probes;
        }
      }
    }
  }
  EXPECT_GT(merges, 10);
  EXPECT_GT(splits, 10);
  EXPECT_GT(commits, 5);
  EXPECT_GT(rollbacks, 5);
  EXPECT_GT(probes, 0);
}

TEST(IncrementalEval, DifferentialTinyDataset) {
  auto dataset = tiny_dataset(2025);
  for (int index : {0, 3, 6, 9}) {
    ComputeDag dag = std::move(dataset[index]);
    const double r0 = min_memory_r0(dag);
    const MbspInstance inst{std::move(dag), Architecture::make(4, 3 * r0, 1, 10)};
    LnsOptions options;
    differential_run(inst, options, 80, 11);
  }
}

/// The acceptance criterion: improve_plan must return a bitwise-identical
/// LnsResult to the preserved copy-and-reevaluate reference for fixed
/// seed and options.
void expect_identical_results(const MbspInstance& inst,
                              const LnsOptions& options) {
  const ComputePlan initial = warm_plan(inst);
  const LnsResult fast = improve_plan(inst, initial, options);
  const LnsResult ref = improve_plan_reference(inst, initial, options);
  EXPECT_EQ(fast.cost, ref.cost) << inst.name();
  EXPECT_EQ(fast.initial_cost, ref.initial_cost) << inst.name();
  EXPECT_EQ(fast.iterations, ref.iterations) << inst.name();
  EXPECT_EQ(fast.accepted, ref.accepted) << inst.name();
  EXPECT_EQ(fast.proposed_by_class, ref.proposed_by_class) << inst.name();
  EXPECT_EQ(fast.accepted_by_class, ref.accepted_by_class) << inst.name();
  ASSERT_EQ(fast.plan.num_procs, ref.plan.num_procs) << inst.name();
  EXPECT_EQ(fast.plan.seq, ref.plan.seq) << inst.name();
  EXPECT_EQ(fast.schedule.num_supersteps(), ref.schedule.num_supersteps())
      << inst.name();
  const auto valid = validate(inst, fast.schedule);
  EXPECT_TRUE(valid.ok) << inst.name() << ": " << valid.error;
}

TEST(IncrementalEval, ImprovePlanMatchesReference) {
  for (const char* spec : kFamilies) {
    const MbspInstance inst = workload_instance(spec);
    LnsOptions options;
    options.budget_ms = 0;  // no deadline: fixed iteration count
    options.max_iterations = 1500;
    options.seed = 13;
    expect_identical_results(inst, options);
  }
}

TEST(IncrementalEval, ImprovePlanMatchesReferenceTinyDatasetLong) {
  // Long runs on small instances reach deep into the move space (e.g.
  // erasing the lone occurrence of a processor's first superstep — a
  // dirty-bound edge case caught by exactly this configuration).
  auto dataset = tiny_dataset(2025);
  for (int index : {1, 5, 8}) {
    ComputeDag dag = std::move(dataset[index]);
    const double r0 = min_memory_r0(dag);
    const MbspInstance inst{std::move(dag),
                            Architecture::make(4, 3 * r0, 1, 10)};
    LnsOptions options;
    options.budget_ms = 0;
    options.max_iterations = 6000;
    options.seed = 42;
    expect_identical_results(inst, options);
  }
}

TEST(IncrementalEval, ImprovePlanMatchesReferenceVariedArch) {
  for (int P : {2, 8}) {
    const MbspInstance inst = workload_instance(kFamilies[3], P, 2.0);
    LnsOptions options;
    options.budget_ms = 0;
    options.max_iterations = 1200;
    options.seed = 99;
    expect_identical_results(inst, options);
  }
}

TEST(IncrementalEval, ImprovePlanMatchesReferenceAsyncAndLru) {
  const MbspInstance inst = workload_instance(kFamilies[0]);
  {
    LnsOptions options;
    options.budget_ms = 0;
    options.max_iterations = 600;
    options.cost = CostModel::kAsynchronous;
    expect_identical_results(inst, options);
  }
  {
    LnsOptions options;
    options.budget_ms = 0;
    options.max_iterations = 600;
    options.completion_policy = PolicyKind::kLru;
    expect_identical_results(inst, options);
  }
}

TEST(IncrementalEval, ImprovePlanMatchesReferenceLruTightMemory) {
  // Tight memories keep many values cached across rounds, so moves often
  // rejoin the committed run while an affected node's LRU key still names
  // an edited occurrence; the reconvergence exit must refuse those
  // boundaries (these configurations diverge from the reference when it
  // does not).
  auto dataset = tiny_dataset(2025);
  for (int index : {5, 7}) {
    ComputeDag dag = std::move(dataset[index]);
    const double r0 = min_memory_r0(dag);
    const MbspInstance inst{std::move(dag),
                            Architecture::make(4, 1.5 * r0, 1, 10)};
    LnsOptions options;
    options.budget_ms = 0;
    options.max_iterations = 4000;
    options.seed = 42 + index;
    options.cost = CostModel::kAsynchronous;
    options.completion_policy = PolicyKind::kLru;
    expect_identical_results(inst, options);
  }
}

TEST(IncrementalEval, ImprovePlanMatchesReferenceMoveMasks) {
  const MbspInstance inst = workload_instance(kFamilies[1]);
  for (unsigned mask :
       {kAllMoves & ~(kMergeSupersteps | kSplitSuperstep),
        unsigned(kMoveProc | kSwapProcs), unsigned(kMergeSupersteps),
        kAllMoves & ~(kAddRecompute | kRemoveOccurrence)}) {
    LnsOptions options;
    options.budget_ms = 0;
    options.max_iterations = 800;
    options.move_mask = mask;
    expect_identical_results(inst, options);
  }
}

/// Heterogeneous 4-processor machine: mixed speeds and memories, two
/// communication groups with asymmetric transfer costs.
Machine hetero_machine(double r0) {
  Machine m = Machine::make(4, 3 * r0, 1, 10);
  m.speeds = {1.0, 2.0, 1.0, 0.5};
  m.memories = {3 * r0, 4 * r0, 3 * r0, 5 * r0};
  m.group_of = {0, 0, 1, 1};
  m.g_in = 1;
  m.g_out = 3;
  m.L_group = 2;
  return m;
}

TEST(IncrementalEval, ImprovePlanMatchesReferenceHeteroMachine) {
  std::string error;
  for (CostModel cost : {CostModel::kSynchronous, CostModel::kAsynchronous}) {
    auto dag = WorkloadRegistry::global().make_dag(kFamilies[0], 2025, &error);
    ASSERT_TRUE(dag.has_value()) << error;
    const double r0 = min_memory_r0(*dag);
    const MbspInstance inst{std::move(*dag), hetero_machine(r0)};
    LnsOptions options;
    options.budget_ms = 0;
    options.max_iterations = 600;
    options.cost = cost;
    options.seed = 31;
    expect_identical_results(inst, options);
  }
}

TEST(IncrementalEval, ImprovePlanMatchesReferenceTightMemory) {
  // At rf = 1 nearly every segment evicts upfront and hoists, and dead
  // values tie on their next use, so the victim orders' id tie-breaks
  // decide: every machine kind under both policies and cost models.
  for (const char* spec : {"uniform:P=4,rf=1",
                           "hetero:P=4,mems=1x2+2x2,rf=1,speeds=1x2+2x2",
                           "numa:gin=1,gout=4,groups=2x2,mems=1x3+2x1,rf=1"}) {
    std::string error;
    auto dag = WorkloadRegistry::global().make_dag(
        "stencil2d:nx=5,ny=4,steps=3", 2025, &error);
    ASSERT_TRUE(dag.has_value()) << error;
    auto machine = MachineRegistry::global().make_machine(
        spec, min_memory_r0(*dag), &error);
    ASSERT_TRUE(machine.has_value()) << spec << ": " << error;
    const MbspInstance inst{std::move(*dag), std::move(*machine)};
    for (CostModel cost : {CostModel::kSynchronous, CostModel::kAsynchronous}) {
      for (PolicyKind policy : {PolicyKind::kClairvoyant, PolicyKind::kLru}) {
        SCOPED_TRACE(std::string(spec) + " cost=" +
                     std::to_string(static_cast<int>(cost)) + " policy=" +
                     std::to_string(static_cast<int>(policy)));
        LnsOptions options;
        options.budget_ms = 0;
        options.max_iterations = 800;
        options.seed = 17;
        options.cost = cost;
        options.completion_policy = policy;
        expect_identical_results(inst, options);
      }
    }
  }
}

/// save_required from scratch, Completer::precompute's rule: sinks always;
/// otherwise used on some processor that is not v's only computing one.
std::vector<char> fresh_save_required(const ComputeDag& dag,
                                      const ComputePlan& plan) {
  const std::size_t n = static_cast<std::size_t>(dag.num_nodes());
  const std::size_t P = static_cast<std::size_t>(plan.num_procs);
  std::vector<char> comp(P * n, 0), used(P * n, 0);
  for (std::size_t p = 0; p < P; ++p) {
    for (const PlannedCompute& pc : plan.seq[p]) {
      comp[p * n + static_cast<std::size_t>(pc.node)] = 1;
      for (NodeId u : dag.parents(pc.node)) {
        used[p * n + static_cast<std::size_t>(u)] = 1;
      }
    }
  }
  std::vector<char> out(n, 0);
  for (std::size_t v = 0; v < n; ++v) {
    const NodeId node = static_cast<NodeId>(v);
    if (dag.is_source(node)) continue;
    int computing = 0;
    for (std::size_t p = 0; p < P; ++p) computing += comp[p * n + v];
    bool req = dag.is_sink(node);
    for (std::size_t p = 0; p < P; ++p) {
      req = req || (used[p * n + v] && (computing > 1 || !comp[p * n + v]));
    }
    out[v] = req ? 1 : 0;
  }
  return out;
}

/// One random occurrence-level or structural move inside an open move:
/// a relocation (possibly to a neighbouring superstep), a swap of two
/// occurrences' nodes, a recompute insert (a copy of an occurrence on a
/// random processor, same superstep), a drop of a recomputed occurrence,
/// a merge or a split. Returns false (nothing applied) when the drawn
/// shape does not apply.
bool apply_random_occurrence_move(IncrementalEvaluator& eval, Rng& rng) {
  const ComputePlan& plan = eval.plan();
  const std::size_t total = plan.total_computes();
  if (total == 0) return false;
  const auto random_occurrence = [&] {
    std::size_t pick = rng.index(total);
    int p = 0;
    while (pick >= plan.seq[static_cast<std::size_t>(p)].size()) {
      pick -= plan.seq[static_cast<std::size_t>(p)].size();
      ++p;
    }
    return std::pair{p, pick};
  };
  const auto random_proc = [&] {
    return static_cast<int>(rng.index(static_cast<std::size_t>(plan.num_procs)));
  };
  switch (rng.index(6)) {
    case 0: return apply_random_relocation(eval, rng, rng.chance(0.5));
    case 1: {
      const auto [p, i] = random_occurrence();
      const auto [q, j] = random_occurrence();
      const NodeId a = plan.seq[static_cast<std::size_t>(p)][i].node;
      const NodeId b = plan.seq[static_cast<std::size_t>(q)][j].node;
      if (a == b) return false;
      PlanDeltaOp op;
      op.kind = PlanDeltaOpKind::kSetNode;
      op.proc = p;
      op.pos = i;
      op.old_node = a;
      op.pc = {b, plan.seq[static_cast<std::size_t>(p)][i].superstep};
      eval.apply_op(op);
      op.proc = q;
      op.pos = j;
      op.old_node = b;
      op.pc = {a, plan.seq[static_cast<std::size_t>(q)][j].superstep};
      eval.apply_op(op);
      return true;
    }
    case 2: {
      const auto [p, i] = random_occurrence();
      const PlannedCompute pc = plan.seq[static_cast<std::size_t>(p)][i];
      const int q = random_proc();
      apply_edit(eval, PlanDeltaOpKind::kInsert, q,
                 random_pos_in_block(plan.seq[static_cast<std::size_t>(q)],
                                     pc.superstep, rng),
                 pc);
      return true;
    }
    case 3: {
      const auto [p, i] = random_occurrence();
      const PlannedCompute pc = plan.seq[static_cast<std::size_t>(p)][i];
      if (eval.index().node_count(pc.node) < 2) return false;
      apply_edit(eval, PlanDeltaOpKind::kErase, p, i, pc);
      return true;
    }
    case 4: return apply_random_merge(eval, rng);
    default: return apply_random_split(eval, rng);
  }
}

TEST(IncrementalEval, SaveRequiredMatchesAFreshDerivation) {
  // save_required is maintained per move from the occurrence index's
  // counts and restored from a saved copy on rollback. After every
  // finish_move, commit and rollback, each node's bit must equal the rule
  // evaluated on the current plan from scratch. Every move is first rolled
  // back, then re-applied and committed (when valid), so both paths see
  // every move.
  long moves = 0, flips = 0, commits = 0;
  for (const char* spec : {kFamilies[0], kFamilies[1]}) {
    for (const bool hetero : {false, true}) {
      for (const CostModel cost :
           {CostModel::kSynchronous, CostModel::kAsynchronous}) {
        const std::string where = std::string(spec) +
                                  (hetero ? " hetero" : " uniform") +
                                  (cost == CostModel::kSynchronous ? " sync"
                                                                   : " async");
        std::string error;
        auto dag = WorkloadRegistry::global().make_dag(spec, 2025, &error);
        ASSERT_TRUE(dag.has_value()) << error;
        const double r0 = min_memory_r0(*dag);
        const MbspInstance inst{
            std::move(*dag), hetero ? hetero_machine(r0)
                                    : Architecture::make(4, 3 * r0, 1, 10)};
        const ComputePlan plan =
            with_local_recomputes(inst.dag, warm_plan(inst));
        ASSERT_TRUE(validate_plan(inst.dag, plan).ok) << where;
        LnsOptions options;
        options.cost = cost;
        IncrementalEvaluator eval(inst, options);
        eval.attach(plan);
        const auto expect_fresh = [&](const std::string& when) {
          ASSERT_EQ(IncrementalEvaluatorPeer::save_required(eval),
                    fresh_save_required(inst.dag, eval.plan()))
              << where << ": " << when;
        };
        expect_fresh("attach");
        Rng rng(13);
        for (int it = 0; it < 150; ++it) {
          const std::string at = "move " + std::to_string(it);
          const std::vector<char> before =
              IncrementalEvaluatorPeer::save_required(eval);
          eval.begin_move();
          if (!apply_random_occurrence_move(eval, rng)) {
            eval.rollback();
            continue;
          }
          const std::vector<PlanDeltaOp> ops =
              IncrementalEvaluatorPeer::applied_ops(eval);
          eval.finish_move();
          expect_fresh(at + " finish_move");
          ++moves;
          flips += IncrementalEvaluatorPeer::save_required(eval) != before;
          eval.rollback();
          expect_fresh(at + " rollback");
          eval.begin_move();
          for (const PlanDeltaOp& op : ops) eval.apply_op(op);
          const auto out = eval.finish_move();
          expect_fresh(at + " finish_move again");
          if (out.valid) {
            eval.commit();
            ++commits;
            expect_fresh(at + " commit");
          } else {
            eval.rollback();
            expect_fresh(at + " second rollback");
          }
          if (HasFatalFailure()) return;
        }
      }
    }
  }
  EXPECT_GT(moves, 400);
  EXPECT_GT(flips, 20);
  EXPECT_GT(commits, 50);
}

TEST(IncrementalEval, EpochWrapKeepsCostsAndVerdicts) {
  // Every epoch-stamped overlay and counter is pushed to its largest value
  // every 20 moves, so each wraps inside the move stream: the wrap must
  // zero the stamps, or a stale one aliases the restarted epoch and a move
  // reads another evaluation's overlay entry.
  const MbspInstance inst =
      workload_instance("stencil2d:nx=5,ny=5,steps=2", 4, /*r_factor=*/2);
  for (CostModel cost : {CostModel::kSynchronous, CostModel::kAsynchronous}) {
    for (PolicyKind policy : {PolicyKind::kClairvoyant, PolicyKind::kLru}) {
      LnsOptions options;
      options.cost = cost;
      options.completion_policy = policy;
      const std::string config =
          "cost=" + std::to_string(static_cast<int>(cost)) +
          " policy=" + std::to_string(static_cast<int>(policy));
      IncrementalEvaluator eval(inst, options);
      eval.attach(warm_plan(inst));
      Rng rng(31);
      long valid = 0;
      // Each window of 20 moves must wrap every counter it saturated.
      const auto expect_wrapped = [&](int it) {
        for (const auto& [name, unwrapped] :
             IncrementalEvaluatorPeer::unwrapped_epochs(eval)) {
          EXPECT_FALSE(unwrapped) << config << " before move " << it << ": "
                                  << name << " epoch did not wrap";
        }
      };
      for (int it = 0; it < 160; ++it) {
        if (it % 20 == 0) {
          if (it > 0) expect_wrapped(it);
          IncrementalEvaluatorPeer::saturate_epochs(eval);
        }
        eval.begin_move();
        if (!apply_random_occurrence_move(eval, rng)) {
          eval.rollback();
          continue;
        }
        const auto out = eval.finish_move();
        ASSERT_EQ(out.valid, validate_plan(inst.dag, eval.plan()).ok)
            << config << " move " << it;
        if (out.valid) {
          ASSERT_EQ(out.cost,
                    reference_evaluate_plan(inst, eval.plan(), options))
              << config << " move " << it;
          ++valid;
        }
        if (out.valid && rng.chance(0.5)) {
          eval.commit();
        } else {
          eval.rollback();
        }
      }
      expect_wrapped(160);
      EXPECT_GT(valid, 20) << config;
    }
  }
}

TEST(IncrementalEval, AsyncAndLruTakeIncrementalPath) {
  // Async cost and LRU eviction must run through the O(dirty) incremental
  // path, not a full-evaluation fallback: local moves re-derive strictly
  // fewer rounds than the committed total (while still matching the
  // oracle bitwise — checked by differential_run's per-move asserts).
  for (auto [cost, policy] :
       {std::pair{CostModel::kAsynchronous, PolicyKind::kClairvoyant},
        std::pair{CostModel::kSynchronous, PolicyKind::kLru},
        std::pair{CostModel::kAsynchronous, PolicyKind::kLru}}) {
    // A deep round structure (13 rounds over 4 supersteps) so a tail-local
    // move has room to leave a strict prefix of rounds untouched.
    const MbspInstance inst = workload_instance("stencil2d:nx=8,ny=8,steps=4");
    LnsOptions options;
    options.cost = cost;
    options.completion_policy = policy;
    const ComputePlan initial = warm_plan(inst);
    IncrementalEvaluator eval(inst, options);
    eval.attach(initial);
    // Touch the last occurrence of the highest processor: a tail-local
    // move whose dirty suffix must not span the whole plan.
    long partial = 0;
    Rng rng(5);
    for (int it = 0; it < 40; ++it) {
      const ComputePlan& plan = eval.plan();
      int p = plan.num_procs - 1;
      while (p >= 0 && plan.seq[p].empty()) --p;
      ASSERT_GE(p, 0);
      const std::size_t pos = plan.seq[p].size() - 1;
      const PlannedCompute pc = plan.seq[p][pos];
      eval.begin_move();
      PlanDeltaOp erase;
      erase.kind = PlanDeltaOpKind::kErase;
      erase.proc = p;
      erase.pos = pos;
      erase.pc = pc;
      eval.apply_op(erase);
      PlanDeltaOp insert;
      insert.kind = PlanDeltaOpKind::kInsert;
      insert.proc = p;
      insert.pos = pos;
      insert.pc = pc;
      eval.apply_op(insert);
      const auto out = eval.finish_move();
      if (out.valid) {
        EXPECT_EQ(out.cost,
                  reference_evaluate_plan(inst, eval.plan(), options));
        if (eval.last_dirty_rounds() < eval.committed_rounds()) ++partial;
      }
      eval.rollback();
      (void)rng;
    }
    EXPECT_GT(partial, 0)
        << "cost=" << static_cast<int>(cost)
        << " policy=" << static_cast<int>(policy)
        << ": every move re-derived the full round sequence";
    // And the full differential harness agrees move-by-move.
    differential_run(inst, options, 80, 17);
  }
}

TEST(IncrementalEval, MergeSplitHeavyStress) {
  // Structural moves dominate: stresses the merge/split dirty-bound
  // analysis (pure relabels, crossing occurrences, label-shift fixups).
  const MbspInstance inst = workload_instance(kFamilies[4]);
  LnsOptions options;
  options.budget_ms = 0;
  options.max_iterations = 2500;
  options.move_mask = kMergeSupersteps | kSplitSuperstep | kMoveSuperstep;
  options.seed = 77;
  expect_identical_results(inst, options);
}

TEST(IncrementalEval, ZeroLengthSuffixAfterTopSuperstepErase) {
  // Erasing the lone occupant of the top superstep shrinks the superstep
  // count to exactly the dirty bound: the re-evaluation suffix is empty
  // (regression: this used to write a checkpoint past the end).
  ComputeDag dag("top-erase");
  const NodeId s0 = dag.add_node(1, 1);
  const NodeId v = dag.add_node(2, 1);
  dag.add_edge(s0, v);
  const MbspInstance inst{std::move(dag), Architecture::make(2, 8, 1, 10)};
  ComputePlan plan;
  plan.num_procs = 2;
  plan.seq.resize(2);
  plan.seq[0].push_back({v, 0});
  plan.seq[1].push_back({v, 1});  // duplicate occurrence, top superstep
  ASSERT_TRUE(validate_plan(inst.dag, plan).ok);

  LnsOptions options;
  IncrementalEvaluator eval(inst, options);
  eval.attach(plan);
  eval.begin_move();
  PlanDeltaOp erase;
  erase.kind = PlanDeltaOpKind::kErase;
  erase.proc = 1;
  erase.pos = 0;
  erase.pc = {v, 1};
  eval.apply_op(erase);
  const auto out = eval.finish_move();
  ASSERT_TRUE(out.valid);
  EXPECT_EQ(out.cost, reference_evaluate_plan(inst, eval.plan(), options));
  eval.commit();
  // The committed state must still evaluate correctly afterwards.
  eval.begin_move();
  PlanDeltaOp back;
  back.kind = PlanDeltaOpKind::kInsert;
  back.proc = 1;
  back.pos = 0;
  back.pc = {v, 1};
  eval.apply_op(back);
  const auto redo = eval.finish_move();
  ASSERT_TRUE(redo.valid);
  EXPECT_EQ(redo.cost, reference_evaluate_plan(inst, eval.plan(), options));
  eval.rollback();
}

TEST(IncrementalEval, ReconvergenceExitSkipsTheCommittedTail) {
  // A move in the first superstep of a deep plan disturbs the completion
  // for a few rounds only: the evaluation must rejoin the committed run
  // and stop there. The dirty suffix of such a move is the whole plan, so
  // without the exit every move would re-derive all committed rounds.
  const MbspInstance inst = workload_instance("stencil2d:nx=8,ny=8,steps=12");
  LnsOptions options;
  IncrementalEvaluator eval(inst, options);
  eval.attach(warm_plan(inst));
  long moves = 0;
  for (int p = 0; p < inst.arch.num_processors; ++p) {
    const auto& seq = eval.plan().seq[p];
    // Superstep 0's block on p: move its first occurrence to the end.
    std::size_t end = 0;
    while (end < seq.size() && seq[end].superstep == 0) ++end;
    if (end < 2) continue;
    const PlannedCompute pc = seq[0];
    eval.begin_move();
    PlanDeltaOp erase;
    erase.kind = PlanDeltaOpKind::kErase;
    erase.proc = p;
    erase.pos = 0;
    erase.pc = pc;
    eval.apply_op(erase);
    PlanDeltaOp insert;
    insert.kind = PlanDeltaOpKind::kInsert;
    insert.proc = p;
    insert.pos = end - 1;
    insert.pc = pc;
    eval.apply_op(insert);
    const auto out = eval.finish_move();
    if (out.valid) {
      EXPECT_EQ(out.cost, reference_evaluate_plan(inst, eval.plan(), options));
      EXPECT_LT(2 * eval.last_dirty_rounds(), eval.committed_rounds())
          << "processor " << p << ": the evaluation did not rejoin the "
          << "committed run";
      ++moves;
    }
    eval.rollback();
  }
  EXPECT_GT(moves, 0) << "no valid first-superstep move";
}

TEST(IncrementalEval, SaveRequiredFlipKeepsReconvergenceExit) {
  // v is computed and consumed on p0 only, so it needs no save. Moving its
  // consumer c to p1 makes v save-required; moving c back clears the bit
  // again. Both moves disturb two rounds of a 30-superstep plan: the
  // evaluation must rejoin the committed run after them, not re-derive
  // the whole suffix, and still price the plan exactly.
  constexpr int kSteps = 30;
  ComputeDag dag("save-required-flip");
  const NodeId src = dag.add_node(1, 1);
  const NodeId v = dag.add_node(1, 1);
  const NodeId c = dag.add_node(1, 1);
  dag.add_edge(src, v);
  dag.add_edge(v, c);
  ComputePlan plan;
  plan.num_procs = 2;
  plan.seq.resize(2);
  plan.seq[0].push_back({v, 0});
  for (int p = 0; p < 2; ++p) {
    NodeId prev = src;
    for (int k = 0; k < kSteps; ++k) {
      const NodeId f = dag.add_node(1, 1);
      dag.add_edge(prev, f);
      if (p == 0 && k == 1) plan.seq[0].push_back({c, 1});
      plan.seq[static_cast<std::size_t>(p)].push_back({f, k});
      prev = f;
    }
  }
  const MbspInstance inst{std::move(dag), Architecture::make(2, 16, 1, 10)};
  ASSERT_TRUE(validate_plan(inst.dag, plan).ok);
  for (auto [cost, policy] :
       {std::pair{CostModel::kSynchronous, PolicyKind::kClairvoyant},
        std::pair{CostModel::kAsynchronous, PolicyKind::kClairvoyant},
        std::pair{CostModel::kSynchronous, PolicyKind::kLru},
        std::pair{CostModel::kAsynchronous, PolicyKind::kLru}}) {
    LnsOptions options;
    options.cost = cost;
    options.completion_policy = policy;
    IncrementalEvaluator eval(inst, options);
    eval.attach(plan);
    // (from proc, position of c) -> (to proc, insert position): off v's
    // processor (right after p1's superstep-0 entry), then back.
    const std::pair<std::pair<int, std::size_t>, std::pair<int, std::size_t>>
        moves[] = {{{0, 2}, {1, 1}}, {{1, 1}, {0, 2}}};
    for (const auto& [from, to] : moves) {
      eval.begin_move();
      apply_edit(eval, PlanDeltaOpKind::kErase, from.first, from.second,
                 {c, 1});
      apply_edit(eval, PlanDeltaOpKind::kInsert, to.first, to.second, {c, 1});
      const auto out = eval.finish_move();
      ASSERT_TRUE(out.valid);
      EXPECT_TRUE(eval.last_move_flipped()) << "c to p" << to.first;
      EXPECT_EQ(out.cost, evaluate_plan(inst, eval.plan(), options));
      EXPECT_EQ(out.cost, reference_evaluate_plan(inst, eval.plan(), options));
      EXPECT_LT(4 * eval.last_dirty_rounds(), eval.committed_rounds())
          << "c to p" << to.first << ": the evaluation did not rejoin the "
          << "committed run";
      eval.commit();
    }
    EXPECT_EQ(eval.plan().seq, plan.seq);
  }
}

TEST(IncrementalEval, CommitHeavyDifferentialAcrossConfigs) {
  // Accepting every valid move makes nearly every commit splice a reused
  // committed tail into the state the next move starts from. Release
  // builds compile out the per-move oracle assert and the checkpoint
  // verifier, so the drift a wrong splice leaves is caught here: every
  // cost against the reference, then a fresh evaluator attached to the
  // final plan must hold the same checkpoint rows and price the same next
  // moves identically.
  std::string error;
  auto dag = WorkloadRegistry::global().make_dag("stencil2d:nx=4,ny=4,steps=5",
                                                 2025, &error);
  ASSERT_TRUE(dag.has_value()) << error;
  const double r0 = min_memory_r0(*dag);
  // Tight memories (1.5-2.5 r0) split supersteps into many rounds.
  auto numa = MachineRegistry::global().make_machine(
      "numa:groups=2x2,gin=1,gout=4,rf=1.5", r0, &error);
  ASSERT_TRUE(numa.has_value()) << error;
  const std::pair<const char*, Machine> machines[] = {
      {"uniform", Architecture::make(4, 1.5 * r0, 1, 10)},
      {"hetero", hetero_machine(0.5 * r0)},
      {"numa", *numa}};
  for (const auto& [label, machine] : machines) {
    const MbspInstance inst{*dag, machine};
    for (CostModel cost : {CostModel::kSynchronous, CostModel::kAsynchronous}) {
      for (PolicyKind policy : {PolicyKind::kClairvoyant, PolicyKind::kLru}) {
        LnsOptions options;
        options.cost = cost;
        options.completion_policy = policy;
        const std::string config = std::string(label) + " cost=" +
                                   std::to_string(static_cast<int>(cost)) +
                                   " policy=" +
                                   std::to_string(static_cast<int>(policy));
        IncrementalEvaluator eval(inst, options);
        eval.attach(warm_plan(inst));
        Rng rng(101);
        long committed = 0;
        for (long it = 0; it < 2000; ++it) {
          eval.begin_move();
          ASSERT_TRUE(apply_random_relocation(eval, rng));
          const auto out = eval.finish_move();
          if (!out.valid) {
            eval.rollback();
            continue;
          }
          ASSERT_EQ(out.cost,
                    reference_evaluate_plan(inst, eval.plan(), options))
              << config << " move " << it;
          eval.commit();
          ++committed;
        }
        EXPECT_GT(committed, 100) << config;
        // The spliced state must equal a fresh attach's, row for row, and
        // price moves exactly like it. The long-lived evaluator's scratch
        // sits at its high-water mark while the fresh one's starts empty,
        // so a decision that read stale spare capacity shows up here.
        IncrementalEvaluator fresh(inst, options);
        fresh.attach(eval.plan());
        ASSERT_EQ(eval.checkpoint_digest(), fresh.checkpoint_digest())
            << config;
        // The rest of the spliced state, which the digest does not cover.
        const auto spliced = IncrementalEvaluatorPeer::spliced_state(eval);
        const auto attached = IncrementalEvaluatorPeer::spliced_state(fresh);
        EXPECT_EQ(spliced.blue_round, attached.blue_round) << config;
        EXPECT_EQ(spliced.home_group, attached.home_group) << config;
        EXPECT_EQ(spliced.blued_start, attached.blued_start) << config;
        EXPECT_EQ(spliced.blued_nodes, attached.blued_nodes) << config;
        EXPECT_EQ(spliced.row_prefix, attached.row_prefix) << config;
        EXPECT_EQ(spliced.step_first_round, attached.step_first_round)
            << config;
        Rng rng_a(202), rng_b(202);
        for (int it = 0; it < 50; ++it) {
          eval.begin_move();
          fresh.begin_move();
          ASSERT_TRUE(apply_random_relocation(eval, rng_a));
          ASSERT_TRUE(apply_random_relocation(fresh, rng_b));
          const auto a = eval.finish_move();
          const auto b = fresh.finish_move();
          ASSERT_EQ(a.valid, b.valid) << config << " probe " << it;
          if (a.valid) ASSERT_EQ(a.cost, b.cost) << config << " probe " << it;
          eval.rollback();
          fresh.rollback();
        }
      }
    }
  }
}

// Pins the evaluator's completion decisions, not just its costs: attach
// every plan of Completion.MatchesHistoricalScheduleDigests' grid under
// both policies and both cost models and digest the committed checkpoint
// rows. The cost differentials cannot see another victim at equal cost
// or a reordered cache row; these digests can. Recorded before the
// segment planner took its per-segment upfront-eviction order and its
// deferred post phase.
TEST(IncrementalEval, AttachMatchesHistoricalCheckpointDigests) {
  // Tight memories, so nearly every segment evicts upfront and hoists.
  constexpr const char* kUniform = "uniform:P=4,rf=1";
  constexpr const char* kHetero = "hetero:P=4,mems=1x2+2x2,rf=1,speeds=1x2+2x2";
  constexpr const char* kNuma = "numa:gin=1,gout=4,groups=2x2,mems=1x3+2x1,rf=1.2";
  struct Golden {
    const char* workload;
    bool recompute;
    const char* machine;
    // sync clairvoyant, sync LRU, async clairvoyant, async LRU
    std::uint64_t digest[4];
  };
  const Golden goldens[] = {
      {"stencil2d:nx=5,ny=4,steps=3", false, kUniform,
       {0x9d4370ddf2935273ull, 0x20bd7b33e02407beull, 0x0160070cb1a9d0d5ull,
        0x3c3d0e8b7a13a738ull}},
      {"stencil2d:nx=5,ny=4,steps=3", false, kHetero,
       {0x706cca6626fcb3c6ull, 0xa73470439ae30da6ull, 0x497767cb31232b1bull,
        0x3753205cf3865d3dull}},
      {"stencil2d:nx=5,ny=4,steps=3", false, kNuma,
       {0xa0effa6c35838583ull, 0xfd40318b4e772347ull, 0x0ad467a55afaee04ull,
        0xe6c321e83e265630ull}},
      {"fft:n=16", false, kUniform,
       {0xb3a8241d6147741aull, 0xd09108adc7155327ull, 0x46493c56745043e2ull,
        0xc90c2368d2b93445ull}},
      {"fft:n=16", false, kHetero,
       {0xb0bdd399974234bdull, 0xd1a9d9d6c4228918ull, 0x92b7c85c35205e37ull,
        0x89fb42cc10cee4f0ull}},
      {"fft:n=16", false, kNuma,
       {0x3e1a873591b2f13cull, 0x9ea63d5dc545e688ull, 0x4f4326f36b31013full,
        0x67f25d7d0f6aab0bull}},
      {"wavefront:nx=6,ny=6", false, kUniform,
       {0x4e58446db5633d07ull, 0xa977f843ec015c9bull, 0x7ca300f6e5ef4131ull,
        0xe79aa8a7d8092811ull}},
      {"wavefront:nx=6,ny=6", false, kHetero,
       {0x4e58446db5633d07ull, 0xa977f843ec015c9bull, 0x7ca300f6e5ef4131ull,
        0xe79aa8a7d8092811ull}},
      {"wavefront:nx=6,ny=6", false, kNuma,
       {0x71c60dd74c684992ull, 0xa6e06fbbd7020307ull, 0xca43c7bae3d7e6bbull,
        0x12f2acc3d5679c51ull}},
      {"spmv", false, kUniform,
       {0xadf3cede4587136bull, 0xadf3cede4587136bull, 0xef768e8e08a8445full,
        0x8e8962cb3bdb918full}},
      {"spmv", false, kHetero,
       {0xe95fcea685da580full, 0x232506591e77b33aull, 0x41aa195c762e6e20ull,
        0x0c73fe8e26a94cfbull}},
      {"spmv", false, kNuma,
       {0x8ae4a7db1a2af54eull, 0x12eea3f26c9b4d5full, 0xe15479cc977f9f4dull,
        0x56b97958cab232c5ull}},
      {"lu:blocks=4", false, kUniform,
       {0x8b7e343af07646e2ull, 0x96dc94debc2d7c90ull, 0xa80ffa7eebcab1ceull,
        0x480ab6029af49b2bull}},
      {"lu:blocks=4", false, kHetero,
       {0x8b7e343af07646e2ull, 0x96dc94debc2d7c90ull, 0xa80ffa7eebcab1ceull,
        0x480ab6029af49b2bull}},
      {"lu:blocks=4", false, kNuma,
       {0x3e8bd7e1733cb8f6ull, 0xde8ca113eee41e97ull, 0xbc96fdaf66ede7d5ull,
        0x5a0d58ad00386b69ull}},
      {"attention", false, kUniform,
       {0x25c2b981deb265f6ull, 0x87710064cd682f1dull, 0xe2e72177d617a338ull,
        0x488e1cad8c4ab4a0ull}},
      {"attention", false, kHetero,
       {0x9bc19214f4c93a78ull, 0xa9aac39dec2f4b5dull, 0xb0cab4731c54ed3bull,
        0x5c0265c74c339abbull}},
      {"attention", false, kNuma,
       {0x0df40ea81b04f20dull, 0xa4cd6750c4483a02ull, 0xe6b2d4d7457c01c5ull,
        0x3bf8d21f25dd1b14ull}},
      {"stencil2d:nx=5,ny=4,steps=3", true, kUniform,
       {0x88b21845eaba8191ull, 0xe48e4d65e114726full, 0xec8c528a77bb0396ull,
        0x4c679824d08371a0ull}},
      {"stencil2d:nx=5,ny=4,steps=3", true, kHetero,
       {0xc02ca89a6b212001ull, 0xd548b8491e9e9fafull, 0xe4b1d5d399cbaac2ull,
        0xf11c04e29705144bull}},
      {"stencil2d:nx=5,ny=4,steps=3", true, kNuma,
       {0x9d30cd7693715174ull, 0xc9566dd222a161c0ull, 0x3e0f7340f93fe8f7ull,
        0x7ade9512be2c9192ull}},
      {"fft:n=16", true, kUniform,
       {0xc31da3f852097b68ull, 0x42fd14b080fa1f13ull, 0x270525e15b711f6eull,
        0x9294ef9580c31c41ull}},
      {"fft:n=16", true, kHetero,
       {0xa0f43278fca2fbd3ull, 0x25c3c510f59a3b98ull, 0x977529eac057e374ull,
        0x570b12a50eb74d85ull}},
      {"fft:n=16", true, kNuma,
       {0x1b651821c5a03630ull, 0xd62a5acebe5c2a94ull, 0x370043d299de02acull,
        0x47f7a2d97ce93c60ull}},
  };
  for (const Golden& g : goldens) {
    std::string error;
    auto dag = WorkloadRegistry::global().make_dag(g.workload, 2025, &error);
    ASSERT_TRUE(dag.has_value()) << g.workload << ": " << error;
    auto machine = MachineRegistry::global().make_machine(
        g.machine, min_memory_r0(*dag), &error);
    ASSERT_TRUE(machine.has_value()) << g.machine << ": " << error;
    const MbspInstance inst{std::move(*dag), std::move(*machine)};
    GreedyBspScheduler stage1;
    ComputePlan plan = plan_from_bsp(
        inst.dag, stage1.schedule(inst.dag, inst.arch), inst.arch.num_processors);
    if (g.recompute) plan = with_local_recomputes(inst.dag, plan);
    ASSERT_TRUE(validate_plan(inst.dag, plan).ok) << g.workload;
    int column = 0;
    for (CostModel cost : {CostModel::kSynchronous, CostModel::kAsynchronous}) {
      for (PolicyKind policy : {PolicyKind::kClairvoyant, PolicyKind::kLru}) {
        LnsOptions options;
        options.cost = cost;
        options.completion_policy = policy;
        IncrementalEvaluator eval(inst, options);
        EXPECT_EQ(eval.attach(plan),
                  reference_evaluate_plan(inst, plan, options));
        const std::uint64_t digest = eval.checkpoint_digest();
        EXPECT_EQ(digest, g.digest[column])
            << g.workload << (g.recompute ? "+recompute" : "") << " on "
            << g.machine << " column " << column << ": 0x" << std::hex
            << digest << std::dec;
        ++column;
      }
    }
  }
}

// The segment planner resumes a try from the previous try's state when
// its guard proves a replay of the prefix would repeat it, and replays
// otherwise. Loose memories make most later tries resume; memories near
// r0 make tries evict, so the guard falls back. Fractional weights leave
// only the resumes without new loads. Every completion must still equal
// the reference completer's, op for op, and both paths must have run.
// The reference's schedules and costs do not show the weights' last bits,
// so the fractional plans' checkpoint digests, recorded before tries
// resumed, pin the order of the weight sums too.
TEST(IncrementalEval, ResumedTriesMatchReferenceCompleter) {
  struct FractionalDigest {
    const char* rf;
    int seed;
    // sync clairvoyant, sync LRU, async clairvoyant, async LRU
    std::uint64_t digest[4];
  };
  const FractionalDigest fractional_digests[] = {
      {"4", 2, {0x851b9afe863d3459ull, 0x851b9afe863d3459ull,
                0x6797ed453743d535ull, 0x6797ed453743d535ull}},
      {"4", 5, {0xea1726421276c3a4ull, 0xea1726421276c3a4ull,
                0x5cb2f3fc3219a851ull, 0x5cb2f3fc3219a851ull}},
      {"1.2", 2, {0xa2f8ec6aa12c0d8full, 0x5cfa5d1c87942ad5ull,
                  0x4fba88e85fd2cb23ull, 0xb665c93513624c22ull}},
      {"1.2", 5, {0x5e6d177892d1a2b9ull, 0xcecc75b5f141e0cfull,
                  0xef855d3f1f01684full, 0x48f2c08fa21dc297ull}},
  };
  const char* machines[] = {
      "uniform:P=4,rf=%",
      "hetero:P=4,mems=1x2+2x2,rf=%,speeds=1x2+2x2",
      "numa:gin=1,gout=4,groups=2x2,mems=1x3+2x1,rf=%",
  };
  for (const char* rf : {"4", "1.2", "1"}) {
    for (int seed = 0; seed < 6; ++seed) {
      Rng rng(static_cast<std::uint64_t>(500 + seed));
      ComputeDag dag = random_layered_dag(40 + 8 * seed, 5, rng);
      assign_random_memory_weights(dag, rng);
      const bool fractional = seed % 3 == 2;
      if (fractional) {
        for (NodeId v = 0; v < dag.num_nodes(); ++v) {
          dag.set_mu(v, dag.mu(v) + 0.3);
        }
      }
      std::string spec = machines[seed % 3];
      spec.replace(spec.find('%'), 1, rf);
      std::string error;
      auto machine = MachineRegistry::global().make_machine(
          spec, min_memory_r0(dag), &error);
      ASSERT_TRUE(machine.has_value()) << spec << ": " << error;
      const MbspInstance inst{std::move(dag), std::move(*machine)};
      GreedyBspScheduler stage1;
      ComputePlan plan = plan_from_bsp(inst.dag,
                                       stage1.schedule(inst.dag, inst.arch),
                                       inst.arch.num_processors);
      for (bool recompute : {false, true}) {
        if (recompute) plan = with_local_recomputes(inst.dag, plan);
        ASSERT_TRUE(validate_plan(inst.dag, plan).ok);
        const std::string label = spec + " seed " + std::to_string(seed) +
                                  (fractional ? " fractional" : "") +
                                  (recompute ? " +recompute" : "");
        const IncrementalEvaluator::PlannerCounters c =
            expect_matches_reference(inst, plan, label);
        const long later = c.tries - c.segments;
        const long replayed = later - c.resumed_tries;
        EXPECT_GT(c.resumed_tries, 0) << label;
        if (rf[0] == '1') EXPECT_GT(replayed, 0) << label;
        for (const FractionalDigest& d : fractional_digests) {
          if (!fractional || recompute || std::string(d.rf) != rf ||
              d.seed != seed) {
            continue;
          }
          int column = 0;
          for (CostModel cost :
               {CostModel::kSynchronous, CostModel::kAsynchronous}) {
            for (PolicyKind policy :
                 {PolicyKind::kClairvoyant, PolicyKind::kLru}) {
              LnsOptions options;
              options.cost = cost;
              options.completion_policy = policy;
              IncrementalEvaluator eval(inst, options);
              eval.attach(plan);
              EXPECT_EQ(eval.checkpoint_digest(), d.digest[column])
                  << label << " column " << column;
              ++column;
            }
          }
        }
      }
    }
  }
}

TEST(IncrementalEval, MoveMaskParsing) {
  unsigned mask = 0;
  EXPECT_TRUE(parse_move_mask("all", &mask));
  EXPECT_EQ(mask, kAllMoves);
  EXPECT_TRUE(parse_move_mask("proc+swap", &mask));
  EXPECT_EQ(mask, kMoveProc | kSwapProcs);
  EXPECT_TRUE(parse_move_mask("merge+split+drop", &mask));
  EXPECT_EQ(mask, kMergeSupersteps | kSplitSuperstep | kRemoveOccurrence);
  EXPECT_TRUE(parse_move_mask("none", &mask));
  EXPECT_EQ(mask, 0u);
  EXPECT_FALSE(parse_move_mask("bogus", &mask));
}

TEST(IncrementalEval, MoveMaskParseErrorNamesUnknownToken) {
  unsigned mask = 0;
  std::string unknown;
  EXPECT_FALSE(parse_move_mask("bogus", &mask, &unknown));
  EXPECT_EQ(unknown, "bogus");
  // The first unknown token of a mixed list is the one reported.
  EXPECT_FALSE(parse_move_mask("proc+stepp+swap", &mask, &unknown));
  EXPECT_EQ(unknown, "stepp");
  // A trailing separator parses as an empty (ignored) item, not an error.
  EXPECT_TRUE(parse_move_mask("proc+", &mask, &unknown));
  EXPECT_EQ(mask, kMoveProc);
}

TEST(IncrementalEval, SyncCostTableMatchesBreakdown) {
  const MbspInstance inst = workload_instance(kFamilies[2]);
  const TwoStageResult base =
      run_baseline(inst, BaselineKind::kGreedyClairvoyant);
  const auto table = sync_cost_table(inst, base.mbsp);
  EXPECT_EQ(static_cast<int>(table.size()), base.mbsp.num_supersteps());
  const SyncCostBreakdown sum = sum_sync_cost_table(table, inst.arch.L);
  const SyncCostBreakdown direct = sync_cost_breakdown(inst, base.mbsp);
  EXPECT_EQ(sum.compute, direct.compute);
  EXPECT_EQ(sum.io, direct.io);
  EXPECT_EQ(sum.sync, direct.sync);
  EXPECT_EQ(sum.total(), sync_cost(inst, base.mbsp));
}

}  // namespace
}  // namespace mbsp
