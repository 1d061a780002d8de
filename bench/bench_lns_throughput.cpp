// LNS throughput bench: iterations/sec of the incremental improve_plan
// versus the copy-and-reevaluate baseline (improve_plan_reference, from
// the oracle library in tests/support/) on corpus workload families with
// n >= 1000 nodes (plus one ~5000-node point to show the O(delta)
// scaling). Both loops are run with a fixed iteration count and no
// deadline, so the trajectories are deterministic and must be bitwise
// identical — the bench aborts if they are not, which doubles as an
// end-to-end differential check of the evaluation engine.
//
// It also reports how much of the plan an evaluation re-derives: an
// untimed probe replays a fixed stream of relocation moves (erase one
// occurrence, reinsert it in the same or the next superstep on a random
// processor; non-worsening moves committed) through an
// IncrementalEvaluator and averages, per evaluated move, the re-derived
// rounds over the committed rounds (mean_rederived_round_frac,
// informational).
//
//   MBSP_BENCH_LNS_ITERS     iterations per loop (default 300)
//   MBSP_BENCH_LNS_SKIP_REF  1: run only the incremental loop (profiling
//                            aid; disables the identity check and the
//                            speedup column, never set in CI)
//   MBSP_BENCH_CSV           CSV export prefix (CI uploads the artifact)
#include "bench/bench_common.hpp"

#include <cstdlib>

#include "src/bsp/greedy_scheduler.hpp"
#include "src/holistic/incremental_eval.hpp"
#include "src/holistic/lns.hpp"
#include "src/twostage/two_stage.hpp"
#include "src/util/rng.hpp"
#include "tests/support/reference_lns.hpp"

using namespace mbsp;
using namespace mbsp::bench;

namespace {

struct Case {
  const char* spec;
  double iter_scale;  ///< fraction of the base iteration count
};

const Case kCases[] = {
    {"stencil2d:nx=20,ny=20,steps=2", 1.0},  // n = 1200
    {"fft:n=128", 1.0},                      // n = 1024
    {"wavefront:nx=32,ny=32", 1.0},          // n = 1089
    {"mapreduce:maps=40,reducers=30,rounds=15", 1.0},  // n = 1090
    {"stencil2d:nx=41,ny=41,steps=2", 0.5},  // n = 5043
};

/// Mean, over evaluated (valid) probe moves, of re-derived rounds over
/// committed rounds; returns the move count through *moves.
double rederived_round_frac(const MbspInstance& inst,
                            const ComputePlan& initial,
                            const LnsOptions& options, long* moves) {
  IncrementalEvaluator eval(inst, options);
  double incumbent = eval.attach(initial);
  Rng rng(options.seed);
  double sum = 0;
  *moves = 0;
  for (long it = 0; it < options.max_iterations; ++it) {
    const ComputePlan& plan = eval.plan();
    std::size_t pick = rng.index(plan.total_computes());
    int p = 0;
    while (pick >= plan.seq[p].size()) pick -= plan.seq[p++].size();
    const PlannedCompute pc = plan.seq[p][pick];
    eval.begin_move();
    PlanDeltaOp& erase = eval.scratch_op();
    erase.kind = PlanDeltaOpKind::kErase;
    erase.proc = p;
    erase.pos = pick;
    erase.pc = pc;
    eval.apply_op(erase);
    // Reinsert in the same superstep or one later (where parents from
    // any processor are available), at a random position of that block on
    // a random processor.
    const int q = static_cast<int>(
        rng.index(static_cast<std::size_t>(plan.num_procs)));
    const auto& qseq = plan.seq[q];
    const PlannedCompute moved{pc.node,
                               pc.superstep + (rng.chance(0.5) ? 1 : 0)};
    const auto lo = std::lower_bound(
        qseq.begin(), qseq.end(), moved.superstep,
        [](const PlannedCompute& a, int s) { return a.superstep < s; });
    const auto hi = std::upper_bound(
        qseq.begin(), qseq.end(), moved.superstep,
        [](int s, const PlannedCompute& a) { return s < a.superstep; });
    PlanDeltaOp& insert = eval.scratch_op();
    insert.kind = PlanDeltaOpKind::kInsert;
    insert.proc = q;
    insert.pos = static_cast<std::size_t>(lo - qseq.begin()) +
                 rng.index(static_cast<std::size_t>(hi - lo) + 1);
    insert.pc = moved;
    const long committed = eval.committed_rounds();
    eval.apply_op(insert);
    const IncrementalEvaluator::Outcome out = eval.finish_move();
    if (out.valid && committed > 0) {
      sum += static_cast<double>(eval.last_dirty_rounds()) /
             static_cast<double>(committed);
      ++*moves;
    }
    if (out.valid && out.cost <= incumbent) {
      incumbent = out.cost;
      eval.commit();
    } else {
      eval.rollback();
    }
  }
  return *moves > 0 ? sum / static_cast<double>(*moves) : 0.0;
}

}  // namespace

int main() {
  const BenchConfig config = BenchConfig::from_env();
  const long base_iters = env_long("MBSP_BENCH_LNS_ITERS", 300);
  const bool skip_ref = env_long("MBSP_BENCH_LNS_SKIP_REF", 0) != 0;

  Table table({"workload", "n", "iterations", "baseline it/s",
               "incremental it/s", "speedup", "identical",
               "rederived frac"});
  PerfReport report("lns");
  std::vector<double> speedups;
  std::vector<double> rates;
  bool all_identical = true;
  double rederived_sum = 0;
  long rederived_moves = 0;
  for (const Case& c : kCases) {
    std::string error;
    auto dag = WorkloadRegistry::global().make_dag(c.spec, config.seed, &error);
    if (!dag) {
      std::fprintf(stderr, "cannot generate '%s': %s\n", c.spec,
                   error.c_str());
      return 1;
    }
    const MbspInstance inst = make_instance(std::move(*dag), 4, 3.0, 1, 10);
    const ComputePlan initial =
        baseline_plan(inst, BaselineKind::kGreedyClairvoyant);

    LnsOptions options;
    options.budget_ms = 0;  // no deadline: fixed, reproducible trajectories
    options.max_iterations =
        std::max<long>(1, static_cast<long>(base_iters * c.iter_scale));
    options.seed = config.seed;

    Timer fast_timer;
    const LnsResult fast = improve_plan(inst, initial, options);
    const double fast_ms = fast_timer.elapsed_ms();
    if (skip_ref) {
      std::printf("%s: %.0f it/s (reference skipped)\n", c.spec,
                  options.max_iterations * 1000.0 / fast_ms);
      continue;
    }
    Timer ref_timer;
    const LnsResult ref = improve_plan_reference(inst, initial, options);
    const double ref_ms = ref_timer.elapsed_ms();

    const bool identical = fast.cost == ref.cost &&
                           fast.accepted == ref.accepted &&
                           fast.iterations == ref.iterations &&
                           fast.plan.seq == ref.plan.seq;
    all_identical = all_identical && identical;
    const double fast_rate = options.max_iterations * 1000.0 / fast_ms;
    const double ref_rate = options.max_iterations * 1000.0 / ref_ms;
    speedups.push_back(fast_rate / ref_rate);
    rates.push_back(fast_rate);
    long moves = 0;
    const double frac = rederived_round_frac(inst, initial, options, &moves);
    rederived_sum += frac * static_cast<double>(moves);
    rederived_moves += moves;
    table.add_row({c.spec, std::to_string(inst.dag.num_nodes()),
                   std::to_string(options.max_iterations), fmt(ref_rate, 0),
                   fmt(fast_rate, 0), fmt(fast_rate / ref_rate, 2) + "x",
                   identical ? "yes" : "NO", moves > 0 ? fmt(frac, 3) : "-"});
    report.add_family(c.spec, "iters_per_sec", fast_rate);
    report.add_family(c.spec, "baseline_iters_per_sec", ref_rate);
    report.add_family(c.spec, "speedup", fast_rate / ref_rate);
    if (moves > 0) report.add_family(c.spec, "rederived_round_frac", frac);
  }
  if (skip_ref) return 0;
  emit(table,
       "LNS throughput: incremental evaluation vs copy-and-reevaluate "
       "baseline (identical results required)",
       config, "lns_throughput");
  std::printf("geomean speedup: %.2fx (acceptance target: >= 5x at n >= 1000)\n",
              geometric_mean(speedups));
  // The speedup over improve_plan_reference is machine-relative (both
  // loops run on this host), so it gates the perf trajectory; absolute
  // iteration rates track the host and stay informational.
  report.add_metric("geomean_speedup", geometric_mean(speedups),
                    /*higher_is_better=*/true, /*gated=*/true);
  report.add_metric("geomean_iters_per_sec", geometric_mean(rates),
                    /*higher_is_better=*/true, /*gated=*/false);
  // Share of the committed rounds an evaluation re-derives (pooled over
  // every probe move): the reconvergence exit's reach, not a speed.
  report.add_metric("mean_rederived_round_frac",
                    rederived_moves > 0
                        ? rederived_sum / static_cast<double>(rederived_moves)
                        : 0.0,
                    /*higher_is_better=*/false, /*gated=*/false);
  report.write();
  if (!all_identical) {
    std::fprintf(stderr,
                 "FATAL: incremental and baseline LNS results diverged\n");
    return 1;
  }
  return 0;
}
