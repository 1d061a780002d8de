// Portfolio LNS bench: cost-at-budget of the K-worker portfolio versus the
// single-worker LNS at the SAME per-worker iteration budget (workers run
// concurrently, so this is the wall-clock-fair comparison) across corpus
// workload families. Runs are iteration-capped (budget_ms = 0), so every
// number is deterministic and CI-stable.
//
// Two portfolio configurations per family:
//  * epochs = 1: every worker is an independent solo run; worker 0 runs
//    the base seed, so the portfolio can never be worse than the single-
//    worker LNS — the bench aborts if it is (structural guarantee).
//  * epochs = 4: incumbent exchange at three barriers in between.
//
//   MBSP_BENCH_PORTFOLIO_ITERS   per-worker iterations (default 4000)
//   MBSP_BENCH_PORTFOLIO_WORKERS portfolio size (default 4)
//   MBSP_BENCH_CSV               CSV export prefix (CI uploads the artifact)
#include "bench/bench_common.hpp"

#include "src/holistic/portfolio.hpp"
#include "src/twostage/two_stage.hpp"

using namespace mbsp;
using namespace mbsp::bench;

namespace {

const char* kFamilies[] = {
    "stencil2d:nx=12,ny=12,steps=2",          // n = 432
    "fft:n=64",                               // n = 448
    "wavefront:nx=16,ny=16",                  // n = 289
    "mapreduce:maps=20,reducers=15,rounds=6", // n = 230
    "lu:blocks=6",                            // n = 127
    "cholesky:blocks=6",                      // n = 77
};

}  // namespace

int main() {
  const BenchConfig config = BenchConfig::from_env();
  const long iters = env_long("MBSP_BENCH_PORTFOLIO_ITERS", 4000);
  const int workers =
      static_cast<int>(env_long("MBSP_BENCH_PORTFOLIO_WORKERS", 4));

  Table table({"workload", "n", "warm start", "solo lns", "portfolio e1",
               "portfolio e4", "best ratio", "solo ms", "portfolio ms"});
  std::vector<double> ratios;
  int strictly_better = 0;
  bool guarantee_held = true;
  for (const char* spec : kFamilies) {
    std::string error;
    auto dag = WorkloadRegistry::global().make_dag(spec, config.seed, &error);
    if (!dag) {
      std::fprintf(stderr, "cannot generate '%s': %s\n", spec, error.c_str());
      return 1;
    }
    const MbspInstance inst = make_instance(std::move(*dag), 4, 3.0, 1, 10);
    const ComputePlan initial =
        baseline_plan(inst, BaselineKind::kGreedyClairvoyant);

    PortfolioOptions options;
    options.lns.budget_ms = 0;  // iteration-capped: deterministic numbers
    options.lns.max_iterations = iters;
    options.lns.seed = config.seed;
    options.workers = workers;

    Timer solo_timer;
    const LnsResult solo =
        improve_plan(inst, initial, portfolio_worker_options(options, 0, 0));
    const double solo_ms = solo_timer.elapsed_ms();

    options.epochs = 1;
    Timer port_timer;
    const PortfolioResult e1 = PortfolioLns(options).improve(inst, initial);
    const double port_ms = port_timer.elapsed_ms();
    options.epochs = 4;
    const PortfolioResult e4 = PortfolioLns(options).improve(inst, initial);

    // Worker 0 of the 1-epoch portfolio reruns `solo` verbatim, so the
    // exchanged incumbent can only match or beat it.
    guarantee_held = guarantee_held && e1.cost <= solo.cost;
    const double best = std::min(e1.cost, e4.cost);
    strictly_better += best < solo.cost;
    ratios.push_back(best / solo.cost);
    table.add_row({spec, std::to_string(inst.dag.num_nodes()),
                   cost_str(e1.initial_cost), cost_str(solo.cost),
                   cost_str(e1.cost), cost_str(e4.cost),
                   fmt(best / solo.cost, 3), fmt(solo_ms, 0),
                   fmt(port_ms, 0)});
  }
  emit(table,
       "Portfolio LNS: cost at the same per-worker iteration budget (" +
           std::to_string(workers) + " workers x " + std::to_string(iters) +
           " iterations, deterministic)",
       config, "portfolio");
  std::printf(
      "geomean cost ratio (portfolio/solo): %.3f; strictly better on %d of "
      "%zu families\n",
      geometric_mean(ratios), strictly_better, std::size(kFamilies));
  if (!guarantee_held) {
    std::fprintf(stderr,
                 "FATAL: 1-epoch portfolio worse than its own worker 0\n");
    return 1;
  }
  return 0;
}
