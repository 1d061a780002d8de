#pragma once
// Parallel portfolio LNS: K simulated-annealing LNS workers run
// concurrently on a ThreadPool (one per improve() call; sized to the
// worker count by default), each on its own deterministically
// derived seed (SplitMix64 of the base seed and the worker index) and an
// optional per-worker move-mask / temperature profile, exchanging the best
// incumbent plan at fixed iteration-count epochs.
//
// ## Epoch model
//
// A worker's total iteration budget is divided into `epochs` equal slices.
// Between slices the portfolio exchanges incumbents: the globally best
// plan found so far (ties broken by lowest worker index) replaces a
// worker's current plan whenever it is strictly cheaper, so good moves
// propagate while the leading worker keeps its own trajectory.
//
// Epochs are synchronous barriers: all K epoch-slices run in parallel,
// the exchange happens only after every worker reached the barrier, and
// the incumbent scan is ordered by worker index. The outcome is bitwise
// reproducible for a fixed (seed, workers, epochs, profile) — independent
// of the pool's thread count and of thread timing — under the repo's
// reproducibility convention (budget_ms = 0 plus a finite max_iterations;
// a wall-clock budget cuts trajectories by elapsed time and is inherently
// timing-dependent, in the portfolio exactly as in improve_plan).
//
// Each slice is a search_plan run, and the warm start is priced by the
// epoch-0 slices (their initial_cost is bitwise evaluate_plan's), so the
// loop runs exactly one full completion: the returned schedule's. With
// workers = 1 and epochs = 1 the loop therefore is improve_plan, bitwise
// (enforced by tests/test_portfolio.cpp). In every configuration the
// returned plan is never worse than the warm start, because search_plan
// never worsens its input.

#include <cstdint>
#include <vector>

#include "src/holistic/lns.hpp"

namespace mbsp {

class ThreadPool;

/// Per-worker diversification of the portfolio.
enum class PortfolioProfile {
  /// Every worker runs the base LnsOptions; only the seed differs.
  kUniform,
  /// Worker 0 keeps the base options (so its first epoch reproduces the
  /// single-worker run); workers 1.. cycle through hotter / colder
  /// annealing temperatures and a placement-only move mask.
  kDiverse,
};

struct PortfolioOptions {
  /// Base options of every worker. budget_ms and max_iterations are
  /// *per-worker* totals; with threads >= workers (the default) the
  /// workers run concurrently and the portfolio's wall-clock budget
  /// equals the per-worker budget. With fewer threads, queued workers
  /// serialize and the wall time grows accordingly.
  LnsOptions lns;
  int workers = 4;
  int epochs = 4;
  PortfolioProfile profile = PortfolioProfile::kDiverse;
  /// Pool size; 0 means one thread per worker. The result does not
  /// depend on this.
  std::size_t threads = 0;
};

/// The LNS result of the returned incumbent, with iterations, acceptances
/// and per-class counters summed over all workers and epochs.
struct PortfolioResult : LnsResult {
  /// Which worker / epoch produced the returned incumbent (0/0 when the
  /// warm start was never improved).
  int best_worker = 0;
  int best_epoch = 0;
  /// Final per-worker incumbent costs (size = workers).
  std::vector<double> worker_costs;
};

/// The seed of worker `worker`: the base seed itself for worker 0 (so a
/// one-worker portfolio reproduces improve_plan bitwise), a SplitMix64
/// derivation for the rest. Exposed so tests and benches can run a
/// worker's solo trajectory.
std::uint64_t portfolio_worker_seed(std::uint64_t seed, int worker);

/// The effective LnsOptions of (worker, epoch): derived seed, per-epoch
/// iteration slice, profile-adjusted temperature / move mask. Exposed for
/// the solo-run comparisons in tests and bench_portfolio.
LnsOptions portfolio_worker_options(const PortfolioOptions& options,
                                    int worker, int epoch);

/// Portfolio LNS driver. Stateless apart from its options; `improve` is
/// const and may be called concurrently from different threads (each call
/// spins up its own ThreadPool).
class PortfolioLns {
 public:
  explicit PortfolioLns(PortfolioOptions options);

  /// Improves `initial` (must pass validate_plan) with the configured
  /// portfolio. Deterministic given (instance, options) under the
  /// budget_ms = 0 convention.
  PortfolioResult improve(const MbspInstance& inst,
                          const ComputePlan& initial) const;

  const PortfolioOptions& options() const { return options_; }

 private:
  PortfolioOptions options_;
};

}  // namespace mbsp
