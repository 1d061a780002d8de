#include "src/holistic/portfolio.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/util/rng.hpp"
#include "src/util/thread_pool.hpp"
#include "src/util/timer.hpp"

namespace mbsp {

namespace {

// Distinct salts keep the worker and epoch derivations from colliding
// (worker w epoch 0 must never share a seed with worker 0 epoch w).
constexpr std::uint64_t kWorkerSalt = 0x9E3779B97F4A7C15ull;
constexpr std::uint64_t kEpochSalt = 0xD1B54A32D192ED03ull;

std::uint64_t epoch_seed(std::uint64_t worker_seed, int epoch) {
  if (epoch == 0) return worker_seed;
  return splitmix64_mix(worker_seed ^
                        (kEpochSalt * static_cast<std::uint64_t>(epoch)));
}

/// Iterations of epoch slice `epoch`: total / epochs, the remainder spread
/// over the leading epochs so the slices sum to the per-worker total.
long slice_iterations(long total, int epochs, int epoch) {
  const long base = total / epochs;
  const long remainder = total % epochs;
  return base + (epoch < remainder ? 1 : 0);
}

/// The diverse profile's cycle for workers >= 1 (worker 0 always runs the
/// base options so a one-worker portfolio reproduces improve_plan).
void apply_diverse_profile(int worker, LnsOptions* o) {
  if (worker == 0) return;
  switch ((worker - 1) % 3) {
    // Temperatures are in units of one move's cost change, and every
    // slice cools over its own cap (docs/ARCHITECTURE.md).
    case 0:  // hotter: twice the start temperature, more uphill moves
      o->initial_temperature_frac *= 2.0;
      break;
    case 1:  // colder: half the start temperature, closer to descent
      o->initial_temperature_frac *= 0.5;
      break;
    case 2: {  // placement-only: freeze the superstep structure
      const unsigned placement = kMoveProc | kMoveSuperstep | kSwapProcs;
      if ((o->move_mask & placement) != 0) o->move_mask &= placement;
      break;
    }
  }
}

void accumulate(const LnsSearchResult& slice, PortfolioResult* result) {
  result->iterations += slice.iterations;
  result->accepted += slice.accepted;
  for (int c = 0; c < kNumMoveClasses; ++c) {
    result->proposed_by_class[c] += slice.proposed_by_class[c];
    result->accepted_by_class[c] += slice.accepted_by_class[c];
  }
}

}  // namespace

std::uint64_t portfolio_worker_seed(std::uint64_t seed, int worker) {
  if (worker == 0) return seed;
  return splitmix64_mix(seed ^
                        (kWorkerSalt * static_cast<std::uint64_t>(worker)));
}

LnsOptions portfolio_worker_options(const PortfolioOptions& options,
                                    int worker, int epoch) {
  const int epochs = std::max(1, options.epochs);
  LnsOptions o = options.lns;
  o.seed = epoch_seed(portfolio_worker_seed(options.lns.seed, worker), epoch);
  o.max_iterations = slice_iterations(options.lns.max_iterations, epochs, epoch);
  if (o.budget_ms > 0) o.budget_ms /= epochs;
  if (options.profile == PortfolioProfile::kDiverse) {
    apply_diverse_profile(worker, &o);
  }
  return o;
}

PortfolioLns::PortfolioLns(PortfolioOptions options)
    : options_(std::move(options)) {
  options_.workers = std::max(1, options_.workers);
  options_.epochs = std::max(1, options_.epochs);
}

PortfolioResult PortfolioLns::improve(const MbspInstance& inst,
                                      const ComputePlan& initial) const {
  const int W = options_.workers;
  const int E = options_.epochs;

  // Every worker starts on the warm start, which the epoch-0 slices price
  // (search_plan's initial_cost is bitwise evaluate_plan's). Until then
  // the costs are +inf, so the epoch-0 exchange is a no-op and worker 0's
  // slice seeds the incumbent.
  const double unpriced = std::numeric_limits<double>::infinity();
  std::vector<ComputePlan> plans(static_cast<std::size_t>(W));
  std::vector<double> costs(static_cast<std::size_t>(W), unpriced);
  PortfolioResult result;
  result.cost = unpriced;  // the incumbent: result.plan at result.cost

  ThreadPool pool(options_.threads != 0 ? options_.threads
                                        : static_cast<std::size_t>(W));
  const Deadline deadline(options_.lns.budget_ms);
  std::vector<LnsSearchResult> slices(static_cast<std::size_t>(W));
  for (int e = 0; e < E; ++e) {
    // Exchange: a strictly better incumbent replaces a worker's plan; the
    // incumbent holder itself keeps its trajectory (strict <, so equal-
    // cost workers are left alone and diversity survives the exchange).
    for (int w = 0; w < W; ++w) {
      if (result.cost < costs[static_cast<std::size_t>(w)]) {
        plans[static_cast<std::size_t>(w)] = result.plan;
        costs[static_cast<std::size_t>(w)] = result.cost;
      }
    }
    // Redistribute the remaining wall budget over the remaining epochs
    // (only meaningful under a wall-clock budget; 0 stays 0 = no
    // deadline, the reproducible configuration).
    const double slice_budget =
        options_.lns.budget_ms <= 0
            ? options_.lns.budget_ms
            : std::max(1.0, deadline.remaining_ms() / (E - e));
    parallel_for(pool, static_cast<std::size_t>(W), [&](std::size_t w) {
      LnsOptions o = portfolio_worker_options(options_, static_cast<int>(w), e);
      o.budget_ms = slice_budget;
      slices[w] = search_plan(inst, e == 0 ? initial : plans[w], o);
    });
    if (e == 0) result.initial_cost = slices[0].initial_cost;
    // Barrier passed: fold the slice results back in worker order, so the
    // incumbent scan (strict <, ascending worker index) is deterministic
    // no matter which pool thread ran which worker.
    for (int w = 0; w < W; ++w) {
      LnsSearchResult& slice = slices[static_cast<std::size_t>(w)];
      accumulate(slice, &result);
      plans[static_cast<std::size_t>(w)] = std::move(slice.plan);
      costs[static_cast<std::size_t>(w)] = slice.cost;
      if (slice.cost < result.cost) {
        result.plan = plans[static_cast<std::size_t>(w)];
        result.cost = slice.cost;
        result.best_worker = w;
        result.best_epoch = e;
      }
    }
    if (options_.lns.budget_ms > 0 && deadline.expired()) break;
  }

  result.worker_costs = std::move(costs);
  // The one full completion: the returned schedule's. The tracked cost
  // already is its cost, bitwise.
  result.schedule =
      complete_memory(inst, result.plan, options_.lns.completion_policy);
  return result;
}

}  // namespace mbsp
