#include "src/holistic/portfolio.hpp"

#include <algorithm>
#include <mutex>
#include <utility>

#include "src/util/thread_pool.hpp"
#include "src/util/timer.hpp"

namespace mbsp {

namespace {

/// SplitMix64 finalizer (Steele, Lea & Flood), the same mixer Rng seeding
/// uses: one well-mixed 64-bit output per distinct input.
std::uint64_t splitmix64_mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

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
    case 0:  // hotter annealing: accepts more uphill moves early
      o->initial_temperature_frac *= 2.0;
      break;
    case 1:  // colder: near-greedy descent
      o->initial_temperature_frac *= 0.5;
      break;
    case 2: {  // placement-only: freeze the superstep structure
      const unsigned placement = kMoveProc | kMoveSuperstep | kSwapProcs;
      if ((o->move_mask & placement) != 0) o->move_mask &= placement;
      break;
    }
  }
}

PortfolioResult from_single(LnsResult single) {
  PortfolioResult result;
  result.plan = std::move(single.plan);
  result.schedule = std::move(single.schedule);
  result.cost = single.cost;
  result.initial_cost = single.initial_cost;
  result.iterations = single.iterations;
  result.accepted = single.accepted;
  result.proposed_by_class = single.proposed_by_class;
  result.accepted_by_class = single.accepted_by_class;
  result.worker_costs = {single.cost};
  return result;
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

const char* portfolio_profile_name(PortfolioProfile profile) {
  return profile == PortfolioProfile::kUniform ? "uniform" : "diverse";
}

bool parse_portfolio_profile(const std::string& name,
                             PortfolioProfile* profile) {
  if (name == "uniform") {
    *profile = PortfolioProfile::kUniform;
    return true;
  }
  if (name == "diverse") {
    *profile = PortfolioProfile::kDiverse;
    return true;
  }
  return false;
}

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
  if (options_.workers == 1 && options_.epochs == 1) {
    // Degenerate portfolio: a verbatim single-worker call (worker 0's
    // options at epoch 0 ARE the base LnsOptions), so the result is
    // bitwise identical to improve_plan by construction.
    return from_single(
        improve_plan(inst, initial, portfolio_worker_options(options_, 0, 0)));
  }
  return options_.free_running ? improve_free_running(inst, initial)
                               : improve_deterministic(inst, initial);
}

PortfolioResult PortfolioLns::improve_deterministic(
    const MbspInstance& inst, const ComputePlan& initial) const {
  const int W = options_.workers;
  const int E = options_.epochs;

  PortfolioResult result;
  result.initial_cost = evaluate_plan(inst, initial, options_.lns);
  result.plan = initial;
  result.cost = result.initial_cost;

  struct WorkerState {
    ComputePlan plan;
    double cost = 0;
  };
  std::vector<WorkerState> workers(static_cast<std::size_t>(W));
  for (WorkerState& w : workers) {
    w.plan = initial;
    w.cost = result.initial_cost;
  }
  ComputePlan incumbent = initial;
  double incumbent_cost = result.initial_cost;

  ThreadPool pool(options_.threads != 0 ? options_.threads
                                        : static_cast<std::size_t>(W));
  const Deadline deadline(options_.lns.budget_ms);
  std::vector<LnsSearchResult> slices(static_cast<std::size_t>(W));
  for (int e = 0; e < E; ++e) {
    // Exchange: a strictly better incumbent replaces a worker's plan; the
    // incumbent holder itself keeps its trajectory (strict <, so equal-
    // cost workers are left alone and diversity survives the exchange).
    for (WorkerState& w : workers) {
      if (incumbent_cost < w.cost) {
        w.plan = incumbent;
        w.cost = incumbent_cost;
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
      slices[w] = search_plan(inst, workers[w].plan, o);
    });
    // Barrier passed: fold the slice results back in worker order, so the
    // incumbent scan (strict <, ascending worker index) is deterministic
    // no matter which pool thread ran which worker.
    for (int w = 0; w < W; ++w) {
      LnsSearchResult& slice = slices[static_cast<std::size_t>(w)];
      accumulate(slice, &result);
      workers[static_cast<std::size_t>(w)].plan = std::move(slice.plan);
      workers[static_cast<std::size_t>(w)].cost = slice.cost;
      if (slice.cost < incumbent_cost) {
        incumbent = workers[static_cast<std::size_t>(w)].plan;
        incumbent_cost = slice.cost;
        result.best_worker = w;
        result.best_epoch = e;
      }
    }
    if (options_.lns.budget_ms > 0 && deadline.expired()) break;
  }

  result.worker_costs.reserve(workers.size());
  for (const WorkerState& w : workers) result.worker_costs.push_back(w.cost);
  result.plan = std::move(incumbent);
  result.cost = evaluate_plan(inst, result.plan, options_.lns, &result.schedule);
  return result;
}

PortfolioResult PortfolioLns::improve_free_running(
    const MbspInstance& inst, const ComputePlan& initial) const {
  const int W = options_.workers;
  const int E = options_.epochs;

  PortfolioResult result;
  result.initial_cost = evaluate_plan(inst, initial, options_.lns);
  result.plan = initial;
  result.cost = result.initial_cost;
  result.worker_costs.assign(static_cast<std::size_t>(W),
                             result.initial_cost);

  std::mutex mutex;
  ComputePlan incumbent = initial;
  double incumbent_cost = result.initial_cost;

  {
    ThreadPool pool(options_.threads != 0 ? options_.threads
                                          : static_cast<std::size_t>(W));
    parallel_for(pool, static_cast<std::size_t>(W), [&](std::size_t w) {
      ComputePlan plan = initial;
      double cost = result.initial_cost;
      const Deadline deadline(options_.lns.budget_ms);
      for (int e = 0; e < E; ++e) {
        {
          std::lock_guard lock(mutex);
          if (incumbent_cost < cost) {
            plan = incumbent;
            cost = incumbent_cost;
          }
        }
        LnsOptions o =
            portfolio_worker_options(options_, static_cast<int>(w), e);
        if (o.budget_ms > 0) {
          o.budget_ms = std::max(1.0, deadline.remaining_ms() / (E - e));
        }
        LnsSearchResult slice = search_plan(inst, plan, o);
        plan = std::move(slice.plan);
        cost = slice.cost;
        {
          std::lock_guard lock(mutex);
          accumulate(slice, &result);
          if (cost < incumbent_cost) {
            incumbent = plan;
            incumbent_cost = cost;
            result.best_worker = static_cast<int>(w);
            result.best_epoch = e;
          }
        }
        if (options_.lns.budget_ms > 0 && deadline.expired()) break;
      }
      result.worker_costs[w] = cost;  // per-slot write, no lock needed
    });
  }

  result.plan = std::move(incumbent);
  result.cost = evaluate_plan(inst, result.plan, options_.lns, &result.schedule);
  return result;
}

}  // namespace mbsp
