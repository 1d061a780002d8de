#include "src/ilp/solver.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

namespace mbsp::ilp {

namespace {

constexpr double kIntTol = 1e-6;  ///< integrality tolerance for branching
/// Absolute bound-to-incumbent gap at which a node is pruned.
constexpr double kGapTol = 1e-9;

struct Node {
  // Variable bound overrides relative to the root model.
  std::vector<std::pair<VarId, std::pair<double, double>>> bounds;
  double parent_bound = -kInf;
  int depth = 0;
};

int most_fractional_var(const Model& model, const std::vector<double>& x,
                        double tol) {
  int best = -1;
  double best_frac = tol;
  for (int v = 0; v < model.num_vars(); ++v) {
    if (model.var_type(v) == VarType::kContinuous) continue;
    const double frac = std::abs(x[v] - std::round(x[v]));
    const double distance = std::min(frac, 1.0 - frac);
    if (std::abs(x[v] - std::round(x[v])) > tol && distance + tol > best_frac) {
      best_frac = distance;
      best = v;
    }
  }
  return best;
}

}  // namespace

MipResult BranchAndBoundSolver::solve(const Model& root,
                                      const std::vector<double>& warm_start)
    const {
  Deadline deadline(options_.budget_ms);
  MipResult result;
  bool have_incumbent = false;
  if (!warm_start.empty() && root.is_feasible(warm_start, 1e-5)) {
    result.x = warm_start;
    result.objective = root.objective_value(warm_start);
    result.status = MipStatus::kFeasible;
    have_incumbent = true;
  }

  // DFS stack; depth-first keeps the bound-override lists short and finds
  // integer solutions fast, which is what the anytime role needs.
  std::vector<Node> stack;
  stack.push_back({});
  Model work = root;  // mutated bounds per node, restored after

  double best_open_bound = kInf;  // not tracked exactly; gap from root LP
  bool truncated = false;
  double root_bound = -kInf;

  while (!stack.empty()) {
    if (deadline.expired() || result.nodes_explored >= options_.max_nodes) {
      truncated = true;
      break;
    }
    const Node node = std::move(stack.back());
    stack.pop_back();
    ++result.nodes_explored;

    if (have_incumbent && node.parent_bound > -kInf &&
        node.parent_bound >= result.objective - kGapTol) {
      continue;  // cannot improve
    }

    // Apply bound overrides.
    std::vector<std::pair<VarId, std::pair<double, double>>> saved;
    saved.reserve(node.bounds.size());
    for (const auto& [v, bounds] : node.bounds) {
      saved.push_back({v, {work.lower_bound(v), work.upper_bound(v)}});
      work.set_bounds(v, bounds.first, bounds.second);
    }
    auto restore = [&] {
      for (auto it = saved.rbegin(); it != saved.rend(); ++it) {
        work.set_bounds(it->first, it->second.first, it->second.second);
      }
    };

    // Hand the LP the remaining wall-clock budget so one big tableau
    // cannot blow through the node-level deadline. Clamped to >= 1 ms:
    // remaining_ms() == 0 would read as "no deadline" in SimplexOptions.
    SimplexOptions lp_options = options_.lp;
    if (options_.budget_ms > 0 && lp_options.budget_ms <= 0) {
      lp_options.budget_ms = std::max(1.0, deadline.remaining_ms());
    }
    const LpResult lp = solve_lp(work, lp_options);
    if (node.depth == 0) {
      root_bound = lp.status == LpStatus::kOptimal ? lp.objective : -kInf;
    }
    if (lp.status == LpStatus::kInfeasible) {
      restore();
      continue;
    }
    if (lp.status == LpStatus::kIterLimit) {
      // Cannot certify anything about this subtree: the search is no
      // longer exhaustive, so never report "infeasible"/"optimal" later.
      truncated = true;
      restore();
      continue;
    }
    if (lp.status == LpStatus::kUnbounded) {
      restore();
      // MILP relaxation unbounded at the root means no finite bound.
      if (node.depth == 0) {
        result.best_bound = -kInf;
      }
      continue;
    }
    if (have_incumbent && lp.objective >= result.objective - kGapTol) {
      restore();
      continue;
    }

    const int branch_var = most_fractional_var(root, lp.x, kIntTol);
    if (branch_var == -1) {
      // Integer feasible: new incumbent.
      if (!have_incumbent || lp.objective < result.objective) {
        result.x = lp.x;
        for (int v = 0; v < root.num_vars(); ++v) {
          if (root.var_type(v) != VarType::kContinuous) {
            result.x[v] = std::round(result.x[v]);
          }
        }
        result.objective = root.objective_value(result.x);
        result.status = MipStatus::kFeasible;
        have_incumbent = true;
      }
      restore();
      continue;
    }

    // Branch: floor side and ceil side; explore the side closer to the LP
    // value first (pushed last).
    const double value = lp.x[branch_var];
    Node down, up;
    down.bounds = node.bounds;
    up.bounds = node.bounds;
    down.parent_bound = lp.objective;
    up.parent_bound = lp.objective;
    down.depth = node.depth + 1;
    up.depth = node.depth + 1;
    down.bounds.push_back({branch_var,
                           {work.lower_bound(branch_var), std::floor(value)}});
    up.bounds.push_back({branch_var,
                         {std::ceil(value), work.upper_bound(branch_var)}});
    restore();
    if (value - std::floor(value) < 0.5) {
      stack.push_back(std::move(up));
      stack.push_back(std::move(down));
    } else {
      stack.push_back(std::move(down));
      stack.push_back(std::move(up));
    }
  }

  (void)best_open_bound;
  if (!truncated && stack.empty()) {
    if (have_incumbent) {
      result.status = MipStatus::kOptimal;
      result.best_bound = result.objective;
    } else {
      result.status = MipStatus::kInfeasible;
    }
  } else if (have_incumbent) {
    result.status = MipStatus::kFeasible;
    result.best_bound = root_bound;
  } else {
    result.status = MipStatus::kNoSolution;
    result.best_bound = root_bound;
  }
  return result;
}

}  // namespace mbsp::ilp
