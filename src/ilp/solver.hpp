#pragma once
// Branch-and-bound MILP solver over the LP relaxation (simplex.hpp).
// Anytime: accepts a warm-start incumbent (the paper warm-starts COPT with
// the two-stage baseline in exactly this way), obeys a time budget, and
// reports the best incumbent plus the proven bound.

#include <vector>

#include "src/ilp/model.hpp"
#include "src/ilp/simplex.hpp"
#include "src/util/timer.hpp"

namespace mbsp::ilp {

enum class MipStatus {
  kOptimal,     ///< incumbent proven optimal
  kFeasible,    ///< incumbent found, search truncated (time/node limit)
  kInfeasible,  ///< proven infeasible
  kNoSolution,  ///< truncated before any incumbent was found
};

struct MipResult {
  MipStatus status = MipStatus::kNoSolution;
  double objective = 0;     ///< incumbent objective (if any)
  double best_bound = -kInf;  ///< proven lower bound on the optimum
  std::vector<double> x;
  long nodes_explored = 0;
};

struct MipOptions {
  double budget_ms = 10000;
  long max_nodes = 1000000;
  SimplexOptions lp;
};

class BranchAndBoundSolver {
 public:
  explicit BranchAndBoundSolver(MipOptions options = {}) : options_(options) {}

  /// Solves `model`; `warm_start` (if non-empty) must be integer-feasible
  /// and becomes the initial incumbent.
  MipResult solve(const Model& model,
                  const std::vector<double>& warm_start = {}) const;

 private:
  MipOptions options_;
};

}  // namespace mbsp::ilp
