#pragma once
// Stage-1 "ILP-BSP" stand-in: an anytime local search over processor
// assignments optimizing the exact BSP cost, warm-started from the greedy
// scheduler. The paper's stronger baseline formulates BSP scheduling as a
// separate ILP and runs COPT on it; this plays the same role — a
// memory-oblivious schedule that is near-optimal for the BSP objective —
// with our in-house anytime machinery (see DESIGN.md, substitutions).

#include "src/bsp/bsp_schedule.hpp"

namespace mbsp {

class RefinedBspScheduler : public BspScheduler {
 public:
  struct Params {
    double budget_ms = 500;  ///< local-search time budget
  };

  RefinedBspScheduler() = default;
  explicit RefinedBspScheduler(Params params) : params_(params) {}

  BspSchedule schedule(const ComputeDag& dag, const Architecture& arch) override;
  std::string name() const override { return "ilp-bsp"; }

  /// Re-derives the minimum superstep levels and a per-processor
  /// nondecreasing topological order for a fixed processor assignment.
  static BspSchedule lift_assignment(const ComputeDag& dag,
                                     const std::vector<int>& proc);

 private:
  Params params_;
};

}  // namespace mbsp
