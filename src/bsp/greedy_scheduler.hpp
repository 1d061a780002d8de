#pragma once
// BSPg-style greedy list scheduler (after Papp et al. [36]): grows
// supersteps one at a time; inside a superstep, ready nodes are assigned to
// processors greedily, balancing work against communication by preferring
// the processor that already holds the node's parents. A node whose parent
// was computed in the *current* superstep on a *different* processor must
// wait for the next superstep, which is what ends supersteps naturally.

#include "src/bsp/bsp_schedule.hpp"

namespace mbsp {

class GreedyBspScheduler : public BspScheduler {
 public:
  BspSchedule schedule(const ComputeDag& dag, const Architecture& arch) override;
  std::string name() const override { return "bspg"; }
};

}  // namespace mbsp
