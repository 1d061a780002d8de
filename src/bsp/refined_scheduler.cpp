#include "src/bsp/refined_scheduler.hpp"

#include <algorithm>
#include <numeric>

#include "src/bsp/greedy_scheduler.hpp"
#include "src/graph/topology.hpp"
#include "src/util/rng.hpp"
#include "src/util/timer.hpp"

namespace mbsp {

namespace {

constexpr std::uint64_t kSearchSeed = 7;
constexpr int kMaxRounds = 200000;  ///< local-search moves, budget allowing

}  // namespace

BspSchedule RefinedBspScheduler::lift_assignment(const ComputeDag& dag,
                                                 const std::vector<int>& proc) {
  const NodeId n = dag.num_nodes();
  BspSchedule out;
  out.proc = proc;
  out.superstep.assign(n, -1);
  const auto topo = topological_order(dag);
  std::vector<int> topo_pos = order_positions(topo, n);
  for (NodeId v : topo) {
    if (dag.is_source(v)) {
      out.proc[v] = -1;
      continue;
    }
    int step = 0;
    for (NodeId u : dag.parents(v)) {
      if (dag.is_source(u)) continue;
      step = std::max(step, out.superstep[u] +
                                (proc[u] == proc[v] ? 0 : 1));
    }
    out.superstep[v] = step;
  }
  for (NodeId v : topo) {
    if (!dag.is_source(v)) out.order.push_back(v);
  }
  std::stable_sort(out.order.begin(), out.order.end(),
                   [&](NodeId a, NodeId b) {
                     if (out.superstep[a] != out.superstep[b]) {
                       return out.superstep[a] < out.superstep[b];
                     }
                     return topo_pos[a] < topo_pos[b];
                   });
  return out;
}

BspSchedule RefinedBspScheduler::schedule(const ComputeDag& dag,
                                          const Architecture& arch) {
  GreedyBspScheduler greedy;
  BspSchedule best = greedy.schedule(dag, arch);
  std::vector<int> assign = best.proc;
  // Normalize through the lift so moves and baseline are comparable.
  best = lift_assignment(dag, assign);
  double best_cost = bsp_cost(dag, arch, best);

  std::vector<NodeId> movable;
  for (NodeId v = 0; v < dag.num_nodes(); ++v) {
    if (!dag.is_source(v)) movable.push_back(v);
  }
  if (movable.empty()) return best;

  Rng rng(kSearchSeed);
  Deadline deadline(params_.budget_ms);
  std::vector<int> current = assign;
  double current_cost = best_cost;

  for (int round = 0; round < kMaxRounds && !deadline.expired(); ++round) {
    const NodeId v = movable[rng.index(movable.size())];
    const int old_proc = current[v];
    int best_proc = old_proc;
    double best_move_cost = current_cost;
    for (int p = 0; p < arch.num_processors; ++p) {
      if (p == old_proc) continue;
      current[v] = p;
      const BspSchedule lifted = lift_assignment(dag, current);
      const double cost = bsp_cost(dag, arch, lifted);
      if (cost < best_move_cost) {
        best_move_cost = cost;
        best_proc = p;
      }
    }
    current[v] = best_proc;
    current_cost = best_move_cost;
    if (current_cost < best_cost) {
      best_cost = current_cost;
      best = lift_assignment(dag, current);
    }
  }
  return best;
}

}  // namespace mbsp
