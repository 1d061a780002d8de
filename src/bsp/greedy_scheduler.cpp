#include "src/bsp/greedy_scheduler.hpp"

#include <algorithm>
#include <limits>

#include "src/graph/topology.hpp"

namespace mbsp {

namespace {

/// Weight of parent locality (mu of local parents) in the assignment
/// score, relative to one unit of processor work.
constexpr double kLocalityWeight = 2.0;
/// A processor may exceed the least-loaded processor's work by at most
/// this factor of the average node weight before it stops receiving nodes
/// in the current superstep.
constexpr double kImbalanceSlack = 4.0;

}  // namespace

BspSchedule GreedyBspScheduler::schedule(const ComputeDag& dag,
                                         const Architecture& arch) {
  const NodeId n = dag.num_nodes();
  const int P = arch.num_processors;
  BspSchedule out;
  out.proc.assign(n, -1);
  out.superstep.assign(n, -1);

  // Priority: bottom level (omega-weighted longest path to a sink), so the
  // critical path drains first.
  std::vector<double> bottom(n, 0.0);
  {
    const auto order = topological_order(dag);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const NodeId v = *it;
      double best = 0;
      for (NodeId c : dag.children(v)) best = std::max(best, bottom[c]);
      bottom[v] = best + dag.omega(v);
    }
  }

  const double avg_omega =
      dag.num_nodes() > 0 ? dag.total_omega() / dag.num_nodes() : 1.0;
  const double slack = kImbalanceSlack * std::max(avg_omega, 1.0);

  // unscheduled parents count; sources count as scheduled (they are data).
  std::vector<int> waiting(n, 0);
  std::vector<NodeId> ready;
  for (NodeId v = 0; v < n; ++v) {
    if (dag.is_source(v)) continue;
    for (NodeId u : dag.parents(v)) {
      if (!dag.is_source(u)) ++waiting[v];
    }
    if (waiting[v] == 0) ready.push_back(v);
  }

  std::vector<double> work(P, 0.0);         // work in current superstep
  std::vector<int> step_of_assignment(n, -1);
  int superstep = 0;
  std::vector<NodeId> next_ready;  // becomes ready only next superstep

  while (!ready.empty() || !next_ready.empty()) {
    if (ready.empty()) {
      // Close the superstep: blocked nodes become assignable.
      ++superstep;
      std::fill(work.begin(), work.end(), 0.0);
      ready = std::move(next_ready);
      next_ready.clear();
    }
    // Pick the ready node with the highest bottom level.
    std::size_t best_idx = 0;
    for (std::size_t i = 1; i < ready.size(); ++i) {
      if (bottom[ready[i]] > bottom[ready[best_idx]]) best_idx = i;
    }
    const NodeId v = ready[best_idx];
    ready[best_idx] = ready.back();
    ready.pop_back();

    // Eligible processors: parents computed in this superstep force v onto
    // that same processor (cross-processor same-superstep edges are
    // invalid); conflicting forcings postpone v.
    int forced = -1;
    bool postpone = false;
    for (NodeId u : dag.parents(v)) {
      if (dag.is_source(u)) continue;
      if (step_of_assignment[u] == superstep) {
        if (forced == -1) {
          forced = out.proc[u];
        } else if (forced != out.proc[u]) {
          postpone = true;
        }
      }
    }
    if (postpone) {
      next_ready.push_back(v);
      continue;
    }

    double min_work = *std::min_element(work.begin(), work.end());
    int best_proc = -1;
    double best_score = -std::numeric_limits<double>::infinity();
    for (int p = 0; p < P; ++p) {
      if (forced != -1 && p != forced) continue;
      if (forced == -1 && work[p] - min_work > slack) continue;
      double locality = 0;
      for (NodeId u : dag.parents(v)) {
        if (!dag.is_source(u) && out.proc[u] == p) locality += dag.mu(u);
      }
      const double score = kLocalityWeight * locality - work[p];
      if (score > best_score) {
        best_score = score;
        best_proc = p;
      }
    }
    if (best_proc == -1) {
      // All processors over the slack; postpone to the next superstep.
      next_ready.push_back(v);
      continue;
    }

    out.proc[v] = best_proc;
    out.superstep[v] = superstep;
    step_of_assignment[v] = superstep;
    work[best_proc] += dag.omega(v);
    out.order.push_back(v);
    for (NodeId c : dag.children(v)) {
      if (--waiting[c] == 0) {
        // c may still be assignable in this superstep (same processor).
        ready.push_back(c);
      }
    }
  }
  return out;
}

}  // namespace mbsp
