#pragma once
// Shared test fixture: a compute plan with local recomputation added, so
// the completion sees redundant occurrences of already-computed values.
#include <utility>
#include <vector>

#include "src/graph/dag.hpp"
#include "src/twostage/compute_plan.hpp"

namespace mbsp {

/// Adds recomputation to `plan`: every occurrence whose parent is a
/// non-source computed elsewhere, with only source parents of its own,
/// gets that parent recomputed locally right before it.
inline ComputePlan with_local_recomputes(const ComputeDag& dag,
                                         const ComputePlan& plan) {
  ComputePlan out = plan;
  for (int p = 0; p < plan.num_procs; ++p) {
    std::vector<PlannedCompute> seq;
    std::vector<char> local(dag.num_nodes(), 0);
    for (const PlannedCompute& pc : plan.seq[p]) {
      for (NodeId u : dag.parents(pc.node)) {
        if (dag.is_source(u) || local[u]) continue;
        bool leaf = true;
        for (NodeId w : dag.parents(u)) leaf = leaf && dag.is_source(w);
        if (!leaf) continue;
        seq.push_back({u, pc.superstep});
        local[u] = 1;
      }
      seq.push_back(pc);
      local[pc.node] = 1;
    }
    out.seq[p] = std::move(seq);
  }
  return out;
}

}  // namespace mbsp
