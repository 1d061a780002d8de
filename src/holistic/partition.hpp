#pragma once
// Acyclic bipartitioning (Section 6.3 step 1): split a DAG into two parts
// such that the quotient is acyclic — for two parts this means no edge may
// go from part 1 back to part 0, i.e. part 0 is closed under predecessors —
// while minimizing the number of cut edges under a balance constraint
// (each side gets at least a third of the nodes).
//
// Two engines, matching the paper: an exact ILP (solved by the in-house
// branch and bound; the paper notes COPT solves these "in negligible
// time") and a greedy topological-prefix heuristic with FM-style move
// refinement, which also provides the ILP warm start and the fallback when
// the B&B hits its budget.

#include <cstdint>
#include <vector>

#include "src/graph/dag.hpp"
#include "src/ilp/model.hpp"

namespace mbsp {

struct BipartitionOptions {
  double ilp_budget_ms = 1000;
  bool use_ilp = true;
  std::uint64_t seed = 11;
};

struct BipartitionResult {
  std::vector<int> part;  ///< node -> {0, 1}
  std::size_t cut = 0;
  bool proven_optimal = false;
};

/// Builds the exact ILP: binaries part[v] with part[u] <= part[v] per edge,
/// cut indicators y_e >= part[v] - part[u], balance lo <= sum part <= hi.
ilp::Model build_bipartition_ilp(const ComputeDag& dag, int lo_ones,
                                 int hi_ones);

/// Greedy heuristic: best balanced topological-prefix cut over randomized
/// orders, refined by single-node moves that keep the down-set property.
BipartitionResult greedy_bipartition(const ComputeDag& dag,
                                     const BipartitionOptions& options);

/// Full pipeline (greedy warm start, then ILP when enabled).
BipartitionResult acyclic_bipartition(const ComputeDag& dag,
                                      const BipartitionOptions& options = {});

/// Recursively bipartitions until every part has at most `max_part_size`
/// nodes; returns parts in a topological order of the quotient graph.
std::vector<std::vector<NodeId>> recursive_acyclic_partition(
    const ComputeDag& dag, int max_part_size,
    const BipartitionOptions& options = {});

}  // namespace mbsp
