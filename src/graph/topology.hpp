#pragma once
// Topological utilities over ComputeDag: ordering, acyclicity, levels,
// reachability. All O(V+E) unless noted.

#include <vector>

#include "src/graph/dag.hpp"

namespace mbsp {

/// Kahn topological order; empty result iff the graph has a cycle and is
/// non-empty. Prefers lower node ids first (deterministic).
std::vector<NodeId> topological_order(const ComputeDag& dag);

bool is_acyclic(const ComputeDag& dag);

/// Level of v = length (edge count) of the longest path from any source.
std::vector<int> longest_path_levels(const ComputeDag& dag);

/// Critical path length weighted by omega (max over sinks of summed omega
/// along a path, inclusive of both endpoints).
double critical_path_omega(const ComputeDag& dag);

/// pos[v] = index of v in `order` (inverse permutation).
std::vector<int> order_positions(const std::vector<NodeId>& order,
                                 NodeId num_nodes);

/// Induced sub-DAG on `nodes` (order preserved); `local_of[v]` maps a global
/// node to its local id or kInvalidNode. Edges between selected nodes only.
ComputeDag induced_subdag(const ComputeDag& dag,
                          const std::vector<NodeId>& nodes,
                          std::vector<NodeId>* local_of = nullptr);

/// Quotient graph of a partition part[v] in [0, k): node i = part i with
/// summed omega/mu; edge i->j iff some DAG edge crosses from part i to j.
ComputeDag quotient_graph(const ComputeDag& dag, const std::vector<int>& part,
                          int num_parts);

/// Number of DAG edges whose endpoints lie in different parts.
std::size_t cut_edges(const ComputeDag& dag, const std::vector<int>& part);

/// Grows `mask` (one entry per node, nonzero = in the set) to every node
/// within `hops` undirected DAG edges of a node already in it.
void expand_mask(const ComputeDag& dag, std::vector<char>& mask, int hops);

}  // namespace mbsp
