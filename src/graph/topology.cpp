#include "src/graph/topology.hpp"

#include <algorithm>
#include <cassert>
#include <queue>

namespace mbsp {

std::vector<NodeId> topological_order(const ComputeDag& dag) {
  const NodeId n = dag.num_nodes();
  std::vector<int> indeg(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    indeg[v] = static_cast<int>(dag.parents(v).size());
  }
  std::priority_queue<NodeId, std::vector<NodeId>, std::greater<>> ready;
  for (NodeId v = 0; v < n; ++v) {
    if (indeg[v] == 0) ready.push(v);
  }
  std::vector<NodeId> order;
  order.reserve(n);
  while (!ready.empty()) {
    const NodeId v = ready.top();
    ready.pop();
    order.push_back(v);
    for (NodeId c : dag.children(v)) {
      if (--indeg[c] == 0) ready.push(c);
    }
  }
  if (static_cast<NodeId>(order.size()) != n) order.clear();
  return order;
}

bool is_acyclic(const ComputeDag& dag) {
  return dag.num_nodes() == 0 || !topological_order(dag).empty();
}

std::vector<int> longest_path_levels(const ComputeDag& dag) {
  const auto order = topological_order(dag);
  std::vector<int> level(dag.num_nodes(), 0);
  for (NodeId v : order) {
    for (NodeId u : dag.parents(v)) {
      level[v] = std::max(level[v], level[u] + 1);
    }
  }
  return level;
}

double critical_path_omega(const ComputeDag& dag) {
  const auto order = topological_order(dag);
  std::vector<double> path(dag.num_nodes(), 0.0);
  double best = 0.0;
  for (NodeId v : order) {
    double incoming = 0.0;
    for (NodeId u : dag.parents(v)) incoming = std::max(incoming, path[u]);
    path[v] = incoming + dag.omega(v);
    best = std::max(best, path[v]);
  }
  return best;
}

std::vector<int> order_positions(const std::vector<NodeId>& order,
                                 NodeId num_nodes) {
  std::vector<int> pos(num_nodes, -1);
  for (std::size_t i = 0; i < order.size(); ++i) {
    pos[order[i]] = static_cast<int>(i);
  }
  return pos;
}

ComputeDag induced_subdag(const ComputeDag& dag,
                          const std::vector<NodeId>& nodes,
                          std::vector<NodeId>* local_of) {
  std::vector<NodeId> map(dag.num_nodes(), kInvalidNode);
  ComputeDag sub(dag.name() + "#sub");
  for (NodeId v : nodes) {
    map[v] = sub.add_node(dag.omega(v), dag.mu(v));
  }
  for (NodeId v : nodes) {
    for (NodeId c : dag.children(v)) {
      if (map[c] != kInvalidNode) sub.add_edge(map[v], map[c]);
    }
  }
  if (local_of != nullptr) *local_of = std::move(map);
  return sub;
}

ComputeDag quotient_graph(const ComputeDag& dag, const std::vector<int>& part,
                          int num_parts) {
  ComputeDag q(dag.name() + "#quotient");
  std::vector<double> omega(num_parts, 0.0), mu(num_parts, 0.0);
  for (NodeId v = 0; v < dag.num_nodes(); ++v) {
    assert(part[v] >= 0 && part[v] < num_parts);
    omega[part[v]] += dag.omega(v);
    mu[part[v]] += dag.mu(v);
  }
  for (int i = 0; i < num_parts; ++i) q.add_node(omega[i], mu[i]);
  for (NodeId u = 0; u < dag.num_nodes(); ++u) {
    for (NodeId v : dag.children(u)) {
      if (part[u] != part[v]) q.add_edge(part[u], part[v]);
    }
  }
  return q;
}

std::size_t cut_edges(const ComputeDag& dag, const std::vector<int>& part) {
  std::size_t cut = 0;
  for (NodeId u = 0; u < dag.num_nodes(); ++u) {
    for (NodeId v : dag.children(u)) {
      if (part[u] != part[v]) ++cut;
    }
  }
  return cut;
}

void expand_mask(const ComputeDag& dag, std::vector<char>& mask, int hops) {
  std::vector<NodeId> frontier, next;
  for (NodeId v = 0; v < dag.num_nodes(); ++v) {
    if (mask[static_cast<std::size_t>(v)]) frontier.push_back(v);
  }
  const auto reach = [&](NodeId u) {
    if (!mask[static_cast<std::size_t>(u)]) {
      mask[static_cast<std::size_t>(u)] = 1;
      next.push_back(u);
    }
  };
  for (int hop = 0; hop < hops && !frontier.empty(); ++hop) {
    next.clear();
    for (NodeId v : frontier) {
      for (NodeId u : dag.parents(v)) reach(u);
      for (NodeId c : dag.children(v)) reach(c);
    }
    frontier.swap(next);
  }
}

}  // namespace mbsp
