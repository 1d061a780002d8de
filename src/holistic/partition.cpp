#include "src/holistic/partition.hpp"

#include <algorithm>
#include <cassert>
#include <deque>

#include "src/graph/topology.hpp"
#include "src/ilp/solver.hpp"
#include "src/util/rng.hpp"

namespace mbsp {

namespace {

/// Minimum share of the nodes on each side.
constexpr double kMinSideFraction = 1.0 / 3.0;

}  // namespace

ilp::Model build_bipartition_ilp(const ComputeDag& dag, int lo_ones,
                                 int hi_ones) {
  using ilp::LinExpr;
  using ilp::Sense;
  ilp::Model model("acyclic_bipartition_" + dag.name());
  const NodeId n = dag.num_nodes();
  std::vector<ilp::VarId> part(n);
  for (NodeId v = 0; v < n; ++v) {
    part[v] = model.add_binary("part_" + std::to_string(v));
  }
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : dag.children(u)) {
      // Acyclicity: part[u] <= part[v].
      LinExpr acyclic;
      acyclic.add(part[u], 1.0);
      acyclic.add(part[v], -1.0);
      model.add_constraint(std::move(acyclic), Sense::kLe, 0.0);
      // Cut indicator: y >= part[v] - part[u]; objective coefficient 1.
      const ilp::VarId y = model.add_binary(
          "cut_" + std::to_string(u) + "_" + std::to_string(v));
      LinExpr cut;
      cut.add(y, 1.0);
      cut.add(part[v], -1.0);
      cut.add(part[u], 1.0);
      model.add_constraint(std::move(cut), Sense::kGe, 0.0);
      model.set_objective_coeff(y, 1.0);
    }
  }
  LinExpr balance_lo, balance_hi;
  for (NodeId v = 0; v < n; ++v) {
    balance_lo.add(part[v], 1.0);
    balance_hi.add(part[v], 1.0);
  }
  model.add_constraint(std::move(balance_lo), Sense::kGe,
                       static_cast<double>(lo_ones));
  model.add_constraint(std::move(balance_hi), Sense::kLe,
                       static_cast<double>(hi_ones));
  return model;
}

BipartitionResult greedy_bipartition(const ComputeDag& dag,
                                     const BipartitionOptions& options) {
  const NodeId n = dag.num_nodes();
  const int lo = std::max(1, static_cast<int>(kMinSideFraction * n));
  const int hi = n - lo;
  Rng rng(options.seed);
  BipartitionResult best;
  best.cut = SIZE_MAX;

  // Several randomized topological orders; every balanced prefix is a
  // candidate down-set.
  for (int attempt = 0; attempt < 8; ++attempt) {
    // Kahn with random tie-breaking.
    std::vector<int> indeg(n, 0);
    for (NodeId v = 0; v < n; ++v) {
      indeg[v] = static_cast<int>(dag.parents(v).size());
    }
    std::vector<NodeId> ready;
    for (NodeId v = 0; v < n; ++v) {
      if (indeg[v] == 0) ready.push_back(v);
    }
    std::vector<NodeId> order;
    while (!ready.empty()) {
      const std::size_t pick = rng.index(ready.size());
      const NodeId v = ready[pick];
      ready[pick] = ready.back();
      ready.pop_back();
      order.push_back(v);
      for (NodeId c : dag.children(v)) {
        if (--indeg[c] == 0) ready.push_back(c);
      }
    }
    // Sweep prefixes, tracking the cut incrementally: when node v moves
    // into part 0 (the prefix), edges from v add to the cut and edges into
    // v from part 0 leave the cut.
    std::vector<int> part(n, 1);
    std::size_t cut = 0;
    for (int prefix = 0; prefix < hi; ++prefix) {
      const NodeId v = order[prefix];
      part[v] = 0;
      cut += dag.children(v).size();
      for (NodeId u : dag.parents(v)) {
        if (part[u] == 0) --cut;
      }
      const int zeros = prefix + 1;
      const int ones = n - zeros;
      if (zeros >= lo && ones >= lo && cut < best.cut) {
        best.cut = cut;
        best.part = part;
      }
    }
  }
  if (best.part.empty()) {  // degenerate: tiny graphs
    best.part.assign(n, 1);
    for (NodeId v = 0; v < n / 2; ++v) best.part[v] = 0;
    best.cut = cut_edges(dag, best.part);
  }

  // FM-style refinement: move a node across if the down-set property and
  // balance are preserved and the cut does not increase.
  bool improved = true;
  int zeros = 0;
  for (NodeId v = 0; v < n; ++v) zeros += best.part[v] == 0;
  while (improved) {
    improved = false;
    for (NodeId v = 0; v < n; ++v) {
      const int side = best.part[v];
      // 0 -> 1 requires all children on side 1 and balance; gain = edges
      // from part-0 parents (newly cut) vs edges to children (no longer
      // cut ... children are all on 1, so edges v->c were cut, now inside).
      if (side == 0) {
        if (zeros - 1 < lo) continue;
        bool movable = true;
        for (NodeId c : dag.children(v)) movable &= best.part[c] == 1;
        if (!movable) continue;
        long gain = static_cast<long>(dag.children(v).size());
        for (NodeId u : dag.parents(v)) {
          if (best.part[u] == 0) gain -= 1;
        }
        if (gain > 0) {
          best.part[v] = 1;
          best.cut -= static_cast<std::size_t>(gain);
          --zeros;
          improved = true;
        }
      } else {
        if (n - zeros - 1 < lo) continue;
        bool movable = true;
        for (NodeId u : dag.parents(v)) movable &= best.part[u] == 0;
        if (!movable) continue;
        long gain = static_cast<long>(dag.parents(v).size());
        for (NodeId c : dag.children(v)) {
          if (best.part[c] == 1) gain -= 1;
        }
        if (gain > 0) {
          best.part[v] = 0;
          best.cut -= static_cast<std::size_t>(gain);
          ++zeros;
          improved = true;
        }
      }
    }
  }
  best.cut = cut_edges(dag, best.part);  // recompute defensively
  return best;
}

BipartitionResult acyclic_bipartition(const ComputeDag& dag,
                                      const BipartitionOptions& options) {
  BipartitionResult greedy = greedy_bipartition(dag, options);
  if (!options.use_ilp) return greedy;

  const NodeId n = dag.num_nodes();
  const int lo = std::max(1, static_cast<int>(kMinSideFraction * n));
  ilp::Model model = build_bipartition_ilp(dag, lo, n - lo);

  // Warm start: part variables from the greedy solution, cut indicators
  // set accordingly (variable order: per edge, after its nodes — rebuild
  // by evaluating the model's feasibility on a constructed vector).
  std::vector<double> warm(model.num_vars(), 0.0);
  {
    int next = 0;
    for (NodeId v = 0; v < n; ++v) {
      warm[next++] = greedy.part[v];
    }
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v : dag.children(u)) {
        warm[next++] =
            (greedy.part[u] == 0 && greedy.part[v] == 1) ? 1.0 : 0.0;
      }
    }
  }

  ilp::MipOptions mip;
  mip.budget_ms = options.ilp_budget_ms;
  ilp::BranchAndBoundSolver solver(mip);
  const ilp::MipResult res = solver.solve(model, warm);
  if (res.status == ilp::MipStatus::kOptimal ||
      res.status == ilp::MipStatus::kFeasible) {
    BipartitionResult out;
    out.part.resize(n);
    for (NodeId v = 0; v < n; ++v) out.part[v] = res.x[v] > 0.5 ? 1 : 0;
    out.cut = cut_edges(dag, out.part);
    out.proven_optimal = res.status == ilp::MipStatus::kOptimal;
    if (out.cut <= greedy.cut) return out;
  }
  return greedy;
}

std::vector<std::vector<NodeId>> recursive_acyclic_partition(
    const ComputeDag& dag, int max_part_size,
    const BipartitionOptions& options) {
  struct Item {
    std::vector<NodeId> nodes;  // global ids
  };
  std::deque<Item> queue;
  {
    std::vector<NodeId> all(dag.num_nodes());
    for (NodeId v = 0; v < dag.num_nodes(); ++v) all[v] = v;
    queue.push_back({std::move(all)});
  }
  std::vector<std::vector<NodeId>> parts;
  BipartitionOptions sub = options;
  while (!queue.empty()) {
    Item item = std::move(queue.front());
    queue.pop_front();
    if (static_cast<int>(item.nodes.size()) <= max_part_size) {
      parts.push_back(std::move(item.nodes));
      continue;
    }
    std::vector<NodeId> local_of;
    const ComputeDag sub_dag = induced_subdag(dag, item.nodes, &local_of);
    sub.seed = sub.seed * 6364136223846793005ull + 1442695040888963407ull;
    const BipartitionResult split = acyclic_bipartition(sub_dag, sub);
    Item first, second;
    for (std::size_t i = 0; i < item.nodes.size(); ++i) {
      (split.part[i] == 0 ? first : second).nodes.push_back(item.nodes[i]);
    }
    if (first.nodes.empty() || second.nodes.empty()) {
      parts.push_back(std::move(item.nodes));  // could not split further
      continue;
    }
    // Part 0 precedes part 1 (all cut edges go 0 -> 1): keep that order.
    queue.push_front(std::move(second));
    queue.push_front(std::move(first));
  }

  // Order the parts topologically in the quotient graph. The quotient is
  // acyclic by construction (every split orients its cut edges 0 -> 1 and
  // the splits are nested), so this always succeeds.
  std::vector<int> part_of(dag.num_nodes(), -1);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    for (NodeId v : parts[i]) part_of[v] = static_cast<int>(i);
  }
  const ComputeDag quotient =
      quotient_graph(dag, part_of, static_cast<int>(parts.size()));
  const auto order = topological_order(quotient);
  assert(order.size() == parts.size() && "quotient must be acyclic");
  std::vector<std::vector<NodeId>> sorted;
  sorted.reserve(parts.size());
  for (NodeId q : order) sorted.push_back(std::move(parts[q]));
  return sorted;
}

}  // namespace mbsp
