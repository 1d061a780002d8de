// Scaling example: scheduling a ~300-node DAG with the divide-and-conquer
// pipeline of Section 6.3 — ILP-based acyclic bipartitioning into <= 60
// node parts, a quotient-level processor allocation, per-part holistic
// solves, and a global memory completion that stitches the parts together.
// Divide-and-conquer is a configuration of the hierarchical shard_schedule
// pipeline (src/holistic/shard.hpp): the recursive partition's parts plus
// divide_conquer_options() — no boundary polish, no full-seed compare.

#include <cstdio>

#include "include/mbsp/mbsp.hpp"

int main() {
  using namespace mbsp;

  auto dataset = small_dataset(2025);
  ComputeDag dag = std::move(dataset[2]);  // spmv_N25, ~290 nodes
  const double r0 = min_memory_r0(dag);
  std::printf("instance %s: %d nodes, %zu edges, r0 = %.0f\n",
              dag.name().c_str(), dag.num_nodes(), dag.num_edges(), r0);
  const MbspInstance inst{std::move(dag),
                          Architecture::make(4, 5 * r0, 1, 10)};

  // Step 1 in isolation: what does the acyclic partitioner produce?
  const auto parts = recursive_acyclic_partition(inst.dag, 60);
  std::size_t boundary = 0;
  {
    std::vector<int> part_of(inst.dag.num_nodes());
    for (std::size_t i = 0; i < parts.size(); ++i) {
      for (NodeId v : parts[i]) part_of[v] = static_cast<int>(i);
    }
    boundary = cut_edges(inst.dag, part_of);
  }
  std::printf("acyclic partition: %zu parts, %zu cut edges\n", parts.size(),
              boundary);

  // The two-stage baseline for reference, then the full divide-and-conquer
  // run — both through the scheduler registry.
  const SchedulerRegistry& registry = SchedulerRegistry::global();
  SchedulerOptions options;
  options.budget_ms = 1600;  // the divide-conquer adapter spends /4 per part
  const ScheduleResult base =
      registry.at("bspg+clairvoyant").run(inst, options);
  const ScheduleResult res = registry.at("divide-conquer").run(inst, options);
  validate_or_die(inst, res.schedule);

  std::printf("baseline cost %.0f | divide-and-conquer cost %.0f "
              "(ratio %.2fx, %zu parts)\n",
              base.cost, res.cost, res.cost / base.cost, res.num_parts);
  std::printf("\nOn SpMV-like DAGs the parts are loosely coupled and the\n"
              "method wins; on exp/kNN-like DAGs the per-part optima ignore\n"
              "cross-part cache reuse and it can lose to the baseline —\n"
              "exactly the behaviour Table 2 of the paper reports.\n");
  return 0;
}
