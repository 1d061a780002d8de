#include "src/holistic/shard.hpp"

#include <algorithm>
#include <cassert>
#include <thread>

#include "src/bsp/greedy_scheduler.hpp"
#include "src/graph/topology.hpp"
#include "src/model/cost.hpp"
#include "src/twostage/two_stage.hpp"
#include "src/util/thread_pool.hpp"

namespace mbsp {

namespace {

/// SplitMix64 finalizer, the same mixer Rng seeding and the portfolio's
/// worker-seed derivation use: one well-mixed output per distinct input.
std::uint64_t splitmix64_mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Distinct salts so a shard solve and the boundary polish can never
// collide on the same derived seed (docs/SCALE.md, determinism contract).
constexpr std::uint64_t kShardSalt = 0xA24BAED4963EE407ull;
constexpr std::uint64_t kPolishSalt = 0x9FB21C651E98DF25ull;

std::uint64_t shard_seed(std::uint64_t base, std::size_t shard) {
  return splitmix64_mix(base ^
                        (kShardSalt * (static_cast<std::uint64_t>(shard) + 1)));
}

}  // namespace

ShardSubproblem make_shard_subproblem(const ComputeDag& dag,
                                      const std::vector<NodeId>& part_nodes) {
  ShardSubproblem sub;
  std::vector<char> in_part(dag.num_nodes(), 0);
  for (NodeId v : part_nodes) in_part[v] = 1;
  // External inputs first (sources of the sub-DAG), then the part's nodes.
  std::vector<char> added(dag.num_nodes(), 0);
  for (NodeId v : part_nodes) {
    for (NodeId u : dag.parents(v)) {
      if (!in_part[u] && !added[u]) {
        added[u] = 1;
        sub.globals.push_back(u);
      }
    }
  }
  const std::size_t num_external = sub.globals.size();
  for (NodeId v : part_nodes) sub.globals.push_back(v);
  std::vector<NodeId> local(dag.num_nodes(), kInvalidNode);
  sub.dag.set_name(dag.name() + "#part");
  for (std::size_t i = 0; i < sub.globals.size(); ++i) {
    const NodeId v = sub.globals[i];
    // External inputs keep their memory weight but are not computed.
    const double omega = i < num_external ? 0.0 : dag.omega(v);
    local[v] = sub.dag.add_node(omega, dag.mu(v));
  }
  for (NodeId v : part_nodes) {
    for (NodeId u : dag.parents(v)) {
      sub.dag.add_edge(local[u], local[v]);
    }
  }
  return sub;
}

Architecture slice_architecture(const Architecture& arch,
                                const std::vector<int>& procs) {
  // The sub-machine keeps each assigned processor's speed, capacity and
  // comm group (groups renumbered dense in first-appearance order), so
  // part-local solves optimize against the true hardware.
  Architecture sub_arch = Architecture::make(static_cast<int>(procs.size()),
                                             arch.fast_memory, arch.g, arch.L);
  if (!arch.is_uniform()) {
    sub_arch.g_in = arch.g_in;
    sub_arch.g_out = arch.g_out;
    sub_arch.L_group = arch.L_group;
    std::vector<int> dense_group(static_cast<std::size_t>(arch.num_groups()),
                                 -1);
    int next_group = 0;
    for (int gp : procs) {
      sub_arch.speeds.push_back(arch.speed(gp));
      sub_arch.memories.push_back(arch.memory(gp));
      if (!arch.group_of.empty()) {
        int& dense = dense_group[static_cast<std::size_t>(arch.group(gp))];
        if (dense < 0) dense = next_group++;
        sub_arch.group_of.push_back(dense);
      }
    }
  }
  return sub_arch;
}

std::vector<std::vector<NodeId>> acyclic_kway_partition(const ComputeDag& dag,
                                                        int num_shards) {
  const NodeId n = dag.num_nodes();
  std::vector<std::vector<NodeId>> shards;
  if (n == 0) return shards;
  const int k = std::max(1, std::min<int>(num_shards, n));
  const std::vector<NodeId> order = topological_order(dag);
  assert(static_cast<NodeId>(order.size()) == n);

  const double total = std::max(1e-12, dag.total_omega());
  shards.reserve(static_cast<std::size_t>(k));
  std::vector<NodeId> current;
  double cum = 0;
  int shard_index = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    current.push_back(order[i]);
    cum += dag.omega(order[i]);
    // Close the interval once it carries its omega share — but never
    // leave fewer nodes than shards still to fill, and fold everything
    // remaining into the last shard.
    const std::size_t remaining_nodes = order.size() - i - 1;
    const int remaining_shards = k - shard_index - 1;
    const bool quota_met =
        cum >= total * (static_cast<double>(shard_index) + 1) / k;
    if (shard_index < k - 1 &&
        (quota_met || remaining_nodes == static_cast<std::size_t>(
                                             remaining_shards)) &&
        remaining_nodes >= static_cast<std::size_t>(remaining_shards)) {
      shards.push_back(std::move(current));
      current.clear();
      ++shard_index;
    }
  }
  if (!current.empty()) shards.push_back(std::move(current));
  return shards;
}

ShardResult shard_schedule(const MbspInstance& inst,
                           const ShardOptions& options) {
  return shard_schedule(
      inst, acyclic_kway_partition(inst.dag, options.num_shards), options);
}

ShardOptions divide_conquer_options(const LnsOptions& per_part) {
  ShardOptions options;
  options.lns = per_part;
  options.part_seed_stride = 1000003;
  options.polish_max_iterations = 0;
  options.num_threads = 1;
  options.compare_full_seed = false;
  return options;
}

ShardResult shard_schedule(const MbspInstance& inst,
                           const std::vector<std::vector<NodeId>>& shards,
                           const ShardOptions& options) {
  const ComputeDag& dag = inst.dag;
  const int P = inst.arch.num_processors;
  ShardResult result;
  result.num_shards = shards.size();

  std::vector<int> part_of(dag.num_nodes(), -1);
  for (std::size_t i = 0; i < shards.size(); ++i) {
    for (NodeId v : shards[i]) part_of[v] = static_cast<int>(i);
  }

  // Wave packing on the quotient graph: a shard is ready when all quotient
  // predecessors are scheduled; each wave takes up to P independent ready
  // shards (largest work first) and gives each >= 1 processor plus a share
  // of the rest proportional to work. All of this is decided before any
  // solve runs, so the proc slices (and therefore the solves) are
  // thread-independent.
  const ComputeDag quotient =
      quotient_graph(dag, part_of, static_cast<int>(shards.size()));
  std::vector<int> waiting(shards.size(), 0);
  for (NodeId q = 0; q < quotient.num_nodes(); ++q) {
    waiting[q] = static_cast<int>(quotient.parents(q).size());
  }
  std::vector<int> ready;
  for (NodeId q = 0; q < quotient.num_nodes(); ++q) {
    if (waiting[q] == 0) ready.push_back(static_cast<int>(q));
  }

  std::vector<std::vector<int>> waves;
  std::vector<std::vector<int>> shard_procs(shards.size());
  while (!ready.empty()) {
    std::sort(ready.begin(), ready.end(), [&](int a, int b) {
      return quotient.omega(a) > quotient.omega(b);
    });
    const int wave_size = std::min<int>(P, static_cast<int>(ready.size()));
    std::vector<int> wave(ready.begin(), ready.begin() + wave_size);
    ready.erase(ready.begin(), ready.begin() + wave_size);

    double wave_work = 0;
    for (int q : wave) wave_work += quotient.omega(q);
    std::vector<int> alloc(wave.size(), 1);
    int left = P - static_cast<int>(wave.size());
    // A zero-work wave has no proportions; round-robin hands out the rest.
    for (std::size_t i = 0; i < wave.size() && left > 0 && wave_work > 0;
         ++i) {
      const int extra = std::min<int>(
          left, static_cast<int>(quotient.omega(wave[i]) / wave_work *
                                 (P - static_cast<double>(wave.size()))));
      alloc[i] += extra;
      left -= extra;
    }
    for (std::size_t i = 0; left > 0; i = (i + 1) % wave.size()) {
      ++alloc[i];
      --left;
    }
    int next_proc = 0;
    for (std::size_t i = 0; i < wave.size(); ++i) {
      for (int kk = 0; kk < alloc[i]; ++kk) {
        shard_procs[static_cast<std::size_t>(wave[i])].push_back(next_proc++);
      }
    }
    for (int q : wave) {
      for (NodeId c : quotient.children(q)) {
        if (--waiting[c] == 0) ready.push_back(static_cast<int>(c));
      }
    }
    waves.push_back(std::move(wave));
  }

  // Per-shard solves, fanned out on the pool. Every task is independent
  // (own sub-instance, own Rng from a shard-indexed seed) and writes only
  // its own slot, so the fan-out is bitwise thread-count-independent.
  struct Solved {
    std::vector<NodeId> globals;
    ComputePlan plan;
  };
  std::vector<Solved> solved(shards.size());
  const std::size_t threads =
      options.num_threads > 0
          ? static_cast<std::size_t>(options.num_threads)
          : std::max(1u, std::thread::hardware_concurrency());
  {
    ThreadPool pool(std::min(threads, std::max<std::size_t>(1, shards.size())));
    parallel_for(pool, shards.size(), [&](std::size_t q) {
      ShardSubproblem sub = make_shard_subproblem(dag, shards[q]);
      const MbspInstance sub_inst{
          sub.dag, slice_architecture(inst.arch, shard_procs[q])};
      GreedyBspScheduler greedy;
      const BspSchedule bsp = greedy.schedule(sub_inst.dag, sub_inst.arch);
      const ComputePlan initial =
          plan_from_bsp(sub_inst.dag, bsp, sub_inst.arch.num_processors);
      LnsOptions lns = options.lns;
      lns.seed = options.part_seed_stride != 0
                     ? options.lns.seed + static_cast<std::uint64_t>(q) *
                                              options.part_seed_stride
                     : shard_seed(options.lns.seed, q);
      LnsSearchResult improved = search_plan(sub_inst, initial, lns);
      solved[q] = {std::move(sub.globals), std::move(improved.plan)};
    });
  }

  // Stitch wave-by-wave with superstep offsets (quotient-topological
  // order).
  ComputePlan global_plan;
  global_plan.num_procs = P;
  global_plan.seq.resize(P);
  int superstep_offset = 0;
  for (const auto& wave : waves) {
    int wave_supersteps = 0;
    for (int q : wave) {
      const Solved& s = solved[static_cast<std::size_t>(q)];
      const auto& procs = shard_procs[static_cast<std::size_t>(q)];
      for (int lp = 0; lp < static_cast<int>(procs.size()); ++lp) {
        const int gp = procs[static_cast<std::size_t>(lp)];
        for (const PlannedCompute& pc : s.plan.seq[lp]) {
          global_plan.seq[gp].push_back(
              {s.globals[pc.node], superstep_offset + pc.superstep});
        }
      }
      wave_supersteps = std::max(wave_supersteps, s.plan.num_supersteps());
    }
    superstep_offset += std::max(1, wave_supersteps);
  }
  normalize_supersteps(global_plan);
  const PlanValidation stitched_ok = validate_plan(dag, global_plan);
  assert(stitched_ok.ok);
  (void)stitched_ok;

  // Boundary move mask: endpoints of cut edges, expanded by the halo.
  std::vector<char> mask(static_cast<std::size_t>(dag.num_nodes()), 0);
  for (NodeId u = 0; u < dag.num_nodes(); ++u) {
    for (NodeId v : dag.children(u)) {
      if (part_of[u] != part_of[v]) {
        ++result.cut_edges;
        mask[static_cast<std::size_t>(u)] = 1;
        mask[static_cast<std::size_t>(v)] = 1;
      }
    }
  }
  for (int hop = 0; hop < options.boundary_halo; ++hop) {
    std::vector<char> next = mask;
    for (NodeId v = 0; v < dag.num_nodes(); ++v) {
      if (mask[static_cast<std::size_t>(v)] == 0) continue;
      for (NodeId u : dag.parents(v)) next[static_cast<std::size_t>(u)] = 1;
      for (NodeId c : dag.children(v)) next[static_cast<std::size_t>(c)] = 1;
    }
    mask.swap(next);
  }
  for (char bit : mask) result.boundary_nodes += bit != 0;

  // Every completion below has a reader, and at most one full schedule is
  // alive at a time. The polish's attach() prices the stitched plan
  // bitwise like evaluate_plan, so a polished run gets stitched_cost for
  // free; the returned schedule is completed once, from the final plan.
  const bool run_polish = result.num_shards > 1 && result.boundary_nodes > 0 &&
                          options.polish_max_iterations > 0;
  bool completed = false;  // result.schedule is result.plan's completion
  result.plan = std::move(global_plan);
  if (run_polish) {
    // Global polish restricted to the boundary (O(delta) per move through
    // the incremental evaluator). The search never returns a worse plan.
    LnsOptions polish = options.lns;
    polish.budget_ms = options.polish_budget_ms;
    polish.max_iterations = options.polish_max_iterations;
    polish.seed = splitmix64_mix(options.lns.seed ^ kPolishSalt);
    polish.node_mask = &mask;
    LnsSearchResult polished = search_plan(inst, result.plan, polish);
    result.stitched_cost = polished.initial_cost;
    result.cost = polished.cost;
    result.plan = std::move(polished.plan);
  } else {
    // Without a seed compare the stitched plan is final by construction.
    completed = !options.compare_full_seed;
    result.stitched_cost = evaluate_plan(
        inst, result.plan, options.lns, completed ? &result.schedule : nullptr);
    result.cost = result.stitched_cost;
  }

  // Safety net: the unpartitioned greedy warm start. Returning the
  // cheaper of the two makes the pipeline cost-<= the seed by
  // construction (tests assert this). A winning seed keeps the schedule
  // its pricing already built.
  if (options.compare_full_seed) {
    GreedyBspScheduler greedy;
    const BspSchedule bsp = greedy.schedule(dag, inst.arch);
    ComputePlan seed_plan = plan_from_bsp(dag, bsp, P);
    MbspSchedule seed_schedule;
    result.seed_cost =
        evaluate_plan(inst, seed_plan, options.lns, &seed_schedule);
    if (result.seed_cost < result.cost) {
      result.cost = result.seed_cost;
      result.plan = std::move(seed_plan);
      result.schedule = std::move(seed_schedule);
      result.used_full_seed = true;
      completed = true;
    }
  }
  if (!completed) {
    result.schedule =
        complete_memory(inst, result.plan, options.lns.completion_policy);
  }
  return result;
}

}  // namespace mbsp
