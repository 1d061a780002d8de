#pragma once
// Hierarchical scheduling: the one pipeline behind both the paper's
// divide-and-conquer scheduler (Section 6.3) and the sharded out-of-core
// scheduler for million-node CSR-native DAGs (docs/SCALE.md).
//
//   1. acyclic partition, chosen by the caller: the sharded scheduler cuts
//      the DAG into `num_shards` contiguous intervals of the deterministic
//      Kahn topological order, balanced by cumulative omega (O(n + m), the
//      quotient is acyclic by construction); divide-and-conquer passes the
//      recursive ILP bipartition into parts of <= 60 nodes;
//   2. wave packing + machine slicing: parts are grouped into waves of
//      mutually independent quotient nodes and each wave splits the
//      processors proportionally to work (the adjusted-BSPg allocation of
//      the paper);
//   3. per-part solves fan out on a ThreadPool: every part gets a greedy
//      warm start plus an LNS polish with a part-indexed seed, results are
//      collected by part index, so the outcome is bitwise reproducible
//      for a fixed (seed, partition) regardless of thread count;
//   4. stitch: sub-plans are spliced wave-by-wave with superstep offsets
//      and normalized; the global memory completion then performs the
//      paper's "streamlining" (values kept in cache across part
//      boundaries, dead values dropped);
//   5. boundary polish: a final global LNS pass whose node mask
//      (LnsOptions::node_mask) is restricted to the endpoints of cut
//      edges plus a configurable halo — only the shard seams move, so
//      each iteration stays O(delta) through the incremental evaluator.
//
// The result is never worse than the unpartitioned greedy warm start when
// compare_full_seed is on (the cheaper of the two plans is returned).
// Divide-and-conquer is the configuration divide_conquer_options() builds:
// no boundary polish, no seed compare, its historical per-part seeds.

#include <cstdint>
#include <vector>

#include "src/holistic/lns.hpp"
#include "src/model/arch.hpp"
#include "src/model/instance.hpp"

namespace mbsp {

/// A shard (or divide-and-conquer part) as a scheduling subproblem: its
/// nodes plus its external inputs (parents outside the part), which become
/// zero-omega sources of the sub-DAG.
struct ShardSubproblem {
  std::vector<NodeId> globals;  ///< sub node id -> global node id
  ComputeDag dag;
};

/// Builds the sub-instance DAG for one shard/part: external inputs first
/// (as uncomputed sources that keep their memory weight), then the part's
/// nodes, with every parent edge of a part node preserved.
ShardSubproblem make_shard_subproblem(const ComputeDag& dag,
                                      const std::vector<NodeId>& part_nodes);

/// Slices `arch` down to the processors in `procs` (global ids), keeping
/// each processor's speed, capacity and comm group; groups are renumbered
/// dense in first-appearance order. Uniform machines slice to a smaller
/// uniform machine.
Architecture slice_architecture(const Architecture& arch,
                                const std::vector<int>& procs);

/// Deterministic acyclic k-way partition: contiguous intervals of the
/// Kahn topological order, cut so each shard carries ~1/k of the total
/// omega. Returns the shards in quotient-topological order (interval
/// order); every shard is non-empty, so the result may have fewer than
/// `num_shards` entries on tiny DAGs.
std::vector<std::vector<NodeId>> acyclic_kway_partition(const ComputeDag& dag,
                                                        int num_shards);

struct ShardOptions {
  int num_shards = 8;
  /// Per-shard LNS configuration; budget_ms is *per shard* and the seed is
  /// re-derived per shard (SplitMix over lns.seed and the shard index).
  LnsOptions lns;
  /// Nonzero replaces the SplitMix derivation with shard q solving under
  /// lns.seed + q * part_seed_stride — divide-and-conquer's seeds, kept so
  /// its paper-table numbers do not move.
  std::uint64_t part_seed_stride = 0;
  /// Global boundary polish sizing. budget_ms = 0 with a finite iteration
  /// cap keeps the polish bit-reproducible; 0 iterations disables it.
  double polish_budget_ms = 0;
  long polish_max_iterations = 20'000;
  /// Worker threads for the per-shard fan-out (0 = hardware concurrency).
  /// Thread count never changes the result, only the wall clock.
  int num_threads = 0;
  /// Also compute the unpartitioned greedy warm start and return the
  /// cheaper plan — the sharded pipeline is then provably no worse than
  /// the seed. Disable for instances too large to schedule unsharded.
  bool compare_full_seed = true;
};

struct ShardResult {
  ComputePlan plan;
  MbspSchedule schedule;
  double cost = 0;            ///< final cost (after polish / seed compare)
  double stitched_cost = 0;   ///< stitched sharded plan, before polish
  double seed_cost = 0;       ///< unpartitioned greedy seed (0 if skipped)
  std::size_t num_shards = 0;
  std::size_t cut_edges = 0;       ///< DAG edges crossing shards
  std::size_t boundary_nodes = 0;  ///< nodes in the polish move mask
  bool used_full_seed = false;  ///< the unpartitioned seed won the compare
};

/// Runs the full pipeline described above on a caller-supplied acyclic
/// partition of inst.dag (`parts` must cover every node exactly once and
/// induce an acyclic quotient; options.num_shards is ignored).
/// Deterministic for fixed (options.lns.seed, parts) when the LNS budgets
/// are iteration-capped (budget_ms = 0), regardless of options.num_threads.
ShardResult shard_schedule(const MbspInstance& inst,
                           const std::vector<std::vector<NodeId>>& parts,
                           const ShardOptions& options);

/// The sharded scheduler: the pipeline on
/// acyclic_kway_partition(inst.dag, options.num_shards).
ShardResult shard_schedule(const MbspInstance& inst,
                           const ShardOptions& options);

/// The divide-and-conquer configuration (Section 6.3) with per-part LNS
/// options `per_part`: no boundary polish, no full-seed compare, one
/// worker thread (callers such as the batch runner already run in
/// parallel), per-part seeds per_part.seed + q * 1000003. Pair it with
/// recursive_acyclic_partition(inst.dag, max_part_size) parts.
ShardOptions divide_conquer_options(const LnsOptions& per_part);

}  // namespace mbsp
