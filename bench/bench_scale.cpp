// Out-of-core scale bench (docs/SCALE.md): measures the full streaming
// pipeline end to end —
//
//   1. stream-generate a large instance to disk through DagStreamWriter
//      (O(1) memory, canonical hash on the fly),
//   2. ingest it with the chunked CSR-native binary reader,
//   3. schedule it with the sharded pipeline across a shard-count sweep,
//
// and writes BENCH_scale.json for the perf-trajectory gate. Gated metrics
// are the deterministic cost ratios sharded_over_seed_kN: the polished
// sharded cost over the unpartitioned greedy seed's, priced once before the
// sweep. The pipeline runs without its seed compare, so a ratio can exceed
// 1 and a worse stitch or polish moves it. They are iteration-capped, so
// machine-speed independent; wall times, ingest throughput and peak RSS
// are informational because they track the host. The CI scale-smoke job runs the same pipeline at 10^6
// nodes under an address-space cap the non-streaming path cannot meet.
//
// Environment knobs (on top of the common MBSP_BENCH_* ones):
//   MBSP_BENCH_SCALE_SPEC    workload spec (default a deep-narrow stencil:
//                            streaming families only)
//   MBSP_BENCH_SCALE_SHARDS  comma-separated shard counts (default 1,4,8)
//   MBSP_BENCH_SCALE_ITERS   per-shard LNS iteration cap (default 600)
//   MBSP_BENCH_SCALE_P       processors (default 8)
//   MBSP_BENCH_SCALE_KEEP    if set, the generated .bin is not deleted
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "bench/bench_common.hpp"

using namespace mbsp;
using namespace mbsp::bench;

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

std::vector<int> parse_shards(const std::string& csv) {
  std::vector<int> shards;
  std::string token;
  for (char c : csv + ",") {
    if (c == ',') {
      if (!token.empty()) shards.push_back(std::max(1, std::atoi(token.c_str())));
      token.clear();
    } else {
      token += c;
    }
  }
  if (shards.empty()) shards.push_back(1);
  return shards;
}

}  // namespace

int main() {
  const BenchConfig config = BenchConfig::from_env();
  // Deep-narrow by default: the greedy seed is O(n x ready-width), so a
  // narrow stencil keeps the unpartitioned reference tractable at scale.
  // LNS throughput is a few hundred iterations/s at this size (see
  // BENCH_lns.json), so the default iteration cap is deliberately small:
  // the gate tracks the deterministic cost ratios, not solution quality.
  const std::string spec = env_string(
      "MBSP_BENCH_SCALE_SPEC", "stencil2d:nx=32,ny=8,steps=40");
  const std::vector<int> shard_sweep =
      parse_shards(env_string("MBSP_BENCH_SCALE_SHARDS", "1,4,8"));
  const long iters = env_long("MBSP_BENCH_SCALE_ITERS", 600);
  const int P = static_cast<int>(env_long("MBSP_BENCH_SCALE_P", 8));
  const std::string path = "BENCH_scale_instance.bin";

  // 1. Streaming generation: the DAG never exists in memory here.
  const auto write_start = std::chrono::steady_clock::now();
  std::uint64_t stream_hash = 0;
  {
    std::string error;
    DagStreamWriter writer(path);
    if (!WorkloadRegistry::global().make_dag_stream(spec, config.seed, writer,
                                                    &error)) {
      std::fprintf(stderr, "bench_scale: cannot stream '%s': %s\n",
                   spec.c_str(), error.c_str());
      return 1;
    }
    if (!writer.finish(&stream_hash)) {
      std::fprintf(stderr, "bench_scale: write failed: %s\n",
                   writer.error().c_str());
      return 1;
    }
  }
  const double write_ms = ms_since(write_start);

  // 2. Chunked CSR-native ingest, hash-verified by the footer.
  const auto ingest_start = std::chrono::steady_clock::now();
  std::string error;
  auto dag = read_dag_file(path, &error);
  if (!dag) {
    std::fprintf(stderr, "bench_scale: cannot ingest %s: %s\n", path.c_str(),
                 error.c_str());
    return 1;
  }
  const double ingest_ms = ms_since(ingest_start);
  if (dag_canonical_hash(*dag) != stream_hash) {
    std::fprintf(stderr, "bench_scale: hash mismatch after ingest\n");
    return 1;
  }
  const double nodes = static_cast<double>(dag->num_nodes());
  const double edges = static_cast<double>(dag->num_edges());
  std::printf("bench_scale: %s  (%.0f nodes, %.0f edges, csr_native=%d)\n",
              spec.c_str(), nodes, edges, dag->csr_native() ? 1 : 0);
  std::printf("  stream write %.1f ms, ingest %.1f ms (%.2f Mnodes/s)\n",
              write_ms, ingest_ms, nodes / std::max(1e-3, ingest_ms) / 1e3);

  const MbspInstance inst = make_instance(std::move(*dag), P, 3.0, 1, 10);

  PerfReport report("scale");
  report.add_metric("nodes", nodes, true, false);
  report.add_metric("edges", edges, true, false);
  report.add_metric("stream_write_ms", write_ms, false, false);
  report.add_metric("ingest_ms", ingest_ms, false, false);
  report.add_metric("ingest_mnodes_per_s",
                    nodes / std::max(1e-3, ingest_ms) / 1e3, true, false);

  // 3. The unpartitioned greedy seed (stage 1 + clairvoyant completion),
  // the base of every gated ratio.
  const BspSchedule seed_bsp =
      GreedyBspScheduler().schedule(inst.dag, inst.arch);
  const double seed_cost =
      evaluate_plan(inst, plan_from_bsp(inst.dag, seed_bsp, P), LnsOptions{});

  // 4. Shard-count sweep. Iteration-capped (budget_ms = 0) so the cost
  // ratios are deterministic: they gate exactly, the wall times do not.
  Table table({"shards", "cost", "stitched", "seed", "ratio", "cut edges",
               "boundary", "wall ms"});
  for (int k : shard_sweep) {
    ShardOptions options;
    options.num_shards = k;
    // The gate prices the pipeline's own plan, never the seed it would
    // fall back to.
    options.compare_full_seed = false;
    options.lns.budget_ms = 0;
    options.lns.max_iterations = iters;
    options.lns.seed = config.seed;
    options.polish_budget_ms = 0;
    options.polish_max_iterations = iters / 2;
    const auto solve_start = std::chrono::steady_clock::now();
    const ShardResult result = shard_schedule(inst, options);
    const double solve_ms = ms_since(solve_start);
    const double ratio = result.cost / seed_cost;
    const std::string label = "k" + std::to_string(k);
    report.add_metric("sharded_over_seed_" + label, ratio, false, true,
                      /*exact=*/true);
    report.add_family(label, "cost", result.cost);
    report.add_family(label, "stitched_cost", result.stitched_cost);
    report.add_family(label, "cut_edges",
                      static_cast<double>(result.cut_edges));
    report.add_family(label, "boundary_nodes",
                      static_cast<double>(result.boundary_nodes));
    report.add_family(label, "schedule_ms", solve_ms);
    table.add_row({std::to_string(k), cost_str(result.cost),
                   cost_str(result.stitched_cost), cost_str(seed_cost),
                   fmt(ratio, 4), std::to_string(result.cut_edges),
                   std::to_string(result.boundary_nodes), fmt(solve_ms, 1)});
  }
  report.add_metric("seed_cost", seed_cost, false, false);

  emit(table, "out-of-core scale: " + spec + " (P=" + std::to_string(P) + ")",
       config, "scale");
  report.write();

  if (env_string("MBSP_BENCH_SCALE_KEEP", "").empty()) std::remove(path.c_str());
  return 0;
}
