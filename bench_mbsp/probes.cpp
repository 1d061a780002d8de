// Per-layer probes: after the timed phase, a traced run calls every probed
// public function a few times on the workload's own inputs. A per-layer
// value comes from a probe only when neither the timed phase nor the
// post-phase passes called that function, so every workload reports every
// per-layer metric with the same meaning: the cost of that call on this
// workload's inputs.

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "bench_mbsp/calls.hpp"
#include "bench_mbsp/workloads.hpp"

namespace mbsp::bench {
namespace {

constexpr int kRepeats = 5;
constexpr long kIterations = 400;
constexpr long kDaemonIterations = 300;
constexpr int kShards = 4;

/// A small drift-and-grow delta: four compute weights scaled by 1.5 and one
/// new node reading an interior node. The new node's memory weight is that
/// of one of its parent's children, so min_memory_r0 cannot grow.
InstanceDelta probe_delta(const ComputeDag& dag, std::uint64_t seed) {
  Rng rng(seed);
  InstanceDelta delta;
  const auto n = static_cast<std::size_t>(dag.num_nodes());
  int drifted = 0;
  bool grown = false;
  for (int tries = 0; tries < 1000 && (drifted < 4 || !grown); ++tries) {
    const auto u = static_cast<NodeId>(rng.index(n));
    if (drifted < 4 && !dag.is_source(u)) {
      delta.set_node_weight(u, dag.omega(u) * 1.5, dag.mu(u));
      ++drifted;
    } else if (!grown && !dag.is_sink(u)) {
      delta.add_node(1.0, dag.mu(dag.children(u).front()));
      delta.add_edge(u, static_cast<NodeId>(n));
      grown = true;
    }
  }
  return delta;
}

void probe_graph(const ComputeDag& dag) {
  const std::string bytes = calls::dag_to_binary(dag);
  const std::string path = scratch_path("probe", ".bin");
  {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out) throw std::runtime_error("cannot write " + path);
  }
  std::string error;
  for (int r = 0; r < kRepeats; ++r) {
    if (!calls::read_dag_file(path, &error)) {
      throw std::runtime_error("probe ingest: " + error);
    }
    if (!calls::dag_from_binary(bytes, &error)) {
      throw std::runtime_error("probe decode: " + error);
    }
    calls::dag_canonical_hash(dag);
    for (const auto& part : calls::acyclic_kway_partition(dag, kShards)) {
      calls::make_shard_subproblem(dag, part);
    }
  }
  std::remove(path.c_str());
}

void probe_solvers(const MbspInstance& inst, std::uint64_t seed,
                   LayerSamples& samples) {
  const calls::Baseline base = calls::baseline(inst);
  std::string error;
  if (!calls::validate(inst, base.schedule, &error)) {
    throw std::runtime_error("probe baseline invalid: " + error);
  }
  const LnsOptions lns = calls::capped_lns(kIterations, derive_seed(seed, 20));
  const LnsResult solved = calls::improve_plan(inst, base.plan, lns);
  calls::record_lns(samples, solved);

  calls::record_shard(
      samples,
      calls::shard_schedule(inst, calls::shard_options(derive_seed(seed, 21))),
      base.cost, inst.dag.num_nodes());

  const InstanceDelta delta = probe_delta(inst.dag, derive_seed(seed, 22));
  MbspInstance mutated = inst;
  if (!calls::apply_instance_delta(mutated, delta, &error)) {
    throw std::runtime_error("probe delta: " + error);
  }
  RepairOptions repair;
  repair.lns = lns;
  repair.mask_radius = 2;
  Clock::time_point start = Clock::now();
  const auto repaired =
      calls::repair_plan(mutated, solved.plan, delta, repair, &error);
  const double repair_ms = ms_between(start, Clock::now());
  if (!repaired) throw std::runtime_error("probe repair: " + error);
  repair.polish = false;
  calls::repair_plan(mutated, solved.plan, delta, repair, &error);
  samples.add("repair.polish_iters",
              static_cast<double>(repaired->polish_iterations));
  samples.add("repair.masked_frac",
              static_cast<double>(repaired->masked_nodes) /
                  static_cast<double>(mutated.dag.num_nodes()));
  samples.add("repair.full_mask", repaired->full_mask ? 1 : 0);
  start = Clock::now();
  const calls::Baseline mutated_base = calls::baseline(mutated);
  const LnsResult resolved = calls::improve_plan(mutated, mutated_base.plan, lns);
  const double resolve_ms = ms_between(start, Clock::now());
  samples.add("repair.resolve_ms", resolve_ms);
  samples.add("repair.wall_speedup", resolve_ms / repair_ms);
  samples.add("repair.vs_resolve_cost", repaired->cost / resolved.cost);
}

void probe_daemon(const MbspInstance& inst, const std::string& machine_spec,
                  std::uint64_t seed, LayerSamples& samples) {
  daemon::ScheduleRequest request;
  request.dag_bytes = mbsp::dag_to_binary(inst.dag);
  request.machine_spec = machine_spec;
  request.budget_ms = 0;
  request.max_iterations = kDaemonIterations;
  request.seed = derive_seed(seed, 23);
  std::string error;
  for (int r = 0; r < kRepeats; ++r) {
    daemon::ScheduleRequest decoded;
    if (!calls::decode_schedule_request(calls::encode_schedule_request(request),
                                        &decoded, &error)) {
      throw std::runtime_error("probe request codec: " + error);
    }
  }

  daemon::MbspdOptions server_options;
  server_options.socket_path = scratch_path("probe", ".sock");
  server_options.solver_threads = 2;
  daemon::MbspdServer server(server_options);
  if (!server.start(&error)) throw std::runtime_error("probe mbspd: " + error);
  daemon::MbspClient client;
  if (!client.connect(server_options.socket_path, &error)) {
    throw std::runtime_error("probe connect: " + error);
  }
  daemon::MbspClient::Outcome outcome;
  const auto timed_request = [&](const char* key, daemon::CacheStatus expect) {
    const Clock::time_point start = Clock::now();
    if (!calls::client_run(client, request, &outcome, &error) || !outcome.ok ||
        outcome.final.cache != expect) {
      throw std::runtime_error(std::string("probe request ") + key + ": " +
                               error + outcome.error.message);
    }
    const double ms = ms_between(start, Clock::now());
    samples.add(key, ms);
    return ms;
  };
  // One cold solve, one warm re-solve at twice the effort, then exact hits
  // on the warm entry.
  const double cold_ms = timed_request("daemon.cold_ms", daemon::CacheStatus::kCold);
  request.max_iterations = 2 * kDaemonIterations;
  timed_request("daemon.warm_ms", daemon::CacheStatus::kWarm);
  for (int r = 0; r < kRepeats; ++r) {
    timed_request("daemon.exact_ms", daemon::CacheStatus::kExact);
  }
  client.close();
  server.stop();

  for (int r = 0; r < kRepeats; ++r) {
    const std::string payload = calls::encode_final_result(outcome.final);
    daemon::FinalResult decoded;
    if (!calls::decode_final_result(payload, &decoded, &error)) {
      throw std::runtime_error("probe final codec: " + error);
    }
    if (r == 0) samples.add("daemon.final_bytes", static_cast<double>(payload.size()));
  }

  SchedulerOptions solve;
  solve.budget_ms = 0;
  solve.max_iterations = kDaemonIterations;
  solve.seed = request.seed;
  daemon::ScheduleCache cache(16);
  const daemon::ScheduleCacheKey key = daemon::make_cache_key(inst, "lns", solve);
  daemon::ScheduleCacheEntry entry;
  entry.plan = outcome.final.plan;
  entry.max_iterations = kDaemonIterations;
  cache.insert(key, entry);
  for (int r = 0; r < kRepeats; ++r) {
    calls::cache_lookup(cache, key, kDaemonIterations, &entry);
  }

  // The daemon's cold overhead: its cold latency minus an in-process solve
  // of the same request.
  const MbspScheduler* lns = SchedulerRegistry::global().find("lns");
  if (lns == nullptr) throw std::runtime_error("no registry lns scheduler");
  const Clock::time_point start = Clock::now();
  lns->run(inst, solve);
  samples.add("daemon.cold_overhead_ms", cold_ms - ms_between(start, Clock::now()));
}

}  // namespace

void run_probes(const ProbeInputs& inputs, const RunOptions& options,
                LayerSamples& samples) {
  probe_graph(*inputs.dag);
  probe_solvers(*inputs.inst, options.seed, samples);
  probe_daemon(*inputs.inst, inputs.machine_spec, options.seed, samples);
}

}  // namespace mbsp::bench
