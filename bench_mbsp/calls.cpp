#include "bench_mbsp/calls.hpp"

#include <stdexcept>

namespace mbsp::bench::calls {

namespace {

constexpr const char* kGraph = "graph";
constexpr const char* kWorkload = "workload";
constexpr const char* kBsp = "bsp";
constexpr const char* kTwoStage = "twostage";
constexpr const char* kModel = "model";
constexpr const char* kLns = "holistic.lns";
constexpr const char* kShard = "holistic.shard";
constexpr const char* kRepair = "holistic.repair";
constexpr const char* kDaemon = "daemon";

}  // namespace

std::optional<ComputeDag> make_dag(const std::string& spec, std::uint64_t seed,
                                   std::string* error) {
  return traced(kWorkload, "make_dag", [&] {
    return WorkloadRegistry::global().make_dag(spec, seed, error);
  });
}

bool make_dag_stream(const std::string& spec, std::uint64_t seed,
                     const std::string& path, std::string* error) {
  Span span(kWorkload, "make_dag_stream");
  DagStreamWriter writer(path);
  if (!WorkloadRegistry::global().make_dag_stream(spec, seed, writer, error)) {
    return false;
  }
  if (!writer.finish()) {
    if (error != nullptr) *error = writer.error();
    return false;
  }
  return true;
}

std::optional<RepairTrace> make_trace(const std::string& spec,
                                      std::uint64_t seed,
                                      const std::string& machine_spec,
                                      std::string* error) {
  return traced(kWorkload, "make_trace", [&] {
    return mbsp::make_trace(spec, seed, machine_spec, error);
  });
}

std::optional<ComputeDag> read_dag_file(const std::string& path,
                                        std::string* error) {
  Span span(kGraph, "read_dag_file");
  auto dag = mbsp::read_dag_file(path, error);
  if (dag) span.set_work(static_cast<double>(dag->num_nodes()));
  return dag;
}

std::string dag_to_binary(const ComputeDag& dag) {
  return traced(kGraph, "dag_to_binary", [&] { return mbsp::dag_to_binary(dag); });
}

std::optional<ComputeDag> dag_from_binary(const std::string& bytes,
                                          std::string* error) {
  return traced(kGraph, "dag_from_binary",
                [&] { return mbsp::dag_from_binary(bytes, error); });
}

std::uint64_t dag_canonical_hash(const ComputeDag& dag) {
  return traced(kGraph, "dag_canonical_hash",
                [&] { return mbsp::dag_canonical_hash(dag); });
}

BspSchedule greedy_stage1(const MbspInstance& inst) {
  return traced(kBsp, "GreedyBspScheduler::schedule", [&] {
    GreedyBspScheduler stage1;
    return stage1.schedule(inst.dag, inst.arch);
  });
}

ComputePlan plan_from_bsp(const MbspInstance& inst, const BspSchedule& bsp) {
  return traced(kTwoStage, "plan_from_bsp", [&] {
    return mbsp::plan_from_bsp(inst.dag, bsp, inst.arch.num_processors);
  });
}

MbspSchedule complete_memory(const MbspInstance& inst,
                             const ComputePlan& plan) {
  Span span(kTwoStage, "complete_memory");
  span.set_work(static_cast<double>(inst.dag.num_nodes()));
  return mbsp::complete_memory(inst, plan, PolicyKind::kClairvoyant);
}

double sync_cost(const MbspInstance& inst, const MbspSchedule& schedule) {
  return traced(kModel, "sync_cost",
                [&] { return mbsp::sync_cost(inst, schedule); });
}

bool validate(const MbspInstance& inst, const MbspSchedule& schedule,
              std::string* error) {
  const ValidationResult result =
      traced(kModel, "validate", [&] { return mbsp::validate(inst, schedule); });
  if (!result.ok && error != nullptr) *error = result.error;
  return result.ok;
}

Baseline baseline(const MbspInstance& inst) {
  Baseline out;
  out.plan = calls::plan_from_bsp(inst, calls::greedy_stage1(inst));
  out.schedule = calls::complete_memory(inst, out.plan);
  out.cost = calls::sync_cost(inst, out.schedule);
  return out;
}

LnsResult improve_plan(const MbspInstance& inst, const ComputePlan& initial,
                       const LnsOptions& options) {
  Span span(kLns, "improve_plan");
  LnsResult result = mbsp::improve_plan(inst, initial, options);
  span.set_work(static_cast<double>(result.iterations));
  return result;
}

ShardResult shard_schedule(const MbspInstance& inst,
                           const ShardOptions& options) {
  return traced(kShard, "shard_schedule",
                [&] { return mbsp::shard_schedule(inst, options); });
}

std::vector<std::vector<NodeId>> acyclic_kway_partition(const ComputeDag& dag,
                                                        int num_shards) {
  return traced(kShard, "acyclic_kway_partition", [&] {
    return mbsp::acyclic_kway_partition(dag, num_shards);
  });
}

ShardSubproblem make_shard_subproblem(const ComputeDag& dag,
                                      const std::vector<NodeId>& part) {
  return traced(kShard, "make_shard_subproblem",
                [&] { return mbsp::make_shard_subproblem(dag, part); });
}

bool apply_instance_delta(MbspInstance& inst, const InstanceDelta& delta,
                          std::string* error) {
  return traced(kRepair, "apply_instance_delta", [&] {
    return mbsp::apply_instance_delta(inst, delta, nullptr, error);
  });
}

std::optional<RepairResult> repair_plan(const MbspInstance& inst,
                                        const ComputePlan& incumbent,
                                        const InstanceDelta& delta,
                                        const RepairOptions& options,
                                        std::string* error) {
  return traced(kRepair, options.polish ? "repair_plan" : "repair_plan[patch]",
                [&] {
                  return mbsp::repair_plan(inst, incumbent, delta, options,
                                           error);
                });
}

std::string encode_schedule_request(const daemon::ScheduleRequest& request) {
  return traced(kDaemon, "encode_schedule_request",
                [&] { return daemon::encode_schedule_request(request); });
}

bool decode_schedule_request(const std::string& payload,
                             daemon::ScheduleRequest* request,
                             std::string* error) {
  return traced(kDaemon, "decode_schedule_request", [&] {
    return daemon::decode_schedule_request(payload, request, error);
  });
}

std::string encode_final_result(const daemon::FinalResult& result) {
  return traced(kDaemon, "encode_final_result",
                [&] { return daemon::encode_final_result(result); });
}

bool decode_final_result(const std::string& payload,
                         daemon::FinalResult* result, std::string* error) {
  return traced(kDaemon, "decode_final_result", [&] {
    return daemon::decode_final_result(payload, result, error);
  });
}

daemon::CacheHit cache_lookup(daemon::ScheduleCache& cache,
                              const daemon::ScheduleCacheKey& key,
                              std::int64_t max_iterations,
                              daemon::ScheduleCacheEntry* out) {
  return traced(kDaemon, "ScheduleCache::lookup", [&] {
    return cache.lookup(key, 0, max_iterations, out);
  });
}

bool client_run(daemon::MbspClient& client,
                const daemon::ScheduleRequest& request,
                daemon::MbspClient::Outcome* outcome, std::string* error) {
  return traced(kDaemon, "MbspClient::run",
                [&] { return client.run(request, outcome, error); });
}

MbspInstance make_instance(ComputeDag dag, const std::string& machine_spec) {
  std::string error;
  auto machine = MachineRegistry::global().make_machine(
      machine_spec, min_memory_r0(dag), &error);
  if (!machine) throw std::runtime_error("machine spec: " + error);
  return {std::move(dag), std::move(*machine)};
}

std::string plan_bytes(const ComputePlan& plan) {
  daemon::WireWriter writer;
  daemon::encode_plan(writer, plan);
  return writer.take();
}

LnsOptions capped_lns(long iterations, std::uint64_t seed) {
  LnsOptions options;
  options.budget_ms = 0;
  options.max_iterations = iterations;
  options.seed = seed;
  return options;
}

ShardOptions shard_options(std::uint64_t seed) {
  ShardOptions options;
  options.num_shards = 4;
  options.lns = capped_lns(50, seed);
  options.polish_budget_ms = 0;
  options.polish_max_iterations = 50;
  options.compare_full_seed = false;
  options.num_threads = 4;
  return options;
}

void record_shard(LayerSamples& samples, const ShardResult& result,
                  double seed_cost, std::size_t num_nodes) {
  samples.add("shard.stitched_over_seed", result.stitched_cost / seed_cost);
  samples.add("shard.final_over_stitched", result.cost / result.stitched_cost);
  samples.add("shard.cut_edges", static_cast<double>(result.cut_edges));
  samples.add("shard.boundary_frac", static_cast<double>(result.boundary_nodes) /
                                         static_cast<double>(num_nodes));
}

void record_lns(LayerSamples& samples, const LnsResult& result) {
  samples.add("lns.iterations", static_cast<double>(result.iterations));
  samples.add("lns.accepted", static_cast<double>(result.accepted));
  if (result.initial_cost > 0) {
    samples.add("lns.improve_frac", 1.0 - result.cost / result.initial_cost);
  }
  for (int c = 0; c < kNumMoveClasses; ++c) {
    const std::string name = lns_move_class_name(c);
    samples.add("lns.proposed." + name,
                static_cast<double>(result.proposed_by_class[c]));
    samples.add("lns.accepted." + name,
                static_cast<double>(result.accepted_by_class[c]));
  }
}

}  // namespace mbsp::bench::calls
