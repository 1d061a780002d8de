#pragma once
// Every public library call bench_mbsp times, each wrapped in a span named
// after the function and tagged with its layer. Workloads call the library
// only through these wrappers, so a traced run makes exactly the calls an
// untraced one makes.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bench_mbsp/harness.hpp"
#include "include/mbsp/mbsp.hpp"

namespace mbsp::bench::calls {

// -- workload ---------------------------------------------------------------
std::optional<ComputeDag> make_dag(const std::string& spec, std::uint64_t seed,
                                   std::string* error);
/// Streams the DAG named by `spec` to `path` as mbsp-dag v2.
bool make_dag_stream(const std::string& spec, std::uint64_t seed,
                     const std::string& path, std::string* error);
std::optional<RepairTrace> make_trace(const std::string& spec,
                                      std::uint64_t seed,
                                      const std::string& machine_spec,
                                      std::string* error);

// -- graph ------------------------------------------------------------------
std::optional<ComputeDag> read_dag_file(const std::string& path,
                                        std::string* error);
std::string dag_to_binary(const ComputeDag& dag);
std::optional<ComputeDag> dag_from_binary(const std::string& bytes,
                                          std::string* error);
std::uint64_t dag_canonical_hash(const ComputeDag& dag);

// -- bsp, twostage, model ---------------------------------------------------
BspSchedule greedy_stage1(const MbspInstance& inst);
ComputePlan plan_from_bsp(const MbspInstance& inst, const BspSchedule& bsp);
MbspSchedule complete_memory(const MbspInstance& inst, const ComputePlan& plan);
double sync_cost(const MbspInstance& inst, const MbspSchedule& schedule);
bool validate(const MbspInstance& inst, const MbspSchedule& schedule,
              std::string* error);

/// The paper's baseline, BSPg + clairvoyant completion, as its four calls.
struct Baseline {
  ComputePlan plan;
  MbspSchedule schedule;
  double cost = 0;
};
Baseline baseline(const MbspInstance& inst);

// -- holistic ---------------------------------------------------------------
LnsResult improve_plan(const MbspInstance& inst, const ComputePlan& initial,
                       const LnsOptions& options);
ShardResult shard_schedule(const MbspInstance& inst,
                           const ShardOptions& options);
std::vector<std::vector<NodeId>> acyclic_kway_partition(const ComputeDag& dag,
                                                        int num_shards);
ShardSubproblem make_shard_subproblem(const ComputeDag& dag,
                                      const std::vector<NodeId>& part);
bool apply_instance_delta(MbspInstance& inst, const InstanceDelta& delta,
                          std::string* error);
/// `polish = false` is recorded under its own span name, repair_plan[patch].
std::optional<RepairResult> repair_plan(const MbspInstance& inst,
                                        const ComputePlan& incumbent,
                                        const InstanceDelta& delta,
                                        const RepairOptions& options,
                                        std::string* error);

// -- daemon -----------------------------------------------------------------
std::string encode_schedule_request(const daemon::ScheduleRequest& request);
bool decode_schedule_request(const std::string& payload,
                             daemon::ScheduleRequest* request,
                             std::string* error);
std::string encode_final_result(const daemon::FinalResult& result);
bool decode_final_result(const std::string& payload,
                         daemon::FinalResult* result, std::string* error);
daemon::CacheHit cache_lookup(daemon::ScheduleCache& cache,
                              const daemon::ScheduleCacheKey& key,
                              std::int64_t max_iterations,
                              daemon::ScheduleCacheEntry* out);
bool client_run(daemon::MbspClient& client,
                const daemon::ScheduleRequest& request,
                daemon::MbspClient::Outcome* outcome, std::string* error);

// -- helpers (untraced) -----------------------------------------------------
/// The machine named by `spec`, sized to the DAG's min_memory_r0, exactly
/// as the daemon builds it. Throws std::runtime_error on a bad spec.
MbspInstance make_instance(ComputeDag dag, const std::string& machine_spec);
/// The daemon's deterministic plan encoding: equal plans, equal bytes.
std::string plan_bytes(const ComputePlan& plan);
/// Iteration-capped LNS options (budget_ms = 0: no wall-clock deadline).
LnsOptions capped_lns(long iterations, std::uint64_t seed);
/// Adds one improve_plan result's move statistics to `samples`.
void record_lns(LayerSamples& samples, const LnsResult& result);
/// The benchmark's sharded configuration: k = 4 shards on 4 threads, 50
/// capped LNS iterations per shard, 50 polish iterations, no full-seed
/// compare.
ShardOptions shard_options(std::uint64_t seed);
/// Adds one shard_schedule result's quality and cut statistics to
/// `samples`; `seed_cost` is the unsharded BSPg + clairvoyant cost.
void record_shard(LayerSamples& samples, const ShardResult& result,
                  double seed_cost, std::size_t num_nodes);

}  // namespace mbsp::bench::calls
