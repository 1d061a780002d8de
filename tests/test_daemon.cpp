// End-to-end tests of the mbspd serving path (docs/DAEMON.md), run
// against an in-process MbspdServer over a real Unix-domain socket:
// round-trip correctness vs a local registry solve, the cache acceptance
// contract (exact hits are bitwise-identical and invoke no solver; warm
// starts never lose to the cached incumbent), LRU eviction order,
// concurrent-client determinism, per-request deadlines, and graceful
// drain on stop().
#include <gtest/gtest.h>

#if defined(__unix__) || defined(__APPLE__)

#include <thread>
#include <vector>

#include "src/daemon/client.hpp"
#include "src/daemon/server.hpp"
#include "src/graph/dag_io.hpp"
#include "src/model/machine_registry.hpp"
#include "src/runner/scheduler_registry.hpp"
#include "src/runner/scheduler_spec.hpp"
#include "src/workload/workload_registry.hpp"

#include <unistd.h>

namespace mbsp::daemon {
namespace {

std::string test_socket_path() {
  static int counter = 0;
  return "/tmp/mbspd-test-" + std::to_string(::getpid()) + "-" +
         std::to_string(++counter) + ".sock";
}

ScheduleRequest make_request(const std::string& workload,
                             long max_iterations) {
  std::string error;
  auto dag = WorkloadRegistry::global().make_dag(workload, 7, &error);
  EXPECT_TRUE(dag) << error;
  ScheduleRequest request;
  request.dag_bytes = dag_to_binary(*dag);
  request.machine_spec = "uniform:P=4";
  request.scheduler = "lns";
  request.budget_ms = 0;  // deterministic: the iteration cap decides
  request.max_iterations = max_iterations;
  request.seed = 7;
  return request;
}

/// A deterministic growth delta for `dag`: two arriving nodes chained off
/// node 0 (pure DAG delta, machine untouched).
InstanceDelta growth_delta(const ComputeDag& dag) {
  InstanceDelta delta;
  delta.add_node(2.0, 1.0);
  delta.add_edge(0, dag.num_nodes());
  delta.add_node(1.0, 1.0);
  delta.add_edge(dag.num_nodes(), dag.num_nodes() + 1);
  return delta;
}

RepairRequest make_repair_request(const std::string& workload,
                                  long max_iterations) {
  std::string error;
  auto dag = WorkloadRegistry::global().make_dag(workload, 7, &error);
  EXPECT_TRUE(dag) << error;
  RepairRequest request;
  request.dag_bytes = dag_to_binary(*dag);
  request.machine_spec = "uniform:P=4";
  request.scheduler = "lns";
  request.budget_ms = 0;
  request.max_iterations = max_iterations;
  request.seed = 7;
  request.delta = growth_delta(*dag);
  return request;
}

/// Reference result: the same solve the daemon performs, run locally.
ScheduleResult local_solve(const std::string& workload,
                           const ScheduleRequest& request) {
  std::string error;
  auto dag = WorkloadRegistry::global().make_dag(workload, 7, &error);
  EXPECT_TRUE(dag) << error;
  auto machine = MachineRegistry::global().make_machine(
      request.machine_spec, min_memory_r0(*dag), &error);
  EXPECT_TRUE(machine) << error;
  const MbspInstance inst{std::move(*dag), std::move(*machine)};
  SchedulerOptions options;
  options.budget_ms = request.budget_ms;
  options.max_iterations = request.max_iterations;
  options.seed = request.seed;
  const SchedulerSpec spec = resolve_scheduler_spec(request.scheduler, options);
  const MbspScheduler* scheduler = SchedulerRegistry::global().find(spec.name);
  EXPECT_NE(scheduler, nullptr);
  return scheduler->run(inst, spec.options);
}

std::string plan_bytes(const ComputePlan& plan) {
  WireWriter w;
  encode_plan(w, plan);
  return w.take();
}

class DaemonTest : public ::testing::Test {
 protected:
  void start_server(std::size_t cache_capacity = 256,
                    std::size_t solver_threads = 2) {
    options_.socket_path = test_socket_path();
    options_.cache_capacity = cache_capacity;
    options_.solver_threads = solver_threads;
    server_ = std::make_unique<MbspdServer>(options_);
    std::string error;
    ASSERT_TRUE(server_->start(&error)) << error;
  }

  MbspClient::Outcome run_ok(MbspClient& client,
                             const ScheduleRequest& request) {
    MbspClient::Outcome outcome;
    std::string error;
    EXPECT_TRUE(client.run(request, &outcome, &error)) << error;
    EXPECT_TRUE(outcome.ok) << outcome.error.message;
    return outcome;
  }

  void connect_ok(MbspClient& client) {
    std::string error;
    ASSERT_TRUE(client.connect(options_.socket_path, &error)) << error;
  }

  MbspdOptions options_;
  std::unique_ptr<MbspdServer> server_;
};

TEST_F(DaemonTest, RoundTripMatchesLocalSolve) {
  start_server();
  const std::string workload = "fft:n=16";
  const ScheduleRequest request = make_request(workload, 2000);
  const ScheduleResult reference = local_solve(workload, request);

  MbspClient client;
  connect_ok(client);
  const MbspClient::Outcome outcome = run_ok(client, request);
  EXPECT_EQ(outcome.final.cache, CacheStatus::kCold);
  EXPECT_EQ(outcome.final.cost, reference.cost);
  EXPECT_EQ(outcome.final.baseline_cost, reference.baseline_cost);
  EXPECT_EQ(outcome.final.supersteps,
            static_cast<std::uint32_t>(reference.supersteps));
  EXPECT_EQ(outcome.final.machine, "uniform");
  EXPECT_EQ(plan_bytes(outcome.final.plan), plan_bytes(reference.plan))
      << "the daemon must return the exact plan a local solve produces";
}

TEST_F(DaemonTest, ExactHitIsBitwiseIdenticalAndInvokesNoSolver) {
  start_server();
  const ScheduleRequest request = make_request("fft:n=16", 2000);
  MbspClient client;
  connect_ok(client);

  const MbspClient::Outcome first = run_ok(client, request);
  EXPECT_EQ(first.final.cache, CacheStatus::kCold);
  const std::uint64_t solver_calls_after_first = server_->stats().solver_calls;

  const MbspClient::Outcome second = run_ok(client, request);
  EXPECT_EQ(second.final.cache, CacheStatus::kExact);
  EXPECT_EQ(plan_bytes(second.final.plan), plan_bytes(first.final.plan));
  EXPECT_EQ(second.final.cost, first.final.cost);
  EXPECT_EQ(second.final.io_volume, first.final.io_volume);
  EXPECT_EQ(server_->stats().solver_calls, solver_calls_after_first)
      << "an exact hit must be served without invoking a solver";
  EXPECT_EQ(server_->stats().exact_hits, 1u);

  // A *smaller* effort request is still within the cached effort: exact.
  ScheduleRequest smaller = request;
  smaller.max_iterations = 500;
  const MbspClient::Outcome third = run_ok(client, smaller);
  EXPECT_EQ(third.final.cache, CacheStatus::kExact);
  EXPECT_EQ(server_->stats().solver_calls, solver_calls_after_first);
}

TEST_F(DaemonTest, SchedulerSpecRequestIsSolvedThenAnExactHit) {
  start_server();
  const std::string workload = "fft:n=16";
  ScheduleRequest request = make_request(workload, 600);
  request.scheduler = "lns-portfolio:workers=2,epochs=2";
  const ScheduleResult reference = local_solve(workload, request);
  MbspClient client;
  connect_ok(client);

  const MbspClient::Outcome first = run_ok(client, request);
  EXPECT_EQ(first.final.cache, CacheStatus::kCold);
  EXPECT_EQ(first.final.scheduler, request.scheduler);
  EXPECT_EQ(plan_bytes(first.final.plan), plan_bytes(reference.plan));
  const MbspClient::Outcome second = run_ok(client, request);
  EXPECT_EQ(second.final.cache, CacheStatus::kExact);
  EXPECT_EQ(plan_bytes(second.final.plan), plan_bytes(first.final.plan));

  // The spec's keys are the options: the default portfolio is another
  // cache entry, and an out-of-range key is a typed error naming it —
  // rejected at parse time, so a huge worker or epoch count starts no
  // thread and runs no solver.
  request.scheduler = "lns-portfolio";
  EXPECT_EQ(run_ok(client, request).final.cache, CacheStatus::kCold);
  for (const std::string& bad :
       {"lns-portfolio:workers=0", "lns-portfolio:workers=1000000",
        "lns-portfolio:epochs=1000000000"}) {
    request.scheduler = bad;
    MbspClient::Outcome outcome;
    std::string error;
    ASSERT_TRUE(client.run(request, &outcome, &error)) << error;
    ASSERT_FALSE(outcome.ok) << bad;
    EXPECT_EQ(outcome.error.code, WireError::kBadRequest) << bad;
    const std::string key = bad.substr(bad.find(':') + 1, 6);
    EXPECT_NE(outcome.error.message.find(key), std::string::npos)
        << outcome.error.message;
  }
  EXPECT_EQ(server_->stats().solver_calls, 2u);
}

TEST_F(DaemonTest, WarmStartNeverLosesToTheCachedIncumbent) {
  start_server();
  MbspClient client;
  connect_ok(client);

  // Over a fixed panel of small workloads: seed the cache with a
  // small-effort solve, then ask for more effort. The warm re-solve is
  // never worse than its cached incumbent (the LNS contract), nor than
  // the same big request solved cold (cache bypassed) on any workload.
  for (const char* workload :
       {"fft:n=16", "fft:n=32", "stencil2d:nx=8,ny=8,steps=3", "lu:blocks=5",
        "wavefront:nx=10,ny=10", "mapreduce:maps=10,reducers=6,rounds=4"}) {
    const ScheduleRequest small = make_request(workload, 500);
    const MbspClient::Outcome cached = run_ok(client, small);
    ASSERT_EQ(cached.final.cache, CacheStatus::kCold) << workload;

    ScheduleRequest bigger = small;
    bigger.max_iterations = 2000;
    const MbspClient::Outcome warm = run_ok(client, bigger);
    EXPECT_EQ(warm.final.cache, CacheStatus::kWarm) << workload;
    EXPECT_LE(warm.final.cost, cached.final.cost)
        << workload
        << ": the LNS contract: never worse than the warm-start incumbent";

    ScheduleRequest cold = bigger;
    cold.no_cache = true;
    const MbspClient::Outcome cold_run = run_ok(client, cold);
    ASSERT_EQ(cold_run.final.cache, CacheStatus::kCold) << workload;
    EXPECT_LE(warm.final.cost, cold_run.final.cost)
        << workload
        << ": warm-starting from the incumbent must not lose to a cold "
           "solve at equal effort";

    // The warm re-solve re-inserts at the enlarged effort: the same big
    // request is now an exact hit.
    const MbspClient::Outcome replay = run_ok(client, bigger);
    EXPECT_EQ(replay.final.cache, CacheStatus::kExact) << workload;
    EXPECT_EQ(plan_bytes(replay.final.plan), plan_bytes(warm.final.plan))
        << workload;
  }
}

TEST_F(DaemonTest, LruEvictionFollowsRecencyOrder) {
  start_server(/*cache_capacity=*/2);
  MbspClient client;
  connect_ok(client);

  const ScheduleRequest a = make_request("fft:n=8", 300);
  const ScheduleRequest b = make_request("fft:n=16", 300);
  const ScheduleRequest c = make_request("lu:blocks=3", 300);

  EXPECT_EQ(run_ok(client, a).final.cache, CacheStatus::kCold);
  EXPECT_EQ(run_ok(client, b).final.cache, CacheStatus::kCold);
  // Touch `a` so `b` is least recently used, then overflow with `c`.
  EXPECT_EQ(run_ok(client, a).final.cache, CacheStatus::kExact);
  EXPECT_EQ(run_ok(client, c).final.cache, CacheStatus::kCold);
  EXPECT_EQ(server_->stats().evictions, 1u);

  // `b` was evicted; `a` and `c` survived.
  EXPECT_EQ(run_ok(client, a).final.cache, CacheStatus::kExact);
  EXPECT_EQ(run_ok(client, c).final.cache, CacheStatus::kExact);
  EXPECT_EQ(run_ok(client, b).final.cache, CacheStatus::kCold)
      << "b must have been evicted as the LRU entry";
}

TEST_F(DaemonTest, ConcurrentClientsGetIdenticalPlansForTheSameRequest) {
  start_server(/*cache_capacity=*/256, /*solver_threads=*/4);
  const ScheduleRequest request = make_request("fft:n=16", 1000);
  const std::string reference =
      plan_bytes(local_solve("fft:n=16", request).plan);

  // 4 clients race the same request: whoever solves first populates the
  // cache, everyone else hits it — but every reply must carry the same
  // bitwise plan, equal to the local reference (determinism contract).
  constexpr int kClients = 4;
  std::vector<std::string> plans(kClients);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      MbspClient client;
      std::string error;
      ASSERT_TRUE(client.connect(options_.socket_path, &error)) << error;
      MbspClient::Outcome outcome;
      ASSERT_TRUE(client.run(request, &outcome, &error)) << error;
      ASSERT_TRUE(outcome.ok) << outcome.error.message;
      plans[i] = plan_bytes(outcome.final.plan);
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(plans[i], reference) << "client " << i;
  }
}

TEST_F(DaemonTest, ConcurrentDistinctRequestsMatchLocalReferences) {
  start_server(/*cache_capacity=*/256, /*solver_threads=*/4);
  const std::vector<std::string> workloads = {"fft:n=8", "fft:n=16",
                                              "lu:blocks=3", "cholesky:blocks=3"};
  std::vector<std::string> got(workloads.size()), want(workloads.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    threads.emplace_back([&, i] {
      const ScheduleRequest request = make_request(workloads[i], 500);
      want[i] = plan_bytes(local_solve(workloads[i], request).plan);
      MbspClient client;
      std::string error;
      ASSERT_TRUE(client.connect(options_.socket_path, &error)) << error;
      MbspClient::Outcome outcome;
      ASSERT_TRUE(client.run(request, &outcome, &error)) << error;
      ASSERT_TRUE(outcome.ok) << outcome.error.message;
      got[i] = plan_bytes(outcome.final.plan);
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << workloads[i];
  }
}

TEST_F(DaemonTest, NoCacheRequestsAlwaysSolveAndNeverMemoize) {
  start_server();
  MbspClient client;
  connect_ok(client);
  ScheduleRequest request = make_request("fft:n=8", 300);
  request.no_cache = true;

  EXPECT_EQ(run_ok(client, request).final.cache, CacheStatus::kCold);
  EXPECT_EQ(run_ok(client, request).final.cache, CacheStatus::kCold);
  const DaemonStats stats = server_->stats();
  EXPECT_EQ(stats.solver_calls, 2u);
  EXPECT_EQ(stats.insertions, 0u);
  EXPECT_EQ(stats.cache_entries, 0u);
}

TEST_F(DaemonTest, PinnedHashIsServedFromCacheAndDagStore) {
  start_server();
  MbspClient client;
  connect_ok(client);
  const ScheduleRequest inline_request = make_request("fft:n=16", 500);
  const MbspClient::Outcome first = run_ok(client, inline_request);

  // Identical request by hash only: exact hit, no DAG bytes on the wire.
  ScheduleRequest pinned;
  pinned.dag_hash = first.final.dag_hash;
  pinned.machine_spec = inline_request.machine_spec;
  pinned.scheduler = inline_request.scheduler;
  pinned.budget_ms = inline_request.budget_ms;
  pinned.max_iterations = inline_request.max_iterations;
  pinned.seed = inline_request.seed;
  const MbspClient::Outcome replay = run_ok(client, pinned);
  EXPECT_EQ(replay.final.cache, CacheStatus::kExact);
  EXPECT_EQ(plan_bytes(replay.final.plan), plan_bytes(first.final.plan));

  // More effort by hash: the warm re-solve needs the DAG itself, which
  // the bounded DAG store still has resident.
  ScheduleRequest pinned_bigger = pinned;
  pinned_bigger.max_iterations = 1500;
  const MbspClient::Outcome warm = run_ok(client, pinned_bigger);
  EXPECT_EQ(warm.final.cache, CacheStatus::kWarm);
  EXPECT_LE(warm.final.cost, first.final.cost);
}

TEST_F(DaemonTest, QueuedDeadlineExpiryIsATypedError) {
  // One solver thread: a long solve occupies it, so a second request's
  // deadline covers (and here, expires in) the admission queue.
  start_server(/*cache_capacity=*/256, /*solver_threads=*/1);

  std::thread long_solver([&] {
    MbspClient client;
    std::string error;
    ASSERT_TRUE(client.connect(options_.socket_path, &error)) << error;
    MbspClient::Outcome outcome;
    ASSERT_TRUE(
        client.run(make_request("stencil2d:nx=8,ny=8,steps=3", 30'000),
                   &outcome, &error))
        << error;
    ASSERT_TRUE(outcome.ok) << outcome.error.message;
  });
  // Give the long solve time to claim the only worker.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  // The REPAIR frame runs through the same pipeline and queues alike; it
  // waits on its own connection, concurrently with the SCHEDULE below.
  std::thread hurried_repair([&] {
    MbspClient client;
    std::string error;
    ASSERT_TRUE(client.connect(options_.socket_path, &error)) << error;
    RepairRequest hurried = make_repair_request("fft:n=8", 300);
    hurried.deadline_ms = 50;
    MbspClient::Outcome outcome;
    ASSERT_TRUE(client.repair(hurried, &outcome, &error)) << error;
    ASSERT_FALSE(outcome.ok) << "the deadline must expire in the queue";
    EXPECT_EQ(outcome.error.code, WireError::kDeadlineExpired);
    EXPECT_NE(outcome.error.message.find("deadline"), std::string::npos);
  });

  MbspClient client;
  connect_ok(client);
  ScheduleRequest hurried = make_request("fft:n=8", 300);
  hurried.deadline_ms = 50;
  MbspClient::Outcome outcome;
  std::string error;
  ASSERT_TRUE(client.run(hurried, &outcome, &error)) << error;
  ASSERT_FALSE(outcome.ok) << "the deadline must expire in the queue";
  EXPECT_EQ(outcome.error.code, WireError::kDeadlineExpired);
  EXPECT_NE(outcome.error.message.find("deadline"), std::string::npos);
  hurried_repair.join();
  long_solver.join();
}

TEST_F(DaemonTest, QueuedRepeatRepairIsAnExactHitDespiteAnExpiredDeadline) {
  // An exact hit costs no solve, so it is answered before the deadline
  // check — for REPAIR frames exactly as for SCHEDULE frames.
  start_server(/*cache_capacity=*/256, /*solver_threads=*/1);
  const std::string workload = "fft:n=16";
  MbspClient client;
  connect_ok(client);
  run_ok(client, make_request(workload, 1000));
  RepairRequest repair = make_repair_request(workload, 1000);
  MbspClient::Outcome first;
  std::string error;
  ASSERT_TRUE(client.repair(repair, &first, &error)) << error;
  ASSERT_TRUE(first.ok) << first.error.message;
  ASSERT_EQ(first.final.cache, CacheStatus::kRepaired);
  const std::uint64_t solver_calls_before = server_->stats().solver_calls;

  std::thread long_solver([&] {
    MbspClient busy;
    std::string busy_error;
    ASSERT_TRUE(busy.connect(options_.socket_path, &busy_error))
        << busy_error;
    MbspClient::Outcome outcome;
    ASSERT_TRUE(
        busy.run(make_request("stencil2d:nx=8,ny=8,steps=3", 10'000),
                 &outcome, &busy_error))
        << busy_error;
    ASSERT_TRUE(outcome.ok) << outcome.error.message;
  });
  // Give the long solve time to claim the only worker.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  repair.deadline_ms = 50;
  MbspClient::Outcome repeat;
  ASSERT_TRUE(client.repair(repair, &repeat, &error)) << error;
  long_solver.join();
  ASSERT_TRUE(repeat.ok) << repeat.error.message;
  EXPECT_EQ(repeat.final.cache, CacheStatus::kExact);
  EXPECT_EQ(plan_bytes(repeat.final.plan), plan_bytes(first.final.plan));
  EXPECT_EQ(server_->stats().solver_calls, solver_calls_before + 1)
      << "only the long solve may reach the solver";
}

TEST_F(DaemonTest, StopDrainsInFlightRequestsThenRefusesConnections) {
  start_server();
  const ScheduleRequest request =
      make_request("stencil2d:nx=8,ny=8,steps=3", 8'000);

  MbspClient::Outcome outcome;
  std::thread in_flight([&] {
    MbspClient client;
    std::string error;
    ASSERT_TRUE(client.connect(options_.socket_path, &error)) << error;
    ASSERT_TRUE(client.run(request, &outcome, &error)) << error;
  });
  // Let the request reach the solver, then initiate the drain.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  server_->stop();
  in_flight.join();

  EXPECT_TRUE(outcome.ok) << "a drained shutdown must still deliver the "
                             "final frame: "
                          << outcome.error.message;
  EXPECT_GT(outcome.final.cost, 0);

  MbspClient late;
  std::string error;
  EXPECT_FALSE(late.connect(options_.socket_path, &error))
      << "the socket must be gone after stop()";
}

/// Reference repair, run locally exactly the way the daemon does it: the
/// incumbent is the request's own scheduler solved on the BASE scenario
/// (machine at the base DAG's r0), then the "repair" adapter patches it
/// onto the mutated instance.
ScheduleResult local_repair(const std::string& workload,
                            const RepairRequest& request,
                            bool with_incumbent) {
  std::string error;
  auto dag = WorkloadRegistry::global().make_dag(workload, 7, &error);
  EXPECT_TRUE(dag) << error;
  auto machine = MachineRegistry::global().make_machine(
      request.machine_spec, min_memory_r0(*dag), &error);
  EXPECT_TRUE(machine) << error;
  MbspInstance base{*dag, std::move(*machine)};

  SchedulerOptions options;
  options.budget_ms = request.budget_ms;
  options.max_iterations = request.max_iterations;
  options.seed = request.seed;
  const MbspScheduler* scheduler =
      SchedulerRegistry::global().find(request.scheduler);
  EXPECT_NE(scheduler, nullptr);

  MbspInstance mutated = base;
  EXPECT_TRUE(apply_instance_delta(mutated, request.delta, nullptr, &error))
      << error;
  if (!with_incumbent) return scheduler->run(mutated, options);

  const ScheduleResult incumbent = scheduler->run(base, options);
  options.warm_start_plan = &incumbent.plan;
  options.repair_delta = &request.delta;
  return SchedulerRegistry::global().at("repair").run(mutated, options);
}

TEST_F(DaemonTest, RepairPatchesTheCachedIncumbentAndMatchesLocalRepair) {
  start_server();
  const std::string workload = "fft:n=16";
  MbspClient client;
  connect_ok(client);

  // Seed the base scenario's incumbent through the normal SCHEDULE path.
  const ScheduleRequest base = make_request(workload, 1500);
  const MbspClient::Outcome seeded = run_ok(client, base);
  ASSERT_EQ(seeded.final.cache, CacheStatus::kCold);
  const std::uint64_t solver_calls_after_seed = server_->stats().solver_calls;

  RepairRequest repair = make_repair_request(workload, 1500);
  MbspClient::Outcome outcome;
  std::string error;
  ASSERT_TRUE(client.repair(repair, &outcome, &error)) << error;
  ASSERT_TRUE(outcome.ok) << outcome.error.message;
  EXPECT_EQ(outcome.final.cache, CacheStatus::kRepaired);
  EXPECT_EQ(outcome.final.machine, "uniform");  // pure DAG delta
  EXPECT_NE(outcome.final.dag_hash, seeded.final.dag_hash)
      << "the final frame must be keyed by the MUTATED dag";

  // Differential against the same repair performed locally.
  const ScheduleResult reference =
      local_repair(workload, repair, /*with_incumbent=*/true);
  EXPECT_EQ(outcome.final.cost, reference.cost);
  EXPECT_EQ(outcome.final.baseline_cost, reference.baseline_cost);
  EXPECT_EQ(plan_bytes(outcome.final.plan), plan_bytes(reference.plan))
      << "the daemon repair must equal a local repair_plan bitwise";

  const DaemonStats stats = server_->stats();
  EXPECT_EQ(stats.repair_requests, 1u);
  EXPECT_EQ(stats.repair_hits, 1u);
  EXPECT_EQ(stats.solver_calls, solver_calls_after_seed + 1);

  // The repair counters travel over the wire too.
  DaemonStats over_wire;
  ASSERT_TRUE(client.stats(&over_wire, &error)) << error;
  EXPECT_EQ(over_wire.repair_requests, 1u);
  EXPECT_EQ(over_wire.repair_hits, 1u);
}

TEST_F(DaemonTest, RepeatRepairIsAnExactHitWithoutASolverCall) {
  start_server();
  const std::string workload = "fft:n=16";
  MbspClient client;
  connect_ok(client);
  run_ok(client, make_request(workload, 1000));

  const RepairRequest repair = make_repair_request(workload, 1000);
  MbspClient::Outcome first, second;
  std::string error;
  ASSERT_TRUE(client.repair(repair, &first, &error)) << error;
  ASSERT_TRUE(first.ok) << first.error.message;
  ASSERT_EQ(first.final.cache, CacheStatus::kRepaired);
  const std::uint64_t solver_calls_after_first = server_->stats().solver_calls;

  ASSERT_TRUE(client.repair(repair, &second, &error)) << error;
  ASSERT_TRUE(second.ok) << second.error.message;
  EXPECT_EQ(second.final.cache, CacheStatus::kExact);
  EXPECT_EQ(plan_bytes(second.final.plan), plan_bytes(first.final.plan));
  EXPECT_EQ(second.final.cost, first.final.cost);

  const DaemonStats stats = server_->stats();
  EXPECT_EQ(stats.solver_calls, solver_calls_after_first)
      << "a repeat repair must be served from the mutated-scenario cache";
  EXPECT_EQ(stats.repair_requests, 2u);
  EXPECT_EQ(stats.repair_hits, 1u);  // the exact hit never reached the solver
}

TEST_F(DaemonTest, ChainedRepairReusesThePreviousRepairedIncumbent) {
  start_server();
  const std::string workload = "fft:n=16";
  MbspClient client;
  connect_ok(client);
  run_ok(client, make_request(workload, 1000));

  const RepairRequest first_request = make_repair_request(workload, 1000);
  MbspClient::Outcome first;
  std::string error;
  ASSERT_TRUE(client.repair(first_request, &first, &error)) << error;
  ASSERT_TRUE(first.ok) << first.error.message;
  ASSERT_EQ(first.final.cache, CacheStatus::kRepaired);
  const std::uint64_t solver_calls_after_first = server_->stats().solver_calls;

  // Follow-up repair pinning the stored MUTATED hash as its base. The
  // repaired incumbent lives under the repair+ spec, and the lookup must
  // chain onto it instead of cold-solving.
  auto base_dag = WorkloadRegistry::global().make_dag(workload, 7, &error);
  ASSERT_TRUE(base_dag) << error;
  const std::size_t n1 = base_dag->num_nodes() + 2;  // after the first delta
  RepairRequest second_request = first_request;
  second_request.dag_bytes.clear();
  second_request.dag_hash = first.final.dag_hash;
  second_request.delta = InstanceDelta{};
  second_request.delta.add_node(3.0, 1.0);
  second_request.delta.add_edge(n1 - 1, n1);

  MbspClient::Outcome second;
  ASSERT_TRUE(client.repair(second_request, &second, &error)) << error;
  ASSERT_TRUE(second.ok) << second.error.message;
  EXPECT_EQ(second.final.cache, CacheStatus::kRepaired)
      << "a pinned repaired hash must chain onto the repaired incumbent";
  EXPECT_NE(second.final.dag_hash, first.final.dag_hash);

  const DaemonStats stats = server_->stats();
  EXPECT_EQ(stats.solver_calls, solver_calls_after_first + 1);
  EXPECT_EQ(stats.repair_requests, 2u);
  EXPECT_EQ(stats.repair_hits, 2u);

  // Differential: chain the same two repairs locally.
  SchedulerOptions options;
  options.budget_ms = first_request.budget_ms;
  options.max_iterations = first_request.max_iterations;
  options.seed = first_request.seed;
  auto machine = MachineRegistry::global().make_machine(
      first_request.machine_spec, min_memory_r0(*base_dag), &error);
  ASSERT_TRUE(machine) << error;
  MbspInstance base{*base_dag, std::move(*machine)};
  const ScheduleResult seed_result =
      SchedulerRegistry::global().at(first_request.scheduler).run(base,
                                                                  options);

  MbspInstance mut1 = base;
  ASSERT_TRUE(
      apply_instance_delta(mut1, first_request.delta, nullptr, &error))
      << error;
  options.warm_start_plan = &seed_result.plan;
  options.repair_delta = &first_request.delta;
  const ScheduleResult repaired1 =
      SchedulerRegistry::global().at("repair").run(mut1, options);

  // The daemon rebuilds the machine at the (new) base dag's r0.
  auto machine2 = MachineRegistry::global().make_machine(
      first_request.machine_spec, min_memory_r0(mut1.dag), &error);
  ASSERT_TRUE(machine2) << error;
  MbspInstance mut2{mut1.dag, std::move(*machine2)};
  ASSERT_TRUE(
      apply_instance_delta(mut2, second_request.delta, nullptr, &error))
      << error;
  options.warm_start_plan = &repaired1.plan;
  options.repair_delta = &second_request.delta;
  const ScheduleResult repaired2 =
      SchedulerRegistry::global().at("repair").run(mut2, options);

  EXPECT_EQ(second.final.cost, repaired2.cost);
  EXPECT_EQ(plan_bytes(second.final.plan), plan_bytes(repaired2.plan))
      << "the chained daemon repair must equal the local chain bitwise";
}

TEST_F(DaemonTest, RepairWithoutAnIncumbentColdSolvesTheMutatedInstance) {
  start_server();
  const std::string workload = "fft:n=16";
  MbspClient client;
  connect_ok(client);

  // No SCHEDULE request seeded the base scenario: nothing to patch.
  const RepairRequest repair = make_repair_request(workload, 1000);
  MbspClient::Outcome outcome;
  std::string error;
  ASSERT_TRUE(client.repair(repair, &outcome, &error)) << error;
  ASSERT_TRUE(outcome.ok) << outcome.error.message;
  EXPECT_EQ(outcome.final.cache, CacheStatus::kCold);

  const ScheduleResult reference =
      local_repair(workload, repair, /*with_incumbent=*/false);
  EXPECT_EQ(outcome.final.cost, reference.cost);
  EXPECT_EQ(plan_bytes(outcome.final.plan), plan_bytes(reference.plan));

  const DaemonStats stats = server_->stats();
  EXPECT_EQ(stats.repair_requests, 1u);
  EXPECT_EQ(stats.repair_hits, 0u);
  EXPECT_EQ(stats.solver_calls, 1u);
}

TEST_F(DaemonTest, MachineDeltaKeysTheMutatedScenarioDistinctly) {
  start_server();
  const std::string workload = "fft:n=16";
  MbspClient client;
  connect_ok(client);
  run_ok(client, make_request(workload, 800));

  RepairRequest repair = make_repair_request(workload, 800);
  repair.delta = InstanceDelta{};
  repair.delta.drop_processor(1);
  MbspClient::Outcome outcome;
  std::string error;
  ASSERT_TRUE(client.repair(repair, &outcome, &error)) << error;
  ASSERT_TRUE(outcome.ok) << outcome.error.message;
  EXPECT_EQ(outcome.final.cache, CacheStatus::kRepaired);
  EXPECT_EQ(outcome.final.machine, "uniform#drop(1)");
  EXPECT_EQ(outcome.final.plan.num_procs, 3);  // the drop was relocated
}

TEST_F(DaemonTest, UnappliableDeltaIsATypedBadDeltaError) {
  start_server();
  MbspClient client;
  connect_ok(client);
  RepairRequest repair = make_repair_request("fft:n=16", 500);
  repair.delta = InstanceDelta{};
  repair.delta.add_edge(0, 999999);  // far out of range

  MbspClient::Outcome outcome;
  std::string error;
  ASSERT_TRUE(client.repair(repair, &outcome, &error)) << error;
  ASSERT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.error.code, WireError::kBadDelta);
  EXPECT_NE(outcome.error.message.find("add_edge"), std::string::npos)
      << outcome.error.message;
  EXPECT_TRUE(client.ping(&error)) << error;  // connection stays usable
}

TEST_F(DaemonTest, StatsRequestMirrorsServerCounters) {
  start_server();
  MbspClient client;
  connect_ok(client);
  run_ok(client, make_request("fft:n=8", 300));
  run_ok(client, make_request("fft:n=8", 300));

  DaemonStats over_wire;
  std::string error;
  ASSERT_TRUE(client.stats(&over_wire, &error)) << error;
  const DaemonStats direct = server_->stats();
  EXPECT_EQ(over_wire.requests, direct.requests);
  EXPECT_EQ(over_wire.exact_hits, direct.exact_hits);
  EXPECT_EQ(over_wire.solver_calls, direct.solver_calls);
  EXPECT_EQ(over_wire.cache_entries, direct.cache_entries);
  EXPECT_EQ(over_wire.requests, 2u);
  EXPECT_EQ(over_wire.exact_hits, 1u);
  EXPECT_EQ(over_wire.solver_calls, 1u);
}

}  // namespace
}  // namespace mbsp::daemon

#else  // non-POSIX

TEST(Daemon, SkippedOnThisPlatform) { GTEST_SKIP(); }

#endif
