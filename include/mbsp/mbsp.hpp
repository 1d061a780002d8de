#pragma once
// Umbrella header for the MBSP scheduling library: the public API for
// building instances, running the two-stage baselines, the holistic
// (LNS / portfolio / ILP / divide-and-conquer) schedulers, and evaluating
// schedules. One line per header below: what it provides, and its
// determinism contract (every solver in the repo is deterministic given
// (instance, options) under the budget_ms = 0 iteration-capped
// convention; see docs/ARCHITECTURE.md for the full contract).

// -- Graphs and instance construction --------------------------------------
// ComputeDag: CSR-flattened DAG core; span-based parents()/children().
#include "src/graph/dag.hpp"
// Text/binary DAG serialization + canonical FNV-1a hashing (docs/FORMATS.md);
// text -> binary -> text round-trips bitwise.
#include "src/graph/dag_io.hpp"
// Lower-bound gadget constructions (zipper etc.) with proven cost gaps.
#include "src/graph/gadgets.hpp"
// The paper's generated datasets; bit-identical for a fixed seed on every
// platform (xoshiro256**-based, no std:: distributions).
#include "src/graph/generators.hpp"
// Matrix Market (.mtx) import feeding the mtx-* workload families.
#include "src/graph/mtx_io.hpp"
// Topological orders, acyclicity checks, transitive closures (pure).
#include "src/graph/topology.hpp"

// -- The MBSP model ---------------------------------------------------------
// MbspInstance = ComputeDag + Machine (P processors, r memory, g, L —
// optionally per-processor speeds/memories and NUMA-style comm groups).
#include "src/model/instance.hpp"
// Shared `head:key=value,...` spec grammar (workload + machine specs).
#include "src/model/spec.hpp"
// Name -> machine-kind registry (uniform / hetero / numa specs; canonical
// names key batch cells; see docs/MACHINES.md).
#include "src/model/machine_registry.hpp"
// MbspSchedule: per-processor superstep streams of compute/load/save steps.
#include "src/model/schedule.hpp"
// validate(): full feasibility audit of a schedule; pure function.
#include "src/model/validate.hpp"
// Synchronous/asynchronous cost objectives + per-superstep cost tables;
// pure functions of (instance, schedule).
#include "src/model/cost.hpp"
// Human-readable schedule reports.
#include "src/model/report.hpp"

// -- Stage 1: memory-oblivious BSP schedulers -------------------------------
// All stage-1 schedulers are deterministic given (instance, options).
#include "src/bsp/bsp_schedule.hpp"   // the stage-1 schedule container
#include "src/bsp/cilk_scheduler.hpp" // work-stealing-style list scheduler
#include "src/bsp/dfs_scheduler.hpp"  // P = 1 DFS pebbling order
#include "src/bsp/greedy_scheduler.hpp" // BSPg, the paper's main baseline
#include "src/bsp/refined_scheduler.hpp" // "ILP-BSP" LP-refined stage 1
// Eviction policies (clairvoyant / LRU) + cache simulator; deterministic.
#include "src/cache/cache_sim.hpp"
#include "src/cache/policy.hpp"

// -- Stage 2 and compute plans ----------------------------------------------
// ComputePlan + reversible PlanDelta edits + occurrence indexes (the LNS
// hot-path substrate; apply/undo is exact, asserted in debug builds).
#include "src/twostage/compute_plan.hpp"
// complete_memory(): clairvoyant/LRU memory completion; deterministic.
#include "src/twostage/memory_completion.hpp"
// run_baseline(): stage 1 + completion = the paper's two-stage baselines;
// baseline_plan(): stage 1 only, for callers that complete it themselves.
#include "src/twostage/two_stage.hpp"

// -- Holistic improvers -----------------------------------------------------
// Simulated-annealing LNS over plans (search_plan; improve_plan adds the
// completed schedule of the best plan); bitwise-reproducible
// per (seed, options) when iteration-capped; never worse than warm start.
#include "src/holistic/lns.hpp"
// K-worker parallel portfolio LNS with deterministic incumbent exchange
// at epoch barriers; thread-timing-independent in deterministic mode.
#include "src/holistic/portfolio.hpp"
// Incremental evaluation engine: O(delta) re-costing of LNS moves,
// bitwise-equal to the full evaluator (the oracle; asserted in debug).
#include "src/holistic/incremental_eval.hpp"
// Online schedule repair: typed InstanceDelta (exact apply/undo) +
// repair_plan() — patch the incumbent, then locality-masked polish;
// repaired costs are oracle-equal to a from-scratch evaluate_plan
// (docs/REPAIR.md).
#include "src/holistic/repair.hpp"
// Acyclic DAG partitioning (ILP bipartition, recursive parts).
#include "src/holistic/partition.hpp"
// The hierarchical pipeline: partition, parallel per-part LNS, stitch,
// boundary-masked global polish. Sharded out-of-core scheduling runs it on
// an acyclic k-way partition; divide-and-conquer is its
// divide_conquer_options() configuration on recursive ILP parts.
#include "src/holistic/shard.hpp"
// Exact P = 1 red-blue pebbler (optimal on small DAGs; deterministic).
#include "src/holistic/exact_pebbler.hpp"
// The full MBSP ILP formulation (Section 6.1).
#include "src/holistic/formulation.hpp"
// Dense simplex + branch-and-bound MILP solver (budget-aware, but the
// search tree order is deterministic; budget cuts are wall-clock).
#include "src/ilp/model.hpp"
#include "src/ilp/simplex.hpp"
#include "src/ilp/solver.hpp"

// -- Serving: the mbspd daemon ----------------------------------------------
// Length-prefixed binary wire protocol with offset-typed decode errors
// (docs/DAEMON.md); pure encode/decode, unit-testable without sockets.
#include "src/daemon/protocol.hpp"
// LRU schedule cache keyed by (canonical DAG hash, canonical machine
// name, scheduler spec); exact hits replay bitwise-identical plans.
#include "src/daemon/schedule_cache.hpp"
// In-process embeddable Unix-domain-socket server (examples/mbspd.cpp is
// the CLI wrapper); solves on the ThreadPool, drains on stop().
#include "src/daemon/server.hpp"
// Blocking client library (mbsp-client CLI, tests, bench_daemon).
#include "src/daemon/client.hpp"

// -- Harness: registries, batch engine, workloads ---------------------------
// MbspScheduler interface + flat SchedulerOptions/ScheduleResult rows
// (SchedulerOptions is LnsOptions plus the scheduler fields).
#include "src/runner/scheduler.hpp"
// Name -> scheduler registry (pre-populated global; lookup is read-only
// and thread-safe after registration).
#include "src/runner/scheduler_registry.hpp"
// Parallel batch-experiment engine; result tables are bitwise identical
// for any thread count (cells indexed up front).
#include "src/runner/batch_runner.hpp"
// Workload spec grammar family:k=v,... + parameterized DAG families.
#include "src/workload/workload.hpp"
// Name -> workload-family registry (the instance-side registry mirror).
#include "src/workload/workload_registry.hpp"
// Structured corpus families (stencils, LU, FFT, attention, ...).
#include "src/workload/structured.hpp"
// Timed-arrival trace corpus (trace-grow / -drift / -dropout / -churn /
// -mixed): deterministic, hashable, streamable event sequences feeding
// the online-repair replay (docs/REPAIR.md).
#include "src/workload/trace.hpp"
