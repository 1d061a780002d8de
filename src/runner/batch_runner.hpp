#pragma once
// Parallel batch-experiment engine: fans an instance x scheduler-spec grid
// across the ThreadPool — one cell per (instance, scheduler) pair, each
// solve single-threaded and deterministic — and collects per-cell
// ScheduleResult rows. Cells are indexed up front and written into a
// preallocated vector, so the result (and any table rendered from it) is
// bitwise-identical whatever the thread count; wall times are recorded per
// cell but excluded from tables by default for exactly that reason.

#include <cstdint>
#include <string>
#include <vector>

#include "src/runner/scheduler_registry.hpp"
#include "src/util/table.hpp"

namespace mbsp {

/// One completed grid cell. Cells are keyed by (instance name, canonical
/// DAG hash, machine name): corpus-generated instances are named by their
/// workload spec, the hash pins the exact DAG the row was computed on,
/// and the machine name is the canonical machine spec the cell ran on
/// ("" for ad-hoc uniform architectures — see docs/MACHINES.md).
struct BatchCell {
  std::string instance;   ///< instance name (workload spec for corpus runs)
  std::uint64_t dag_hash = 0;  ///< dag_canonical_hash of the instance DAG
  std::string machine;    ///< canonical machine name (Machine::name)
  std::string scheduler;  ///< scheduler spec, as the cell named it
  CostModel cost_model = CostModel::kSynchronous;
  bool ok = false;
  std::string error;      ///< unsupported scheduler / invalid schedule / throw
  ScheduleResult result;  ///< valid when ok
};

struct BatchOptions {
  /// 0 means hardware concurrency. The cell set is independent of this.
  std::size_t threads = 0;
  /// Re-validate every produced schedule; failures turn into cell errors.
  bool validate = true;
  /// Base scheduler options; each cell's spec keys override them.
  SchedulerOptions scheduler;
};

class BatchRunner {
 public:
  explicit BatchRunner(BatchOptions options = {},
                       const SchedulerRegistry& registry =
                           SchedulerRegistry::global());

  /// Non-rectangular sweeps: one cell per (instance, spec) pair.
  /// `scheduler` is a spec string (src/runner/scheduler_spec.hpp) whose
  /// keys override BatchOptions::scheduler; a bare name runs it as given.
  struct CellSpec {
    const MbspInstance* instance = nullptr;
    std::string scheduler;
  };

  /// Runs every (instance, scheduler spec) pair.
  /// Cell order: instance-major, scheduler-minor.
  std::vector<BatchCell> run_grid(
      const std::vector<MbspInstance>& instances,
      const std::vector<std::string>& schedulers) const;

  /// Throws before running any cell when a spec is malformed
  /// (std::invalid_argument) or names no registered scheduler
  /// (std::out_of_range); both messages name the offending token.
  std::vector<BatchCell> run_cells(const std::vector<CellSpec>& cells) const;

  const SchedulerRegistry& registry() const { return registry_; }
  const BatchOptions& options() const { return options_; }

 private:
  BatchOptions options_;
  const SchedulerRegistry& registry_;
};

/// Renders cells as a table: instance, scheduler, cost model, cost, ratio
/// vs the first ok cell of the same (instance, machine), I/O volume,
/// supersteps — plus a machine column whenever any cell carries a named
/// machine (a pure function of the cells, so tables stay bitwise
/// reproducible), wall time when requested (non-deterministic; off by
/// default) and the canonical DAG hash (deterministic; corpus sweeps turn
/// it on so result rows are verifiable against the generating spec).
Table batch_table(const std::vector<BatchCell>& cells,
                  bool include_wall_time = false, bool include_hash = false);

/// First cell matching (instance, scheduler); nullptr when absent.
const BatchCell* find_cell(const std::vector<BatchCell>& cells,
                           const std::string& instance,
                           const std::string& scheduler);

}  // namespace mbsp
