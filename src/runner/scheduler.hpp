#pragma once
// Uniform scheduler API over every MBSP scheduling algorithm in the repo:
// the two-stage baselines (Section 4), the holistic LNS / divide-and-conquer
// pipeline (Sections 5-6), the exact pebbler and the full ILP. A scheduler
// takes an instance plus one flat option struct and returns one flat result
// row, so benches, examples and the batch runner can treat "which algorithm"
// as data instead of hand-wiring each combination.

#include <string>
#include <vector>

#include "src/holistic/lns.hpp"  // LnsOptions
#include "src/holistic/portfolio.hpp"  // PortfolioProfile
#include "src/model/instance.hpp"
#include "src/model/schedule.hpp"
#include "src/twostage/compute_plan.hpp"
#include "src/twostage/two_stage.hpp"  // BaselineKind

namespace mbsp {

struct InstanceDelta;  // src/holistic/repair.hpp

/// One option struct shared by every scheduler; fields a given scheduler
/// does not understand are ignored (e.g. move_mask outside the LNS).
///
/// The LnsOptions base is the one LNS vocabulary: budget_ms (the total
/// optimization budget of the anytime solvers), cost, seed, the move and
/// completion knobs, and max_iterations. Batch runs that must be
/// reproducible bit-for-bit use budget_ms = 0 (no deadline) plus a finite
/// iteration cap, making the anytime search independent of wall-clock
/// speed. Every LNS-based scheduler hands this struct on as its
/// LnsOptions, so each of those fields reaches every LNS it runs.
/// node_mask, like warm_start_plan, is a caller-owned pointer indexed by
/// the NodeIds of the instance passed to run().
struct SchedulerOptions : LnsOptions {
  /// Warm start for the improving schedulers (lns / holistic / ilp).
  BaselineKind warm_start = BaselineKind::kGreedyClairvoyant;
  /// Stage-1 budget for the refined ("ILP-BSP") warm start / baseline.
  double stage1_budget_ms = 300;
  /// Caller-provided warm-start plan for the improving schedulers
  /// (lns / lns-portfolio): when set, the search starts from this plan
  /// instead of running the two-stage baseline. The plan must pass
  /// validate_plan for the instance and outlive the run() call. The LNS
  /// contract makes the result never worse than this start; the schedule
  /// cache (src/daemon/) uses it to warm-start near-miss requests from a
  /// cached incumbent (docs/DAEMON.md).
  const ComputePlan* warm_start_plan = nullptr;
  /// LNS ablation knob: start from the trivial all-on-p0 plan instead of
  /// the warm start (move_mask and completion_policy are the others).
  bool cold_start = false;

  /// Divide-and-conquer sizing; "holistic" switches from the plain LNS to
  /// divide-and-conquer above divide_conquer_threshold nodes.
  int divide_conquer_threshold = 120;
  int max_part_size = 60;

  /// Sharded out-of-core pipeline ("sharded" scheduler; docs/SCALE.md):
  /// acyclic k-way partition into `shards` intervals, per-shard LNS fanned
  /// out on `shard_threads` workers (0 = hardware concurrency; the thread
  /// count never changes the result), then a boundary-masked global
  /// polish. compare_full_seed returns the cheaper of the sharded plan
  /// and the unpartitioned greedy seed — disable for instances too large
  /// to schedule unsharded.
  int shards = 8;
  int shard_threads = 0;
  bool compare_full_seed = true;

  /// Portfolio (lns-portfolio) sizing: concurrent LNS workers with
  /// SplitMix-derived per-worker seeds, exchanging incumbents every
  /// `epochs`-th slice of the iteration budget. Deterministic by default
  /// (epoch barriers; reproducible for budget_ms = 0 regardless of thread
  /// count); free_running trades that for wall-clock throughput.
  int workers = 4;
  int epochs = 4;
  PortfolioProfile portfolio_profile = PortfolioProfile::kDiverse;
  bool free_running = false;

  /// Online repair ("repair" scheduler; docs/REPAIR.md). The instance
  /// passed to run() is the MUTATED one; `repair_delta` is the
  /// InstanceDelta that produced it from the instance `warm_start_plan`
  /// (the pre-delta incumbent, required) was solved for. Without both,
  /// the repair scheduler degenerates to a plain "lns" run. The pointer
  /// must outlive the run() call, like warm_start_plan.
  const InstanceDelta* repair_delta = nullptr;
  /// Disable the locality-masked polish after patching (bench ablation:
  /// measures the pure structural patch).
  bool repair_polish = true;
  /// DAG hops around the delta's touched nodes that stay movable during
  /// the repair polish.
  int repair_mask_radius = 1;
};

/// One result row: the schedule plus the metrics every harness reports.
struct ScheduleResult {
  std::string scheduler;   ///< name() of the producing scheduler
  MbspSchedule schedule;
  ComputePlan plan;        ///< compute plan, when the scheduler keeps one
  double cost = 0;         ///< cost of `schedule` under options.cost
  double baseline_cost = 0;  ///< warm-start cost (== cost for baselines)
  double io_volume = 0;    ///< sum of mu over saves + loads
  int supersteps = 0;
  double wall_ms = 0;      ///< wall time of run() (excluded from tables)
  std::size_t num_parts = 0;  ///< divide-and-conquer part count (else 0)
  bool optimal = false;    ///< exact solvers: optimum proven
  /// LNS move statistics (size kNumMoveClasses for LNS runs, else empty):
  /// proposals / SA acceptances per move class, indexed like
  /// lns_move_class_name. Ablation benches report acceptance rates from
  /// these instead of re-deriving them.
  std::vector<long> lns_proposed;
  std::vector<long> lns_accepted;
};

/// Polymorphic scheduler. Implementations are stateless and `run` is
/// const + thread-safe, so one registered instance can serve a whole
/// thread-pooled batch.
class MbspScheduler {
 public:
  virtual ~MbspScheduler() = default;

  virtual std::string name() const = 0;

  /// Whether this scheduler can handle `inst` (e.g. the exact pebbler
  /// requires P = 1 and a small DAG). Batch runs skip unsupported cells.
  virtual bool supports(const MbspInstance&) const { return true; }

  /// Whether run() starts from SchedulerOptions::warm_start_plan when one
  /// is set, so a cached incumbent can warm-start it (the mbspd cache).
  virtual bool honors_warm_start() const { return false; }

  /// Produces a valid schedule (tests assert validate()-cleanliness for
  /// every registered scheduler). Deterministic given (inst, options).
  virtual ScheduleResult run(const MbspInstance& inst,
                             const SchedulerOptions& options) const = 0;
};

}  // namespace mbsp
