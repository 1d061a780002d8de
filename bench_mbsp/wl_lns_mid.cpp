// lns-mid: the paper's holistic solve at n ~ 10^3. Closed loop, one
// client; each operation is stage 1 -> completion -> improve_plan ->
// validate on one of 5 families x 24 seeds, iteration-capped. The LNS
// evaluator does nearly all the work; ingest, shard, repair and daemon do
// none, so a change to those layers must leave this workload unchanged.

#include <stdexcept>

#include "bench_mbsp/calls.hpp"
#include "bench_mbsp/workloads.hpp"

namespace mbsp::bench {
namespace {

// n ~ 10^3 each (lu:blocks=14 has 1015 tasks), so no family's solves are
// several times cheaper than the rest's.
const char* const kFamilies[] = {
    "stencil2d:nx=20,ny=20,steps=2", "fft:n=128", "wavefront:nx=32,ny=32",
    "mapreduce:maps=40,reducers=30,rounds=15", "lu:blocks=14"};
constexpr std::size_t kNumFamilies = std::size(kFamilies);
constexpr int kSeedsPerFamily = 24;
constexpr long kIterations = 500;
constexpr const char* kMachine = "uniform:P=4";
// cost_ratio covers the first kRatioOps operations; every run completes
// them, so the ratio depends on the seed alone.
constexpr std::size_t kRatioOps = 40;

class LnsMid final : public Workload {
 public:
  LnsMid(const RunOptions& options, Sinks sinks)
      : options_(options), sinks_(sinks) {}

  double tail_pct() const override { return 75; }

  void setup() override {
    const int seeds = options_.small ? 1 : kSeedsPerFamily;
    // Family-minor order: any run of consecutive operations cycles
    // through all five families.
    for (int j = 0; j < seeds; ++j) {
      for (const char* family : kFamilies) {
        std::string error;
        auto dag = calls::make_dag(family, derive_seed(options_.seed, j),
                                   &error);
        if (!dag) throw std::runtime_error(std::string(family) + ": " + error);
        instances_.push_back(calls::make_instance(std::move(*dag), kMachine));
      }
    }
  }

  PhaseResult run(double seconds) override {
    const auto needed = static_cast<std::int64_t>(ratio_ops()) -
                        static_cast<std::int64_t>(ratios_.size());
    return closed_loop(
        seconds, needed, &next_op_, [this](std::int64_t id) { solve(id); },
        [this](std::int64_t id) { check(id); });
  }

  double cost_ratio() override {
    const std::vector<double> first(
        ratios_.begin(),
        ratios_.begin() + static_cast<std::ptrdiff_t>(
                              std::min(ratio_ops(), ratios_.size())));
    return geometric_mean(first);
  }

  ProbeInputs probe_inputs() const override {
    return {&instances_.front().dag, &instances_.front(), kMachine};
  }

 private:
  long iterations() const { return options_.small ? 100 : kIterations; }
  std::size_t ratio_ops() const {
    return options_.small ? instances_.size() : kRatioOps;
  }
  std::size_t instance_of(std::int64_t id) const {
    return static_cast<std::size_t>(id) % instances_.size();
  }
  std::uint64_t lns_seed(std::int64_t id) const {
    return derive_seed(options_.seed, instance_of(id), 1);
  }

  void solve(std::int64_t id) {
    const MbspInstance& inst = instances_[instance_of(id)];
    const calls::Baseline base = calls::baseline(inst);
    result_ = calls::improve_plan(inst, base.plan,
                                  calls::capped_lns(iterations(), lns_seed(id)));
    valid_ = calls::validate(inst, result_.schedule, &error_);
    baseline_cost_ = base.cost;
  }

  void check(std::int64_t id) {
    Checks& checks = sinks_.checks;
    const MbspInstance& inst = instances_[instance_of(id)];
    checks.expect(valid_, id, "validate: " + error_);
    checks.expect(evaluate_plan(inst, result_.plan,
                                calls::capped_lns(iterations(), lns_seed(id))) ==
                      result_.cost,
                  id, "reported cost differs from evaluate_plan");
    checks.expect(result_.cost <= baseline_cost_, id,
                  "LNS result worse than its warm start");
    // The decomposed pipeline must match the registry "lns" scheduler: on
    // the first operation of each family, and on every one under --check.
    if (options_.small || id < static_cast<std::int64_t>(kNumFamilies)) {
      const MbspScheduler* lns = SchedulerRegistry::global().find("lns");
      SchedulerOptions options;
      options.budget_ms = 0;
      options.max_iterations = iterations();
      options.seed = lns_seed(id);
      checks.expect(lns != nullptr &&
                        calls::plan_bytes(lns->run(inst, options).plan) ==
                            calls::plan_bytes(result_.plan),
                    id, "plan differs from the registry lns scheduler's");
    }
    calls::record_lns(sinks_.samples, result_);
    ratios_.push_back(result_.cost / baseline_cost_);
  }

  const RunOptions options_;
  Sinks sinks_;
  std::vector<MbspInstance> instances_;
  std::vector<double> ratios_;  // final / baseline cost, by operation id
  std::int64_t next_op_ = 0;
  // The operation in flight, checked by check().
  LnsResult result_;
  double baseline_cost_ = 0;
  bool valid_ = false;
  std::string error_;
};

}  // namespace

std::unique_ptr<Workload> make_lns_mid(const RunOptions& options, Sinks sinks) {
  return std::make_unique<LnsMid>(options, sinks);
}

}  // namespace mbsp::bench
