// repair-trace: online repair on mutating instances. Closed loop, one
// client; the five trace families (grow, drift, churn, mixed on P=4 and
// processor drop-out on P=8, all on a stencil base) at four seeds are
// replayed round-robin, one event per operation. An operation is
// apply_instance_delta followed by repair_plan (capped, mask radius 2). The
// same LNS and evaluator code as lns-mid runs here under a locality mask,
// on instances that change between calls.

#include <stdexcept>

#include "bench_mbsp/calls.hpp"
#include "bench_mbsp/workloads.hpp"

namespace mbsp::bench {
namespace {

struct TraceCase {
  const char* family;
  const char* machine;
  int events;
};

const TraceCase kCases[] = {
    {"trace-grow", "uniform:P=4", 24},  {"trace-drift", "uniform:P=4", 24},
    {"trace-churn", "uniform:P=4", 24}, {"trace-mixed", "uniform:P=4", 24},
    {"trace-dropout", "uniform:P=8", 6},
};
constexpr int kTraceSeeds = 4;
constexpr long kIterations = 400;
constexpr int kMaskRadius = 2;
// cost_ratio covers the first kRatioOps operations (every run completes
// them); the reference re-solve covers the last kReferenceOps.
constexpr std::size_t kRatioOps = 200;
constexpr std::size_t kReferenceOps = 40;

class RepairTraceWorkload final : public Workload {
 public:
  RepairTraceWorkload(const RunOptions& options, Sinks sinks)
      : options_(options), sinks_(sinks) {}

  double tail_pct() const override { return 95; }

  void setup() override {
    const int seeds = options_.small ? 1 : kTraceSeeds;
    for (int s = 0; s < seeds; ++s) {
      for (const TraceCase& c : kCases) {
        const int events = options_.small ? 2 : c.events;
        const std::string spec = std::string(c.family) +
                                 ":base=stencil2d,events=" +
                                 std::to_string(events);
        std::string error;
        auto trace = calls::make_trace(spec, derive_seed(options_.seed, s),
                                       c.machine, &error);
        if (!trace) throw std::runtime_error(spec + ": " + error);
        State state;
        state.trace = std::move(*trace);
        // The pre-event incumbent: a plain capped LNS solve of the base.
        const calls::Baseline base = calls::baseline(state.trace.base);
        state.base_plan =
            calls::improve_plan(state.trace.base, base.plan,
                                calls::capped_lns(iterations(),
                                                  derive_seed(options_.seed, s, 5)))
                .plan;
        state.inst = state.trace.base;
        state.incumbent = state.base_plan;
        traces_.push_back(std::move(state));
      }
    }
  }

  PhaseResult run(double seconds) override {
    const auto needed = static_cast<std::int64_t>(ratio_ops()) -
                        static_cast<std::int64_t>(ratios_.size());
    return closed_loop(
        seconds, needed, &next_op_, [this](std::int64_t id) { step(id); },
        [this](std::int64_t id) { check(id); });
  }

  double cost_ratio() override { return geometric_mean(ratios_); }

  void reference_pass() override {
    for (const Reference& ref : references_) {
      // A cold re-solve of the mutated instance at the same cap and seed.
      const Clock::time_point start = Clock::now();
      const calls::Baseline base = calls::baseline(ref.inst);
      const LnsResult resolved = calls::improve_plan(
          ref.inst, base.plan, calls::capped_lns(iterations(), ref.seed));
      const double resolve_ms = ms_between(start, Clock::now());
      LayerSamples& samples = sinks_.samples;
      calls::record_lns(samples, resolved);
      samples.add("repair.resolve_ms", resolve_ms);
      samples.add("repair.wall_speedup", resolve_ms / ref.repair_ms);
      samples.add("repair.vs_resolve_cost", ref.cost / resolved.cost);
    }
  }

  ProbeInputs probe_inputs() const override {
    const MbspInstance& base = traces_.front().trace.base;
    return {&base.dag, &base, kCases[0].machine};
  }

 private:
  struct State {
    RepairTrace trace;
    ComputePlan base_plan;
    MbspInstance inst;  ///< the base with every replayed event applied
    ComputePlan incumbent;
    std::size_t next_event = 0;
  };
  /// One repaired event, kept for the reference re-solve.
  struct Reference {
    MbspInstance inst;
    std::uint64_t seed = 0;
    double cost = 0;
    double repair_ms = 0;
  };

  long iterations() const { return options_.small ? 100 : kIterations; }
  std::size_t ratio_ops() const {
    return options_.small ? traces_.size() : kRatioOps;
  }

  void step(std::int64_t id) {
    const Clock::time_point start = Clock::now();
    trace_ = static_cast<std::size_t>(id) % traces_.size();
    State& state = traces_[trace_];
    const std::size_t event = state.next_event++;
    seed_ = derive_seed(options_.seed, trace_, 100 + event);
    error_.clear();
    repaired_.reset();
    const InstanceDelta& delta = state.trace.events[event].delta;
    if (!calls::apply_instance_delta(state.inst, delta, &error_)) {
      error_ = "apply_instance_delta: " + error_;
      return;
    }
    RepairOptions options;
    options.lns = calls::capped_lns(iterations(), seed_);
    options.mask_radius = kMaskRadius;
    repaired_ =
        calls::repair_plan(state.inst, state.incumbent, delta, options, &error_);
    if (!repaired_) {
      error_ = "repair_plan: " + error_;
      return;
    }
    state.incumbent = repaired_->plan;
    repair_ms_ = ms_between(start, Clock::now());
    LayerSamples& samples = sinks_.samples;
    samples.add("repair.polish_iters",
                static_cast<double>(repaired_->polish_iterations));
    samples.add("repair.masked_frac",
                static_cast<double>(repaired_->masked_nodes) /
                    static_cast<double>(state.inst.dag.num_nodes()));
    samples.add("repair.full_mask", repaired_->full_mask ? 1 : 0);
  }

  /// Checks the repair on its mutated instance, then restarts a trace that
  /// has replayed all its events.
  void check(std::int64_t id) {
    Checks& checks = sinks_.checks;
    State& state = traces_[trace_];
    checks.expect(error_.empty(), id, error_);
    if (repaired_) {
      const ComputePlan& plan = repaired_->plan;
      checks.expect(static_cast<bool>(validate_plan(state.inst.dag, plan)), id,
                    "repaired plan fails validate_plan");
      MbspSchedule schedule;
      checks.expect(evaluate_plan(state.inst, plan,
                                  calls::capped_lns(iterations(), seed_),
                                  &schedule) == repaired_->cost,
                    id, "repaired cost differs from evaluate_plan");
      std::string error;
      checks.expect(calls::validate(state.inst, schedule, &error), id,
                    "validate: " + error);
      if (ratios_.size() < ratio_ops()) {
        ratios_.push_back(repaired_->cost / calls::baseline(state.inst).cost);
      }
      const std::size_t keep = options_.small ? 4 : kReferenceOps;
      if (references_.size() == keep) references_.erase(references_.begin());
      references_.push_back({state.inst, seed_, repaired_->cost, repair_ms_});
    }
    if (state.next_event == state.trace.events.size()) {
      state.inst = state.trace.base;
      state.incumbent = state.base_plan;
      state.next_event = 0;
    }
  }

  const RunOptions options_;
  Sinks sinks_;
  std::vector<State> traces_;
  std::vector<double> ratios_;  // repaired / baseline cost, by operation id
  std::vector<Reference> references_;  // the last kReferenceOps repairs
  std::int64_t next_op_ = 0;
  // The operation in flight, checked by check().
  std::size_t trace_ = 0;
  std::uint64_t seed_ = 0;
  std::optional<RepairResult> repaired_;
  double repair_ms_ = 0;
  std::string error_;
};

}  // namespace

std::unique_ptr<Workload> make_repair_trace(const RunOptions& options,
                                            Sinks sinks) {
  return std::make_unique<RepairTraceWorkload>(options, sinks);
}

}  // namespace mbsp::bench
