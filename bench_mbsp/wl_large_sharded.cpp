// large-sharded: the out-of-core path at 10^5 nodes. Set-up streams a
// deep-narrow stencil to disk; each operation ingests it, builds the
// BSPg + clairvoyant seed, runs the sharded pipeline (k = 4, capped LNS per
// shard and polish, no full-seed compare), keeps the cheaper plan and
// validates it. Here ingest, stage 1, completion, partition and stitch run
// at a size where each LNS iteration costs milliseconds, so a change to
// large-n evaluation shows on this workload and not on lns-mid.

#include <cstdio>
#include <stdexcept>

#include "bench_mbsp/calls.hpp"
#include "bench_mbsp/workloads.hpp"

namespace mbsp::bench {
namespace {

// Unit memory weights: the 10^5-node instance is the same at every seed,
// which drives only the solver's random choices. With randomized weights
// the sharded/seed cost ratio of this single instance ranges from 0.73 to
// 1.0 across seeds, wider than any regression the benchmark should catch.
constexpr const char* kSpec = "stencil2d:nx=32,ny=8,steps=400,mu=unit";
constexpr const char* kSmallSpec = "stencil2d:nx=32,ny=8,steps=8,mu=unit";
// The solver-level probes run on the same family at 1/100 of the depth.
constexpr const char* kProbeSpec = "stencil2d:nx=32,ny=8,steps=4,mu=unit";
constexpr const char* kMachine = "uniform:P=4";

class LargeSharded final : public Workload {
 public:
  LargeSharded(const RunOptions& options, Sinks sinks)
      : options_(options), sinks_(sinks), path_(scratch_path("large", ".bin")) {}
  ~LargeSharded() override { std::remove(path_.c_str()); }
  LargeSharded(const LargeSharded&) = delete;
  LargeSharded& operator=(const LargeSharded&) = delete;

  double tail_pct() const override { return 50; }

  void setup() override {
    std::string error;
    if (!calls::make_dag_stream(options_.small ? kSmallSpec : kSpec,
                                options_.seed, path_, &error)) {
      throw std::runtime_error("cannot stream " + path_ + ": " + error);
    }
    auto probe = calls::make_dag(kProbeSpec, options_.seed, &error);
    if (!probe) throw std::runtime_error(error);
    probe_inst_ = calls::make_instance(std::move(*probe), kMachine);
  }

  PhaseResult run(double seconds) override {
    return closed_loop(
        seconds, first_plan_.empty() ? 1 : 0, &next_op_,
        [this](std::int64_t) { solve(); },
        [this](std::int64_t id) { check(id); });
  }

  /// The sharded plan's own cost over the seed's, not clipped at 1 by
  /// keeping the cheaper plan: a sharded plan that loses to the seed shows.
  double cost_ratio() override {
    return first_seed_cost_ > 0 ? first_sharded_cost_ / first_seed_cost_ : 0;
  }

  ProbeInputs probe_inputs() const override {
    return {large_dag_ ? &*large_dag_ : &probe_inst_.dag, &probe_inst_,
            kMachine};
  }

 private:
  void solve() {
    inst_.reset();
    auto dag = calls::read_dag_file(path_, &error_);
    if (!dag) return;
    inst_ = calls::make_instance(std::move(*dag), kMachine);
    calls::Baseline seed = calls::baseline(*inst_);

    ShardResult sharded = calls::shard_schedule(
        *inst_, calls::shard_options(derive_seed(options_.seed, 2)));

    const bool sharded_wins = sharded.cost < seed.cost;
    valid_ = calls::validate(
        *inst_, sharded_wins ? sharded.schedule : seed.schedule, &error_);
    seed_cost_ = seed.cost;
    sharded_cost_ = sharded.cost;
    cost_ = sharded_wins ? sharded.cost : seed.cost;
    plan_ = sharded_wins ? std::move(sharded.plan) : std::move(seed.plan);

    calls::record_shard(sinks_.samples, sharded, seed.cost,
                        inst_->dag.num_nodes());
  }

  void check(std::int64_t id) {
    Checks& checks = sinks_.checks;
    if (!inst_) {
      checks.expect(false, id, "ingest: " + error_);
      return;
    }
    checks.expect(valid_, id, "validate: " + error_);
    if (first_plan_.empty()) {
      checks.expect(evaluate_plan(*inst_, plan_, LnsOptions{}) == cost_, id,
                    "reported cost differs from evaluate_plan");
      checks.expect(cost_ <= seed_cost_, id, "kept plan worse than the seed");
      first_plan_ = calls::plan_bytes(plan_);
      first_cost_ = cost_;
      first_seed_cost_ = seed_cost_;
      first_sharded_cost_ = sharded_cost_;
      large_dag_ = std::move(inst_->dag);
    } else {
      checks.expect(cost_ == first_cost_ &&
                        calls::plan_bytes(plan_) == first_plan_,
                    id, "same instance and options gave another plan");
    }
    inst_.reset();
    plan_ = ComputePlan{};
  }

  const RunOptions options_;
  Sinks sinks_;
  const std::string path_;
  MbspInstance probe_inst_;
  std::optional<ComputeDag> large_dag_;  ///< kept for the probes
  std::string first_plan_;  ///< plan bytes of the first operation
  double first_cost_ = 0;
  double first_seed_cost_ = 0;
  double first_sharded_cost_ = 0;
  std::int64_t next_op_ = 0;
  // The operation in flight, checked by check().
  std::optional<MbspInstance> inst_;
  ComputePlan plan_;
  double cost_ = 0;
  double seed_cost_ = 0;
  double sharded_cost_ = 0;
  bool valid_ = false;
  std::string error_;
};

}  // namespace

std::unique_ptr<Workload> make_large_sharded(const RunOptions& options,
                                             Sinks sinks) {
  return std::make_unique<LargeSharded>(options, sinks);
}

}  // namespace mbsp::bench
