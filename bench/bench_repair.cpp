// bench_repair: online schedule repair vs re-solving from scratch
// (docs/REPAIR.md). Replays a timed-arrival trace per family: after each
// InstanceDelta the incumbent is repaired via the "repair" scheduler
// (structural patch + locality-masked polish) AND the mutated instance is
// re-solved cold with "lns" at the SAME iteration budget. The headline
// metric is the geometric-mean cost ratio repair/resolve across all
// events — the repair engine's reason to exist is ratio <= 1.0 at equal
// budget, and the bench fails hard when that does not hold.
//
// Requests use budget_ms = 0 with an iteration cap, so costs and the
// ratio are bit-reproducible and gate in CI; wall-clock speedups track
// the host and are informational.
//
// Writes BENCH_repair.json (compared against bench/baselines/ by
// tools/bench_compare.py).

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/holistic/repair.hpp"
#include "src/workload/trace.hpp"

namespace {

using namespace mbsp;

constexpr long kIterations = 400;  // equal budget for repair and re-solve

struct TraceCase {
  const char* spec;
  const char* machine;
};

// One DAG-growth, one machine-degradation and one everything-at-once
// trace, across the machine kinds the repair engine special-cases.
const TraceCase kCases[] = {
    {"trace-grow:base=stencil2d,events=6,batch=3", "uniform:P=4"},
    {"trace-dropout:base=mapreduce,events=2", "uniform:P=6"},
    {"trace-mixed:base=random-layered,events=6,batch=2", "uniform:P=4"},
};

SchedulerOptions solver_options(std::uint64_t seed) {
  SchedulerOptions options;
  options.budget_ms = 0;  // no deadline: the iteration cap decides
  options.max_iterations = kIterations;
  options.seed = seed;
  return options;
}

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main() {
  const auto config = mbsp::bench::BenchConfig::from_env();
  const MbspScheduler* lns = SchedulerRegistry::global().find("lns");
  const MbspScheduler* repair = SchedulerRegistry::global().find("repair");
  if (lns == nullptr || repair == nullptr) {
    std::fprintf(stderr, "bench_repair: lns/repair schedulers missing\n");
    return 1;
  }

  std::vector<double> all_ratios;
  std::vector<double> all_speedups;
  mbsp::bench::PerfReport report("repair");

  for (const TraceCase& c : kCases) {
    std::string error;
    auto trace = make_trace(c.spec, config.seed, c.machine, &error);
    if (!trace) {
      std::fprintf(stderr, "bench_repair: cannot build '%s': %s\n", c.spec,
                   error.c_str());
      return 1;
    }

    // The pre-event incumbent: a plain LNS solve of the base instance.
    MbspInstance inst = trace->base;
    ScheduleResult incumbent = lns->run(inst, solver_options(config.seed));

    std::vector<double> ratios, speedups;
    for (const TraceEvent& event : trace->events) {
      if (!apply_instance_delta(inst, event.delta, nullptr, &error)) {
        std::fprintf(stderr, "bench_repair: %s: %s\n", trace->name.c_str(),
                     error.c_str());
        return 1;
      }

      SchedulerOptions repair_options = solver_options(config.seed);
      repair_options.warm_start_plan = &incumbent.plan;
      repair_options.repair_delta = &event.delta;
      repair_options.repair_mask_radius = 2;
      const double repair_start = now_ms();
      ScheduleResult repaired = repair->run(inst, repair_options);
      const double repair_ms = now_ms() - repair_start;

      const double resolve_start = now_ms();
      ScheduleResult resolved = lns->run(inst, solver_options(config.seed));
      const double resolve_ms = now_ms() - resolve_start;

      ratios.push_back(repaired.cost / resolved.cost);
      speedups.push_back(resolve_ms / repair_ms);
      incumbent = std::move(repaired);  // repairs chain along the trace
    }

    const double ratio = geometric_mean(ratios);
    const double speedup = geometric_mean(speedups);
    std::printf("%-46s events=%zu  cost ratio %.4f  wall speedup %.2fx\n",
                trace->name.c_str(), ratios.size(), ratio, speedup);
    report.add_family(trace->name, "cost_ratio", ratio);
    report.add_family(trace->name, "wall_speedup", speedup);
    all_ratios.insert(all_ratios.end(), ratios.begin(), ratios.end());
    all_speedups.insert(all_speedups.end(), speedups.begin(), speedups.end());
  }

  const double ratio = geometric_mean(all_ratios);
  const double speedup = geometric_mean(all_speedups);
  std::printf("repair/resolve: %.4f geometric-mean cost ratio over %zu "
              "events (%.2fx wall speedup)\n",
              ratio, all_ratios.size(), speedup);

  // Deterministic (budget_ms = 0 + iteration cap) — gates exactly.
  report.add_metric("repair_vs_resolve_cost_ratio", ratio,
                    /*higher_is_better=*/false, /*gated=*/true,
                    /*exact=*/true);
  // Host-dependent wall-clock advantage — informational.
  report.add_metric("repair_wall_speedup", speedup,
                    /*higher_is_better=*/true, /*gated=*/false);
  report.write();

  if (ratio > 1.0) {
    std::fprintf(stderr, "bench_repair: FAIL — repair is worse than a "
                 "from-scratch re-solve at equal budget (%.4f > 1.0)\n",
                 ratio);
    return 1;
  }
  std::printf("repair_vs_resolve: OK (ratio %.4f <= 1.0)\n", ratio);
  return 0;
}
