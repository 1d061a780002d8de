// Heterogeneous-machine sweep: every scheduler point from the registry
// over a grid of machine models — speed skews (hetero:speeds=...) and
// two-level comm topologies (numa:groups=...) — across six corpus
// families. Not a paper table: the paper's experiments are uniform-MBSP
// only; this bench shows the machine axis opened by the machine registry
// and that schedulers *differentiate* once processors stop being equal.
//
// Two structural guarantees are enforced (abort on violation):
//  * uniform identity — the degenerate heterogeneous machine
//    (speeds=1, one group) reproduces the uniform machine's costs
//    bitwise, per (workload, scheduler) cell;
//  * iteration-capped determinism — all cells run with budget_ms = 0, so
//    the CSV artifact (MBSP_BENCH_CSV) is bit-identical everywhere.
//
// Environment knobs (on top of bench_common's):
//   MBSP_BENCH_HETERO_ITERS  LNS iteration cap (default 4000)

#include <cmath>
#include <map>

#include "bench/bench_common.hpp"

int main() {
  using namespace mbsp;
  using namespace mbsp::bench;

  const BenchConfig config = BenchConfig::from_env();
  const long iters = env_long("MBSP_BENCH_HETERO_ITERS", 4000);

  const std::vector<std::string> workloads{
      "stencil2d:nx=6,ny=6,steps=2", "wavefront:nx=8,ny=8", "lu:blocks=4",
      "fft:n=16", "attention:seq=6,heads=2",
      "mapreduce:maps=8,reducers=4,rounds=2",
  };
  // The machine grid: the uniform anchor, its degenerate heterogeneous
  // twin (must match bitwise), three speed skews, three comm topologies.
  const std::string uniform_spec = "uniform:P=8";
  const std::string degenerate_spec = "hetero:P=8,speeds=1";
  const std::vector<std::string> machines{
      uniform_spec,
      degenerate_spec,
      "hetero:P=8,speeds=1x4+2x4",
      "hetero:P=8,speeds=1x6+4x2",
      "hetero:P=8,speeds=1x4+2x4,mems=1x4+2x4",
      "numa:groups=2x4,gin=1,gout=4",
      "numa:groups=4x2,gin=1,gout=4",
      "numa:groups=2x4,gin=1,gout=8,Lg=5",
  };
  const std::vector<std::string> schedulers{"bspg+clairvoyant", "cilk+lru",
                                            "lns"};

  const WorkloadRegistry& registry = WorkloadRegistry::global();
  const MachineRegistry& machine_registry = MachineRegistry::global();
  // Cells carry canonical machine names (defaults dropped), not the raw
  // spellings above; the map joins the two.
  std::map<std::string, std::string> canonical_of;
  std::vector<MbspInstance> instances;
  for (const std::string& spec : workloads) {
    std::string error;
    auto dag = registry.make_dag(spec, config.seed, &error);
    if (!dag) {
      std::fprintf(stderr, "cannot generate '%s': %s\n", spec.c_str(),
                   error.c_str());
      return 1;
    }
    const double r0 = min_memory_r0(*dag);
    for (const std::string& machine_spec : machines) {
      auto machine = machine_registry.make_machine(machine_spec, r0, &error);
      if (!machine) {
        std::fprintf(stderr, "bad machine '%s': %s\n", machine_spec.c_str(),
                     error.c_str());
        return 1;
      }
      canonical_of[machine_spec] = machine->name;
      instances.push_back({*dag, std::move(*machine)});
    }
  }

  BatchOptions batch;
  batch.scheduler = scheduler_options(config);
  batch.scheduler.budget_ms = 0;  // iteration-capped: bit-reproducible
  batch.scheduler.max_iterations = iters;
  const std::vector<BatchCell> cells =
      BatchRunner(batch).run_grid(instances, schedulers);
  emit(batch_table(cells, /*include_wall_time=*/false, /*include_hash=*/true),
       "heterogeneous-machine sweep (iteration-capped)", config, "hetero");

  // Uniform identity: the degenerate heterogeneous machine must reproduce
  // the uniform machine's cost bitwise in every cell.
  std::map<std::pair<std::string, std::string>, double> uniform_cost;
  for (const BatchCell& cell : cells) {
    if (cell.machine == canonical_of.at(uniform_spec)) {
      uniform_cost[{cell.instance, cell.scheduler}] = cell_or_die(cell).cost;
    }
  }
  for (const BatchCell& cell : cells) {
    if (cell.machine != canonical_of.at(degenerate_spec)) continue;
    const double expect = uniform_cost.at({cell.instance, cell.scheduler});
    const double got = cell_or_die(cell).cost;
    if (got != expect) {
      std::fprintf(stderr,
                   "uniform identity violated: %s/%s cost %.17g on '%s' vs "
                   "%.17g on '%s'\n",
                   cell.instance.c_str(), cell.scheduler.c_str(), got,
                   degenerate_spec.c_str(), expect, uniform_spec.c_str());
      std::abort();
    }
  }

  // Differentiation summary: per machine, the geometric-mean cost ratio
  // of each scheduler against bspg+clairvoyant on the same (workload,
  // machine) — heterogeneity moves these ratios apart.
  Table summary({"machine", "scheduler", "geomean cost ratio vs bspg"});
  PerfReport report("hetero");
  std::vector<double> lns_ratios_all;
  std::vector<double> lns_rates_all;
  for (const std::string& machine_spec : machines) {
    for (const std::string& scheduler : schedulers) {
      if (scheduler == schedulers.front()) continue;
      const std::string& machine_name = canonical_of.at(machine_spec);
      std::vector<double> ratios;
      for (const BatchCell& cell : cells) {
        if (cell.machine != machine_name || cell.scheduler != scheduler) {
          continue;
        }
        const BatchCell* reference = nullptr;
        for (const BatchCell& other : cells) {
          if (other.machine == machine_name &&
              other.instance == cell.instance &&
              other.scheduler == schedulers.front()) {
            reference = &other;
            break;
          }
        }
        ratios.push_back(cell_or_die(cell).cost /
                         cell_or_die(*reference).cost);
      }
      summary.add_row({machine_spec, scheduler,
                       fmt(geometric_mean(ratios), 3)});
      if (scheduler == "lns") {
        report.add_family(machine_spec, "geomean_cost_ratio_lns",
                          geometric_mean(ratios));
        lns_ratios_all.insert(lns_ratios_all.end(), ratios.begin(),
                              ratios.end());
      }
    }
    // LNS solve throughput on this machine point (iteration-capped runs,
    // so iterations / wall time is the engine's sustained rate).
    std::vector<double> rates;
    for (const BatchCell& cell : cells) {
      if (cell.machine != canonical_of.at(machine_spec) ||
          cell.scheduler != "lns") {
        continue;
      }
      rates.push_back(static_cast<double>(iters) * 1000.0 /
                      std::max(cell_or_die(cell).wall_ms, 1e-6));
    }
    report.add_family(machine_spec, "lns_iters_per_sec",
                      geometric_mean(rates));
    lns_rates_all.insert(lns_rates_all.end(), rates.begin(), rates.end());
  }
  emit(summary, "scheduler differentiation by machine", config,
       "hetero_summary");
  // The cost ratios come from iteration-capped deterministic solves, so
  // they are reproducible across hosts and gate the trajectory exactly;
  // absolute iteration rates are host-bound and informational.
  report.add_metric("geomean_cost_ratio_lns", geometric_mean(lns_ratios_all),
                    /*higher_is_better=*/false, /*gated=*/true,
                    /*exact=*/true);
  report.add_metric("geomean_lns_iters_per_sec",
                    geometric_mean(lns_rates_all),
                    /*higher_is_better=*/true, /*gated=*/false);
  report.write();

  int failures = 0;
  for (const BatchCell& cell : cells) failures += !cell.ok;
  if (failures > 0) {
    std::printf("%d of %zu cells failed\n", failures, cells.size());
    return 1;
  }
  return 0;
}
