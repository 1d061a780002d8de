// Suite runner CLI: runs any named subset of registered schedulers over a
// generated dataset or file-loaded DAGs, through the parallel BatchRunner,
// and prints (optionally exports) the result table. The whole experiment
// grid is data: adding a scheduler to the registry makes it available here
// with no code changes.
//
//   suite_runner --list | --list-workloads | --list-machines | --list-traces
//   suite_runner [--schedulers spec,spec,...] [--dataset tiny|small]
//                [--dag file.dag ...] [--workload spec ...]
//                [--machine spec ...]
//                [--P 4] [--r-factor 3] [--g 1]
//                [--L 10] [--cost sync|async] [--budget-ms 1500]
//                [--seed 2025] [--threads N] [--wall] [--csv path.csv]
//   suite_runner --repair --trace spec [--trace spec ...]
//                [--machine spec] [--seed n] [--max-iterations n]
//
// Examples:
//   suite_runner --schedulers bspg+clairvoyant,cilk+lru,holistic
//   suite_runner --dataset small --schedulers bspg+clairvoyant,divide-conquer
//   suite_runner --dag my.dag --P 1 --schedulers dfs+clairvoyant,exact-pebbler
//   suite_runner --workload stencil2d:nx=8,ny=8 --workload fft:n=16
//   suite_runner --schedulers lns:moves=proc+swap,budget_ms=500
//   suite_runner --schedulers lns,lns-portfolio:workers=8,epochs=4
//   suite_runner --workload fft:n=16 --machine uniform:P=8 \
//                --machine "numa:groups=2x4,gin=1,gout=4"
//
// --machine runs every instance on each named machine model (see
// docs/MACHINES.md and --list-machines); without it the legacy
// --P/--r-factor/--g/--L flags build one ad-hoc uniform machine. The
// result table gains a machine column whenever --machine is used.
//
// --repair switches to the online-repair replay mode (docs/REPAIR.md):
// each --trace spec (a timed-arrival trace, see --list-traces) is
// replayed event by event — the incumbent schedule is repaired via the
// "repair" scheduler AND the mutated instance is re-solved from scratch
// with "lns" at the same iteration budget. The run prints per-event cost
// ratios, a per-trace and overall geometric mean, and ends with the
// greppable verdict line `repair_vs_resolve: OK|FAIL` (exit 1 on FAIL:
// repair lost to re-solving at equal budget). Deterministic for
// --max-iterations with the default budget-free replay.
//
// Each --schedulers item is a scheduler spec `name[:key=value,...]`
// (docs/CLI.md#scheduler-specs) whose keys override the grid-wide flags
// for that column only.

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "include/mbsp/mbsp.hpp"
#include "src/util/stats.hpp"

namespace {

using namespace mbsp;
int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--list] [--list-workloads] [--list-machines]\n"
               "          [--list-traces]\n"
               "          [--repair] [--trace spec ...]\n"
               "          [--schedulers name[:key=value,...],...]\n"
               "          [--dataset tiny|small] [--dag file ...]\n"
               "          [--workload spec ...] [--machine spec ...]\n"
               "          [--P n] [--r-factor x] [--g x] [--L x]\n"
               "          [--cost sync|async] [--budget-ms x] [--seed n]\n"
               "          [--max-iterations n] [--threads n] [--wall]\n"
               "          [--csv path.csv]\n",
               argv0);
  return 2;
}

/// The --repair replay (docs/REPAIR.md): repair-vs-resolve along each
/// trace, at the same per-event iteration budget. Returns the process
/// exit status.
int run_repair_replay(const std::vector<std::string>& trace_specs,
                      const std::string& machine_spec, std::uint64_t seed,
                      const SchedulerOptions& base_options) {
  const MbspScheduler* lns = SchedulerRegistry::global().find("lns");
  const MbspScheduler* repairer = SchedulerRegistry::global().find("repair");
  if (lns == nullptr || repairer == nullptr) {
    std::fprintf(stderr, "repair replay: lns/repair schedulers missing\n");
    return 1;
  }
  std::vector<double> all_ratios;
  for (const std::string& spec : trace_specs) {
    std::string error;
    auto trace = make_trace(spec, seed, machine_spec, &error);
    if (!trace) {
      std::fprintf(stderr, "cannot build trace '%s': %s\n", spec.c_str(),
                   error.c_str());
      return 2;
    }
    MbspInstance inst = trace->base;
    ScheduleResult incumbent = lns->run(inst, base_options);
    std::printf("%s on %s: base cost %g, %zu events\n", trace->name.c_str(),
                inst.arch.name.c_str(), incumbent.cost,
                trace->events.size());
    std::vector<double> ratios;
    for (std::size_t e = 0; e < trace->events.size(); ++e) {
      const TraceEvent& event = trace->events[e];
      if (!apply_instance_delta(inst, event.delta, nullptr, &error)) {
        std::fprintf(stderr, "%s event %zu: %s\n", trace->name.c_str(), e,
                     error.c_str());
        return 1;
      }
      SchedulerOptions repair_options = base_options;
      repair_options.warm_start_plan = &incumbent.plan;
      repair_options.repair_delta = &event.delta;
      ScheduleResult repaired = repairer->run(inst, repair_options);
      ScheduleResult resolved = lns->run(inst, base_options);
      const double ratio = repaired.cost / resolved.cost;
      ratios.push_back(ratio);
      std::printf("  event %zu @%gms (%zu ops): repair %g  resolve %g  "
                  "ratio %.4f\n",
                  e, event.at_ms, event.delta.ops.size(), repaired.cost,
                  resolved.cost, ratio);
      incumbent = std::move(repaired);
    }
    std::printf("  %s geomean ratio %.4f\n", trace->name.c_str(),
                geometric_mean(ratios));
    all_ratios.insert(all_ratios.end(), ratios.begin(), ratios.end());
  }
  const double geomean = geometric_mean(all_ratios);
  const bool ok = geomean <= 1.0;
  std::printf("repair_vs_resolve: %s (geomean %.4f over %zu events)\n",
              ok ? "OK" : "FAIL", geomean, all_ratios.size());
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mbsp;

  std::vector<std::string> schedulers{"bspg+clairvoyant", "holistic"};
  std::string dataset = "tiny";
  std::vector<std::string> dag_files;
  std::vector<std::string> workload_specs;
  std::vector<std::string> machine_specs;
  std::string csv_path;
  int P = 4;
  double r_factor = 3.0, g = 1.0, L = 10.0;
  BatchOptions batch;
  batch.scheduler.budget_ms = 1500;
  std::uint64_t seed = 2025;
  bool wall = false;
  bool repair_mode = false;
  std::vector<std::string> trace_specs;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--list") {
      for (const std::string& name : SchedulerRegistry::global().names()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    } else if (arg == "--list-workloads") {
      for (const std::string& name : WorkloadRegistry::global().names()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    } else if (arg == "--list-machines") {
      for (const std::string& name : MachineRegistry::global().names()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    } else if (arg == "--list-traces") {
      for (const std::string& name : trace_family_names()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    } else if (arg == "--repair") {
      repair_mode = true;
    } else if (arg == "--trace") {
      trace_specs.push_back(value());
    } else if (arg == "--machine") {
      machine_specs.push_back(value());
    } else if (arg == "--schedulers") {
      schedulers = split_scheduler_list(value());
      for (const std::string& spec : schedulers) {  // fail before any work
        try {
          SchedulerRegistry::global().at(resolve_scheduler_spec(spec).name);
        } catch (const std::logic_error& e) {
          std::fprintf(stderr, "--schedulers: %s\n", e.what());
          return 2;
        }
      }
    } else if (arg == "--dataset") {
      dataset = value();
    } else if (arg == "--dag") {
      dag_files.push_back(value());
    } else if (arg == "--workload") {
      workload_specs.push_back(value());
    } else if (arg == "--P") {
      P = std::atoi(value());
    } else if (arg == "--r-factor") {
      r_factor = std::atof(value());
    } else if (arg == "--g") {
      g = std::atof(value());
    } else if (arg == "--L") {
      L = std::atof(value());
    } else if (arg == "--cost") {
      const std::string cost = value();
      if (cost != "sync" && cost != "async") return usage(argv[0]);
      batch.scheduler.cost = cost == "sync" ? CostModel::kSynchronous
                                            : CostModel::kAsynchronous;
    } else if (arg == "--budget-ms") {
      batch.scheduler.budget_ms = std::atof(value());
    } else if (arg == "--max-iterations") {
      // With --budget-ms 0 this makes runs bit-for-bit reproducible.
      batch.scheduler.max_iterations = std::atol(value());
    } else if (arg == "--seed") {
      seed = static_cast<std::uint64_t>(std::atoll(value()));
    } else if (arg == "--threads") {
      batch.threads = static_cast<std::size_t>(std::atol(value()));
    } else if (arg == "--wall") {
      wall = true;
    } else if (arg == "--csv") {
      csv_path = value();
    } else {
      return usage(argv[0]);
    }
  }

  if (repair_mode || !trace_specs.empty()) {
    if (!repair_mode) {
      std::fprintf(stderr, "--trace requires --repair (the replay mode)\n");
      return 2;
    }
    if (trace_specs.empty()) {
      std::fprintf(stderr,
                   "--repair needs at least one --trace spec "
                   "(families: see --list-traces)\n");
      return 2;
    }
    if (machine_specs.size() > 1) {
      std::fprintf(stderr, "--repair replays on one machine model\n");
      return 2;
    }
    SchedulerOptions options = batch.scheduler;
    options.seed = seed;
    return run_repair_replay(
        trace_specs,
        machine_specs.empty() ? "uniform:P=4" : machine_specs.front(), seed,
        options);
  }

  // Assemble the instance set: file-loaded DAGs and workload specs win
  // over the dataset.
  std::vector<ComputeDag> dags;
  if (!dag_files.empty() || !workload_specs.empty()) {
    for (const std::string& path : dag_files) {
      std::string error;
      auto dag = read_dag_file(path, &error);
      if (!dag) {
        std::fprintf(stderr, "cannot load %s: %s\n", path.c_str(),
                     error.c_str());
        return 1;
      }
      dags.push_back(std::move(*dag));
    }
    for (const std::string& spec : workload_specs) {
      std::string error;
      auto dag = WorkloadRegistry::global().make_dag(spec, seed, &error);
      if (!dag) {
        std::fprintf(stderr, "cannot generate '%s': %s\n", spec.c_str(),
                     error.c_str());
        return 1;
      }
      dags.push_back(std::move(*dag));
    }
  } else if (dataset == "tiny") {
    dags = tiny_dataset(seed);
  } else if (dataset == "small") {
    dags = small_dataset(seed);
  } else {
    std::fprintf(stderr, "unknown dataset '%s' (tiny | small)\n",
                 dataset.c_str());
    return 2;
  }

  std::vector<MbspInstance> instances;
  if (machine_specs.empty()) {
    instances.reserve(dags.size());
    for (ComputeDag& dag : dags) {
      const double r0 = min_memory_r0(dag);
      instances.push_back(
          {std::move(dag), Architecture::make(P, r_factor * r0, g, L)});
    }
  } else {
    // One instance per (DAG, machine): each DAG runs on every named
    // machine model, sized from its own min_memory_r0.
    instances.reserve(dags.size() * machine_specs.size());
    for (const ComputeDag& dag : dags) {
      const double r0 = min_memory_r0(dag);
      for (const std::string& spec : machine_specs) {
        std::string error;
        auto machine = MachineRegistry::global().make_machine(spec, r0,
                                                              &error);
        if (!machine) {
          std::fprintf(stderr, "bad --machine '%s': %s\n", spec.c_str(),
                       error.c_str());
          return 2;
        }
        instances.push_back({dag, std::move(*machine)});
      }
    }
  }

  const std::vector<BatchCell> cells =
      BatchRunner(batch).run_grid(instances, schedulers);
  const Table table = batch_table(cells, wall);
  const std::string title =
      machine_specs.empty()
          ? "suite: " + std::to_string(instances.size()) + " instances x " +
                std::to_string(schedulers.size()) + " schedulers (P=" +
                std::to_string(P) + ")"
          : "suite: " + std::to_string(dags.size()) + " instances x " +
                std::to_string(machine_specs.size()) + " machines x " +
                std::to_string(schedulers.size()) + " schedulers";
  std::fputs(table.to_text(title).c_str(), stdout);
  if (!csv_path.empty() && !table.write_csv(csv_path)) {
    std::fprintf(stderr, "cannot write %s\n", csv_path.c_str());
    return 1;
  }
  int failures = 0;
  for (const BatchCell& cell : cells) failures += !cell.ok;
  if (failures > 0) {
    std::printf("%d of %zu cells failed or were unsupported\n", failures,
                cells.size());
  }
  return 0;
}
