#pragma once
// Shared harness for the experiment benches. Each bench binary regenerates
// one table or figure of the paper: it builds the dataset, runs the named
// schedulers from the SchedulerRegistry through the BatchRunner (in
// parallel across cells; each solve is single-threaded and deterministic),
// and prints the paper's rows plus geometric-mean ratios.
//
// Environment knobs:
//   MBSP_BENCH_BUDGET_MS  per-instance optimization budget (default 1500)
//   MBSP_BENCH_SEED       dataset seed (default 2025)
//   MBSP_BENCH_CSV        if set, tables are also written to <value>_<name>.csv

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "include/mbsp/mbsp.hpp"
#include "src/util/env.hpp"
#include "src/util/stats.hpp"
#include "src/util/table.hpp"
#include "src/util/thread_pool.hpp"

namespace mbsp::bench {

struct BenchConfig {
  double budget_ms = 1500;
  std::uint64_t seed = 2025;
  std::string csv_prefix;

  static BenchConfig from_env() {
    BenchConfig config;
    config.budget_ms = env_double("MBSP_BENCH_BUDGET_MS", 1500);
    config.seed = static_cast<std::uint64_t>(env_long("MBSP_BENCH_SEED", 2025));
    config.csv_prefix = env_string("MBSP_BENCH_CSV", "");
    return config;
  }
};

inline MbspInstance make_instance(ComputeDag dag, int P, double r_factor,
                                  double g = 1, double L = 10) {
  const double r0 = min_memory_r0(dag);
  return {std::move(dag), Architecture::make(P, r_factor * r0, g, L)};
}

/// Instantiates a whole dataset at one architecture point.
inline std::vector<MbspInstance> make_instances(std::vector<ComputeDag> dags,
                                                int P, double r_factor,
                                                double g = 1, double L = 10) {
  std::vector<MbspInstance> instances;
  instances.reserve(dags.size());
  for (ComputeDag& dag : dags) {
    instances.push_back(make_instance(std::move(dag), P, r_factor, g, L));
  }
  return instances;
}

/// Registry-facing options derived from the bench environment knobs.
inline SchedulerOptions scheduler_options(
    const BenchConfig& config, CostModel cost = CostModel::kSynchronous) {
  SchedulerOptions options;
  options.budget_ms = config.budget_ms;
  options.cost = cost;
  return options;
}

/// The bench-wide batch engine (validates every produced schedule).
inline BatchRunner make_runner(const BenchConfig& config,
                               CostModel cost = CostModel::kSynchronous) {
  BatchOptions batch;
  batch.scheduler = scheduler_options(config, cost);
  return BatchRunner(batch);
}

/// Unwraps a cell, aborting with its error on failure (bench analogue of
/// validate_or_die: a bench must not print a table from a broken cell).
inline const ScheduleResult& cell_or_die(const BatchCell& cell) {
  if (!cell.ok) {
    std::fprintf(stderr, "batch cell %s/%s failed: %s\n",
                 cell.instance.c_str(), cell.scheduler.c_str(),
                 cell.error.c_str());
    std::abort();
  }
  return cell.result;
}

/// Paper-style cost formatting (the datasets have integral costs).
inline std::string cost_str(double cost) {
  return fmt(cost, cost == static_cast<long long>(cost) ? 0 : 1);
}

inline void emit(const Table& table, const std::string& title,
                 const BenchConfig& config, const std::string& name) {
  std::fputs(table.to_text(title).c_str(), stdout);
  std::fputs("\n", stdout);
  if (!config.csv_prefix.empty()) {
    table.write_csv(config.csv_prefix + "_" + name + ".csv");
  }
}

/// Peak resident set size of this process in MiB (0 where unsupported).
inline double peak_rss_mb() {
#if defined(__unix__) || defined(__APPLE__)
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);  // bytes
#else
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
#endif
#else
  return 0;
#endif
}

/// Machine-readable perf-trajectory report: one BENCH_<name>.json per
/// bench binary, compared against the committed baseline in
/// bench/baselines/ by tools/bench_compare.py (the CI perf gate — see
/// docs/PERFORMANCE.md). Each metric declares its direction and whether a
/// regression beyond the comparator's noise threshold fails the build:
/// machine-relative metrics (speedups, cost ratios) gate; absolute ones
/// (iters/s, RSS) are informational because they track the host, not the
/// code. A gated metric the seed alone determines (an iteration-capped
/// cost ratio, a hit rate over a fixed request stream) is exact: any
/// change beyond 1e-9 relative fails, better or worse, until the baseline
/// is re-recorded. Peak RSS is sampled at write() time automatically.
class PerfReport {
 public:
  explicit PerfReport(std::string bench) : bench_(std::move(bench)) {}

  /// Top-level summary metric (e.g. a geomean across families).
  void add_metric(const std::string& name, double value,
                  bool higher_is_better, bool gated, bool exact = false) {
    metrics_.push_back({name, value, higher_is_better, gated, exact});
  }

  /// Per-family detail row; families and their metrics keep insertion
  /// order so the JSON diffs cleanly run-to-run.
  void add_family(const std::string& family, const std::string& metric,
                  double value) {
    for (auto& [name, values] : families_) {
      if (name == family) {
        values.emplace_back(metric, value);
        return;
      }
    }
    families_.push_back({family, {{metric, value}}});
  }

  /// Writes BENCH_<bench>.json into the working directory (the CI job
  /// uploads it and feeds it to the comparator).
  void write() const { write_to("BENCH_" + bench_ + ".json"); }

  void write_to(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      std::abort();
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n", bench_.c_str());
    std::fprintf(f, "  \"peak_rss_mb\": %s,\n", num(peak_rss_mb()).c_str());
    std::fprintf(f, "  \"metrics\": {");
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::fprintf(f,
                   "%s\n    \"%s\": {\"value\": %s, \"higher_is_better\": %s, "
                   "\"gated\": %s, \"exact\": %s}",
                   i == 0 ? "" : ",", m.name.c_str(), num(m.value).c_str(),
                   m.higher_is_better ? "true" : "false",
                   m.gated ? "true" : "false", m.exact ? "true" : "false");
    }
    std::fprintf(f, "\n  },\n  \"families\": {");
    for (std::size_t i = 0; i < families_.size(); ++i) {
      std::fprintf(f, "%s\n    \"%s\": {", i == 0 ? "" : ",",
                   families_[i].name.c_str());
      const auto& values = families_[i].values;
      for (std::size_t j = 0; j < values.size(); ++j) {
        std::fprintf(f, "%s\"%s\": %s", j == 0 ? "" : ", ",
                     values[j].first.c_str(), num(values[j].second).c_str());
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n  }\n}\n");
    std::fclose(f);
    std::printf("perf report written to %s\n", path.c_str());
  }

 private:
  struct Metric {
    std::string name;
    double value;
    bool higher_is_better;
    bool gated;
    bool exact;
  };
  struct Family {
    std::string name;
    std::vector<std::pair<std::string, double>> values;
  };

  /// JSON number: shortest round-trip-safe formatting, never NaN/Inf
  /// (both are invalid JSON — clamp to 0 so a degenerate run still
  /// produces a parseable report the comparator can then reject).
  static std::string num(double v) {
    if (!(v == v) || v > 1e308 || v < -1e308) v = 0;
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
  }

  std::string bench_;
  std::vector<Metric> metrics_;
  std::vector<Family> families_;
};

/// Runs `fn(i)` for each instance index in parallel and waits.
inline void for_each_instance(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  ThreadPool pool(std::min<std::size_t>(
      count, std::max(1u, std::thread::hardware_concurrency())));
  parallel_for(pool, count, fn);
}

/// Geometric-mean line in the paper's "0.77x factor" phrasing.
inline void print_geomean(const std::vector<double>& ratios,
                          const char* label) {
  std::printf("%s: %.2fx geometric-mean cost ratio (ILP/baseline)\n", label,
              geometric_mean(ratios));
}

}  // namespace mbsp::bench
