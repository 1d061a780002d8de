// bench_mbsp: the repository's benchmark (see README.md in this directory).
//
//   bench_mbsp --workload <name> --seed <n> [--seconds <s>] [--trace <file>]
//   bench_mbsp --check [--seed <n>]
//
// One workload per process, so peak RSS belongs to that workload. Set-up
// is measured several times and reported as its median; the timed phase
// runs for --seconds; every output is checked afterwards. With --trace the
// timed phase is split: the first half runs untraced and gives the
// end-to-end metrics, the second half records a span around every public
// call, and the per-layer metrics come from those spans plus post-phase
// passes and probes. Spans are written to <file> as Chrome trace-event JSON.
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and every metric with its value, unit and sample count.
// --check runs every workload at a tiny size and exits non-zero when any
// output check fails.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench_mbsp/harness.hpp"
#include "bench_mbsp/workloads.hpp"

namespace mbsp::bench {
namespace {

// Set-up is measured at least kMinSetups times, and up to kMaxSetups while
// the set-ups so far took under kSetupBudgetS, so a set-up of a few
// milliseconds still gets a median that a few slow repetitions cannot
// move.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 25;
constexpr double kSetupBudgetS = 2.0;

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;
};

struct RunReport {
  std::string workload;
  bool traced = false;
  bool correct = false;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t checks_passed = 0;
  std::string first_failure;
  double tail_supported_pct = 0;
  std::vector<std::pair<std::string, double>> exact;  ///< seed-determined
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) out += ',';
    out += json_string(m.name);
    out += ":{\"value\":" + json_number(m.value);
    out += ",\"unit\":" + json_string(m.unit);
    out += ",\"samples\":" + std::to_string(m.samples) + "}";
  }
  return out + "}";
}

std::string json_exact(
    const std::vector<std::pair<std::string, double>>& values) {
  std::string out = "{";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += json_string(values[i].first);
    out += ':';
    out += json_number(values[i].second);
  }
  return out + "}";
}

std::string to_json(const RunReport& r, std::uint64_t seed, double seconds) {
  const double failed_frac =
      r.attempted > 0 ? static_cast<double>(r.failed) /
                            static_cast<double>(r.attempted)
                      : 1.0;
  return "{\"workload\":" + json_string(r.workload) +
         ",\"seed\":" + std::to_string(seed) +
         ",\"seconds\":" + json_number(seconds) +
         ",\"traced\":" + (r.traced ? "true" : "false") +
         ",\"correct\":" + (r.correct ? "true" : "false") +
         ",\"attempted\":" + std::to_string(r.attempted) +
         ",\"failed\":" + std::to_string(r.failed) +
         ",\"failed_frac\":" + json_number(failed_frac) +
         ",\"checks_passed\":" + std::to_string(r.checks_passed) +
         ",\"first_failure\":" + json_string(r.first_failure) +
         ",\"tail_supported_pct\":" + json_number(r.tail_supported_pct) +
         ",\"exact\":" + json_exact(r.exact) +
         ",\"end_to_end\":" + json_metrics(r.end_to_end) +
         ",\"per_layer\":" + json_metrics(r.per_layer) + "}";
}

/// Per-layer metrics: span-derived times plus result samples, each read
/// from the earliest phase that has it (see LayerSamples).
std::vector<Metric> per_layer_metrics(const LayerSamples& samples,
                                      const std::vector<SpanRecord>& spans,
                                      const PhaseResult& untraced,
                                      const PhaseResult& traced,
                                      double tail_pct, int setup_repeats) {
  std::vector<Metric> out;
  const auto add = [&](const std::string& name, double value,
                       const char* unit, std::size_t n) {
    out.push_back({name, value, unit, n});
  };
  // Median of a span's durations, scaled from ms.
  const auto call = [&](const std::string& name, const std::string& key,
                        const char* unit, double scale) {
    const std::vector<double>& v = samples.pick(key);
    add(name, quantile(v, 0.5) * scale, unit, v.size());
  };
  // Sum of `num` over sum of `den`, both read from den's phase.
  const auto ratio = [&](const std::string& name, const std::string& num,
                         const std::string& den, const char* unit,
                         double scale) {
    const Phase phase = samples.pick_phase(den);
    const double d = samples.sum(den, phase);
    add(name, d > 0 ? samples.sum(num, phase) / d * scale : 0, unit,
        samples.get(den, phase).size());
  };
  const auto summary = [&](const std::string& name, const std::string& key,
                           const char* unit, double (*fn)(std::vector<double>)) {
    const std::vector<double>& v = samples.pick(key);
    add(name, v.empty() ? 0 : fn(v), unit, v.size());
  };
  const auto med = +[](std::vector<double> v) { return quantile(v, 0.5); };
  const auto avg = +[](std::vector<double> v) { return mean(v); };
  const auto geo = +[](std::vector<double> v) { return geometric_mean(v); };

  call("graph.ingest_ms", "read_dag_file", "ms", 1);
  ratio("graph.ingest_mnodes_per_s", "read_dag_file#work", "read_dag_file",
        "Mnodes/s", 1e-3);
  call("graph.decode_us", "dag_from_binary", "us", 1e3);
  call("graph.hash_us", "dag_canonical_hash", "us", 1e3);

  double generate_ms = 0;
  std::size_t generate_calls = 0;
  for (const SpanRecord& s : spans) {
    if (s.phase == Phase::kSetup && s.end_ns >= 0 &&
        std::strcmp(s.layer, "workload") == 0) {
      generate_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      ++generate_calls;
    }
  }
  add("workload.generate_ms", generate_ms / setup_repeats, "ms", generate_calls);

  call("bsp.stage1_ms", "GreedyBspScheduler::schedule", "ms", 1);
  call("twostage.plan_from_bsp_ms", "plan_from_bsp", "ms", 1);
  call("twostage.completion_ms", "complete_memory", "ms", 1);
  ratio("twostage.completion_ns_per_node", "complete_memory",
        "complete_memory#work", "ns", 1e6);
  call("model.cost_ms", "sync_cost", "ms", 1);
  call("model.validate_ms", "validate", "ms", 1);

  call("holistic.lns.improve_ms", "improve_plan", "ms", 1);
  ratio("holistic.lns.iters_per_s", "improve_plan#work", "improve_plan", "1/s",
        1e3);
  ratio("holistic.lns.accept_frac", "lns.accepted", "lns.iterations", "frac", 1);
  summary("holistic.lns.improve_frac", "lns.improve_frac", "frac", med);
  for (int c = 0; c < kNumMoveClasses; ++c) {
    const std::string name = lns_move_class_name(c);
    ratio("holistic.lns.accept_frac." + name, "lns.accepted." + name,
          "lns.proposed." + name, "frac", 1);
  }

  call("holistic.shard.schedule_ms", "shard_schedule", "ms", 1);
  call("holistic.shard.partition_ms", "acyclic_kway_partition", "ms", 1);
  call("holistic.shard.subproblem_ms", "make_shard_subproblem", "ms", 1);
  summary("holistic.shard.stitched_over_seed", "shard.stitched_over_seed",
          "ratio", med);
  summary("holistic.shard.final_over_stitched", "shard.final_over_stitched",
          "ratio", med);
  summary("holistic.shard.cut_edges", "shard.cut_edges", "count", med);
  summary("holistic.shard.boundary_frac", "shard.boundary_frac", "frac", med);

  call("holistic.repair.delta_apply_us", "apply_instance_delta", "us", 1e3);
  call("holistic.repair.repair_ms", "repair_plan", "ms", 1);
  call("holistic.repair.patch_ms", "repair_plan[patch]", "ms", 1);
  summary("holistic.repair.polish_iters", "repair.polish_iters", "count", med);
  summary("holistic.repair.masked_frac", "repair.masked_frac", "frac", med);
  summary("holistic.repair.full_mask_frac", "repair.full_mask", "frac", avg);
  summary("holistic.repair.resolve_ms", "repair.resolve_ms", "ms", med);
  summary("holistic.repair.wall_speedup", "repair.wall_speedup", "ratio", geo);
  summary("holistic.repair.vs_resolve_cost", "repair.vs_resolve_cost", "ratio",
          geo);

  summary("daemon.exact_ms", "daemon.exact_ms", "ms", med);
  summary("daemon.cold_ms", "daemon.cold_ms", "ms", med);
  summary("daemon.warm_ms", "daemon.warm_ms", "ms", med);
  summary("daemon.cold_overhead_ms", "daemon.cold_overhead_ms", "ms", med);
  call("daemon.request_decode_us", "decode_schedule_request", "us", 1e3);
  call("daemon.final_encode_us", "encode_final_result", "us", 1e3);
  call("daemon.final_decode_us", "decode_final_result", "us", 1e3);
  call("daemon.cache_lookup_us", "ScheduleCache::lookup", "us", 1e3);
  summary("daemon.final_bytes", "daemon.final_bytes", "bytes", med);

  add("bench.lag_tail_ms", LatencySummary::of(traced.lag_ms, tail_pct).tail,
      "ms", traced.lag_ms.size());
  add("bench.trace_overhead_frac",
      mean(traced.latency_ms) / mean(untraced.latency_ms) - 1, "frac",
      traced.latency_ms.size());

  const auto self = layer_self_ms(spans, Phase::kTimed);
  double traced_ms = 0;
  for (double ms : self) traced_ms += ms;
  for (std::size_t l = 0; l < kLayers.size(); ++l) {
    add(std::string(kLayers[l]) + ".self_share",
        traced_ms > 0 ? self[l] / traced_ms : 0, "frac", traced.op_ids.size());
  }
  return out;
}

RunReport run_workload(const std::string& name, const RunOptions& options,
                       const std::string& trace_path) {
  RunReport report;
  report.workload = name;
  report.traced = !trace_path.empty();
  Tracer& tracer = Tracer::instance();
  tracer.clear();
  LayerSamples samples;
  Checks checks;

  // Set-up, several times on fresh objects; the last one is kept.
  std::vector<double> setup_s;
  double setup_total_s = 0;
  std::unique_ptr<Workload> workload;
  if (report.traced) tracer.enable(Phase::kSetup);
  while (setup_s.empty() ||
         (!options.small && static_cast<int>(setup_s.size()) < kMaxSetups &&
          (static_cast<int>(setup_s.size()) < kMinSetups ||
           setup_total_s < kSetupBudgetS))) {
    workload.reset();  // one set-up state at a time, so peak RSS counts one
    workload = make_workload(name, options, {samples, checks});
    const Clock::time_point start = Clock::now();
    workload->setup();
    setup_s.push_back(ms_between(start, Clock::now()) / 1e3);
    setup_total_s += setup_s.back();
  }
  tracer.disable();
  const int repeats = static_cast<int>(setup_s.size());

  // Timed phase: end-to-end metrics always come from an untraced run.
  tracer.set_phase(Phase::kTimed);
  PhaseResult untraced, traced;
  if (report.traced) {
    untraced = workload->run(options.seconds / 2);
    tracer.enable(Phase::kTimed);
    traced = workload->run(options.seconds / 2);
  } else {
    untraced = workload->run(options.seconds);
  }
  tracer.set_phase(Phase::kPost);

  const double cost_ratio = workload->cost_ratio();
  report.attempted = static_cast<std::int64_t>(untraced.op_ids.size() +
                                               traced.op_ids.size());
  report.failed = static_cast<std::int64_t>(checks.failed_ops());
  report.correct = checks.all_passed();
  report.checks_passed = checks.passed();
  report.first_failure = checks.first_failure();
  report.exact = {{"cost_ratio", cost_ratio}};

  if (report.traced) {
    workload->reference_pass();
    tracer.set_phase(Phase::kProbe);
    run_probes(workload->probe_inputs(), options, samples);
    tracer.disable();
    std::string error;
    if (!tracer.write_chrome_json(trace_path, &error)) {
      throw std::runtime_error(error);
    }
    const std::vector<SpanRecord> spans = tracer.spans();
    samples.add_spans(spans);
    report.per_layer = per_layer_metrics(samples, spans, untraced, traced,
                                         workload->tail_pct(), repeats);
  }

  const LatencySummary latency =
      LatencySummary::of(untraced.latency_ms, workload->tail_pct());
  report.tail_supported_pct = latency.supported_pct;
  const std::size_t n = latency.count;
  report.end_to_end = {
      {"setup_s", quantile(setup_s, 0.5), "s", setup_s.size()},
      {"latency_p50_ms", latency.p50, "ms", n},
      {"latency_tail_ms", latency.tail, "ms", n},
      {"throughput_per_s",
       untraced.elapsed_s > 0 ? static_cast<double>(n) / untraced.elapsed_s : 0,
       "1/s", n},
      {"cost_ratio", cost_ratio, "ratio", n},
      {"peak_rss_mb", peak_rss_mb(), "MiB", 1},
  };
  std::fprintf(stderr,
               "bench_mbsp %s: %zu ops, p50 %.3f ms, p%g %.3f ms (%zu samples "
               "beyond; highest supported p%g), %lld checks passed, %lld "
               "failed ops%s%s\n",
               name.c_str(), n, latency.p50, latency.tail_pct, latency.tail,
               latency.beyond_tail, latency.supported_pct,
               static_cast<long long>(report.checks_passed),
               static_cast<long long>(report.failed),
               report.first_failure.empty() ? "" : "; first failure: ",
               report.first_failure.c_str());
  return report;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_mbsp --workload <name> --seed <n> "
               "[--seconds <s>] [--trace <file>]\n"
               "       bench_mbsp --check [--seed <n>]\n"
               "workloads:");
  for (const std::string& name : workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

/// Runs every workload at a tiny size, traced; fails on any check.
int check_all(RunOptions options) {
  options.small = true;
  options.seconds = 2;
  bool ok = true;
  for (const std::string& name : workload_names()) {
    const RunReport report =
        run_workload(name, options, std::string(kRunDir) + "/check-" + name + ".json");
    bool finite = true;
    for (const auto* metrics : {&report.end_to_end, &report.per_layer}) {
      for (const Metric& m : *metrics) finite = finite && std::isfinite(m.value);
    }
    const bool passed = report.correct && report.failed == 0 &&
                        report.attempted > 0 && finite;
    std::printf("%s %s: %lld operations, %lld checks passed%s%s\n",
                passed ? "PASS" : "FAIL", name.c_str(),
                static_cast<long long>(report.attempted),
                static_cast<long long>(report.checks_passed),
                finite ? "" : ", non-finite metric",
                report.first_failure.empty()
                    ? ""
                    : (", " + report.first_failure).c_str());
    ok = ok && passed;
  }
  return ok ? 0 : 1;
}

int run_main(int argc, char** argv) {
  RunOptions options;
  std::string workload;
  std::string trace_path;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--check") {
      check = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      trace_path = argv[++i];
    } else {
      return usage();
    }
  }
  std::filesystem::create_directories(kRunDir);
  if (check) return check_all(options);
  bool known = false;
  for (const std::string& name : workload_names()) known = known || name == workload;
  if (!known || !(options.seconds > 0)) return usage();

  const RunReport report = run_workload(workload, options, trace_path);
  std::printf("%s\n", to_json(report, options.seed, options.seconds).c_str());
  return 0;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"lns-mid", "large-sharded",
                                                 "repair-trace"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const RunOptions& options, Sinks sinks) {
  if (name == "lns-mid") return make_lns_mid(options, sinks);
  if (name == "large-sharded") return make_large_sharded(options, sinks);
  return make_repair_trace(options, sinks);
}

}  // namespace mbsp::bench

int main(int argc, char** argv) {
  try {
    return mbsp::bench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_mbsp: error: %s\n", e.what());
    return 1;
  }
}
