// mbsp-client: CLI client for the mbspd daemon (docs/DAEMON.md). Builds
// the request DAG locally — from a workload spec or a .dag file — ships
// it inline in mbsp-dag v2 bytes (or pins a canonical hash the daemon
// already knows), and prints the streamed reply.
//
//   mbsp-client --socket path [--ping | --stats]
//               [--workload spec | --dag file | --pin-hash hex | --trace spec]
//               [--machine spec] [--scheduler name] [--cost sync|async]
//               [--budget-ms x] [--max-iterations n] [--seed n]
//               [--deadline-ms x] [--no-cache] [--repeat k] [--quiet]
//
// The final line is machine-greppable:
//   final: scheduler=lns machine=uniform:P=4 hash=<16 hex> cost=... \
//          baseline=... supersteps=... cache=cold|exact|warm
// --repeat sends the identical request k times — the second and later
// replies must come back cache=exact (the CI smoke asserts exactly that).
//
// --trace replays a timed-arrival trace (docs/REPAIR.md) over the wire:
// SCHEDULE seeds the base incumbent, then each event goes out as a REPAIR
// pinning the previous reply's mutated hash, so repairs chain server-side.
// DAG deltas chain cumulatively (the daemon keeps each mutated DAG
// resident); machine deltas rebuild from --machine at every event, so a
// warning is printed when the trace contains any. The verdict line
//   trace_replay: OK|PARTIAL (k/n events repaired)
// is greppable; OK means every event was answered from the repair path
// (cache=repaired or exact), and PARTIAL exits 1.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "include/mbsp/mbsp.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --socket path [--ping | --stats]\n"
      "          [--workload spec | --dag file | --pin-hash hex |\n"
      "           --trace spec]\n"
      "          [--machine spec] [--scheduler name] [--cost sync|async]\n"
      "          [--budget-ms x] [--max-iterations n] [--seed n]\n"
      "          [--deadline-ms x] [--no-cache] [--repeat k] [--quiet]\n",
      argv0);
  return 2;
}

void print_stats(const mbsp::daemon::DaemonStats& stats) {
  std::printf(
      "stats: requests=%llu exact-hits=%llu warm-hits=%llu misses=%llu\n"
      "       insertions=%llu evictions=%llu solver-calls=%llu\n"
      "       repair-requests=%llu repair-hits=%llu\n"
      "       protocol-errors=%llu cache-entries=%llu/%llu connections=%llu\n",
      static_cast<unsigned long long>(stats.requests),
      static_cast<unsigned long long>(stats.exact_hits),
      static_cast<unsigned long long>(stats.warm_hits),
      static_cast<unsigned long long>(stats.misses),
      static_cast<unsigned long long>(stats.insertions),
      static_cast<unsigned long long>(stats.evictions),
      static_cast<unsigned long long>(stats.solver_calls),
      static_cast<unsigned long long>(stats.repair_requests),
      static_cast<unsigned long long>(stats.repair_hits),
      static_cast<unsigned long long>(stats.protocol_errors),
      static_cast<unsigned long long>(stats.cache_entries),
      static_cast<unsigned long long>(stats.cache_capacity),
      static_cast<unsigned long long>(stats.active_connections));
}

/// Prints why a request failed (transport error, or the daemon's typed
/// error); false when `outcome` carries a final plan.
bool failed(bool sent, const mbsp::daemon::MbspClient::Outcome& outcome,
            const std::string& error) {
  if (!sent) {
    std::fprintf(stderr, "mbsp-client: transport error: %s\n", error.c_str());
  } else if (!outcome.ok) {
    std::fprintf(stderr, "mbsp-client: daemon error [%s]: %s\n",
                 mbsp::daemon::wire_error_name(outcome.error.code),
                 outcome.error.message.c_str());
  }
  return !sent || !outcome.ok;
}

/// Replays `trace_spec` against a live daemon: SCHEDULE seeds the base
/// incumbent, then every event is a REPAIR pinning the previous reply's
/// mutated hash (docs/REPAIR.md "Repair over the wire").
int replay_trace(mbsp::daemon::MbspClient& client,
                 const std::string& trace_spec,
                 const mbsp::daemon::ScheduleRequest& base_request,
                 bool quiet) {
  using namespace mbsp;
  using namespace mbsp::daemon;

  std::string error;
  auto trace = make_trace(trace_spec, base_request.seed,
                          base_request.machine_spec, &error);
  if (!trace) {
    std::fprintf(stderr, "mbsp-client: cannot build trace '%s': %s\n",
                 trace_spec.c_str(), error.c_str());
    return 1;
  }
  for (const TraceEvent& event : trace->events) {
    if (event.delta.touches_machine()) {
      std::fprintf(stderr,
                   "mbsp-client: warning: '%s' contains machine deltas; the "
                   "daemon rebuilds the machine from --machine at every "
                   "event, so those do not chain cumulatively\n",
                   trace->name.c_str());
      break;
    }
  }

  ScheduleRequest seed_request = base_request;
  seed_request.dag_bytes = dag_to_binary(trace->base.dag);
  MbspClient::Outcome seeded;
  if (failed(client.run(seed_request, &seeded, &error), seeded, error)) {
    return 1;
  }
  if (!quiet) {
    std::printf("base: hash=%s cost=%g cache=%s\n",
                dag_hash_hex(seeded.final.dag_hash).c_str(), seeded.final.cost,
                cache_status_name(seeded.final.cache));
  }

  std::uint64_t pinned = seeded.final.dag_hash;
  std::size_t repaired = 0;
  for (std::size_t i = 0; i < trace->events.size(); ++i) {
    RepairRequest repair{base_request, trace->events[i].delta};
    if (i == 0) {
      repair.dag_bytes = seed_request.dag_bytes;  // base goes inline once
    } else {
      repair.dag_hash = pinned;  // chain onto the previous mutated scenario
    }

    MbspClient::Outcome outcome;
    if (failed(client.repair(repair, &outcome, &error), outcome, error)) {
      return 1;
    }
    const bool via_repair = outcome.final.cache == CacheStatus::kRepaired ||
                            outcome.final.cache == CacheStatus::kExact;
    repaired += via_repair ? 1 : 0;
    if (!quiet) {
      std::printf("event %zu @%gms (%zu ops): hash=%s cost=%g cache=%s\n", i,
                  trace->events[i].at_ms, trace->events[i].delta.ops.size(),
                  dag_hash_hex(outcome.final.dag_hash).c_str(),
                  outcome.final.cost, cache_status_name(outcome.final.cache));
    }
    pinned = outcome.final.dag_hash;
  }

  const bool all = repaired == trace->events.size();
  std::printf("trace_replay: %s (%zu/%zu events repaired)\n",
              all ? "OK" : "PARTIAL", repaired, trace->events.size());
  return all ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mbsp;
  using namespace mbsp::daemon;

  std::string socket_path;
  std::string workload_spec;
  std::string dag_file;
  std::string pin_hash_hex;
  std::string trace_spec;
  ScheduleRequest request;
  bool do_ping = false, do_stats = false, quiet = false;
  int repeat = 1;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--socket") {
      socket_path = value();
    } else if (arg == "--ping") {
      do_ping = true;
    } else if (arg == "--stats") {
      do_stats = true;
    } else if (arg == "--workload") {
      workload_spec = value();
    } else if (arg == "--dag") {
      dag_file = value();
    } else if (arg == "--pin-hash") {
      pin_hash_hex = value();
    } else if (arg == "--trace") {
      trace_spec = value();
    } else if (arg == "--machine") {
      request.machine_spec = value();
    } else if (arg == "--scheduler") {
      request.scheduler = value();
    } else if (arg == "--cost") {
      const std::string cost = value();
      if (cost != "sync" && cost != "async") return usage(argv[0]);
      request.cost_model = cost == "sync" ? 0 : 1;
    } else if (arg == "--budget-ms") {
      request.budget_ms = std::atof(value());
    } else if (arg == "--max-iterations") {
      request.max_iterations = std::atol(value());
    } else if (arg == "--seed") {
      request.seed = static_cast<std::uint64_t>(std::atoll(value()));
    } else if (arg == "--deadline-ms") {
      request.deadline_ms = std::atof(value());
    } else if (arg == "--no-cache") {
      request.no_cache = true;
    } else if (arg == "--repeat") {
      repeat = std::atoi(value());
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (socket_path.empty()) return usage(argv[0]);

  MbspClient client;
  std::string error;
  if (!client.connect(socket_path, &error)) {
    std::fprintf(stderr, "mbsp-client: %s\n", error.c_str());
    return 1;
  }

  if (do_ping) {
    if (!client.ping(&error)) {
      std::fprintf(stderr, "mbsp-client: ping failed: %s\n", error.c_str());
      return 1;
    }
    std::printf("pong\n");
    return 0;
  }
  if (do_stats) {
    DaemonStats stats;
    if (!client.stats(&stats, &error)) {
      std::fprintf(stderr, "mbsp-client: stats failed: %s\n", error.c_str());
      return 1;
    }
    print_stats(stats);
    return 0;
  }

  if (!trace_spec.empty()) {
    return replay_trace(client, trace_spec, request, quiet);
  }

  // Assemble the DAG side of the request.
  if (!pin_hash_hex.empty()) {
    request.dag_hash = std::strtoull(pin_hash_hex.c_str(), nullptr, 16);
  } else if (!dag_file.empty()) {
    auto dag = read_dag_file(dag_file, &error);
    if (!dag) {
      std::fprintf(stderr, "mbsp-client: cannot load %s: %s\n",
                   dag_file.c_str(), error.c_str());
      return 1;
    }
    request.dag_bytes = dag_to_binary(*dag);
  } else if (!workload_spec.empty()) {
    auto dag = WorkloadRegistry::global().make_dag(workload_spec,
                                                   request.seed, &error);
    if (!dag) {
      std::fprintf(stderr, "mbsp-client: cannot generate '%s': %s\n",
                   workload_spec.c_str(), error.c_str());
      return 1;
    }
    request.dag_bytes = dag_to_binary(*dag);
  } else {
    std::fprintf(stderr,
                 "mbsp-client: one of --workload / --dag / --pin-hash / "
                 "--trace is required\n");
    return usage(argv[0]);
  }

  for (int round = 0; round < repeat; ++round) {
    MbspClient::Outcome outcome;
    if (failed(client.run(request, &outcome, &error), outcome, error)) {
      return 1;
    }
    if (!quiet) {
      for (const std::string& status : outcome.statuses) {
        std::printf("status: %s\n", status.c_str());
      }
      for (const ProgressFrame& p : outcome.progress) {
        std::printf("progress: stage=%d cost=%g iterations=%lld\n",
                    static_cast<int>(p.stage), p.cost,
                    static_cast<long long>(p.iterations));
      }
    }
    const FinalResult& fin = outcome.final;
    std::printf(
        "final: scheduler=%s machine=%s hash=%s cost=%g baseline=%g "
        "supersteps=%u cache=%s\n",
        fin.scheduler.c_str(), fin.machine.c_str(),
        dag_hash_hex(fin.dag_hash).c_str(), fin.cost, fin.baseline_cost,
        fin.supersteps, cache_status_name(fin.cache));
  }
  return 0;
}
