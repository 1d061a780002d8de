// bench_daemon: load generator for the mbspd serving path (docs/DAEMON.md).
// Starts an in-process MbspdServer on a private socket, then drives it with
// concurrent clients in three phases:
//
//   cold   — one client, one request per workload family (fills the cache);
//            per-request latency here is solver-dominated.
//   hot    — kClients concurrent clients, kRoundsPerClient rounds over the
//            same families; every request must be an exact cache hit.
//   warm   — one request per family with a larger iteration cap; each must
//            warm-start from the cached incumbent (cache=warm).
//
// Requests use budget_ms = 0 with an iteration cap, so the request stream
// and the cache-status sequence are deterministic: after the cold phase the
// hot phase is 100% exact hits, and exact_hit_rate gates in CI. Latency
// percentiles and throughput track the host and are informational.
//
// Writes BENCH_daemon.json (compared against bench/baselines/ by
// tools/bench_compare.py).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace {

using namespace mbsp;
using namespace mbsp::daemon;

constexpr int kClients = 4;
constexpr int kRoundsPerClient = 16;

const char* const kFamilies[] = {
    "stencil2d:nx=8,ny=8,steps=3",
    "lu:blocks=5",
    "fft:n=32",
};
constexpr std::size_t kNumFamilies = sizeof(kFamilies) / sizeof(kFamilies[0]);

ScheduleRequest make_request(const std::string& workload, std::uint64_t seed,
                             long max_iterations) {
  std::string error;
  auto dag = WorkloadRegistry::global().make_dag(workload, seed, &error);
  if (!dag) {
    std::fprintf(stderr, "bench_daemon: cannot generate '%s': %s\n",
                 workload.c_str(), error.c_str());
    std::abort();
  }
  ScheduleRequest request;
  request.dag_bytes = dag_to_binary(*dag);
  request.machine_spec = "uniform:P=4";
  request.scheduler = "lns";
  request.budget_ms = 0;  // unlimited wall clock: the iteration cap decides
  request.max_iterations = max_iterations;
  request.seed = 7;
  return request;
}

/// One blocking request; returns latency in milliseconds, aborts on error.
double timed_request(MbspClient& client, const ScheduleRequest& request,
                     CacheStatus expect) {
  MbspClient::Outcome outcome;
  std::string error;
  const auto start = std::chrono::steady_clock::now();
  if (!client.run(request, &outcome, &error) || !outcome.ok) {
    std::fprintf(stderr, "bench_daemon: request failed: %s\n",
                 outcome.ok ? error.c_str() : outcome.error.message.c_str());
    std::abort();
  }
  const auto stop = std::chrono::steady_clock::now();
  if (outcome.final.cache != expect) {
    std::fprintf(stderr, "bench_daemon: expected cache=%s, got cache=%s\n",
                 cache_status_name(expect),
                 cache_status_name(outcome.final.cache));
    std::abort();
  }
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

}  // namespace

int main() {
  const auto config = bench::BenchConfig::from_env();

  MbspdOptions options;
#if defined(__unix__) || defined(__APPLE__)
  options.socket_path =
      "/tmp/mbspd-bench-" + std::to_string(::getpid()) + ".sock";
#else
  std::fprintf(stderr, "bench_daemon: sockets unsupported on this platform\n");
  return 0;  // not a failure: the serving path is POSIX-only
#endif
  options.cache_capacity = 64;
  MbspdServer server(options);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "bench_daemon: %s\n", error.c_str());
    return 1;
  }

  std::vector<ScheduleRequest> requests;
  for (const char* family : kFamilies) {
    requests.push_back(make_request(family, config.seed, 8'000));
  }

  // Phase 1: cold — fill the cache, one solver call per family.
  std::vector<double> cold_ms;
  {
    MbspClient client;
    if (!client.connect(options.socket_path, &error)) {
      std::fprintf(stderr, "bench_daemon: %s\n", error.c_str());
      return 1;
    }
    for (const ScheduleRequest& request : requests) {
      cold_ms.push_back(timed_request(client, request, CacheStatus::kCold));
    }
  }

  // Phase 2: hot — concurrent clients replaying the same requests; the
  // cache is already full, so every reply must be an exact hit.
  const DaemonStats before = server.stats();
  std::vector<std::vector<double>> per_client(kClients);
  const auto hot_start = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        MbspClient client;
        std::string err;
        if (!client.connect(options.socket_path, &err)) {
          std::fprintf(stderr, "bench_daemon: %s\n", err.c_str());
          std::abort();
        }
        for (int round = 0; round < kRoundsPerClient; ++round) {
          for (const ScheduleRequest& request : requests) {
            per_client[c].push_back(
                timed_request(client, request, CacheStatus::kExact));
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const double hot_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    hot_start)
          .count();
  const DaemonStats after = server.stats();

  std::vector<double> hot_ms;
  for (const auto& client_ms : per_client) {
    hot_ms.insert(hot_ms.end(), client_ms.begin(), client_ms.end());
  }
  const double hot_requests = static_cast<double>(hot_ms.size());
  const double exact_hit_rate =
      static_cast<double>(after.exact_hits - before.exact_hits) /
      static_cast<double>(after.requests - before.requests);

  // Phase 3: warm — same keys at a larger iteration cap; the daemon must
  // warm-start LNS from the cached incumbent rather than solving cold.
  std::vector<double> warm_ms;
  {
    MbspClient client;
    if (!client.connect(options.socket_path, &error)) {
      std::fprintf(stderr, "bench_daemon: %s\n", error.c_str());
      return 1;
    }
    for (const char* family : kFamilies) {
      const ScheduleRequest bigger = make_request(family, config.seed, 16'000);
      warm_ms.push_back(timed_request(client, bigger, CacheStatus::kWarm));
    }
  }

  server.stop();

  const double p50 = percentile(hot_ms, 0.50);
  const double p99 = percentile(hot_ms, 0.99);
  std::printf("cold: %zu requests, p50=%.2fms\n", cold_ms.size(),
              percentile(cold_ms, 0.50));
  std::printf("hot:  %.0f requests across %d clients, p50=%.3fms "
              "p99=%.3fms, %.0f req/s, exact-hit rate %.3f\n",
              hot_requests, kClients, p50, p99, hot_requests / hot_seconds,
              exact_hit_rate);
  std::printf("warm: %zu requests, p50=%.2fms\n", warm_ms.size(),
              percentile(warm_ms, 0.50));

  bench::PerfReport report("daemon");
  // Deterministic given the request stream — gates exactly.
  report.add_metric("exact_hit_rate", exact_hit_rate,
                    /*higher_is_better=*/true, /*gated=*/true,
                    /*exact=*/true);
  // Host-dependent latency/throughput — informational.
  report.add_metric("hot_p50_ms", p50, /*higher_is_better=*/false,
                    /*gated=*/false);
  report.add_metric("hot_p99_ms", p99, /*higher_is_better=*/false,
                    /*gated=*/false);
  report.add_metric("hot_requests_per_s", hot_requests / hot_seconds,
                    /*higher_is_better=*/true, /*gated=*/false);
  for (std::size_t i = 0; i < kNumFamilies; ++i) {
    report.add_family(kFamilies[i], "cold_ms", cold_ms[i]);
    report.add_family(kFamilies[i], "warm_ms", warm_ms[i]);
  }
  report.write();
  return 0;
}
