#pragma once
// mbspd: the scheduler-as-a-service daemon core (docs/DAEMON.md). A
// long-running server on a local Unix-domain socket that accepts
// scheduling requests in the length-prefixed binary protocol
// (protocol.hpp), dispatches the solves onto the repo's ThreadPool — the
// pool's task queue is the admission queue, so concurrent CPU work is
// bounded by solver_threads while connections merely block — and streams
// status / progress / final-plan frames back per request.
//
// Requests are memoized in a ScheduleCache keyed by (canonical DAG hash,
// canonical machine name, scheduler spec): exact hits are answered from
// the cache with no solver invocation (bitwise-identical plan, by the
// determinism contract), near-miss requests — same key, more budget —
// warm-start the LNS from the cached incumbent. A bounded LRU DAG store
// keeps recently seen DAGs resident so follow-up requests can pin the
// canonical hash instead of resending megabytes of DAG.
//
// SCHEDULE and REPAIR frames run through one request pipeline. A REPAIR
// is a SCHEDULE plus a delta stage (docs/REPAIR.md): it requires the base
// DAG, applies the InstanceDelta at the base r0, keys the cache under the
// mutated scenario with a "repair+" spec, and repairs the base scenario's
// cached incumbent instead of warm-starting. For both frames an exact
// cache hit is answered before the deadline check: it costs no solve.
//
// Lifecycle: start() binds and spawns the accept thread; stop() — also
// the SIGTERM path of examples/mbspd.cpp — stops accepting, answers any
// late request with kShuttingDown, drains every in-flight solve (clients
// still receive their final frames), joins all threads and removes the
// socket file. The server object is in-process embeddable, which is how
// the tests and bench_daemon run it.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/daemon/protocol.hpp"
#include "src/daemon/schedule_cache.hpp"
#include "src/runner/scheduler_registry.hpp"
#include "src/util/thread_pool.hpp"

namespace mbsp::daemon {

struct MbspdOptions {
  std::string socket_path;        ///< required; parent dir must exist
  std::size_t cache_capacity = 256;     ///< ScheduleCache entries
  std::size_t dag_store_capacity = 32;  ///< resident DAGs for pinned hashes
  std::size_t solver_threads = 0;       ///< 0 = hardware concurrency
  std::size_t max_request_bytes = 64u << 20;  ///< per-frame payload limit
  int backlog = 64;
};

class MbspdServer {
 public:
  explicit MbspdServer(MbspdOptions options,
                       const SchedulerRegistry& registry =
                           SchedulerRegistry::global());
  ~MbspdServer();

  MbspdServer(const MbspdServer&) = delete;
  MbspdServer& operator=(const MbspdServer&) = delete;

  /// Binds the socket and starts serving; false (with *error) when the
  /// socket cannot be created. Idempotent once running.
  bool start(std::string* error = nullptr);

  /// Graceful drain: stop accepting, finish in-flight requests (their
  /// clients receive complete replies), join every thread, unlink the
  /// socket. Safe to call multiple times and from signal-driven paths
  /// outside the handler itself.
  void stop();

  bool running() const { return running_.load(); }

  /// Counter snapshot (also served over kStatsRequest).
  DaemonStats stats() const;

  const MbspdOptions& options() const { return options_; }

 private:
  struct ConnThread {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void reap_finished_connections();
  void handle_connection(int fd);
  /// One SCHEDULE or REPAIR request end-to-end: decode, version and
  /// drain checks, "queued", then serve_request() on the solver pool.
  /// False when the connection died.
  bool handle_request(int fd, const std::string& payload, bool repair);
  /// The pool task: the request pipeline, with the REPAIR delta stage
  /// when `delta` is set. Streams the reply; false when the client is gone.
  bool serve_request(int fd, const ScheduleRequest& request,
                     const InstanceDelta* delta,
                     std::chrono::steady_clock::time_point received);
  bool send_error(int fd, WireError code, const std::string& message);
  /// Waits for fd readability or server stop; false on stop/hangup.
  bool wait_readable(int fd);

  const MbspdOptions options_;
  const SchedulerRegistry& registry_;
  ScheduleCache cache_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  int listen_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};  // write once on stop; never drained
  std::thread accept_thread_;
  std::unique_ptr<ThreadPool> solver_pool_;

  std::mutex conn_mutex_;
  std::vector<std::unique_ptr<ConnThread>> connections_;

  // Bounded LRU of resident DAGs by canonical hash (pinned-hash requests).
  std::mutex dag_mutex_;
  std::vector<std::pair<std::uint64_t, std::shared_ptr<const ComputeDag>>>
      dag_store_;  // front = most recently used; linear scan (small)

  std::shared_ptr<const ComputeDag> find_dag(std::uint64_t hash);
  void store_dag(std::uint64_t hash, std::shared_ptr<const ComputeDag> dag);

  mutable std::mutex stats_mutex_;
  std::uint64_t requests_ = 0;
  std::uint64_t solver_calls_ = 0;
  std::uint64_t protocol_errors_ = 0;
  std::uint64_t repair_requests_ = 0;
  std::uint64_t repair_hits_ = 0;
  std::atomic<std::uint64_t> active_connections_{0};
};

}  // namespace mbsp::daemon
