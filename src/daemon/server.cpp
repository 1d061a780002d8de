#include "src/daemon/server.hpp"

#include <algorithm>
#include <chrono>
#include <future>
#include <optional>
#include <utility>

#include "src/daemon/socket_io.hpp"
#include "src/graph/dag_io.hpp"
#include "src/model/instance.hpp"
#include "src/model/machine_registry.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#define MBSP_DAEMON_POSIX 1
#endif

namespace mbsp::daemon {

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Effort max under the budget_ms = 0 == unlimited convention.
double max_budget_ms(double a, double b) {
  if (a == 0 || b == 0) return 0;
  return std::max(a, b);
}

/// The cache entry of a fresh solve (its effort is set by the caller).
ScheduleCacheEntry cache_entry_of(ScheduleResult&& result) {
  ScheduleCacheEntry entry;
  entry.plan = std::move(result.plan);
  entry.cost = result.cost;
  entry.baseline_cost = result.baseline_cost;
  entry.io_volume = result.io_volume;
  entry.supersteps = static_cast<std::uint32_t>(result.supersteps);
  return entry;
}

bool is_protocol_error(WireError code) {
  switch (code) {
    case WireError::kBadMagic:
    case WireError::kBadFrameType:
    case WireError::kOversizedFrame:
    case WireError::kTruncatedFrame:
    case WireError::kBadRequest:
    case WireError::kBadVersion:
      return true;
    default:
      return false;
  }
}

}  // namespace

MbspdServer::MbspdServer(MbspdOptions options,
                         const SchedulerRegistry& registry)
    : options_(std::move(options)),
      registry_(registry),
      cache_(options_.cache_capacity) {}

MbspdServer::~MbspdServer() { stop(); }

std::shared_ptr<const ComputeDag> MbspdServer::find_dag(std::uint64_t hash) {
  const std::lock_guard<std::mutex> lock(dag_mutex_);
  for (std::size_t i = 0; i < dag_store_.size(); ++i) {
    if (dag_store_[i].first == hash) {
      auto dag = dag_store_[i].second;
      dag_store_.erase(dag_store_.begin() + static_cast<long>(i));
      dag_store_.insert(dag_store_.begin(), {hash, dag});
      return dag;
    }
  }
  return nullptr;
}

void MbspdServer::store_dag(std::uint64_t hash,
                            std::shared_ptr<const ComputeDag> dag) {
  const std::lock_guard<std::mutex> lock(dag_mutex_);
  for (std::size_t i = 0; i < dag_store_.size(); ++i) {
    if (dag_store_[i].first == hash) {
      dag_store_.erase(dag_store_.begin() + static_cast<long>(i));
      break;
    }
  }
  dag_store_.insert(dag_store_.begin(), {hash, std::move(dag)});
  if (dag_store_.size() > options_.dag_store_capacity) {
    dag_store_.resize(options_.dag_store_capacity);
  }
}

DaemonStats MbspdServer::stats() const {
  const ScheduleCacheStats cache = cache_.stats();
  DaemonStats out;
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    out.requests = requests_;
    out.solver_calls = solver_calls_;
    out.protocol_errors = protocol_errors_;
    out.repair_requests = repair_requests_;
    out.repair_hits = repair_hits_;
  }
  out.exact_hits = cache.exact_hits;
  out.warm_hits = cache.warm_hits;
  out.misses = cache.misses;
  out.insertions = cache.insertions;
  out.evictions = cache.evictions;
  out.cache_entries = cache_.size();
  out.cache_capacity = cache_.capacity();
  out.active_connections = active_connections_.load();
  return out;
}

bool MbspdServer::serve_request(int fd, const ScheduleRequest& request,
                                const InstanceDelta* delta,
                                Clock::time_point received) {
  bool ok = true;  // false once a write fails: the client is gone
  const auto send = [&](FrameType type, const std::string& payload) {
    ok = ok && write_frame(fd, type, payload, nullptr);
  };

  // Scheduler and machine resolve first: cheap, and their errors name the
  // offending token without touching the DAG.
  const MbspScheduler* scheduler = registry_.find(request.scheduler);
  if (scheduler == nullptr) {
    return send_error(fd, WireError::kUnknownScheduler,
                      "unknown scheduler '" + request.scheduler + "'");
  }
  const MbspScheduler* repairer =
      delta != nullptr ? registry_.find("repair") : nullptr;
  if (delta != nullptr && repairer == nullptr) {
    return send_error(fd, WireError::kInternal,
                      "this daemon's registry has no 'repair' scheduler");
  }
  std::string machine_err;
  // Probe build at unit memory: canonical name only (machine names do not
  // depend on the memory scale, which needs the DAG).
  const auto probe = MachineRegistry::global().make_machine(
      request.machine_spec, 1.0, &machine_err);
  if (!probe) return send_error(fd, WireError::kBadMachineSpec, machine_err);

  SchedulerOptions opts;
  opts.budget_ms = request.budget_ms;
  opts.max_iterations = request.max_iterations;
  opts.seed = request.seed;
  opts.cost = request.cost_model == 0 ? CostModel::kSynchronous
                                      : CostModel::kAsynchronous;

  // The DAG: inline payload, or a pinned canonical hash that a SCHEDULE
  // may answer from the cache alone.
  std::shared_ptr<const ComputeDag> dag;
  std::uint64_t dag_hash = request.dag_hash;
  if (!request.dag_bytes.empty()) {
    std::string dag_err;
    auto parsed = dag_from_bytes(request.dag_bytes, &dag_err);
    if (!parsed) return send_error(fd, WireError::kBadDag, dag_err);
    auto owned = std::make_shared<ComputeDag>(std::move(*parsed));
    dag_hash = dag_canonical_hash(*owned);
    if (request.dag_hash != 0 && request.dag_hash != dag_hash) {
      return send_error(fd, WireError::kBadDag,
                        "inline DAG hashes to " + dag_hash_hex(dag_hash) +
                            " but the request pinned " +
                            dag_hash_hex(request.dag_hash));
    }
    store_dag(dag_hash, owned);
    dag = std::move(owned);
  }

  // The instance. The machine is built at the BASE dag's r0 — for a REPAIR
  // the machine the incumbent was solved on — and the delta then mutates
  // both dag and machine (docs/REPAIR.md: repair never silently re-scales
  // memory under the incumbent).
  std::optional<MbspInstance> inst;
  ErrorFrame err;
  const auto resolve_instance = [&] {
    if (dag == nullptr) dag = find_dag(dag_hash);
    if (dag == nullptr) {
      err = {WireError::kUnknownDagHash,
             "no resident DAG with hash " + dag_hash_hex(dag_hash) +
                 "; resend the request with the DAG inline"};
      return false;
    }
    auto machine = MachineRegistry::global().make_machine(
        request.machine_spec, min_memory_r0(*dag), &err.message);
    if (!machine) {
      err.code = WireError::kBadMachineSpec;
      return false;
    }
    inst = MbspInstance{*dag, std::move(*machine)};
    err.code = WireError::kBadDelta;
    return delta == nullptr ||
           apply_instance_delta(*inst, *delta, nullptr, &err.message);
  };
  // A REPAIR's cache key names the mutated scenario, which only exists once
  // the delta is applied; a SCHEDULE resolves its instance after a miss.
  if (delta != nullptr && !resolve_instance()) {
    return send_error(fd, err.code, err.message);
  }

  // A repaired result is memoized under the MUTATED scenario with a
  // "repair+" spec prefix: repeat REPAIRs exact-hit it, while plain
  // SCHEDULE requests for the mutated dag keep their own bitwise
  // solve-equality contract untouched.
  const std::string plain_spec =
      scheduler_cache_spec(request.scheduler, opts);
  const std::string repair_spec =
      scheduler_cache_spec("repair+" + request.scheduler, opts);
  const ScheduleCacheKey key =
      delta != nullptr
          ? ScheduleCacheKey{dag_canonical_hash(inst->dag), inst->arch.name,
                             repair_spec}
          : ScheduleCacheKey{dag_hash, probe->name, plain_spec};

  // Streams the final frame for `entry`. A fresh solve is memoized first,
  // even when the client is gone: the work is done either way, and the
  // next identical request becomes an exact hit.
  const auto finish = [&](ScheduleCacheEntry entry, CacheStatus cache) {
    FinalResult fin{key.dag_hash,        key.machine,
                    request.scheduler,   request.cost_model,
                    cache,               entry.cost,
                    entry.baseline_cost, entry.io_volume,
                    entry.supersteps,    {}};
    if (cache == CacheStatus::kExact || request.no_cache) {
      fin.plan = std::move(entry.plan);
    } else {
      fin.plan = entry.plan;
      // Keep a mutated dag resident so follow-up requests can pin its hash
      // (e.g. using the repaired scenario as the next repair base).
      if (delta != nullptr) {
        store_dag(key.dag_hash, std::make_shared<ComputeDag>(inst->dag));
      }
      cache_.insert(key, std::move(entry));
    }
    send(FrameType::kFinal, encode_final_result(fin));
    return ok;
  };

  ScheduleCacheEntry cached;
  CacheHit hit = CacheHit::kMiss;
  if (!request.no_cache) {
    hit = cache_.lookup(key, request.budget_ms, request.max_iterations,
                        &cached);
  }
  if (hit == CacheHit::kExact) {
    // Served in O(1): no solver invocation, bitwise-identical plan.
    send(FrameType::kStatus, encode_status("cache-hit"));
    send(FrameType::kProgress, encode_progress({1, cached.cost, 0}));
    return finish(std::move(cached), CacheStatus::kExact);
  }
  if (!inst && !resolve_instance()) {
    return send_error(fd, err.code, err.message);
  }

  // Per-request deadline: covers queue wait (we are past admission here)
  // and clamps the remaining solve budget.
  if (request.deadline_ms > 0) {
    const double elapsed = elapsed_ms_since(received);
    const double remaining = request.deadline_ms - elapsed;
    if (remaining <= 0) {
      return send_error(fd, WireError::kDeadlineExpired,
                        "deadline of " + std::to_string(request.deadline_ms) +
                            " ms expired after " + std::to_string(elapsed) +
                            " ms in the admission queue");
    }
    opts.budget_ms = opts.budget_ms == 0 ? remaining
                                         : std::min(opts.budget_ms, remaining);
  }

  // Where the solve starts. A SCHEDULE warm-starts from a lower-effort
  // entry under its own key. A REPAIR repairs any cached plan of the BASE
  // scenario: under the plain spec, or — chained repair, the pinned base
  // being itself a repaired scenario — under the repair+ spec.
  CacheStatus outcome = CacheStatus::kCold;
  if (delta == nullptr) {
    if (hit == CacheHit::kWarm && scheduler->honors_warm_start()) {
      outcome = CacheStatus::kWarm;
    }
  } else if (!request.no_cache) {
    for (const std::string& spec : {plain_spec, repair_spec}) {
      if (cache_.lookup({dag_hash, probe->name, spec}, request.budget_ms,
                        request.max_iterations, &cached) != CacheHit::kMiss) {
        outcome = CacheStatus::kRepaired;
        break;
      }
    }
  }
  const bool repairing = outcome == CacheStatus::kRepaired;
  const MbspScheduler* solver = repairing ? repairer : scheduler;
  if (!repairing && !scheduler->supports(*inst)) {
    return send_error(fd, WireError::kBadRequest,
                      "scheduler '" + request.scheduler +
                          "' does not support " +
                          (delta != nullptr ? "the mutated instance"
                                            : "this instance"));
  }
  if (outcome != CacheStatus::kCold) opts.warm_start_plan = &cached.plan;
  if (repairing) opts.repair_delta = delta;
  send(FrameType::kStatus,
       encode_status(repairing                        ? "repairing"
                     : outcome == CacheStatus::kWarm ? "warm-start"
                                                     : "solving"));

  ScheduleResult result = solver->run(*inst, opts);
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++solver_calls_;
    if (repairing) ++repair_hits_;
  }
  long long iterations = 0;
  for (long p : result.lns_proposed) iterations += p;
  send(FrameType::kProgress, encode_progress({0, result.baseline_cost, 0}));
  send(FrameType::kProgress,
       encode_progress({1, result.cost, iterations}));

  // A warm start re-enters the cache carrying the enlarged effort.
  const bool warm = outcome == CacheStatus::kWarm;
  ScheduleCacheEntry entry = cache_entry_of(std::move(result));
  entry.budget_ms = warm ? max_budget_ms(cached.budget_ms, opts.budget_ms)
                         : opts.budget_ms;
  entry.max_iterations =
      warm ? std::max<std::int64_t>(cached.max_iterations,
                                    request.max_iterations)
           : request.max_iterations;
  return finish(std::move(entry), outcome);
}

#if defined(MBSP_DAEMON_POSIX)

bool MbspdServer::start(std::string* error) {
  if (running_.load()) return true;
  if (options_.socket_path.empty()) {
    if (error != nullptr) *error = "socket_path is required";
    return false;
  }
  if (::pipe(stop_pipe_) != 0) {
    if (error != nullptr) *error = "cannot create stop pipe";
    return false;
  }
  listen_fd_ = unix_listen(options_.socket_path, options_.backlog, error);
  if (listen_fd_ < 0) {
    ::close(stop_pipe_[0]);
    ::close(stop_pipe_[1]);
    stop_pipe_[0] = stop_pipe_[1] = -1;
    return false;
  }
  const std::size_t threads =
      options_.solver_threads != 0
          ? options_.solver_threads
          : std::max(1u, std::thread::hardware_concurrency());
  solver_pool_ = std::make_unique<ThreadPool>(threads);
  stopping_.store(false);
  running_.store(true);
  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void MbspdServer::stop() {
  if (!running_.exchange(false)) return;
  stopping_.store(true);
  // One byte, never drained: every poll()er sees POLLIN forever.
  const char byte = 1;
  (void)!::write(stop_pipe_[1], &byte, 1);
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    const std::lock_guard<std::mutex> lock(conn_mutex_);
    for (auto& conn : connections_) {
      if (conn->thread.joinable()) conn->thread.join();
    }
    connections_.clear();
  }
  if (solver_pool_ != nullptr) {
    solver_pool_->wait_idle();
    solver_pool_.reset();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::close(stop_pipe_[0]);
  ::close(stop_pipe_[1]);
  stop_pipe_[0] = stop_pipe_[1] = -1;
  ::unlink(options_.socket_path.c_str());
}

void MbspdServer::reap_finished_connections() {
  const std::lock_guard<std::mutex> lock(conn_mutex_);
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->done.load()) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void MbspdServer::accept_loop() {
  while (!stopping_.load()) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) continue;
    if (fds[1].revents != 0 || stopping_.load()) break;
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    reap_finished_connections();
    auto conn = std::make_unique<ConnThread>();
    ConnThread* raw = conn.get();
    active_connections_.fetch_add(1);
    {
      const std::lock_guard<std::mutex> lock(conn_mutex_);
      connections_.push_back(std::move(conn));
    }
    raw->thread = std::thread([this, fd, raw] {
      handle_connection(fd);
      ::close(fd);
      active_connections_.fetch_sub(1);
      raw->done.store(true);
    });
  }
}

bool MbspdServer::wait_readable(int fd) {
  pollfd fds[2] = {{fd, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
  if (::poll(fds, 2, -1) < 0) return false;
  // Data already buffered on the connection wins over a concurrent stop:
  // a request that raced the shutdown still gets an answer (possibly
  // kShuttingDown) instead of a silent hangup.
  if ((fds[0].revents & (POLLIN | POLLHUP | POLLERR)) != 0) return true;
  return false;
}

bool MbspdServer::send_error(int fd, WireError code,
                             const std::string& message) {
  if (is_protocol_error(code)) {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++protocol_errors_;
  }
  return write_frame(fd, FrameType::kError,
                     encode_error({code, message}), nullptr);
}

void MbspdServer::handle_connection(int fd) {
  while (true) {
    if (!wait_readable(fd)) return;
    Frame frame;
    WireError code;
    std::string error;
    bool clean_eof;
    if (!read_frame(fd, &frame, options_.max_request_bytes,
                    /*accept_responses=*/false, &code, &error, &clean_eof)) {
      if (!clean_eof) send_error(fd, code, error);
      return;  // framing is unrecoverable: close the connection
    }
    switch (frame.type) {
      case FrameType::kPing:
        if (!write_frame(fd, FrameType::kPong, "", nullptr)) return;
        break;
      case FrameType::kStatsRequest:
        if (!write_frame(fd, FrameType::kStatsReply, encode_stats(stats()),
                         nullptr)) {
          return;
        }
        break;
      case FrameType::kScheduleRequest:
      case FrameType::kRepairRequest:
        if (!handle_request(fd, frame.payload,
                            frame.type == FrameType::kRepairRequest)) {
          return;
        }
        break;
      default:
        send_error(fd, WireError::kBadFrameType, "unexpected frame type");
        return;
    }
  }
}

bool MbspdServer::handle_request(int fd, const std::string& payload,
                                 bool repair) {
  const Clock::time_point received = Clock::now();
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++requests_;
    if (repair) ++repair_requests_;
  }
  RepairRequest request;
  std::string decode_err;
  WireError decode_code = WireError::kBadRequest;
  const bool decoded =
      repair ? decode_repair_request(payload, &request, &decode_err,
                                     &decode_code)
             : decode_schedule_request(payload, &request, &decode_err);
  if (!decoded) {
    // The frame boundary is intact, so the connection stays usable.
    return send_error(fd, decode_code, decode_err);
  }
  if (request.version != kProtocolVersion) {
    return send_error(fd, WireError::kBadVersion,
                      "protocol version " + std::to_string(request.version) +
                          " not supported (this daemon speaks " +
                          std::to_string(kProtocolVersion) + ")");
  }
  if (stopping_.load()) {
    return send_error(fd, WireError::kShuttingDown, "daemon is draining");
  }
  if (!write_frame(fd, FrameType::kStatus, encode_status("queued"), nullptr)) {
    return false;
  }

  // The request runs on the pool (its queue is the admission queue); this
  // connection thread blocks until the reply is fully streamed. `alive`
  // reports whether the client is still there.
  const InstanceDelta* delta = repair ? &request.delta : nullptr;
  std::promise<bool> done;
  std::future<bool> alive = done.get_future();
  solver_pool_->submit([&] {
    bool ok = false;
    try {
      ok = serve_request(fd, request, delta, received);
    } catch (const std::exception& e) {
      ok = send_error(fd, WireError::kInternal,
                      std::string("internal error: ") + e.what());
    } catch (...) {
      ok = send_error(fd, WireError::kInternal, "internal error");
    }
    done.set_value(ok);
  });
  return alive.get();
}

#else  // !MBSP_DAEMON_POSIX

bool MbspdServer::start(std::string* error) {
  if (error != nullptr) *error = "mbspd requires a POSIX platform";
  return false;
}

void MbspdServer::stop() {}
void MbspdServer::accept_loop() {}
void MbspdServer::reap_finished_connections() {}
void MbspdServer::handle_connection(int) {}
bool MbspdServer::handle_request(int, const std::string&, bool) {
  return false;
}
bool MbspdServer::send_error(int, WireError, const std::string&) {
  return false;
}
bool MbspdServer::wait_readable(int) { return false; }

#endif

}  // namespace mbsp::daemon
