#pragma once
// Client library for the mbspd daemon: a thin, blocking wrapper over the
// wire protocol (protocol.hpp / socket_io.hpp) reused by the mbsp-client
// CLI, the daemon tests, and the bench_daemon load generator. One client
// holds one connection and issues one request at a time; the daemon
// serves concurrent clients, so parallelism is "one client per thread".

#include <optional>
#include <string>
#include <vector>

#include "src/daemon/protocol.hpp"

namespace mbsp::daemon {

class MbspClient {
 public:
  MbspClient() = default;
  ~MbspClient() { close(); }

  MbspClient(const MbspClient&) = delete;
  MbspClient& operator=(const MbspClient&) = delete;

  bool connect(const std::string& socket_path, std::string* error = nullptr);
  bool connected() const { return fd_ >= 0; }
  void close();

  /// Round-trips a ping frame (liveness probe; CI uses it to wait for the
  /// daemon to come up).
  bool ping(std::string* error = nullptr);

  /// Fetches the daemon counters.
  bool stats(DaemonStats* out, std::string* error = nullptr);

  /// Everything a schedule request streamed back, in arrival order.
  struct Outcome {
    bool ok = false;  ///< final frame received (else `error` is set)
    FinalResult final;
    std::vector<std::string> statuses;
    std::vector<ProgressFrame> progress;
    ErrorFrame error;  ///< daemon-side typed error when !ok
  };

  /// Sends one schedule request and consumes the reply stream until the
  /// final or error frame. Returns false only on transport/decode
  /// failure (daemon gone, garbage bytes); a daemon-side *typed* error is
  /// returned as outcome->ok == false with outcome->error filled.
  bool run(const ScheduleRequest& request, Outcome* outcome,
           std::string* error = nullptr);

  /// Sends one REPAIR request (docs/REPAIR.md) and consumes the reply
  /// stream exactly like run(). outcome->final.cache tells how the plan
  /// was obtained: kRepaired (incumbent patched + polished), kCold (no
  /// incumbent; mutated instance solved from scratch) or kExact (repeat
  /// repair served from the cache).
  bool repair(const RepairRequest& request, Outcome* outcome,
              std::string* error = nullptr);

  /// Low-level single-frame read (tests drive protocol edges with it).
  bool read_reply(Frame* frame, std::string* error = nullptr);

  /// Low-level raw send (tests use it to inject malformed bytes).
  bool send_raw(const std::string& bytes, std::string* error = nullptr);

 private:
  /// Shared body of run()/repair(): sends the request frame, then status /
  /// progress frames accumulate until a final or typed-error frame ends it.
  bool round_trip(FrameType type, const std::string& payload,
                  Outcome* outcome, std::string* error);

  int fd_ = -1;
};

}  // namespace mbsp::daemon
