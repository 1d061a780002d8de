#pragma once
// Wire protocol of the mbspd scheduling daemon (docs/DAEMON.md): a
// length-prefixed binary framing over a local stream socket, plus the
// encoders/decoders for every frame payload. The framing is:
//
//   "MBPD"                4-byte magic, every frame
//   u8  type              FrameType below
//   u32 payload_len       little-endian; bounded by the server's
//                         max_request_bytes for client->server frames
//   payload_len bytes     type-specific payload
//
// All integers are little-endian regardless of host, mirroring the
// mbsp-dag v2 format (docs/FORMATS.md). Decoders never trust lengths:
// every read is bounds-checked and a malformed payload produces a typed
// error naming the byte offset at which decoding failed — the dag_io
// error style — so protocol bugs are diagnosable from the error text
// alone and the daemon never crashes on garbage input.
//
// The payload encoders are pure functions of their structs and the
// decoders are pure functions of the bytes, so the whole protocol layer
// is unit-testable without sockets (tests/test_daemon_protocol.cpp);
// socket transport lives in socket_io.hpp.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/holistic/repair.hpp"  // InstanceDelta (REPAIR frames)
#include "src/twostage/compute_plan.hpp"

namespace mbsp::daemon {

/// First byte sequence of every frame.
inline constexpr char kFrameMagic[4] = {'M', 'B', 'P', 'D'};
/// Fixed frame header size: magic + type + payload length.
inline constexpr std::size_t kFrameHeaderSize = 4 + 1 + 4;
/// Protocol version carried in every schedule request.
inline constexpr std::uint8_t kProtocolVersion = 1;

enum class FrameType : std::uint8_t {
  // client -> server
  kScheduleRequest = 0x01,
  kStatsRequest = 0x02,
  kPing = 0x03,
  kRepairRequest = 0x04,
  // server -> client
  kStatus = 0x10,
  kProgress = 0x11,
  kStatsReply = 0x12,
  kPong = 0x13,
  kFinal = 0x14,
  kError = 0x15,
};

/// True for the frame types a client may send (everything else on the
/// server's read side is a kBadFrameType protocol error).
bool is_request_frame(FrameType type);

/// Typed protocol / request errors, carried in kError frames. Stable
/// numeric values: clients match on the code, not the message.
enum class WireError : std::uint16_t {
  kNone = 0,
  kBadMagic = 1,        ///< frame did not start with "MBPD"
  kBadFrameType = 2,    ///< unknown or non-request frame type
  kOversizedFrame = 3,  ///< declared payload exceeds the request-size limit
  kTruncatedFrame = 4,  ///< peer closed mid-frame
  kBadRequest = 5,      ///< payload decode error (message names the offset)
  kBadVersion = 6,      ///< unsupported protocol version
  kUnknownScheduler = 7,
  kBadMachineSpec = 8,
  kBadDag = 9,           ///< inline DAG payload failed to parse
  kUnknownDagHash = 10,  ///< hash-pinned request; DAG not cached server-side
  kDeadlineExpired = 11,
  kShuttingDown = 12,
  kInternal = 13,
  kBadDelta = 14,  ///< REPAIR delta failed to decode or to apply
};

/// Stable lower-case name of a WireError ("bad-magic", ...), for CLI
/// output and test assertions.
const char* wire_error_name(WireError code);

/// One decoded frame (header already validated; payload still encoded).
struct Frame {
  FrameType type = FrameType::kPing;
  std::string payload;
};

/// Renders the fixed header + payload as bytes ready for the socket.
std::string encode_frame(FrameType type, const std::string& payload);

// ---------------------------------------------------------------------------
// Bounds-checked little-endian readers/writers. WireReader tracks the
// current offset and latches the first error ("truncated u32 at byte 17
// (need 4, have 2)"), so decoders can chain reads and report once.

class WireWriter {
 public:
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f64(double v);
  /// u32 length prefix + raw bytes.
  void str(const std::string& s);
  /// u64 length prefix + raw bytes (large blobs: inline DAG payloads).
  void blob(const std::string& s);

  const std::string& bytes() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

class WireReader {
 public:
  WireReader(const char* data, std::size_t size) : data_(data), size_(size) {}
  explicit WireReader(const std::string& bytes)
      : WireReader(bytes.data(), bytes.size()) {}

  bool u8(std::uint8_t* v);
  bool u16(std::uint16_t* v);
  bool u32(std::uint32_t* v);
  bool u64(std::uint64_t* v);
  bool i64(std::int64_t* v);
  bool f64(double* v);
  /// u32-prefixed string; `what` names the field in error messages.
  bool str(std::string* v, const char* what);
  /// u64-prefixed blob.
  bool blob(std::string* v, const char* what);

  /// True when every byte has been consumed; otherwise latches a
  /// "trailing garbage" error naming the offset.
  bool expect_end();

  bool ok() const { return error_.empty(); }
  std::size_t offset() const { return offset_; }
  /// First decode error, naming the byte offset; "" when ok().
  const std::string& error() const { return error_; }

 private:
  bool take(const char* what, std::size_t n, const void** out);
  void fail(const char* what, std::size_t need);

  const char* data_;
  std::size_t size_;
  std::size_t offset_ = 0;
  std::string error_;
};

// ---------------------------------------------------------------------------
// Payloads.

/// One scheduling request. Either `dag_bytes` carries a full mbsp-dag
/// payload (v2 binary or v1 text, auto-detected), or it is empty and
/// `dag_hash` pins a canonical hash the server already knows (from its
/// schedule cache or its DAG store).
struct ScheduleRequest {
  std::uint8_t version = kProtocolVersion;
  bool no_cache = false;       ///< bypass the schedule cache (cold solve)
  std::uint64_t dag_hash = 0;  ///< pinned hash; 0 when dag_bytes is set
  std::string dag_bytes;       ///< inline DAG payload ("" when pinned)
  std::string machine_spec = "uniform:P=4";
  std::string scheduler = "lns";
  std::uint8_t cost_model = 0;  ///< 0 = synchronous, 1 = asynchronous
  double budget_ms = 0;         ///< 0 = no wall-clock deadline (see docs)
  std::int64_t max_iterations = 2'000'000;
  std::uint64_t seed = 42;
  /// Server-side deadline in ms, measured from request receipt and
  /// covering queue wait + solve; 0 = none. Expired requests are answered
  /// with kDeadlineExpired instead of being solved.
  double deadline_ms = 0;
};

std::string encode_schedule_request(const ScheduleRequest& request);
bool decode_schedule_request(const std::string& payload,
                             ScheduleRequest* request, std::string* error);

/// InstanceDelta codec: u32 op count, then per op the fixed field tuple
/// (u8 kind, i64 u, i64 v, f64 omega, f64 mu, i64 proc, f64 capacity).
/// Unknown op kinds are a decode error naming the op index.
void encode_instance_delta(WireWriter& w, const InstanceDelta& delta);
bool decode_instance_delta(WireReader& r, InstanceDelta* delta);

/// A repair request (docs/REPAIR.md): a ScheduleRequest naming the BASE
/// scenario — the server resolves the base DAG (inline bytes or pinned
/// hash) and looks the (base scenario, scheduler) incumbent up in its
/// schedule cache — plus the InstanceDelta to repair along. On a cache
/// miss (or with no_cache) the server solves the mutated instance from
/// scratch (CacheStatus::kCold in the final frame); otherwise it patches
/// + polishes the incumbent (kRepaired). On the wire it is the
/// schedule-req payload followed by the encoded delta.
struct RepairRequest : ScheduleRequest {
  InstanceDelta delta;
};

std::string encode_repair_request(const RepairRequest& request);
/// `code` (optional) receives the typed decode error: kBadDelta for an
/// unknown delta op kind, kBadRequest for any structural failure.
bool decode_repair_request(const std::string& payload, RepairRequest* request,
                           std::string* error, WireError* code = nullptr);

/// How the final plan was obtained (FinalResult::cache).
enum class CacheStatus : std::uint8_t {
  kCold = 0,   ///< solved, no usable cache entry
  kExact = 1,  ///< served from cache, no solver invocation
  kWarm = 2,   ///< solver warm-started from the cached incumbent
  kRepaired = 3,  ///< cached incumbent repaired along a REPAIR delta
};

const char* cache_status_name(CacheStatus status);

/// Terminal reply of a schedule request: the plan plus the metrics a
/// batch cell would report, keyed exactly like the schedule cache.
struct FinalResult {
  std::uint64_t dag_hash = 0;
  std::string machine;    ///< canonical machine name
  std::string scheduler;  ///< scheduler name
  std::uint8_t cost_model = 0;
  CacheStatus cache = CacheStatus::kCold;
  double cost = 0;
  double baseline_cost = 0;
  double io_volume = 0;
  std::uint32_t supersteps = 0;
  ComputePlan plan;
};

std::string encode_final_result(const FinalResult& result);
bool decode_final_result(const std::string& payload, FinalResult* result,
                         std::string* error);

/// Deterministic plan serialization (num_procs, then per-processor
/// occurrence streams): equal plans encode to equal bytes, so "bitwise
/// identical plan" is byte equality of this encoding.
void encode_plan(WireWriter& w, const ComputePlan& plan);
bool decode_plan(WireReader& r, ComputePlan* plan);

/// Progress frame: the incumbent cost at a solve milestone.
struct ProgressFrame {
  std::uint8_t stage = 0;  ///< 0 = warm start / baseline, 1 = incumbent
  double cost = 0;
  std::int64_t iterations = 0;
};

std::string encode_progress(const ProgressFrame& progress);
bool decode_progress(const std::string& payload, ProgressFrame* progress,
                     std::string* error);

/// Status frame payload (free-form phase message: "queued", "solving").
std::string encode_status(const std::string& message);
bool decode_status(const std::string& payload, std::string* message,
                   std::string* error);

/// Error frame payload.
struct ErrorFrame {
  WireError code = WireError::kNone;
  std::string message;
};

std::string encode_error(const ErrorFrame& err);
bool decode_error(const std::string& payload, ErrorFrame* err,
                  std::string* error);

/// Daemon-wide counters served by kStatsRequest. The cache_* fields
/// mirror ScheduleCacheStats; solver_calls counts actual scheduler
/// invocations (exact cache hits do not solve — the acceptance check of
/// docs/DAEMON.md).
struct DaemonStats {
  std::uint64_t requests = 0;  ///< SCHEDULE + REPAIR frames received
  std::uint64_t exact_hits = 0;
  std::uint64_t warm_hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t solver_calls = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t cache_entries = 0;
  std::uint64_t cache_capacity = 0;
  std::uint64_t active_connections = 0;
  std::uint64_t repair_requests = 0;  ///< REPAIR frames received
  std::uint64_t repair_hits = 0;  ///< repairs served from a cached incumbent
};

std::string encode_stats(const DaemonStats& stats);
bool decode_stats(const std::string& payload, DaemonStats* stats,
                  std::string* error);

}  // namespace mbsp::daemon
