#include "src/daemon/protocol.hpp"

#include <cstring>

#include "src/util/little_endian.hpp"

namespace mbsp::daemon {

namespace {

// Appends v's little-endian bytes (src/util/little_endian.hpp).
template <typename T>
void append_le(std::string& out, T v) {
  unsigned char bytes[sizeof(T)];
  store_le(bytes, v);
  out.append(reinterpret_cast<const char*>(bytes), sizeof bytes);
}

}  // namespace

bool is_request_frame(FrameType type) {
  return type == FrameType::kScheduleRequest ||
         type == FrameType::kStatsRequest || type == FrameType::kPing ||
         type == FrameType::kRepairRequest;
}

const char* wire_error_name(WireError code) {
  switch (code) {
    case WireError::kNone: return "none";
    case WireError::kBadMagic: return "bad-magic";
    case WireError::kBadFrameType: return "bad-frame-type";
    case WireError::kOversizedFrame: return "oversized-frame";
    case WireError::kTruncatedFrame: return "truncated-frame";
    case WireError::kBadRequest: return "bad-request";
    case WireError::kBadVersion: return "bad-version";
    case WireError::kUnknownScheduler: return "unknown-scheduler";
    case WireError::kBadMachineSpec: return "bad-machine-spec";
    case WireError::kBadDag: return "bad-dag";
    case WireError::kUnknownDagHash: return "unknown-dag-hash";
    case WireError::kDeadlineExpired: return "deadline-expired";
    case WireError::kShuttingDown: return "shutting-down";
    case WireError::kInternal: return "internal";
    case WireError::kBadDelta: return "bad-delta";
  }
  return "unknown";
}

const char* cache_status_name(CacheStatus status) {
  switch (status) {
    case CacheStatus::kCold: return "cold";
    case CacheStatus::kExact: return "exact";
    case CacheStatus::kWarm: return "warm";
    case CacheStatus::kRepaired: return "repaired";
  }
  return "unknown";
}

std::string encode_frame(FrameType type, const std::string& payload) {
  std::string out;
  out.reserve(kFrameHeaderSize + payload.size());
  out.append(kFrameMagic, sizeof kFrameMagic);
  out.push_back(static_cast<char>(type));
  append_le(out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload);
  return out;
}

// ---------------------------------------------------------------------------
// WireWriter

void WireWriter::u8(std::uint8_t v) { append_le(out_, v); }
void WireWriter::u16(std::uint16_t v) { append_le(out_, v); }
void WireWriter::u32(std::uint32_t v) { append_le(out_, v); }
void WireWriter::u64(std::uint64_t v) { append_le(out_, v); }
void WireWriter::i64(std::int64_t v) {
  append_le(out_, static_cast<std::uint64_t>(v));
}

void WireWriter::f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  append_le(out_, bits);
}

void WireWriter::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  out_.append(s);
}

void WireWriter::blob(const std::string& s) {
  u64(s.size());
  out_.append(s);
}

// ---------------------------------------------------------------------------
// WireReader

void WireReader::fail(const char* what, std::size_t need) {
  if (!error_.empty()) return;
  error_ = "truncated " + std::string(what) + " at byte " +
           std::to_string(offset_) + " (need " + std::to_string(need) +
           ", have " + std::to_string(size_ - offset_) + ")";
}

bool WireReader::take(const char* what, std::size_t n, const void** out) {
  if (!error_.empty()) return false;
  if (size_ - offset_ < n) {
    fail(what, n);
    return false;
  }
  *out = data_ + offset_;
  offset_ += n;
  return true;
}

bool WireReader::u8(std::uint8_t* v) {
  const void* p;
  if (!take("u8", 1, &p)) return false;
  *v = load_le<std::uint8_t>(static_cast<const unsigned char*>(p));
  return true;
}

bool WireReader::u16(std::uint16_t* v) {
  const void* p;
  if (!take("u16", 2, &p)) return false;
  *v = load_le<std::uint16_t>(static_cast<const unsigned char*>(p));
  return true;
}

bool WireReader::u32(std::uint32_t* v) {
  const void* p;
  if (!take("u32", 4, &p)) return false;
  *v = load_le<std::uint32_t>(static_cast<const unsigned char*>(p));
  return true;
}

bool WireReader::u64(std::uint64_t* v) {
  const void* p;
  if (!take("u64", 8, &p)) return false;
  *v = load_le<std::uint64_t>(static_cast<const unsigned char*>(p));
  return true;
}

bool WireReader::i64(std::int64_t* v) {
  std::uint64_t u;
  if (!u64(&u)) return false;
  *v = static_cast<std::int64_t>(u);
  return true;
}

bool WireReader::f64(double* v) {
  std::uint64_t bits;
  if (!u64(&bits)) return false;
  std::memcpy(v, &bits, sizeof *v);
  return true;
}

bool WireReader::str(std::string* v, const char* what) {
  std::uint32_t len;
  const std::size_t at = offset_;
  if (!u32(&len)) return false;
  const void* p;
  if (size_ - offset_ < len) {
    error_ = "truncated " + std::string(what) + " at byte " +
             std::to_string(at) + " (declared " + std::to_string(len) +
             " bytes, have " + std::to_string(size_ - offset_) + ")";
    return false;
  }
  take(what, len, &p);
  v->assign(static_cast<const char*>(p), len);
  return true;
}

bool WireReader::blob(std::string* v, const char* what) {
  std::uint64_t len;
  const std::size_t at = offset_;
  if (!u64(&len)) return false;
  const void* p;
  if (size_ - offset_ < len) {
    error_ = "truncated " + std::string(what) + " at byte " +
             std::to_string(at) + " (declared " + std::to_string(len) +
             " bytes, have " + std::to_string(size_ - offset_) + ")";
    return false;
  }
  take(what, static_cast<std::size_t>(len), &p);
  v->assign(static_cast<const char*>(p), static_cast<std::size_t>(len));
  return true;
}

bool WireReader::expect_end() {
  if (!error_.empty()) return false;
  if (offset_ != size_) {
    error_ = "trailing garbage at byte " + std::to_string(offset_) + " (" +
             std::to_string(size_ - offset_) + " bytes past the payload)";
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// ScheduleRequest: the field tuple is shared by the schedule-req payload
// and the head of the repair-req payload.

namespace {

void write_request_fields(WireWriter& w, const ScheduleRequest& request) {
  w.u8(request.version);
  w.u8(request.no_cache ? 1 : 0);
  w.u64(request.dag_hash);
  w.blob(request.dag_bytes);
  w.str(request.machine_spec);
  w.str(request.scheduler);
  w.u8(request.cost_model);
  w.f64(request.budget_ms);
  w.i64(request.max_iterations);
  w.u64(request.seed);
  w.f64(request.deadline_ms);
}

void read_request_fields(WireReader& r, ScheduleRequest* request) {
  std::uint8_t no_cache = 0;
  r.u8(&request->version);
  r.u8(&no_cache);
  r.u64(&request->dag_hash);
  r.blob(&request->dag_bytes, "inline dag payload");
  r.str(&request->machine_spec, "machine spec");
  r.str(&request->scheduler, "scheduler name");
  r.u8(&request->cost_model);
  r.f64(&request->budget_ms);
  r.i64(&request->max_iterations);
  r.u64(&request->seed);
  r.f64(&request->deadline_ms);
  request->no_cache = no_cache != 0;
}

}  // namespace

std::string encode_schedule_request(const ScheduleRequest& request) {
  WireWriter w;
  write_request_fields(w, request);
  return w.take();
}

bool decode_schedule_request(const std::string& payload,
                             ScheduleRequest* request, std::string* error) {
  WireReader r(payload);
  read_request_fields(r, request);
  if (!r.expect_end()) {
    if (error != nullptr) *error = "schedule request: " + r.error();
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// InstanceDelta and RepairRequest

void encode_instance_delta(WireWriter& w, const InstanceDelta& delta) {
  w.u32(static_cast<std::uint32_t>(delta.ops.size()));
  for (const InstanceDeltaOp& op : delta.ops) {
    w.u8(static_cast<std::uint8_t>(op.kind));
    w.i64(op.u);
    w.i64(op.v);
    w.f64(op.omega);
    w.f64(op.mu);
    w.i64(op.proc);
    w.f64(op.capacity);
  }
}

bool decode_instance_delta(WireReader& r, InstanceDelta* delta) {
  std::uint32_t count = 0;
  if (!r.u32(&count)) return false;
  delta->ops.clear();
  delta->ops.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    InstanceDeltaOp op;
    std::uint8_t kind = 0;
    std::int64_t u = 0, v = 0, proc = 0;
    if (!r.u8(&kind) || !r.i64(&u) || !r.i64(&v) || !r.f64(&op.omega) ||
        !r.f64(&op.mu) || !r.i64(&proc) || !r.f64(&op.capacity)) {
      return false;
    }
    // Semantic check the reader can't express: callers distinguish this
    // from truncation by r.ok() staying true.
    if (kind > static_cast<std::uint8_t>(InstanceDeltaOpKind::kShrinkMemory)) {
      return false;
    }
    op.kind = static_cast<InstanceDeltaOpKind>(kind);
    op.u = static_cast<NodeId>(u);
    op.v = static_cast<NodeId>(v);
    op.proc = static_cast<int>(proc);
    delta->ops.push_back(op);
  }
  return true;
}

std::string encode_repair_request(const RepairRequest& request) {
  WireWriter w;
  write_request_fields(w, request);
  encode_instance_delta(w, request.delta);
  return w.take();
}

bool decode_repair_request(const std::string& payload, RepairRequest* request,
                           std::string* error, WireError* code) {
  WireReader r(payload);
  read_request_fields(r, request);
  const bool delta_ok = decode_instance_delta(r, &request->delta);
  if (!delta_ok || !r.expect_end()) {
    // A structurally intact payload with an unknown op kind is the
    // client's delta at fault, not the framing.
    const bool bad_delta = r.ok();
    if (code != nullptr) {
      *code = bad_delta ? WireError::kBadDelta : WireError::kBadRequest;
    }
    if (error != nullptr) {
      *error = "repair request: " +
               (bad_delta ? "bad delta op kind" : r.error());
    }
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Plans and FinalResult

void encode_plan(WireWriter& w, const ComputePlan& plan) {
  w.u32(static_cast<std::uint32_t>(plan.num_procs));
  for (const auto& seq : plan.seq) {
    w.u64(seq.size());
    for (const PlannedCompute& pc : seq) {
      w.u32(pc.node);
      w.u32(static_cast<std::uint32_t>(pc.superstep));
    }
  }
}

bool decode_plan(WireReader& r, ComputePlan* plan) {
  std::uint32_t num_procs;
  if (!r.u32(&num_procs)) return false;
  plan->num_procs = static_cast<int>(num_procs);
  plan->seq.assign(num_procs, {});
  for (std::uint32_t p = 0; p < num_procs; ++p) {
    std::uint64_t count;
    if (!r.u64(&count)) return false;
    plan->seq[p].reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
      std::uint32_t node, superstep;
      if (!r.u32(&node) || !r.u32(&superstep)) return false;
      plan->seq[p].push_back(
          {static_cast<NodeId>(node), static_cast<int>(superstep)});
    }
  }
  return true;
}

std::string encode_final_result(const FinalResult& result) {
  WireWriter w;
  w.u64(result.dag_hash);
  w.str(result.machine);
  w.str(result.scheduler);
  w.u8(result.cost_model);
  w.u8(static_cast<std::uint8_t>(result.cache));
  w.f64(result.cost);
  w.f64(result.baseline_cost);
  w.f64(result.io_volume);
  w.u32(result.supersteps);
  encode_plan(w, result.plan);
  return w.take();
}

bool decode_final_result(const std::string& payload, FinalResult* result,
                         std::string* error) {
  WireReader r(payload);
  std::uint8_t cache = 0;
  r.u64(&result->dag_hash);
  r.str(&result->machine, "machine name");
  r.str(&result->scheduler, "scheduler name");
  r.u8(&result->cost_model);
  r.u8(&cache);
  r.f64(&result->cost);
  r.f64(&result->baseline_cost);
  r.f64(&result->io_volume);
  r.u32(&result->supersteps);
  decode_plan(r, &result->plan);
  if (!r.expect_end()) {
    if (error != nullptr) *error = "final result: " + r.error();
    return false;
  }
  result->cache = static_cast<CacheStatus>(cache);
  return true;
}

// ---------------------------------------------------------------------------
// Progress / status / error / stats

std::string encode_progress(const ProgressFrame& progress) {
  WireWriter w;
  w.u8(progress.stage);
  w.f64(progress.cost);
  w.i64(progress.iterations);
  return w.take();
}

bool decode_progress(const std::string& payload, ProgressFrame* progress,
                     std::string* error) {
  WireReader r(payload);
  r.u8(&progress->stage);
  r.f64(&progress->cost);
  r.i64(&progress->iterations);
  if (!r.expect_end()) {
    if (error != nullptr) *error = "progress frame: " + r.error();
    return false;
  }
  return true;
}

std::string encode_status(const std::string& message) {
  WireWriter w;
  w.str(message);
  return w.take();
}

bool decode_status(const std::string& payload, std::string* message,
                   std::string* error) {
  WireReader r(payload);
  r.str(message, "status message");
  if (!r.expect_end()) {
    if (error != nullptr) *error = "status frame: " + r.error();
    return false;
  }
  return true;
}

std::string encode_error(const ErrorFrame& err) {
  WireWriter w;
  w.u16(static_cast<std::uint16_t>(err.code));
  w.str(err.message);
  return w.take();
}

bool decode_error(const std::string& payload, ErrorFrame* err,
                  std::string* error) {
  WireReader r(payload);
  std::uint16_t code = 0;
  r.u16(&code);
  r.str(&err->message, "error message");
  if (!r.expect_end()) {
    if (error != nullptr) *error = "error frame: " + r.error();
    return false;
  }
  err->code = static_cast<WireError>(code);
  return true;
}

std::string encode_stats(const DaemonStats& stats) {
  WireWriter w;
  w.u64(stats.requests);
  w.u64(stats.exact_hits);
  w.u64(stats.warm_hits);
  w.u64(stats.misses);
  w.u64(stats.insertions);
  w.u64(stats.evictions);
  w.u64(stats.solver_calls);
  w.u64(stats.protocol_errors);
  w.u64(stats.cache_entries);
  w.u64(stats.cache_capacity);
  w.u64(stats.active_connections);
  w.u64(stats.repair_requests);
  w.u64(stats.repair_hits);
  return w.take();
}

bool decode_stats(const std::string& payload, DaemonStats* stats,
                  std::string* error) {
  WireReader r(payload);
  r.u64(&stats->requests);
  r.u64(&stats->exact_hits);
  r.u64(&stats->warm_hits);
  r.u64(&stats->misses);
  r.u64(&stats->insertions);
  r.u64(&stats->evictions);
  r.u64(&stats->solver_calls);
  r.u64(&stats->protocol_errors);
  r.u64(&stats->cache_entries);
  r.u64(&stats->cache_capacity);
  r.u64(&stats->active_connections);
  r.u64(&stats->repair_requests);
  r.u64(&stats->repair_hits);
  if (!r.expect_end()) {
    if (error != nullptr) *error = "stats frame: " + r.error();
    return false;
  }
  return true;
}

}  // namespace mbsp::daemon
