#include "src/daemon/client.hpp"

#include "src/daemon/socket_io.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace mbsp::daemon {

namespace {

/// Replies have no server-imposed size cap; bound reads generously so a
/// corrupt length prefix cannot make the client allocate the universe.
constexpr std::size_t kMaxReplyBytes = 1u << 30;

}  // namespace

bool MbspClient::connect(const std::string& socket_path, std::string* error) {
  close();
  fd_ = unix_connect(socket_path, error);
  return fd_ >= 0;
}

void MbspClient::close() {
#if defined(__unix__) || defined(__APPLE__)
  if (fd_ >= 0) ::close(fd_);
#endif
  fd_ = -1;
}

bool MbspClient::read_reply(Frame* frame, std::string* error) {
  WireError code;
  bool clean_eof;
  return read_frame(fd_, frame, kMaxReplyBytes, /*accept_responses=*/true,
                    &code, error, &clean_eof);
}

bool MbspClient::send_raw(const std::string& bytes, std::string* error) {
  // Bytes go out exactly as given (write_frame would add a header) — the
  // protocol-robustness tests inject malformed frames through this.
#if defined(__unix__) || defined(__APPLE__)
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::write(fd_, bytes.data() + sent, bytes.size() - sent);
    if (n <= 0) {
      if (error != nullptr) *error = "raw write failed";
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
#else
  if (error != nullptr) *error = "sockets unsupported on this platform";
  return false;
#endif
}

bool MbspClient::ping(std::string* error) {
  if (!write_frame(fd_, FrameType::kPing, "", error)) return false;
  Frame frame;
  if (!read_reply(&frame, error)) return false;
  if (frame.type != FrameType::kPong) {
    if (error != nullptr) *error = "expected pong, got another frame";
    return false;
  }
  return true;
}

bool MbspClient::stats(DaemonStats* out, std::string* error) {
  if (!write_frame(fd_, FrameType::kStatsRequest, "", error)) return false;
  Frame frame;
  if (!read_reply(&frame, error)) return false;
  if (frame.type != FrameType::kStatsReply) {
    if (error != nullptr) *error = "expected stats reply, got another frame";
    return false;
  }
  return decode_stats(frame.payload, out, error);
}

bool MbspClient::run(const ScheduleRequest& request, Outcome* outcome,
                     std::string* error) {
  return round_trip(FrameType::kScheduleRequest,
                    encode_schedule_request(request), outcome, error);
}

bool MbspClient::repair(const RepairRequest& request, Outcome* outcome,
                        std::string* error) {
  return round_trip(FrameType::kRepairRequest, encode_repair_request(request),
                    outcome, error);
}

bool MbspClient::round_trip(FrameType type, const std::string& payload,
                            Outcome* outcome, std::string* error) {
  *outcome = Outcome{};
  if (!write_frame(fd_, type, payload, error)) return false;
  while (true) {
    Frame frame;
    if (!read_reply(&frame, error)) return false;
    switch (frame.type) {
      case FrameType::kStatus: {
        std::string message;
        if (!decode_status(frame.payload, &message, error)) return false;
        outcome->statuses.push_back(std::move(message));
        break;
      }
      case FrameType::kProgress: {
        ProgressFrame progress;
        if (!decode_progress(frame.payload, &progress, error)) return false;
        outcome->progress.push_back(progress);
        break;
      }
      case FrameType::kFinal:
        if (!decode_final_result(frame.payload, &outcome->final, error)) {
          return false;
        }
        outcome->ok = true;
        return true;
      case FrameType::kError:
        if (!decode_error(frame.payload, &outcome->error, error)) {
          return false;
        }
        outcome->ok = false;
        return true;  // transport fine; the daemon answered with a typed error
      default:
        if (error != nullptr) {
          *error = "unexpected frame type in schedule reply stream";
        }
        return false;
    }
  }
}

}  // namespace mbsp::daemon
