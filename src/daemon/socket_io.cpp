#include "src/daemon/socket_io.hpp"

#include <cstring>

#include "src/util/little_endian.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#include <cerrno>
#endif

namespace mbsp::daemon {

#if defined(__unix__) || defined(__APPLE__)

namespace {

#if defined(MSG_NOSIGNAL)
constexpr int kSendFlags = MSG_NOSIGNAL;
#else
constexpr int kSendFlags = 0;  // macOS: callers must ignore SIGPIPE
#endif

/// Reads exactly `size` bytes; returns the byte count read before EOF /
/// error (== size on success). Retries EINTR.
std::size_t read_exact(int fd, void* buffer, std::size_t size) {
  auto* out = static_cast<char*>(buffer);
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(fd, out + got, size - got);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
    } else if (n == 0) {
      break;  // EOF
    } else if (errno != EINTR) {
      break;
    }
  }
  return got;
}

bool write_all(int fd, const void* buffer, std::size_t size,
               std::string* error) {
  const auto* data = static_cast<const char*>(buffer);
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, kSendFlags);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      if (error != nullptr) {
        *error = "write failed: " + std::string(std::strerror(errno));
      }
      return false;
    }
  }
  return true;
}

}  // namespace

bool read_frame(int fd, Frame* frame, std::size_t max_payload,
                bool accept_responses, WireError* code, std::string* error,
                bool* clean_eof) {
  if (clean_eof != nullptr) *clean_eof = false;
  unsigned char header[kFrameHeaderSize];
  const std::size_t got = read_exact(fd, header, sizeof header);
  if (got == 0) {
    if (clean_eof != nullptr) *clean_eof = true;
    if (code != nullptr) *code = WireError::kTruncatedFrame;
    if (error != nullptr) *error = "connection closed";
    return false;
  }
  if (got < sizeof header) {
    if (code != nullptr) *code = WireError::kTruncatedFrame;
    if (error != nullptr) {
      *error = "truncated frame header: got " + std::to_string(got) + " of " +
               std::to_string(sizeof header) + " bytes";
    }
    return false;
  }
  if (std::memcmp(header, kFrameMagic, sizeof kFrameMagic) != 0) {
    if (code != nullptr) *code = WireError::kBadMagic;
    if (error != nullptr) {
      *error = "bad frame magic at byte 0 (expected \"MBPD\")";
    }
    return false;
  }
  const auto type = static_cast<FrameType>(header[4]);
  const bool valid_type =
      accept_responses
          ? (type == FrameType::kStatus || type == FrameType::kProgress ||
             type == FrameType::kStatsReply || type == FrameType::kPong ||
             type == FrameType::kFinal || type == FrameType::kError)
          : is_request_frame(type);
  if (!valid_type) {
    if (code != nullptr) *code = WireError::kBadFrameType;
    if (error != nullptr) {
      *error = "unknown frame type 0x" + std::to_string(header[4]) +
               " at byte 4";
    }
    return false;
  }
  const auto payload_len = load_le<std::uint32_t>(header + 5);
  if (payload_len > max_payload) {
    if (code != nullptr) *code = WireError::kOversizedFrame;
    if (error != nullptr) {
      *error = "frame declares " + std::to_string(payload_len) +
               " payload bytes at byte 5; the limit is " +
               std::to_string(max_payload);
    }
    return false;
  }
  frame->type = type;
  frame->payload.resize(payload_len);
  if (payload_len > 0) {
    const std::size_t body = read_exact(fd, frame->payload.data(),
                                        payload_len);
    if (body < payload_len) {
      if (code != nullptr) *code = WireError::kTruncatedFrame;
      if (error != nullptr) {
        *error = "truncated frame payload: got " + std::to_string(body) +
                 " of the " + std::to_string(payload_len) +
                 " bytes declared at byte 5";
      }
      return false;
    }
  }
  if (code != nullptr) *code = WireError::kNone;
  return true;
}

bool write_frame(int fd, FrameType type, const std::string& payload,
                 std::string* error) {
  const std::string bytes = encode_frame(type, payload);
  return write_all(fd, bytes.data(), bytes.size(), error);
}

int unix_connect(const std::string& path, std::string* error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    if (error != nullptr) *error = "socket path too long: " + path;
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) {
      *error = "socket(): " + std::string(std::strerror(errno));
    }
    return -1;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    if (error != nullptr) {
      *error = "cannot connect to " + path + ": " +
               std::string(std::strerror(errno));
    }
    ::close(fd);
    return -1;
  }
  return fd;
}

int unix_listen(const std::string& path, int backlog, std::string* error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    if (error != nullptr) *error = "socket path too long: " + path;
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) {
      *error = "socket(): " + std::string(std::strerror(errno));
    }
    return -1;
  }
  ::unlink(path.c_str());  // a stale socket file from a previous run
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    if (error != nullptr) {
      *error = "cannot bind " + path + ": " +
               std::string(std::strerror(errno));
    }
    ::close(fd);
    return -1;
  }
  if (::listen(fd, backlog) != 0) {
    if (error != nullptr) {
      *error = "listen(): " + std::string(std::strerror(errno));
    }
    ::close(fd);
    ::unlink(path.c_str());
    return -1;
  }
  return fd;
}

#else  // !(__unix__ || __APPLE__)

namespace {
bool unsupported(std::string* error) {
  if (error != nullptr) {
    *error = "mbspd sockets require a POSIX platform";
  }
  return false;
}
}  // namespace

bool read_frame(int, Frame*, std::size_t, bool, WireError* code,
                std::string* error, bool* clean_eof) {
  if (clean_eof != nullptr) *clean_eof = false;
  if (code != nullptr) *code = WireError::kInternal;
  return unsupported(error);
}

bool write_frame(int, FrameType, const std::string&, std::string* error) {
  return unsupported(error);
}

int unix_connect(const std::string&, std::string* error) {
  unsupported(error);
  return -1;
}

int unix_listen(const std::string&, int, std::string* error) {
  unsupported(error);
  return -1;
}

#endif

}  // namespace mbsp::daemon
