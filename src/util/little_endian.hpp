#pragma once
// The one little-endian layout of a fixed-width unsigned word: the
// mbsp-dag v2 bytes and their canonical hash stream (src/graph/dag_io.cpp)
// and the daemon's wire frames (src/daemon/protocol.cpp, socket_io.cpp)
// are all made of it.
#include <cstddef>

namespace mbsp {

/// Writes v's sizeof(T) bytes to out, least significant first.
template <typename T>
void store_le(unsigned char* out, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out[i] = static_cast<unsigned char>(v >> (8 * i));
  }
}

/// Reads the sizeof(T) bytes store_le wrote.
template <typename T>
T load_le(const unsigned char* in) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(static_cast<T>(in[i]) << (8 * i));
  }
  return v;
}

}  // namespace mbsp
