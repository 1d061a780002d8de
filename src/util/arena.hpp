#pragma once
// Bump/arena allocation for the LNS hot path (docs/PERFORMANCE.md).
//
// The incremental evaluator runs millions of evaluations per second; each
// evaluation needs short-lived, variably-sized scratch (checkpoint cache
// rows, per-slot operation lists). Allocating that scratch through the
// general-purpose heap puts malloc/free on the hottest loop of the
// system. An Arena instead hands out pointers by bumping a cursor through
// chunked blocks; `reset()` makes every allocation reusable at once
// without returning memory to the OS, so steady-state evaluation performs
// no heap traffic at all.
//
// Two deliberate design points:
//  * Allocations are never freed individually; the owner resets the whole
//    arena at a well-defined point (per evaluation / per move). This is
//    exactly the lifetime the evaluator scratch has.
//  * `paranoid` mode (set via MBSP_ARENA_MODE=heap or set_paranoid())
//    routes every allocation to a fresh heap block poisoned with a junk
//    byte, and reset() frees them all. Differential tests run the same
//    workload in both modes and require bitwise-identical results, which
//    catches any accidental dependence on recycled arena contents.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/util/page_alloc.hpp"

namespace mbsp {

class Arena {
 public:
  explicit Arena(std::size_t chunk_bytes = 1 << 16)
      : chunk_bytes_(chunk_bytes) {}
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  ~Arena() { release(); }

  /// Bump-allocates `bytes` aligned to `align` (a power of two).
  void* allocate(std::size_t bytes, std::size_t align = alignof(std::max_align_t)) {
    if (bytes == 0) bytes = 1;
    if (paranoid_) {
      void* p = ::operator new(bytes, std::align_val_t(align));
      std::memset(p, 0xAB, bytes);  // poison: no zero-init assumptions
      paranoid_blocks_.push_back({p, align});
      return p;
    }
    std::uintptr_t cur = reinterpret_cast<std::uintptr_t>(cursor_);
    std::uintptr_t aligned = (cur + (align - 1)) & ~(align - 1);
    if (aligned + bytes > reinterpret_cast<std::uintptr_t>(chunk_end_)) {
      grow(bytes + align);
      cur = reinterpret_cast<std::uintptr_t>(cursor_);
      aligned = (cur + (align - 1)) & ~(align - 1);
    }
    cursor_ = reinterpret_cast<char*>(aligned + bytes);
    return reinterpret_cast<void*>(aligned);
  }

  template <typename T>
  T* allocate_array(std::size_t count) {
    return static_cast<T*>(allocate(count * sizeof(T), alignof(T)));
  }

  /// Makes every allocation reusable. Keeps the chunks (steady state:
  /// zero heap traffic); in paranoid mode frees every block instead.
  void reset() {
    if (paranoid_) {
      for (const auto& [p, align] : paranoid_blocks_) {
        ::operator delete(p, std::align_val_t(align));
      }
      paranoid_blocks_.clear();
      return;
    }
    chunk_at_ = 0;
    if (!chunks_.empty()) {
      cursor_ = chunks_[0].data;
      chunk_end_ = chunks_[0].data + chunks_[0].size;
    } else {
      cursor_ = chunk_end_ = nullptr;
    }
  }

  /// Frees all chunks (back to a freshly constructed arena).
  void release() {
    reset();
    for (const Chunk& c : chunks_) page_free(c.data, c.size);
    chunks_.clear();
    cursor_ = chunk_end_ = nullptr;
    chunk_at_ = 0;
  }

  /// Total bytes held in chunks (capacity, not live allocations).
  std::size_t capacity_bytes() const {
    std::size_t total = 0;
    for (const Chunk& c : chunks_) total += c.size;
    return total;
  }

  bool paranoid() const { return paranoid_; }
  /// Paranoid (heap-per-allocation) mode; see the header comment. Only
  /// meaningful while the arena is empty/reset.
  void set_paranoid(bool on) { paranoid_ = on; }

 private:
  struct Chunk {
    char* data = nullptr;
    std::size_t size = 0;
  };

  void grow(std::size_t at_least) {
    // Reuse the next retained chunk when it is big enough; otherwise
    // allocate a new one of at least chunk_bytes_.
    while (chunk_at_ + 1 < chunks_.size()) {
      ++chunk_at_;
      if (chunks_[chunk_at_].size >= at_least) {
        cursor_ = chunks_[chunk_at_].data;
        chunk_end_ = cursor_ + chunks_[chunk_at_].size;
        return;
      }
    }
    const std::size_t size = at_least > chunk_bytes_ ? at_least : chunk_bytes_;
    Chunk c;
    c.data = static_cast<char*>(page_alloc(size));
    c.size = size;
    chunks_.push_back(c);
    chunk_at_ = chunks_.size() - 1;
    cursor_ = c.data;
    chunk_end_ = c.data + c.size;
  }

  std::size_t chunk_bytes_;
  std::vector<Chunk> chunks_;
  std::size_t chunk_at_ = 0;
  char* cursor_ = nullptr;
  char* chunk_end_ = nullptr;
  bool paranoid_ = false;
  std::vector<std::pair<void*, std::size_t>> paranoid_blocks_;
};

/// Growable array backed by an Arena: push_back reallocates from the
/// arena (the old block is abandoned until the next reset — bounded
/// waste, zero free cost). For trivially copyable T only.
template <typename T>
class ArenaVector {
 public:
  ArenaVector() = default;
  explicit ArenaVector(Arena* arena) : arena_(arena) {}

  void attach(Arena* arena) {
    arena_ = arena;
    data_ = nullptr;
    size_ = cap_ = 0;
  }

  /// Forget the contents (the backing memory stays with the arena).
  void clear() {
    data_ = nullptr;
    size_ = cap_ = 0;
  }

  void push_back(const T& value) {
    if (size_ == cap_) grow();
    data_[size_++] = value;
  }

  void append(const T* src, std::size_t count) {
    // An empty append may carry null pointers (an empty std::vector's
    // data()); memcpy must not see them, even for zero bytes.
    if (count == 0) return;
    while (size_ + count > cap_) grow();
    std::memcpy(data_ + size_, src, count * sizeof(T));
    size_ += count;
  }

  T* data() { return data_; }
  const T* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

 private:
  void grow() {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t new_cap = cap_ == 0 ? 8 : cap_ * 2;
    T* fresh = arena_->allocate_array<T>(new_cap);
    if (size_ > 0) std::memcpy(fresh, data_, size_ * sizeof(T));
    data_ = fresh;
    cap_ = new_cap;
  }

  Arena* arena_ = nullptr;
  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t cap_ = 0;
};

}  // namespace mbsp
