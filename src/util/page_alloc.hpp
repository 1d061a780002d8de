#pragma once
// Page-mapped storage for large arrays with a lifetime (docs/PERFORMANCE.md
// "Memory layout").
//
// The incremental evaluator allocates arrays of n and P·n entries that live
// exactly as long as one attach: tens of MB at n = 1e5. Through malloc,
// glibc's dynamic mmap threshold makes their footprint depend on history:
// freeing a large mapped block raises the threshold to that block's size,
// so later blocks of up to that size come from a heap arena instead, where
// a freed block stays resident, in whichever arena the allocating thread
// happened to get. Peak RSS then follows thread timing from run to run.
//
// Blocks of at least kPageAllocMinBytes (glibc's initial mmap threshold)
// are therefore mapped straight from the OS and unmapped when freed: they
// never pass through malloc, so they neither move its threshold nor stay
// resident after their owner is gone. Smaller blocks use operator new.

#include <sys/mman.h>

#include <cstddef>
#include <new>
#include <vector>

namespace mbsp {

inline constexpr std::size_t kPageAllocMinBytes = std::size_t{128} << 10;

/// `bytes` of storage aligned to alignof(std::max_align_t) at least; free
/// it with page_free and the same size.
inline void* page_alloc(std::size_t bytes) {
  if (bytes < kPageAllocMinBytes) return ::operator new(bytes);
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}

inline void page_free(void* p, std::size_t bytes) noexcept {
  if (bytes < kPageAllocMinBytes) {
    ::operator delete(p);
  } else {
    ::munmap(p, bytes);
  }
}

template <typename T>
struct PageAllocator {
  using value_type = T;
  static_assert(alignof(T) <= alignof(std::max_align_t));

  PageAllocator() = default;
  template <typename U>
  PageAllocator(const PageAllocator<U>&) noexcept {}

  T* allocate(std::size_t count) {
    return static_cast<T*>(page_alloc(count * sizeof(T)));
  }
  void deallocate(T* p, std::size_t count) noexcept {
    page_free(p, count * sizeof(T));
  }

  template <typename U>
  bool operator==(const PageAllocator<U>&) const noexcept {
    return true;
  }
};

template <typename T>
using PageVector = std::vector<T, PageAllocator<T>>;

}  // namespace mbsp
