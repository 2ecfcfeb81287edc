// Anonymous zero-fill-on-demand memory for simulated-memory slabs.
//
// Heap slabs and VM stacks are large and mostly untouched by any one run.
// Mapping them as anonymous pages lets the kernel zero each page on first
// touch, so a slab costs resident memory (and zeroing time) only for the
// pages a run actually uses. Pages are aligned far beyond the worst-case
// 256 B cache line, so which objects share a simulated line never depends
// on where a slab landed.
//
// Every mapping is followed by one PROT_NONE guard page: running off the end
// of a slab faults in every build, not only under a sanitizer's redzones.
#pragma once

#include <sys/mman.h>
#include <unistd.h>

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>

namespace gilfree {

template <typename T>
class ZeroPages {
  static_assert(std::is_trivially_default_constructible_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "ZeroPages hands out all-zero objects it never constructs");

 public:
  ZeroPages() = default;

  /// Maps `count` all-zero Ts, page-aligned, then the guard page.
  explicit ZeroPages(std::size_t count) : count_(count), map_(map(count)) {}

  T* get() const { return map_.get(); }
  std::size_t size() const { return count_; }
  T& operator[](std::size_t i) const { return map_[i]; }

 private:
  struct Unmap {
    std::size_t bytes = 0;
    void operator()(T* p) const { ::munmap(p, bytes); }
  };

  static std::unique_ptr<T[], Unmap> map(std::size_t count) {
    const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    const std::size_t usable = (count * sizeof(T) + page - 1) / page * page;
    const std::size_t bytes = usable + page;
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    std::unique_ptr<T[], Unmap> owned(static_cast<T*>(p), Unmap{bytes});
    if (::mprotect(static_cast<std::byte*>(p) + usable, page, PROT_NONE) != 0)
      throw std::bad_alloc();
    return owned;
  }

  std::size_t count_ = 0;
  std::unique_ptr<T[], Unmap> map_;
};

}  // namespace gilfree
