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
//
// Mappings are made once per process. A dying ZeroPages makes its pages read
// all-zero again and hands the mapping, guard page included, to a
// process-wide pool keyed by usable byte size; a new ZeroPages of that size
// takes the oldest pooled mapping before it maps a new one (zero_pages.cpp).
// A fleet worker that boots an engine per epoch thus faults its slabs in
// once, not once per engine.
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>

namespace gilfree {

namespace zero_pages {

/// At least `bytes` all-zero bytes, page-aligned, in whole pages followed by
/// a PROT_NONE guard page: the oldest pooled mapping of that many pages,
/// else a new one. Throws std::bad_alloc when the kernel refuses.
void* acquire(std::size_t bytes);

/// Makes the mapping from acquire(bytes) read all-zero again and pools it.
void release(void* p, std::size_t bytes) noexcept;

/// What the pool has done in this process.
struct PoolStats {
  std::size_t mapped = 0;    ///< Mappings made with mmap.
  std::size_t recycled = 0;  ///< acquire() calls served from the pool.
};
PoolStats pool_stats();

/// Unmaps every pooled mapping, so the next acquire() of any size maps
/// fresh memory.
void trim();

}  // namespace zero_pages

template <typename T>
class ZeroPages {
  static_assert(std::is_trivially_default_constructible_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "ZeroPages hands out all-zero objects it never constructs");

 public:
  ZeroPages() = default;

  /// `count` all-zero Ts, page-aligned, then the guard page.
  explicit ZeroPages(std::size_t count) : count_(count), map_(map(count)) {}

  T* get() const { return map_.get(); }
  std::size_t size() const { return count_; }
  T& operator[](std::size_t i) const { return map_[i]; }

 private:
  struct Release {
    std::size_t bytes = 0;
    void operator()(T* p) const { zero_pages::release(p, bytes); }
  };

  static std::unique_ptr<T[], Release> map(std::size_t count) {
    const std::size_t bytes = count * sizeof(T);
    return {static_cast<T*>(zero_pages::acquire(bytes)), Release{bytes}};
  }

  std::size_t count_ = 0;
  std::unique_ptr<T[], Release> map_;
};

}  // namespace gilfree
