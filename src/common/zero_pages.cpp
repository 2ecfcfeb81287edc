#include "common/zero_pages.hpp"

#include <sanitizer/asan_interface.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <new>
#include <vector>

namespace gilfree::zero_pages {

namespace {

std::size_t page_bytes() {
  static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

/// `bytes` rounded up to whole pages: a mapping's usable size.
std::size_t whole_pages(std::size_t bytes) {
  const std::size_t page = page_bytes();
  return (bytes + page - 1) / page * page;
}

/// Pooled mappings by usable size, oldest first. FIFO, not LIFO: a run's
/// blocks then come back in the roles they had in the last run, where a
/// LIFO pool raised a fleet worker's peak RSS from 18 to 26 MB.
struct Pool {
  std::mutex mu;
  std::map<std::size_t, std::deque<void*>> free;
  PoolStats stats;
};

/// Never destroyed: a ZeroPages may die during static destruction.
Pool& pool() {
  static Pool* p = new Pool;
  return *p;
}

/// Makes [p, p + usable) read all-zero. Resident pages are cleared in place,
/// so the next owner finds them resident; the rest are dropped, which also
/// covers a page that was swapped out. False if the kernel refused.
bool rezero(std::byte* p, std::size_t usable) {
  const std::size_t page = page_bytes();
  const std::size_t pages = usable / page;
  std::vector<unsigned char> resident(pages);
  if (::mincore(p, usable, resident.data()) != 0) return false;
  for (std::size_t i = 0; i < pages;) {
    const bool in = (resident[i] & 1) != 0;
    std::size_t end = i + 1;
    while (end < pages && ((resident[end] & 1) != 0) == in) ++end;
    std::byte* run = p + i * page;
    const std::size_t bytes = (end - i) * page;
    if (in) {
      std::memset(run, 0, bytes);
    } else if (::madvise(run, bytes, MADV_DONTNEED) != 0) {
      return false;
    }
    i = end;
  }
  return true;
}

}  // namespace

void* acquire(std::size_t bytes) {
  const std::size_t page = page_bytes();
  const std::size_t usable = whole_pages(bytes);
  Pool& pl = pool();
  {
    const std::lock_guard lock(pl.mu);
    const auto it = pl.free.find(usable);
    if (it != pl.free.end() && !it->second.empty()) {
      void* p = it->second.front();
      it->second.pop_front();
      ++pl.stats.recycled;
      ASAN_UNPOISON_MEMORY_REGION(p, usable);
      return p;
    }
  }
  void* p = ::mmap(nullptr, usable + page, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  if (::mprotect(static_cast<std::byte*>(p) + usable, page, PROT_NONE) != 0) {
    ::munmap(p, usable + page);
    throw std::bad_alloc();
  }
  const std::lock_guard lock(pl.mu);
  ++pl.stats.mapped;
  return p;
}

void release(void* p, std::size_t bytes) noexcept {
  const std::size_t usable = whole_pages(bytes);
  if (!rezero(static_cast<std::byte*>(p), usable)) {
    ::munmap(p, usable + page_bytes());
    return;
  }
  // A use after release reads zeros instead of faulting; the sanitizer
  // build reports it instead.
  ASAN_POISON_MEMORY_REGION(p, usable);
  Pool& pl = pool();
  const std::lock_guard lock(pl.mu);
  pl.free[usable].push_back(p);
}

PoolStats pool_stats() {
  Pool& pl = pool();
  const std::lock_guard lock(pl.mu);
  return pl.stats;
}

void trim() {
  Pool& pl = pool();
  const std::lock_guard lock(pl.mu);
  for (const auto& [usable, maps] : pl.free) {
    for (void* p : maps) {
      ASAN_UNPOISON_MEMORY_REGION(p, usable);
      ::munmap(p, usable + page_bytes());
    }
  }
  pl.free.clear();
}

}  // namespace gilfree::zero_pages
